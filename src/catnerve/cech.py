"""Cech nerve levels of a cover and their simplicial structure maps.

A level-n simplex is an (n+1)-tuple of labels with its piece, the
intersection of the parts the tuple names (``Cover.piece``), a
``Subcategory`` and so a category itself.  Tuple discipline comes in
the three variants of ``covers.VARIANTS``: ``ordinary`` (arbitrary
tuples), ``ordered`` (weakly increasing in the cover's label order) and
``reduced`` (strictly increasing); the cover enumerates, counts and
checks its tuples.  Structure maps are induced by order-preserving maps
between finite ordinals and are always inclusions of intersections,
functors between the pieces themselves.
"""

from __future__ import annotations

from typing import Sequence

from .covers import MAX_TUPLES, VARIANTS, Cover, Subcategory  # VARIANTS is also read as cech.VARIANTS
from .fincat import FunctorMap, ValidationReport, Violation, identity_functor


def level(cover: Cover, n: int, variant: str = "ordinary") -> list[tuple[tuple[str, ...], Subcategory]]:
    """All ``(labels, piece)`` pairs at level n, tuples in lexicographic
    label order; ValueError, before any is listed, above ``MAX_TUPLES``
    tuples (``Cover.tuple_count``) or labels in a tuple.

    Each piece is the cover's own, shared with every tuple on the same
    label set; an empty one is the cover's one empty piece.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    count = cover.tuple_count(n + 1, variant)
    if count is None or count > MAX_TUPLES or n >= MAX_TUPLES:
        raise ValueError(f"{variant} level {n} has {'more than 2**64' if count is None else count} tuples"
                         f" of {n + 1} labels, above the bound {MAX_TUPLES}")
    # the cover's own tuples need no check
    return [(t, cover.piece(t)) for t in cover.tuples(n + 1, variant)]


# -- maps of finite ordinals ----------------------------------------------

def delta_face(i: int, n: int) -> tuple[int, ...]:
    """The injection [n-1] -> [n] that misses i."""
    if n < 1 or not 0 <= i <= n:
        raise ValueError(f"no face index {i} at level {n}")
    return tuple(j if j < i else j + 1 for j in range(n))


def delta_degeneracy(j: int, n: int) -> tuple[int, ...]:
    """The surjection [n+1] -> [n] that hits j twice."""
    if not 0 <= j <= n:
        raise ValueError(f"no degeneracy index {j} at level {n}")
    return tuple(k if k <= j else k - 1 for k in range(n + 2))


def induced_functor(
    cover: Cover, phi: Sequence[int], labels: Sequence[str], variant: str = "ordinary"
) -> FunctorMap:
    """Structure map of the nerve for phi: [m] -> [n] at a tuple of the variant.

    Relabelling a tuple along phi only ever drops or repeats labels, so
    the source intersection sits inside the target intersection and the
    functor is the inclusion.  Its source and target are the cover's
    own pieces, not copies.
    """
    cover.check_tuple(labels, variant)
    n = len(labels) - 1
    phi = tuple(phi)
    if not phi:
        raise ValueError("phi must be nonempty")
    for p in phi:
        if not 0 <= p <= n:
            raise ValueError(f"phi value {p} out of range for a tuple of length {n + 1}")
    if any(a > b for a, b in zip(phi, phi[1:])):
        raise ValueError(f"phi {phi} is not order-preserving")
    if variant == "reduced" and any(a >= b for a, b in zip(phi, phi[1:])):
        raise ValueError("reduced-variant structure maps must be injective")
    # an order-preserving phi (injective where reduced) keeps the variant
    tgt = cover.piece([labels[p] for p in phi])
    return identity_functor(cover.piece(labels))._replace(target=tgt)


def check_simplicial_identities(cover: Cover, up_to_n: int, variant: str = "ordinary") -> ValidationReport:
    """Verify the face/degeneracy identities on every tuple up to length up_to_n + 1.

    Both the composed inclusion functors and the relabelled tuples are
    compared.  The reduced variant has no degeneracies, so only the
    face/face identity is checked there.
    """
    if up_to_n < 0:
        raise ValueError("up_to_n must be >= 0")
    v: list[Violation] = []
    checked = 0

    def run(t: tuple[str, ...], first: Sequence[int], second: Sequence[int]) -> tuple[FunctorMap, tuple[str, ...]]:
        # apply ``first`` at t, then ``second`` at the relabelled tuple
        f1 = induced_functor(cover, first, t, variant)
        labels1 = tuple(t[p] for p in first)
        f2 = induced_functor(cover, second, labels1, variant)
        return f2.after(f1), tuple(labels1[p] for p in second)

    for length in range(1, up_to_n + 2):
        n = length - 1
        for labels in cover.tuples(length, variant):
            if n >= 2:
                for j in range(n + 1):
                    for i in range(j):
                        checked += 1
                        lhs, tl = run(labels, delta_face(j, n), delta_face(i, n - 1))
                        rhs, tr = run(labels, delta_face(i, n), delta_face(j - 1, n - 1))
                        if lhs != rhs or tl != tr:
                            v.append(Violation("simplicial-dd", labels + (str(i), str(j)),
                                               f"d_{i} d_{j} != d_{j - 1} d_{i} at {labels}"))
            if variant == "reduced":
                continue
            for j in range(n + 1):
                for i in range(j + 1):
                    checked += 1
                    lhs, tl = run(labels, delta_degeneracy(j, n), delta_degeneracy(i, n + 1))
                    rhs, tr = run(labels, delta_degeneracy(i, n), delta_degeneracy(j + 1, n + 1))
                    if lhs != rhs or tl != tr:
                        v.append(Violation("simplicial-ss", labels + (str(i), str(j)),
                                           f"s_{i} s_{j} != s_{j + 1} s_{i} at {labels}"))
            for j in range(n + 1):
                for i in range(n + 2):
                    checked += 1
                    lhs, tl = run(labels, delta_degeneracy(j, n), delta_face(i, n + 1))
                    if i in (j, j + 1):
                        if lhs != identity_functor(cover.piece(labels)) or tl != labels:
                            v.append(Violation("simplicial-ds", labels + (str(i), str(j)),
                                               f"d_{i} s_{j} != id at {labels}"))
                        continue
                    if i < j:
                        rhs, tr = run(labels, delta_face(i, n), delta_degeneracy(j - 1, n - 1))
                    else:
                        rhs, tr = run(labels, delta_face(i - 1, n), delta_degeneracy(j, n - 1))
                    if lhs != rhs or tl != tr:
                        v.append(Violation("simplicial-ds", labels + (str(i), str(j)),
                                           f"d_{i} s_{j} mismatch at {labels}"))

    return ValidationReport(tuple(v), details=(f"checked {checked} identity instances",))
