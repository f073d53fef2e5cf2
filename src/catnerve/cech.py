"""Cech nerve levels of a cover and their simplicial structure maps.

A level-n piece is the intersection of the parts named by an
(n+1)-tuple of labels.  Tuple discipline comes in three variants:
``ordinary`` (arbitrary tuples), ``ordered`` (weakly increasing in the
cover's label order) and ``reduced`` (strictly increasing).  Structure
maps are induced by order-preserving maps between finite ordinals and
are always inclusions of intersections.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from typing import Sequence

from .covers import Cover, Subcategory, intersect
from .fincat import FinCategory, FunctorMap, ValidationReport, Violation, identity_functor

VARIANTS = ("ordinary", "ordered", "reduced")

# ordinary levels grow like |labels|**(n+1); enumeration is capped
DEFAULT_ORDINARY_CAP = 4


@dataclass(frozen=True)
class IndexTuple:
    """A tuple of cover labels under one of the three tuple disciplines."""

    labels: tuple[str, ...]
    variant: str = "ordinary"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant: {self.variant!r}")
        if not self.labels:
            raise ValueError("index tuples are nonempty (levels start at 0)")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class NerveLevelPiece:
    """One summand of a nerve level: the tuple and the intersection."""

    tuple: IndexTuple
    category: Subcategory

    def __eq__(self, other):
        if not isinstance(other, NerveLevelPiece):
            return NotImplemented
        return self.tuple == other.tuple and self.category == other.category


def check_tuple(cover: Cover, t: IndexTuple) -> None:
    """Raise unless the tuple satisfies its variant constraint."""
    pos = [cover.position(a) for a in t.labels]  # raises on unknown labels
    if t.variant == "ordered":
        if any(a > b for a, b in zip(pos, pos[1:])):
            raise ValueError(f"tuple {t.labels} is not weakly increasing")
    elif t.variant == "reduced":
        if any(a >= b for a, b in zip(pos, pos[1:])):
            raise ValueError(f"tuple {t.labels} is not strictly increasing")


def level_piece(cover: Cover, t: IndexTuple) -> NerveLevelPiece:
    """The intersection of the parts named by the tuple.

    Empty intersections are materialized, not skipped.
    """
    check_tuple(cover, t)
    parts = [cover.parts[a] for a in dict.fromkeys(t.labels)]
    return NerveLevelPiece(t, intersect(parts))


def _enumerate_tuples(cover: Cover, length: int, variant: str):
    labels = cover.index_order
    if variant == "ordinary":
        return product(labels, repeat=length)
    if variant == "ordered":
        return combinations_with_replacement(labels, length)
    return combinations(labels, length)  # empty once length > len(labels)


def level(
    cover: Cover,
    n: int,
    variant: str = "ordinary",
    *,
    ordinary_cap: int = DEFAULT_ORDINARY_CAP,
) -> list[NerveLevelPiece]:
    """All pieces at level n, tuples in lexicographic label order."""
    if n < 0:
        raise ValueError("level must be >= 0")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    if variant == "ordinary" and n > ordinary_cap:
        raise ValueError(f"ordinary level {n} exceeds the enumeration cap {ordinary_cap}")
    return [level_piece(cover, IndexTuple(t, variant))
            for t in _enumerate_tuples(cover, n + 1, variant)]


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


def compose_delta(outer: Sequence[int], inner: Sequence[int]) -> tuple[int, ...]:
    """Composite ``outer after inner`` of ordinal maps given by images."""
    return tuple(outer[k] for k in inner)


def induced_functor(cover: Cover, phi: Sequence[int], t: IndexTuple) -> FunctorMap:
    """Structure map of the nerve for phi: [m] -> [n] at the tuple t.

    Relabelling a tuple along phi only ever drops or repeats labels, so
    the source intersection sits inside the target intersection and the
    functor is the inclusion.
    """
    check_tuple(cover, t)
    n = len(t.labels) - 1
    phi = tuple(phi)
    if not phi:
        raise ValueError("phi must be nonempty")
    for p in phi:
        if not 0 <= p <= n:
            raise ValueError(f"phi value {p} out of range for a tuple of length {n + 1}")
    if any(a > b for a, b in zip(phi, phi[1:])):
        raise ValueError(f"phi {phi} is not order-preserving")
    if t.variant == "reduced" and any(a >= b for a, b in zip(phi, phi[1:])):
        raise ValueError("reduced-variant structure maps must be injective")
    target_labels = tuple(t.labels[p] for p in phi)
    src = level_piece(cover, t).category.as_category()
    tgt = level_piece(cover, IndexTuple(target_labels, t.variant)).category.as_category()
    return FunctorMap(
        src,
        tgt,
        {x: x for x in src.objects},
        {m.name: m.name for m in src.morphisms},
    )


def face_functor(cover: Cover, t: IndexTuple, i: int) -> FunctorMap:
    return induced_functor(cover, delta_face(i, len(t.labels) - 1), t)


def degeneracy_functor(cover: Cover, t: IndexTuple, j: int) -> FunctorMap:
    return induced_functor(cover, delta_degeneracy(j, len(t.labels) - 1), t)


def check_simplicial_identities(cover: Cover, up_to_n: int, variant: str = "ordinary") -> ValidationReport:
    """Verify the face/degeneracy identities on every tuple up to length up_to_n + 1.

    Both the composed inclusion functors and the relabelled tuples are
    compared.  The reduced variant has no degeneracies, so only the
    face/face identity is checked there.
    """
    if up_to_n < 0:
        raise ValueError("up_to_n must be >= 0")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    v: list[Violation] = []
    checked = 0

    def run(t: IndexTuple, first: Sequence[int], second: Sequence[int]) -> tuple[FunctorMap, tuple[str, ...]]:
        # apply ``first`` at t, then ``second`` at the relabelled tuple
        f1 = induced_functor(cover, first, t)
        labels1 = tuple(t.labels[p] for p in first)
        f2 = induced_functor(cover, second, IndexTuple(labels1, t.variant))
        return f2.after(f1), tuple(labels1[p] for p in second)

    for length in range(1, up_to_n + 2):
        n = length - 1
        for labels in _enumerate_tuples(cover, length, variant):
            t = IndexTuple(labels, variant)
            if n >= 2:
                for j in range(n + 1):
                    for i in range(j):
                        checked += 1
                        lhs, tl = run(t, delta_face(j, n), delta_face(i, n - 1))
                        rhs, tr = run(t, delta_face(i, n), delta_face(j - 1, n - 1))
                        if lhs != rhs or tl != tr:
                            v.append(Violation("simplicial-dd", labels + (str(i), str(j)),
                                               f"d_{i} d_{j} != d_{j - 1} d_{i} at {labels}"))
            if variant == "reduced":
                continue
            for j in range(n + 1):
                for i in range(j + 1):
                    checked += 1
                    lhs, tl = run(t, delta_degeneracy(j, n), delta_degeneracy(i, n + 1))
                    rhs, tr = run(t, delta_degeneracy(i, n), delta_degeneracy(j + 1, n + 1))
                    if lhs != rhs or tl != tr:
                        v.append(Violation("simplicial-ss", labels + (str(i), str(j)),
                                           f"s_{i} s_{j} != s_{j + 1} s_{i} at {labels}"))
            for j in range(n + 1):
                for i in range(n + 2):
                    checked += 1
                    lhs, tl = run(t, delta_degeneracy(j, n), delta_face(i, n + 1))
                    if i in (j, j + 1):
                        piece = level_piece(cover, t).category.as_category()
                        if lhs != identity_functor(piece) or tl != t.labels:
                            v.append(Violation("simplicial-ds", labels + (str(i), str(j)),
                                               f"d_{i} s_{j} != id at {labels}"))
                        continue
                    if i < j:
                        rhs, tr = run(t, delta_face(i, n), delta_degeneracy(j - 1, n - 1))
                    else:
                        rhs, tr = run(t, delta_face(i - 1, n), delta_degeneracy(j, n - 1))
                    if lhs != rhs or tl != tr:
                        v.append(Violation("simplicial-ds", labels + (str(i), str(j)),
                                           f"d_{i} s_{j} mismatch at {labels}"))

    return ValidationReport(tuple(v), details=(f"checked {checked} identity instances",))
