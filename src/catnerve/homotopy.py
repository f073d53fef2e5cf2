"""Rational homology of the nerve of a finite category.

Chains are the nondegenerate simplices of the nerve: composable strings
of non-identity morphisms, written as tuples of ints.  A 0-chain is
``(i,)`` for the object ``cat.objects[i]``; a k-chain (k >= 1) lists
the indices in ``cat.morphisms`` of its k arrows, first arrow first.
Boundaries alternate drop-first / compose / drop-last, so a face is a
slice of the tuple or one lookup in the composite table; a face whose
composite collapses to an identity is degenerate and contributes
nothing.  Boundary maps are sparse integer columns; ranks come from
``euler.rank``, an exact elimination over the rationals, so Betti
numbers carry no floating-point noise.

The ranks are found top-down by clearing (Chen and Kerber, "Persistent
homology computation with a twist", 2011): the leading columns of the
echelon basis of ``im d_k`` are k-chains whose columns of ``d_{k-1}``
lie in the span of the other columns, so that elimination skips them
(the argument is in ``euler.rank``).  It is the same single elimination
on fewer columns, and every rank it returns is the true rank.

Equality of Betti vectors is a necessary condition for the two nerves
to be weakly equivalent, not a sufficient one; the comparison here is a
detector of failure, not a certificate of success.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .euler import rank
from .fincat import FinCategory

Chain = tuple[int, ...]


def nerve_chains(cat: FinCategory, max_dim: Optional[int] = None) -> list[list[Chain]]:
    """Nondegenerate nerve simplices by dimension, as int tuples.

    Without ``max_dim`` the non-identity arrows must form no directed
    cycle (a cycle, an endomorphism loop included, yields chains in
    every dimension), and the list stops at the first empty level.
    ``FinCategory.is_acyclic`` checks this on the table as given, so a
    cycle is refused even in a category that was never validated.  With
    ``max_dim`` the enumeration is cut after that dimension regardless.
    A (k+1)-chain extends a k-chain by one arrow; a level lists its
    chains by that k-chain, then by the new arrow's place in
    ``cat.morphisms``.
    """
    if max_dim is not None and max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    if max_dim is None and not cat.is_acyclic():
        raise ValueError(
            "category is not acyclic; nondegenerate chains exist in every "
            "dimension, pass max_dim to truncate"
        )
    mors, ids = cat.morphisms, cat._idnames
    out: dict[str, list[Chain]] = {x: [] for x in cat.objects}
    for i, m in enumerate(mors):
        if m.dom in out and m.name not in ids:
            out[m.dom].append((i,))
    then = [out.get(m.cod, ()) for m in mors]  # the arrows that may follow arrow i
    levels = [[(i,) for i in range(len(cat.objects))]]
    d = 0
    while max_dim is None or d < max_dim:
        if d:
            nxt = [ch + a for ch in levels[d] for a in then[ch[-1]]]
        else:
            nxt = [a for x in cat.objects for a in out[x]]
        if not nxt:
            break
        levels.append(nxt)
        d += 1
    return levels


def boundary_matrix(cat: FinCategory, lower: list[Chain], upper: list[Chain]) -> list[dict[int, int]]:
    """Boundary map from ``upper`` to ``lower`` chains, one sparse column per
    upper chain (index into ``lower`` -> nonzero coefficient).

    An arrow's boundary is ``cod - dom``.  For longer chains each middle
    face looks its composite up once per pair of arrows.
    """
    index = {ch: i for i, ch in enumerate(lower)}
    mors = cat.morphisms
    cols: list[dict[int, int]] = []
    if upper and len(upper[0]) == 1:  # arrows, over objects
        obj = {x: (i,) for i, x in enumerate(cat.objects)}
        for (f,) in upper:
            a, b = index[obj[mors[f].dom]], index[obj[mors[f].cod]]
            cols.append({b: 1, a: -1} if a != b else {})
        return cols
    at = {m.name: i for i, m in enumerate(mors)}
    composite: dict[tuple[int, int], int] = {}  # (g, f) -> g o f, or -1 for an identity
    for ch in upper:
        k = len(ch)
        col = {index[ch[1:]]: 1}
        for i in range(1, k):
            pair = (ch[i], ch[i - 1])
            c = composite.get(pair)
            if c is None:
                gf = cat.compose(mors[pair[0]].name, mors[pair[1]].name)
                c = composite[pair] = -1 if cat.is_identity(gf) else at[gf]
            if c >= 0:
                j = index[ch[: i - 1] + (c,) + ch[i + 1 :]]
                col[j] = col.get(j, 0) + (-1 if i & 1 else 1)
        j = index[ch[:-1]]
        col[j] = col.get(j, 0) + (-1 if k & 1 else 1)
        cols.append({j: v for j, v in col.items() if v} if 0 in col.values() else col)
    return cols


def _composes_to_zero(outer: list[dict[int, int]], inner: list[dict[int, int]]) -> bool:
    """Whether ``outer`` after ``inner`` vanishes, both as sparse columns."""
    for col in inner:
        acc: dict[int, int] = {}
        for i, v in col.items():
            for j, w in outer[i].items():
                acc[j] = acc.get(j, 0) + v * w
        if any(acc.values()):
            return False
    return True


class ChainComplexQ(NamedTuple):
    """Chain groups (nondegenerate simplices) with their boundary maps."""

    levels: tuple[tuple[Chain, ...], ...]
    boundaries: tuple[list[dict[int, int]], ...]  # boundaries[k] : C_{k+1} -> C_k

    @property
    def basis_dims(self) -> tuple[int, ...]:
        return tuple(len(lv) for lv in self.levels)


def chain_complex(cat: FinCategory, max_dim: Optional[int] = None) -> ChainComplexQ:
    levels = nerve_chains(cat, max_dim)
    bnds = []
    for k in range(len(levels) - 1):
        d = boundary_matrix(cat, levels[k], levels[k + 1])
        bnds.append(d)
        if k > 0 and not _composes_to_zero(bnds[k - 1], d):
            raise RuntimeError(f"boundary square is nonzero between dims {k + 1} and {k - 1}")
    return ChainComplexQ(tuple(tuple(lv) for lv in levels), tuple(bnds))


class HomologyReport(NamedTuple):
    """Betti numbers over Q with the top-level alternating count.

    ``truncated`` marks a complex cut by ``max_dim`` while nonempty
    levels remained above; in that case ``euler_top`` is the partial
    alternating sum of basis dimensions, not an Euler characteristic.
    """

    betti: tuple[int, ...]
    basis_dims: tuple[int, ...]
    euler_top: Fraction
    truncated: bool


def betti_numbers(cat: FinCategory, max_dim: Optional[int] = None) -> HomologyReport:
    """Betti numbers of the nerve, exact over the rationals.

    With ``max_dim`` set, chains are enumerated one level past it so
    every reported number is the true Betti number of that dimension.
    Raises ValueError when ``max_dim`` is negative.
    """
    if max_dim is not None and max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    cut = None if max_dim is None else max_dim + 1
    cx = chain_complex(cat, cut)
    levels, bnds = cx.levels, cx.boundaries
    report_upto = len(levels) - 1 if max_dim is None else min(max_dim, len(levels) - 1)
    ranks = [0] * len(bnds)
    cleared: set[int] = set()
    for k in reversed(range(len(bnds))):  # the leads of d_k clear columns of d_{k-1}
        leads: set[int] = set()
        ranks[k] = rank(bnds[k], skip=cleared, leads=leads)
        cleared = leads
    betti = []
    for k in range(report_upto + 1):
        below = ranks[k - 1] if k >= 1 and k - 1 < len(ranks) else 0
        above = ranks[k] if k < len(ranks) else 0
        betti.append(len(levels[k]) - below - above)
    truncated = max_dim is not None and len(levels) > max_dim + 1
    dims = tuple(len(levels[k]) for k in range(report_upto + 1))
    euler_top = Fraction(sum(dims[0::2]) - sum(dims[1::2]))
    return HomologyReport(tuple(betti), dims, euler_top, truncated)


def _pad(t: tuple[int, ...], n: int) -> tuple[int, ...]:
    return t + (0,) * (n - len(t))


class HomologyComparison(NamedTuple):
    left: HomologyReport
    right: HomologyReport
    equal: bool
    compared_through: int


def compare_homology(
    left: FinCategory, right: FinCategory, max_dim: Optional[int] = None
) -> HomologyComparison:
    """Compare Betti vectors of two nerves, zero-padded to a common length.

    A mismatch certifies the nerves are not weakly equivalent; a match
    is only consistent with equivalence.  Without ``max_dim`` both
    categories must be acyclic and the comparison is over all dimensions;
    a negative ``max_dim`` raises ValueError.
    """
    a = betti_numbers(left, max_dim)
    b = betti_numbers(right, max_dim)
    n = max(len(a.betti), len(b.betti))
    equal = _pad(a.betti, n) == _pad(b.betti, n)
    return HomologyComparison(a, b, equal, n - 1)


def euler_consistency(cat: FinCategory) -> tuple[Fraction, Fraction]:
    """(weighting chi, alternating nerve count) for an acyclic category.

    For acyclic categories the weighting always exists and the two
    numbers agree; returned as a pair so tests can assert the equality
    rather than trust it.
    """
    from .euler import euler_characteristic

    res = euler_characteristic(cat)
    if res.chi is None:
        raise ValueError(f"no Euler characteristic: {res.reason}")
    top = betti_numbers(cat).euler_top
    return res.chi, top
