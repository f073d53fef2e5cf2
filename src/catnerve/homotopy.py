"""Rational homology of the nerve of a finite category.

Chains are the nondegenerate simplices of the nerve: composable strings
of non-identity morphisms.  Boundaries alternate drop-first / compose /
drop-last; a face whose composite collapses to an identity is
degenerate and contributes nothing.  Boundary maps are sparse integer
columns; ranks come from ``euler.rank``, an exact elimination over the
rationals, so Betti numbers carry no floating-point noise.

Equality of Betti vectors is a necessary condition for the two nerves
to be weakly equivalent, not a sufficient one; the comparison here is a
detector of failure, not a certificate of success.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .euler import ZERO, rank
from .fincat import FinCategory


@dataclass(frozen=True)
class SimplexChain:
    """A nondegenerate simplex: ``start`` then ``dim`` non-identity arrows."""

    dim: int
    start: str
    morphisms: tuple[str, ...]

    def end(self, cat: FinCategory) -> str:
        return cat.mor(self.morphisms[-1]).cod if self.morphisms else self.start


def _face(cat: FinCategory, chain: SimplexChain, i: int) -> Optional[SimplexChain]:
    """The i-th face, or None when it is degenerate (identity composite)."""
    k, ms = chain.dim, chain.morphisms
    if i == 0:
        rest = ms[1:]
        start = cat.mor(ms[0]).cod
        return SimplexChain(k - 1, start, rest)
    if i == k:
        return SimplexChain(k - 1, chain.start, ms[:-1])
    comp = cat.compose(ms[i], ms[i - 1])
    if cat.is_identity(comp):
        return None
    return SimplexChain(k - 1, chain.start, ms[: i - 1] + (comp,) + ms[i + 1 :])


def nerve_chains(
    cat: FinCategory, max_dim: Optional[int] = None
) -> list[list[SimplexChain]]:
    """Nondegenerate nerve simplices by dimension.

    Without ``max_dim`` the category must be acyclic (otherwise some
    endomorphism loop yields chains in every dimension) and the list
    stops at the first empty level.  With ``max_dim`` the enumeration is
    cut after that dimension regardless.
    """
    if max_dim is None:
        if not cat.is_acyclic():
            raise ValueError(
                "category is not acyclic; nondegenerate chains exist in every "
                "dimension, pass max_dim to truncate"
            )
    elif max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    levels = [[SimplexChain(0, x, ()) for x in cat.objects]]
    d = 0
    while max_dim is None or d < max_dim:
        nxt = []
        for ch in levels[d]:
            for m in cat.morphisms_from(ch.end(cat)):
                if not cat.is_identity(m.name):
                    nxt.append(SimplexChain(d + 1, ch.start, ch.morphisms + (m.name,)))
        if not nxt:
            break
        levels.append(nxt)
        d += 1
    return levels


def boundary_matrix(
    cat: FinCategory, lower: list[SimplexChain], upper: list[SimplexChain]
) -> list[dict[int, int]]:
    """Boundary map from ``upper`` to ``lower`` chains, one sparse column per
    upper chain (index into ``lower`` -> nonzero coefficient)."""
    index = {ch: i for i, ch in enumerate(lower)}
    cols = []
    for ch in upper:
        col: dict[int, int] = {}
        for i in range(ch.dim + 1):
            face = _face(cat, ch, i)
            if face is not None:
                j = index[face]
                col[j] = col.get(j, 0) + (1 if i % 2 == 0 else -1)
        cols.append({j: v for j, v in col.items() if v})
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


@dataclass(frozen=True)
class ChainComplexQ:
    """Chain groups (nondegenerate simplices) with their boundary maps."""

    levels: tuple[tuple[SimplexChain, ...], ...]
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


@dataclass(frozen=True)
class HomologyReport:
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
    """
    cut = None if max_dim is None else max_dim + 1
    cx = chain_complex(cat, cut)
    levels, bnds = cx.levels, cx.boundaries
    report_upto = len(levels) - 1 if max_dim is None else min(max_dim, len(levels) - 1)
    ranks = [rank(d) for d in bnds]
    betti = []
    for k in range(report_upto + 1):
        below = ranks[k - 1] if k >= 1 and k - 1 < len(ranks) else 0
        above = ranks[k] if k < len(ranks) else 0
        betti.append(len(levels[k]) - below - above)
    truncated = max_dim is not None and len(levels) > max_dim + 1
    dims = tuple(len(levels[k]) for k in range(report_upto + 1))
    euler_top = sum(
        (Fraction((-1) ** k * n) for k, n in enumerate(dims)), ZERO
    )
    return HomologyReport(tuple(betti), dims, euler_top, truncated)


def _pad(t: tuple[int, ...], n: int) -> tuple[int, ...]:
    return t + (0,) * (n - len(t))


@dataclass(frozen=True)
class HomologyComparison:
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
    categories must be acyclic and the comparison is over all dimensions.
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
