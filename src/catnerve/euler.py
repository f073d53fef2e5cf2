"""Exact Euler characteristics of finite categories.

The similarity matrix counts hom-sets; a weighting (resp. coweighting)
solves the all-ones column (row) system exactly over the rationals.
The Euler characteristic exists iff both do, and equals the entry sum
of either.

Matrices are sparse: a list of ``dict[int, int]`` rows mapping a column
index to a nonzero integer entry.  Solving stays in Python ints: one
fraction-free elimination serves ``rank`` and ``solve_right``, and one
back-substitution finds ``d x``, with ``d`` the product of the pivots.
When the arrows between distinct objects form no directed cycle (every
validated acyclic category, and ``P x Z/m`` over a poset ``P``), zeta
is upper triangular in a topological order of the objects, with
diagonal ``|End(x)|``, and needs no elimination.  Fractions appear only
in the answers; nothing here is floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Collection, Iterable, Mapping, NamedTuple, Optional, Sequence

from .covers import MAX_TUPLES, Cover
from .fincat import FinCategory, topological_order

ZERO = Fraction(0)
ONE = Fraction(1)


def _eliminate(rows: Iterable[Mapping[int, int]]) -> dict[int, dict[int, int]]:
    """Echelon basis of the row space of sparse rows, keyed by leading column.

    A row's leading column is its smallest column index.  A row drops its
    zeros and is cleared of denominators, then each basis row ``prow``
    whose lead ``a`` it meets with an entry ``c`` makes it ``a row - c prow``,
    until it vanishes or joins the basis at a fresh leading column,
    divided by the gcd of its entries, with a positive lead.  The leads
    are the pivot columns of the reduced row echelon form.
    """
    basis: dict[int, dict[int, int]] = {}
    for given in rows:
        row = dict(given)
        if 0 in row.values() or type(sum(row.values())) is not int:  # only Fractions sum to a non-int
            den = lcm(*(v.denominator for v in row.values()))
            row = {j: v.numerator * (den // v.denominator) for j, v in row.items() if v}
        while row:
            lead = min(row)
            prow = basis.get(lead)
            c = row[lead]
            if prow is None:
                g = c if c in (1, -1) else gcd(*row.values()) if c > 0 else -gcd(*row.values())
                basis[lead] = row if g == 1 else {j: v // g for j, v in row.items()}
                break
            a = prow[lead]
            if a != 1:
                row = {j: a * v for j, v in row.items()}
            for j, v in prow.items():
                w = row.get(j, 0) - c * v
                if w:
                    row[j] = w
                else:  # row held c v there, and c v is not 0
                    del row[j]
    return basis


def _substitute(rows, pivots: Iterable[int], b, d: int, n: int) -> tuple[list[int], int]:
    """``(X, d)``, ``X = d x``, for ``sum_j rows[p]_j x_j = b_p`` solved pivot by pivot;
    the other columns of ``rows[p]`` are found earlier or free (0).  ``d`` is the product
    of the pivots, so ``X`` is the pivot block's adjugate times ``b``: no division leaves a remainder."""
    x = [0] * n
    for p in pivots:
        row = rows[p]  # x_p is still 0, so its own term adds nothing to the sum
        x[p] = (d * b[p] - sum(v * x[j] for j, v in row.items())) // row[p]
    return x, d


def _answers(solved: Optional[tuple[list[int], int]]) -> Optional[tuple[Fraction, ...]]:
    """The Fractions ``X / d`` of a scaled solution ``(X, d)``."""
    if solved is None:
        return None
    x, d = solved
    return tuple(map(Fraction, x)) if d == 1 else tuple(Fraction(v, d) for v in x)


def rank(
    m: Sequence[Mapping[int, int]], *, skip: Collection[int] = (), leads: Optional[set[int]] = None
) -> int:
    """Rank over Q of a sparse matrix given as rows (or, equally, as columns).

    The rows whose positions are in ``skip`` are left out of the
    elimination; ``leads``, when given, receives the leading columns of
    the echelon basis it finds.  Together they serve clearing (Chen and
    Kerber, "Persistent homology computation with a twist", 2011) on
    boundary maps given as columns, ``d_{k-1} d_k = 0``: pass the leads
    of ``d_k`` as ``skip`` for ``d_{k-1}``, and the rank is unchanged.
    Each basis vector of ``im d_k`` with lead ``p`` is ``e_p`` plus
    entries after ``p`` and lies in ``ker d_{k-1}``, so column ``p`` of
    ``d_{k-1}`` is a combination of the columns after it; by descending
    induction on ``p``, every led column lies in the span of the
    columns that lead nowhere.
    """
    basis = _eliminate(row for i, row in enumerate(m) if i not in skip)
    if leads is not None:
        leads.update(basis)
    return len(basis)


def _solve_right(m: Sequence[Mapping[int, int]], ncols: int, rhs: Sequence) -> Optional[tuple[list[int], int]]:
    """``solve_right`` as a scaled solution ``(X, d)``.  The right-hand side rides
    along as column ``ncols`` and leads a basis row iff it is not in the column space."""
    basis = _eliminate({**row, ncols: b} for row, b in zip(m, rhs))
    if ncols in basis:
        return None
    b = {p: row.pop(ncols, 0) for p, row in basis.items()}
    return _substitute(basis, sorted(basis, reverse=True), b, prod(row[p] for p, row in basis.items()), ncols)


def solve_right(
    m: Sequence[Mapping[int, int]], ncols: int, rhs: Sequence[Fraction]
) -> Optional[tuple[Fraction, ...]]:
    """Exact solution of m x = rhs, or None iff the system is inconsistent.

    ``m`` is given as sparse rows over columns ``0 .. ncols - 1``.
    Underdetermined systems get the canonical solution with every free
    (non-pivot) variable set to 0.
    """
    if len(rhs) != len(m):
        raise ValueError("rhs length mismatch")
    if any(not 0 <= j < ncols for row in m for j in row):
        raise ValueError("column index out of range")
    return _answers(_solve_right(m, ncols, rhs))


def zeta_matrix(cat: FinCategory) -> list[dict[int, int]]:
    """Hom-set cardinalities as sparse rows, objects in declaration order."""
    index = {x: j for j, x in enumerate(cat.objects)}
    rows: dict[str, dict[int, int]] = {x: {} for x in index}
    for (x, y), names in cat._hom.items():
        row = rows.get(x)
        if row is not None:
            row[index[y]] = len(names)
    return [rows[x] for x in cat.objects]


def _triangular_order(z: Sequence[Mapping[int, int]]) -> Optional[tuple[list[int], int]]:
    """An order of the objects in which the square ``z`` is upper triangular
    with a nonzero diagonal, and the product of that diagonal.

    That needs every diagonal entry to be nonzero and the off-diagonal
    support to have no directed cycle; ``topological_order`` finds the
    order, or None when there is none.
    """
    d = prod(row.get(i, 0) for i, row in enumerate(z))
    if not d:
        return None
    order = topological_order([[j for j in row if j != i] for i, row in enumerate(z)])
    return None if order is None else (order, d)


def _weightings(cat: FinCategory) -> tuple[Optional[tuple[list[int], int]], Optional[tuple[list[int], int]]]:
    """Weighting and coweighting, each a scaled solution ``(X, d)`` or None: by
    substitution, ``d = prod |End(x)|``, when zeta is triangular, else by the elimination."""
    z = zeta_matrix(cat)
    n = len(z)
    tri = _triangular_order(z)
    if tri is None:
        zt: list[dict[int, int]] = [{} for _ in z]
        for i, row in enumerate(z):
            for j, e in row.items():
                zt[j][i] = e
        return _solve_right(z, n, [1] * n), _solve_right(zt, n, [1] * n)
    order, d = tri
    v = [d] * n
    for i in order:  # v_j z_jj = 1 - sum_{i before j} v_i z_ij, pushed along row i once v_i is final
        row = z[i]
        vi = v[i] = v[i] // row[i]
        for j, e in row.items():
            if j != i:
                v[j] -= vi * e
    return _substitute(z, reversed(order), [1] * n, d, n), (v, d)  # z_ii w_i = 1 - sum_{j after i} z_ij w_j


def solve_weighting(cat: FinCategory, side: str = "weight") -> Optional[tuple[Fraction, ...]]:
    """Weighting (zeta w = 1) or coweighting (v zeta = 1) of a category."""
    if side not in ("weight", "coweight"):
        raise ValueError(f"side must be 'weight' or 'coweight', got {side!r}")
    return _answers(_weightings(cat)[side == "coweight"])


class EulerResult(NamedTuple):
    """chi is present iff both vectors are; reason says which is missing."""

    chi: Optional[Fraction]
    weighting: Optional[tuple[Fraction, ...]]
    coweighting: Optional[tuple[Fraction, ...]]
    reason: str = ""


def euler_characteristic(cat: FinCategory) -> EulerResult:
    """Sum of a weighting when a coweighting also exists; exact rational, 0 when empty."""
    w, v = _weightings(cat)
    if w is None or v is None:  # only the elimination finds no solution
        missing = [name for name, vec in (("weighting", w), ("coweighting", v)) if vec is None]
        return EulerResult(None, _answers(w), _answers(v), reason="no " + " and no ".join(missing))
    x, d = w  # Fraction's one-argument form is much the faster
    return EulerResult(Fraction(sum(x)) if d == 1 else Fraction(sum(x), d), _answers(w), _answers(v))


def inclusion_exclusion_terms(
    cover: Cover,
) -> list[tuple[tuple[str, ...], Optional[Fraction]]]:
    """chi of every strictly increasing intersection, in level-lex order.

    Empty intersections are kept with chi 0, found without a solve, so
    the alternating sum below matches the literal formula term by term.
    The pieces are the cover's own (``Cover.piece``), so no category is
    copied here, and every empty one is the cover's one empty piece.  More
    than ``MAX_TUPLES`` terms raise ValueError before any is listed.
    """
    k = len(cover.index_order)
    if (1 << k) - 1 > MAX_TUPLES:
        raise ValueError(f"inclusion-exclusion over {k} parts has 2**{k} - 1 terms, above the bound {MAX_TUPLES}")
    terms = []
    for n in range(1, k + 1):
        for labels in cover.tuples(n, "reduced"):
            piece = cover.piece(labels)
            terms.append((labels, euler_characteristic(piece).chi if piece.objects else ZERO))
    return terms


def alternating_sum(
    terms: Iterable[tuple[Sequence[str], Optional[Fraction]]],
) -> Optional[Fraction]:
    """Sum of ``(labels, chi)`` terms, signed by the parity of the tuple
    length (singletons count +); None if any chi is undefined."""
    total = ZERO
    for labels, chi in terms:
        if chi is None:
            return None
        total += chi if len(labels) % 2 else -chi
    return total


def inclusion_exclusion_sum(cover: Cover) -> Optional[Fraction]:
    """Alternating sum of piece characteristics; None if any is undefined.

    Equals chi of the parent for ideal covers and for filter covers;
    fails in general (see the two-part counterexample in the tests).
    """
    return alternating_sum(inclusion_exclusion_terms(cover))


def mobius_oracle(cat: FinCategory) -> Fraction:
    """Euler characteristic of a poset via Mobius inversion.

    Independent of the weighting solver: sums mu over all intervals of
    the order relation.  Raises on non-poset input.
    """
    if not cat.is_poset():
        raise ValueError("mobius_oracle requires a poset category")
    objs = cat.objects
    leq = {(x, y) for x in objs for y in objs if cat.hom_set(x, y)}
    mu: dict[tuple[str, str], Fraction] = {}

    def mu_of(x: str, y: str) -> Fraction:
        if (x, y) in mu:
            return mu[(x, y)]
        if x == y:
            val = ONE
        else:
            val = -sum(
                (mu_of(x, z) for z in objs if (x, z) in leq and (z, y) in leq and z != y),
                ZERO,
            )
        mu[(x, y)] = val
        return val

    return sum((mu_of(x, y) for (x, y) in sorted(leq)), ZERO)


def format_rational(q: Fraction) -> str:
    """Render p/q, or just n when integral."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
