"""Exact Euler characteristics of finite categories.

The similarity matrix counts hom-sets; a weighting (resp. coweighting)
solves the all-ones column (row) system exactly over the rationals.
The Euler characteristic exists iff both do, and equals the entry sum
of either.

Matrices are sparse: a list of ``dict[int, int]`` rows mapping a column
index to a nonzero integer entry.  One elimination serves ``rank`` and
``solve_right``; ``fractions.Fraction`` appears only inside it and in
the solutions.  When the arrows between distinct objects form no
directed cycle (in particular for every validated acyclic category, and
for ``P x Z/m`` over a poset ``P``), the similarity matrix is upper
triangular in a topological order of the objects, with the nonzero
diagonal ``|End(x)|``: both vectors are then found by substitution,
without elimination.  They stay Python ints while every diagonal entry
met is 1 and only the returned entries are Fractions.  Nothing here is
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, Iterable, Mapping, NamedTuple, Optional, Sequence

from .covers import Cover, Subcategory, classify_subcategory, intersect, union_closure
from .fincat import FinCategory, ValidationReport, Violation

ZERO = Fraction(0)
ONE = Fraction(1)


def _eliminate(rows: Iterable[Mapping[int, int]]) -> dict[int, dict[int, Fraction]]:
    """Echelon basis of the row space of sparse rows, keyed by leading column.

    A row's leading column is its smallest column index.  Each incoming
    row is reduced by the basis rows whose leading columns it hits until
    it vanishes or leads at a fresh column, where it joins the basis
    scaled to a leading 1.  The leading columns are then the pivot
    columns of the reduced row echelon form.  Entries that cancel are
    dropped, so ±1 rows stay sparse and integral; Fractions arise only
    from leading entries other than ±1.
    """
    basis: dict[int, dict[int, Fraction]] = {}
    for given in rows:
        row = {j: v for j, v in given.items() if v}
        while row:
            lead = min(row)
            prow = basis.get(lead)
            if prow is None:
                a = row[lead]
                if a != 1:
                    inv = a if a == -1 else 1 / Fraction(a)
                    row = {j: v * inv for j, v in row.items()}
                basis[lead] = row
                break
            c = row[lead]
            for j, v in prow.items():
                w = row.get(j, 0) - c * v
                if w:
                    row[j] = w
                else:
                    row.pop(j, None)
    return basis


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
    # the right-hand side rides along as column ncols; it leads a basis
    # row exactly when it is not in the column space of m
    basis = _eliminate({**row, ncols: b} for row, b in zip(m, rhs))
    if ncols in basis:
        return None
    x = [ZERO] * ncols
    for lead in sorted(basis, reverse=True):
        row = basis[lead]
        x[lead] = Fraction(row.get(ncols, 0)) - sum(
            (v * x[j] for j, v in row.items() if lead < j < ncols), ZERO)
    return tuple(x)


def zeta_matrix(cat: FinCategory) -> list[dict[int, int]]:
    """Hom-set cardinalities as sparse rows, objects in declaration order."""
    index = {x: j for j, x in enumerate(cat.objects)}
    rows: dict[str, dict[int, int]] = {x: {} for x in index}
    for (x, y), names in cat._hom.items():
        row = rows.get(x)
        if row is not None:
            row[index[y]] = len(names)
    return [rows[x] for x in cat.objects]


def _transpose(m: Sequence[Mapping[int, int]], ncols: int) -> list[dict[int, int]]:
    out: list[dict[int, int]] = [{} for _ in range(ncols)]
    for i, row in enumerate(m):
        for j, v in row.items():
            out[j][i] = v
    return out


def _triangular_order(z: Sequence[Mapping[int, int]]) -> Optional[list[int]]:
    """An order of the objects in which the square ``z`` is upper triangular
    with a nonzero diagonal.

    That needs every diagonal entry to be nonzero and the off-diagonal
    support to have no directed cycle; Kahn's algorithm finds the order
    or leaves some object out, and then there is none.
    """
    n = len(z)
    indegree = [0] * n
    for i, row in enumerate(z):
        if not row.get(i):
            return None
        for j in row:
            if j != i:
                indegree[j] += 1
    order = [i for i in range(n) if not indegree[i]]
    for i in order:  # grows while it is walked: the queue of Kahn's algorithm
        for j in z[i]:
            if j != i:
                indegree[j] -= 1
                if not indegree[j]:
                    order.append(j)
    return order if len(order) == n else None


def _solve(z: Sequence[Mapping[int, int]], order: Optional[list[int]], side: str) -> Optional[tuple]:
    """Weighting or coweighting for zeta ``z``; ``order`` from ``_triangular_order``.

    With ``order`` the system is triangular and solved by substitution,
    dividing by the diagonal entry ``z_ii = |End(i)|``; the entries are
    Python ints while every divisor is 1 and Fractions after (the
    callers wrap them).  Without it they are Fractions, or None, from
    the elimination.
    """
    n = len(z)
    if order is None:
        if side == "coweight":
            z = _transpose(z, n)
        return solve_right(z, n, [ONE] * n)
    x = [1] * n
    if side == "weight":  # w_i = (1 - sum_{j after i} z_ij w_j) / z_ii
        for i in reversed(order):
            row = z[i]
            s = 1 - sum(v * x[j] for j, v in row.items() if j != i)
            x[i] = s if row[i] == 1 else Fraction(s, row[i])
    else:  # v_j = (1 - sum_{i before j} v_i z_ij) / z_jj, pushed along row i once v_i is final
        for i in order:
            row = z[i]
            vi = x[i] = x[i] if row[i] == 1 else Fraction(x[i], row[i])
            for j, v in row.items():
                if j != i:
                    x[j] -= vi * v
    return tuple(x)


def solve_weighting(cat: FinCategory, side: str = "weight") -> Optional[tuple[Fraction, ...]]:
    """Weighting (zeta w = 1) or coweighting (v zeta = 1) of a category."""
    if side not in ("weight", "coweight"):
        raise ValueError(f"side must be 'weight' or 'coweight', got {side!r}")
    z = zeta_matrix(cat)
    order = _triangular_order(z)
    x = _solve(z, order, side)
    return x if order is None else tuple(map(Fraction, x))


class EulerResult(NamedTuple):
    """chi is present iff both vectors are; reason says which is missing."""

    chi: Optional[Fraction]
    weighting: Optional[tuple[Fraction, ...]]
    coweighting: Optional[tuple[Fraction, ...]]
    reason: str = ""


def euler_characteristic(cat: FinCategory) -> EulerResult:
    """Sum of a weighting when a coweighting also exists; exact rational.

    The empty category has Euler characteristic 0.  An integral
    weighting is summed as ints and wrapped once.
    """
    z = zeta_matrix(cat)
    order = _triangular_order(z)
    w = _solve(z, order, "weight")
    v = _solve(z, order, "coweight")
    if w is None or v is None:  # only the elimination finds no solution
        missing = [name for name, vec in (("weighting", w), ("coweighting", v)) if vec is None]
        return EulerResult(None, w, v, reason="no " + " and no ".join(missing))
    if order is None:
        return EulerResult(sum(w, ZERO), w, v)
    return EulerResult(Fraction(sum(w)), tuple(map(Fraction, w)), tuple(map(Fraction, v)))


def inclusion_exclusion_terms(
    cover: Cover,
) -> list[tuple[tuple[str, ...], Optional[Fraction]]]:
    """chi of every strictly increasing intersection, in level-lex order.

    Empty intersections are kept (their chi is 0), so the alternating
    sum below matches the literal formula term by term.  The pieces are
    the cover's own (``Cover.piece``), each a category in its own right,
    so no category is copied here.
    """
    return [
        (labels, euler_characteristic(cover.piece(labels)).chi)
        for n in range(len(cover.index_order))
        for labels in cover.tuples(n + 1, "reduced")
    ]


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


def two_set_formula(a: Subcategory, b: Subcategory) -> ValidationReport:
    """chi(A u B) = chi(A) + chi(B) - chi(A n B) for two ideals or two filters.

    Hypothesis violations are reported, not thrown; the report's details
    list every chi value that could be computed.
    """
    v: list[Violation] = []
    details: list[str] = []
    if a.parent != b.parent:
        return ValidationReport((Violation("parents", (), "subcategories have different parents"),))
    ca, cb = classify_subcategory(a), classify_subcategory(b)
    if not ((ca.is_ideal and cb.is_ideal) or (ca.is_filter and cb.is_filter)):
        v.append(Violation(
            "hypothesis", (),
            "parts are not both ideals or both filters; the two-set formula can fail "
            f"(A: {ca}, B: {cb})",
        ))
    values = {}
    for label, sub in (("A", a), ("B", b), ("AnB", intersect([a, b])), ("AuB", union_closure([a, b]))):
        chi = euler_characteristic(sub).chi
        values[label] = chi
        details.append(f"chi({label}) = {'undefined' if chi is None else chi}")
        if chi is None:
            v.append(Violation("hypothesis", (label,), f"chi({label}) does not exist"))
    if not v:
        lhs = values["AuB"]
        rhs = values["A"] + values["B"] - values["AnB"]
        if lhs != rhs:
            v.append(Violation("equality", (), f"chi(AuB) = {lhs} but chi(A)+chi(B)-chi(AnB) = {rhs}"))
    return ValidationReport(tuple(v), details=tuple(details))


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
