"""Exact Euler characteristics of finite categories.

The similarity matrix counts hom-sets; a weighting (resp. coweighting)
solves the all-ones column (row) system exactly over the rationals.
The Euler characteristic exists iff both do, and equals the entry sum
of either.

Matrices are sparse: a list of ``dict[int, int]`` rows mapping a column
index to a nonzero integer entry.  One elimination serves ``rank`` and
``solve_right``; ``fractions.Fraction`` appears only inside it and in
the solutions.  Nothing here is floating point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

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


def rank(m: Sequence[Mapping[int, int]]) -> int:
    """Rank over Q of a sparse matrix given as rows (or, equally, as columns)."""
    return len(_eliminate(m))


def solve_right(
    m: Sequence[Mapping[int, int]], ncols: int, rhs: Sequence[Fraction],
    free_value: Fraction = ZERO,
) -> Optional[tuple[Fraction, ...]]:
    """Exact solution of m x = rhs, or None iff the system is inconsistent.

    ``m`` is given as sparse rows over columns ``0 .. ncols - 1``.
    Underdetermined systems get the canonical solution with every free
    (non-pivot) variable set to ``free_value`` (0 by default).
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
    x = [Fraction(free_value)] * ncols
    for lead in sorted(basis, reverse=True):
        row = basis[lead]
        x[lead] = Fraction(row.get(ncols, 0)) - sum(
            (v * x[j] for j, v in row.items() if lead < j < ncols), ZERO)
    return tuple(x)


def zeta_matrix(cat: FinCategory) -> list[dict[int, int]]:
    """Hom-set cardinalities as sparse rows, objects in declaration order."""
    index = {x: j for j, x in enumerate(cat.objects)}
    return [dict(Counter(index[m.cod] for m in cat.morphisms_from(x))) for x in cat.objects]


def _transpose(m: Sequence[Mapping[int, int]], ncols: int) -> list[dict[int, int]]:
    out: list[dict[int, int]] = [{} for _ in range(ncols)]
    for i, row in enumerate(m):
        for j, v in row.items():
            out[j][i] = v
    return out


def solve_weighting(
    cat: FinCategory, side: str = "weight", free_value: Fraction = ZERO
) -> Optional[tuple[Fraction, ...]]:
    """Weighting (zeta w = 1) or coweighting (v zeta = 1) of a category."""
    if side not in ("weight", "coweight"):
        raise ValueError(f"side must be 'weight' or 'coweight', got {side!r}")
    z = zeta_matrix(cat)
    n = len(z)
    if side == "coweight":
        z = _transpose(z, n)
    return solve_right(z, n, [ONE] * n, free_value)


@dataclass(frozen=True)
class EulerResult:
    """chi is present iff both vectors are; reason says which is missing."""

    chi: Optional[Fraction]
    weighting: Optional[tuple[Fraction, ...]]
    coweighting: Optional[tuple[Fraction, ...]]
    reason: str = ""


def euler_characteristic(cat: FinCategory) -> EulerResult:
    """Sum of a weighting when a coweighting also exists; exact rational.

    The empty category has Euler characteristic 0.
    """
    w = solve_weighting(cat, "weight")
    v = solve_weighting(cat, "coweight")
    if w is not None and v is not None:
        return EulerResult(sum(w, ZERO), w, v)
    missing = [name for name, vec in (("weighting", w), ("coweighting", v)) if vec is None]
    return EulerResult(None, w, v, reason="no " + " and no ".join(missing))


def inclusion_exclusion_terms(
    cover: Cover,
) -> list[tuple[tuple[str, ...], Optional[Fraction]]]:
    """chi of every strictly increasing intersection, in level-lex order.

    Empty intersections are kept (their chi is 0), so the alternating
    sum below matches the literal formula term by term.
    """
    from itertools import combinations

    out = []
    for n in range(len(cover.index_order)):
        for labels in combinations(cover.index_order, n + 1):
            piece = intersect([cover.parts[a] for a in labels]).as_category()
            out.append((labels, euler_characteristic(piece).chi))
    return out


def inclusion_exclusion_sum(cover: Cover) -> Optional[Fraction]:
    """Alternating sum of piece characteristics; None if any is undefined.

    Equals chi of the parent for ideal covers and for filter covers;
    fails in general (see the two-part counterexample in the tests).
    """
    total = ZERO
    for labels, chi in inclusion_exclusion_terms(cover):
        if chi is None:
            return None
        total += chi if (len(labels) - 1) % 2 == 0 else -chi
    return total


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
        chi = euler_characteristic(sub.as_category()).chi
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
