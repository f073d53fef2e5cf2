import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from catnerve.covers import (
    Cover,
    Subcategory,
    classify_subcategory,
    filter_closure,
    full_subcategory,
    ideal_closure,
    intersect,
    union_closure,
)
from catnerve.euler import (
    EulerResult,
    _eliminate,
    _solve_right,
    _triangular_order,
    euler_characteristic,
    format_rational,
    inclusion_exclusion_sum,
    inclusion_exclusion_terms,
    mobius_oracle,
    rank,
    solve_right,
    solve_weighting,
    zeta_matrix,
)
from catnerve.fincat import FinCategory, Mor, validate_category
from catnerve.grothendieck import ReducedGrothendieck
from catnerve.homotopy import chain_complex
from catnerve import euler, fixtures as fx
from test_fincat import _times_cyclic

F = Fraction


def test_rank():
    assert rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
    assert rank([{0: 1, 1: 2}, {1: 1}]) == 2
    assert rank([{}, {0: 0, 1: 0}]) == 0
    assert rank([]) == 0


def test_solve_right_unique():
    m = [{0: 2, 1: 1}, {0: 1, 1: 1}]
    assert solve_right(m, 2, [F(3), F(2)]) == (F(1), F(1))


def test_solve_right_underdetermined_free_value_policy():
    m = [{0: 1, 1: 1}]
    assert solve_right(m, 2, [F(1)]) == (F(1), F(0))


def test_solve_right_inconsistent_is_none():
    m = [{0: 1, 1: 1}, {0: 1, 1: 1}]
    assert solve_right(m, 2, [F(1), F(2)]) is None
    with pytest.raises(ValueError, match="rhs"):
        solve_right(m, 2, [F(1)])
    with pytest.raises(ValueError, match="column"):
        solve_right(m, 1, [F(1), F(2)])


@st.composite
def linear_systems(draw, rational=False):
    """(dense matrix, column count, rhs); half the rhs lie in the image.

    Entries are ints, or with ``rational`` also non-integral Fractions."""
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.integers(-3, 3)
    if rational:
        entry = entry | st.fractions(-3, 3, max_denominator=4)
    m = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    if draw(st.booleans()):
        x0 = draw(st.lists(entry, min_size=c, max_size=c))
        b = [sum(a * x for a, x in zip(row, x0)) for row in m]
    else:
        b = draw(st.lists(entry, min_size=r, max_size=r))
    return m, c, [F(v) for v in b]


def _rows(m, cols):
    return [{j: row[j] for j in cols if row[j]} for row in m]


@settings(max_examples=300)
@given(linear_systems())
def test_solver_properties(system):
    m, c, b = system
    rows = _rows(m, range(c))
    transposed = [{i: row[j] for i, row in enumerate(m) if row[j]} for j in range(c)]
    r = rank(rows)
    assert isinstance(r, int) and r == rank(transposed) <= min(len(m), c)
    augmented = [{**row, c: v} if v else row for row, v in zip(rows, b)]
    x = solve_right(rows, c, b)
    assert (x is None) == (rank(augmented) > r)
    if x is None:
        return
    assert all(type(v) is F for v in x)
    assert [sum((a * v for a, v in zip(row, x)), F(0)) for row in m] == b
    for j in range(c):  # column j is free iff it adds nothing to the rank
        if rank(_rows(m, range(j + 1))) == rank(_rows(m, range(j))):
            assert x[j] == 0


def test_zeta_counterexample():
    z = zeta_matrix(fx.counterexample_category())
    assert z == [{0: 1, 1: 2, 2: 1}, {1: 1, 2: 1}, {2: 1}]


def test_weighting_counterexample():
    c = fx.counterexample_category()
    assert solve_weighting(c, "weight") == (F(0), F(0), F(1))
    assert solve_weighting(c, "coweight") == (F(1), F(-1), F(1))
    with pytest.raises(ValueError):
        solve_weighting(c, "sideways")


def test_chi_frozen_values():
    c = fx.counterexample_category()
    d1 = full_subcategory(c, ["x", "y"])
    d2 = full_subcategory(c, ["y", "z"])
    assert euler_characteristic(c).chi == F(1)
    assert euler_characteristic(d1.as_category()).chi == F(0)
    assert euler_characteristic(d2.as_category()).chi == F(1)
    assert euler_characteristic(intersect([d1, d2]).as_category()).chi == F(1)
    assert euler_characteristic(fx.poset_v()).chi == F(1)
    assert euler_characteristic(fx.chain_poset(4)).chi == F(1)
    assert euler_characteristic(fx.parallel_pair()).chi == F(0)
    assert euler_characteristic(fx.fork_category()).chi == F(0)
    for k in (2, 3, 4, 5):
        assert euler_characteristic(fx.delta_category(k)).chi == F(k % 2)


def test_chi_of_empty_category_is_zero():
    e = FinCategory.build("E", [], [])
    res = euler_characteristic(e)
    assert res.chi == F(0)
    assert res.weighting == () and res.coweighting == ()


def test_inclusion_exclusion_counterexample():
    cov = fx.counterexample_cover()
    terms = inclusion_exclusion_terms(cov)
    assert [(labels, chi) for labels, chi in terms] == [
        (("1",), F(0)),
        (("2",), F(1)),
        (("1", "2"), F(1)),
    ]
    assert inclusion_exclusion_sum(cov) == F(0)
    assert euler_characteristic(cov.parent).chi == F(1)  # the mismatch


def test_inclusion_exclusion_matches_on_ideal_fixtures():
    for name, cov in fx.ideal_cover_fixtures():
        assert inclusion_exclusion_sum(cov) == euler_characteristic(cov.parent).chi, name
    for name, cov in fx.filter_cover_fixtures():
        assert inclusion_exclusion_sum(cov) == euler_characteristic(cov.parent).chi, name


def _ref_terms(cover):
    """``inclusion_exclusion_terms`` with every piece solved, empty ones included."""
    return [
        (labels, euler_characteristic(cover.piece(labels)).chi)
        for n in range(1, len(cover.index_order) + 1)
        for labels in cover.tuples(n, "reduced")
    ]


def _disjoint_cover(r, cat, k):
    """A ``k``-part cover by full subcategories on random, often disjoint, object sets."""
    parts = {str(i): full_subcategory(cat, [x for x in cat.objects if r.random() < 0.4])
             for i in range(1, k + 1)}
    return Cover(cat, sorted(parts), parts)


@pytest.mark.parametrize("name,cov", fx.all_cover_fixtures())
def test_terms_match_every_piece_solved_on_fixtures(name, cov):
    assert inclusion_exclusion_terms(cov) == _ref_terms(cov)


def test_empty_pieces_get_chi_zero_without_a_solve(monkeypatch):
    c = fx.counterexample_category()
    cov = Cover(c, ["1", "2", "3"], {"1": full_subcategory(c, ["x"]), "2": full_subcategory(c, ["z"]),
                                     "3": full_subcategory(c, ["x", "y"])})
    ref = _ref_terms(cov)
    solved = []
    monkeypatch.setattr(euler, "euler_characteristic",
                        lambda cat: solved.append(cat.objects) or euler_characteristic(cat))
    terms = inclusion_exclusion_terms(cov)
    assert terms == ref
    assert solved == [("x",), ("z",), ("x", "y"), ("x",)]
    assert [labels for labels, _ in terms if not cov.piece(labels).objects] == [
        ("1", "2"), ("2", "3"), ("1", "2", "3")]
    assert all(type(chi) is Fraction for _, chi in terms)


@settings(max_examples=150)
@given(st.integers(0, 10**9), st.integers(2, 6), st.integers(1, 4), st.booleans())
def test_terms_match_every_piece_solved_on_disjoint_parts(seed, n, k, dag):
    r = random.Random(seed)
    cat = fx.random_dag_category(r, n, max_morphisms=60) if dag else fx.random_poset(r, n)
    cov = _disjoint_cover(r, cat, k)
    terms = inclusion_exclusion_terms(cov)
    assert terms == _ref_terms(cov)
    assert [type(chi) for _, chi in terms] == [Fraction] * len(terms)


def _two_set_sides(a, b):
    """Both sides of the two-set formula chi(A u B) = chi(A) + chi(B) - chi(A n B):
    chi of ``union_closure([a, b])`` and the inclusion-exclusion sum of its
    two-part cover by ``a`` and ``b``."""
    u = union_closure([a, b])
    parts = {label: Subcategory(u, p.objects, [m.name for m in p.morphisms])
             for label, p in (("A", a), ("B", b))}
    return euler_characteristic(u).chi, inclusion_exclusion_sum(Cover(u, ["A", "B"], parts))


def test_two_set_formula_on_ideals():
    chain = fx.chain_poset(4)
    a = full_subcategory(chain, ["0", "1"])
    b = full_subcategory(chain, ["0", "1", "2"])
    assert classify_subcategory(a).is_ideal and classify_subcategory(b).is_ideal
    assert _two_set_sides(a, b) == (F(1), F(1))


def test_two_set_formula_flags_mixed_hypotheses():
    c = fx.counterexample_category()
    d1 = full_subcategory(c, ["x", "y"])
    d2 = full_subcategory(c, ["y", "z"])
    cls1, cls2 = classify_subcategory(d1), classify_subcategory(d2)
    assert not (cls1.is_ideal and cls2.is_ideal) and not (cls1.is_filter and cls2.is_filter)
    lhs, rhs = _two_set_sides(d1, d2)
    assert (lhs, rhs) == (F(1), F(0))
    assert rhs == (euler_characteristic(d1.as_category()).chi
                   + euler_characteristic(d2.as_category()).chi
                   - euler_characteristic(intersect([d1, d2]).as_category()).chi)


def test_two_set_formula_different_parents():
    a = full_subcategory(fx.poset_v(), ["a"])
    b = full_subcategory(fx.counterexample_category(), ["x"])
    with pytest.raises(ValueError, match="mismatched parents"):
        _two_set_sides(a, b)


@given(st.integers(0, 10**9), st.integers(2, 7), st.booleans())
def test_two_set_formula_on_random_ideals_or_filters(seed, n, ideals):
    r = random.Random(seed)
    cat = fx.random_poset(r, n)
    close = ideal_closure if ideals else filter_closure
    a = close(cat, r.sample(cat.objects, r.randint(1, n)))
    b = close(cat, r.sample(cat.objects, r.randint(1, n)))
    lhs, rhs = _two_set_sides(a, b)
    assert lhs == rhs == mobius_oracle(union_closure([a, b]))


def test_mobius_oracle_frozen():
    assert mobius_oracle(fx.poset_v()) == F(1)
    assert mobius_oracle(fx.chain_poset(4)) == F(1)
    assert mobius_oracle(FinCategory.build("disc2", ["x", "y"])) == F(2)
    with pytest.raises(ValueError, match="poset"):
        mobius_oracle(fx.counterexample_category())


def test_mobius_oracle_refuses_an_unvalidated_cycle():
    # x -> y -> z -> x: one arrow per pair and no two-way pair, but a cycle
    cycle = FinCategory.build("C3", ["x", "y", "z"], [("f", "x", "y"), ("g", "y", "z"), ("h", "z", "x")])
    assert not cycle.is_poset()
    with pytest.raises(ValueError, match="poset"):
        mobius_oracle(cycle)


def test_format_rational():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-1, 2)) == "-1/2"
    assert format_rational(F(0)) == "0"


def test_category_without_euler_characteristic():
    # proportional zeta rows: no weighting can exist, yet a coweighting does
    cat = fx.no_weighting_category()
    assert validate_category(cat).ok
    assert zeta_matrix(cat) == [{0: 2, 1: 2}, {0: 3, 1: 3}]
    res = euler_characteristic(cat)
    assert res.chi is None
    assert res.reason == "no weighting"
    assert res.weighting is None
    assert res.coweighting == (F(1, 2), F(0))
    # dually, the opposite lacks exactly the coweighting
    op = euler_characteristic(cat.opposite())
    assert op.chi is None
    assert op.reason == "no coweighting"
    assert op.weighting == (F(1, 2), F(0))


def test_inclusion_exclusion_sum_is_none_when_a_term_has_no_chi():
    cat = fx.no_weighting_category()
    cover = Cover(cat, ["1"], {"1": full_subcategory(cat, cat.objects)}, name="trivial")
    assert inclusion_exclusion_sum(cover) is None


def test_duality_on_fixtures():
    for name, cat in fx.category_fixtures():
        assert (euler_characteristic(cat).chi
                == euler_characteristic(cat.opposite()).chi), name


def test_opposite_swaps_weighting_and_coweighting():
    c = fx.counterexample_category()
    assert solve_weighting(c.opposite(), "weight") == solve_weighting(c, "coweight")
    assert solve_weighting(c.opposite(), "coweight") == solve_weighting(c, "weight")


@given(st.integers(0, 10**9), st.integers(2, 8))
def test_mobius_equals_weighting_chi_random(seed, n):
    cat = fx.random_poset(random.Random(seed), n)
    assert mobius_oracle(cat) == euler_characteristic(cat).chi


@given(st.integers(0, 10**9), st.integers(2, 7))
def test_inclusion_exclusion_random_ideal_and_filter_covers(seed, n):
    r = random.Random(seed)
    cat = fx.random_poset(r, n)
    chi = euler_characteristic(cat).chi
    assert inclusion_exclusion_sum(fx.random_ideal_cover(r, cat)) == chi
    assert inclusion_exclusion_sum(fx.random_filter_cover(r, cat)) == chi


@given(st.integers(0, 10**9), st.integers(2, 6))
def test_acyclic_always_has_chi_and_dualizes(seed, n):
    cat = fx.random_dag_category(random.Random(seed), n, max_morphisms=120)
    res = euler_characteristic(cat)
    assert res.chi is not None
    assert res.chi == euler_characteristic(cat.opposite()).chi


# -- substitution on triangular zeta vs the elimination ----------------------

def _eliminated(cat):
    """Weighting and coweighting by ``solve_right`` on the zeta matrix."""
    z = zeta_matrix(cat)
    n = len(z)
    zt = [{i: row[j] for i, row in enumerate(z) if j in row} for j in range(n)]
    ones = [F(1)] * n
    return solve_right(z, n, ones), solve_right(zt, n, ones)


def _substitution_inputs():
    cats = [c for _, c in fx.category_fixtures()] + [fx.delta_category(k) for k in (2, 3, 4, 5)]
    rng = random.Random(4)
    for _ in range(15):
        cats.append(fx.random_poset(rng, rng.randint(1, 9), p=rng.choice([0.2, 0.4, 0.7])))
        cats.append(fx.random_dag_category(rng, rng.randint(1, 7), max_morphisms=150))
    for _ in range(4):
        poset = fx.random_poset(rng, rng.randint(3, 6))
        for cover in (fx.random_ideal_cover(rng, poset), fx.random_filter_cover(rng, poset)):
            cats.append(ReducedGrothendieck(cover).category)
    return cats + [c.opposite() for c in cats]


def test_substitution_equals_elimination():
    for cat in _substitution_inputs():
        assert _triangular_order(zeta_matrix(cat)) is not None, cat
        w, v = _eliminated(cat)
        for side, expected in (("weight", w), ("coweight", v)):
            got = solve_weighting(cat, side)
            assert got == expected and all(type(x) is F for x in got), (cat, side)
        res = euler_characteristic(cat)
        assert res == EulerResult(sum(w, F(0)), w, v), cat
        assert repr(res.chi) == repr(sum(w, F(0))), cat
        assert all(type(x) is F for x in (res.chi, *res.weighting, *res.coweighting)), cat


def _ei_category(rng, n):
    """An EI category over a random poset P whose endomorphism groups vary.

    Each object y gets d_y = lcm of random values 1..3 over the objects
    below it, so x <= y implies d_x | d_y.  An arrow x -> y is ``x.y.a``
    with a in Z/d_y, ``End(x) = Z/d_x``, and the composite of ``x.y.a``
    then ``y.z.b`` is ``x.z.c`` with c = b + a * d_z / d_y mod d_z.
    """
    p = fx.random_poset(rng, n, p=rng.choice([0.3, 0.5]))
    objs = list(p.objects)
    le = {(m.dom, m.cod) for m in p.morphisms}
    base = {x: rng.randint(1, 3) for x in objs}
    d = {y: math.lcm(*(base[x] for x in objs if (x, y) in le)) for y in objs}

    def name(x, y, a):
        return f"id_{x}" if x == y and a == 0 else f"{x}.{y}.{a}"

    mors = [(name(x, y, a), x, y) for (x, y) in sorted(le) for a in range(d[y])]
    comp = {
        (name(y, z, b), name(x, y, a)): name(x, z, (b + a * (d[z] // d[y])) % d[z])
        for (x, y) in le for (y2, z) in le if y2 == y
        for a in range(d[y]) for b in range(d[z])
    }
    return FinCategory.build(f"EI{n}", objs, [m for m in mors if not m[0].startswith("id_")], comp)


def test_triangular_substitution_with_a_non_unit_diagonal():
    rng = random.Random(11)
    cats = [_times_cyclic(fx.chain_poset(2), 3), _times_cyclic(fx.fork_category(), 3)]
    cats += [_times_cyclic(fx.random_poset(rng, rng.randint(2, 6)), 3) for _ in range(6)]
    cats += [_ei_category(rng, rng.randint(2, 7)) for _ in range(12)]
    cats += [c.opposite() for c in cats]
    diagonals = []
    for cat in cats:
        assert validate_category(cat).ok, cat
        z = zeta_matrix(cat)
        assert _triangular_order(z) is not None, cat
        diagonals.append({row[i] for i, row in enumerate(z)})
        w, v = _eliminated(cat)
        assert (solve_weighting(cat, "weight"), solve_weighting(cat, "coweight")) == (w, v), cat
        res = euler_characteristic(cat)
        assert res == EulerResult(sum(w, F(0)), w, v), cat
        assert all(type(x) is F for x in (res.chi, *res.weighting, *res.coweighting)), cat
    assert {1, 2, 3} <= set().union(*diagonals)
    assert any(1 in diag and len(diag) > 1 for diag in diagonals)  # unit and non-unit in one category

    product = _times_cyclic(fx.chain_poset(2), 3)
    assert zeta_matrix(product) == [{0: 3, 1: 3}, {1: 3}]
    assert euler_characteristic(product) == EulerResult(
        F(1, 3), (F(0), F(1, 3)), (F(1, 3), F(0)))


def test_elimination_kept_where_zeta_is_not_triangular():
    # the answers for no_weighting_category are pinned in test_category_without_euler_characteristic
    nw = fx.no_weighting_category()

    # no endomorphism and no two-way pair, yet x -> y -> z -> x
    cycle = FinCategory.build("C3", ["x", "y", "z"], [("f", "x", "y"), ("g", "y", "z"), ("h", "z", "x")])
    assert not cycle.is_acyclic() and not validate_category(cycle).ok
    half = (F(1, 2),) * 3
    assert euler_characteristic(cycle) == EulerResult(F(3, 2), half, half)

    # x has no endomorphism at all: column x of zeta is zero
    no_id = FinCategory("N", ["x", "y"], [Mor("f", "x", "y"), Mor("id_y", "y", "y")], {"y": "id_y"}, {})
    assert zeta_matrix(no_id) == [{1: 1}, {1: 1}]
    assert solve_weighting(no_id, "weight") == (F(0), F(1))
    assert euler_characteristic(no_id) == EulerResult(None, (F(0), F(1)), None, "no coweighting")

    for cat in (nw, nw.opposite(), cycle, cycle.opposite(), no_id):
        assert _triangular_order(zeta_matrix(cat)) is None, cat
        w, v = _eliminated(cat)
        assert (solve_weighting(cat, "weight"), solve_weighting(cat, "coweight")) == (w, v), cat


# -- the solver before fraction-free elimination, kept as the reference ------

def _ref_eliminate(rows):
    """Echelon basis scaled to leading 1s, in Fractions where a lead is not ±1."""
    basis = {}
    for given in rows:
        row = {j: v for j, v in given.items() if v}
        while row:
            lead = min(row)
            prow = basis.get(lead)
            if prow is None:
                a = row[lead]
                if a != 1:
                    inv = a if a == -1 else 1 / F(a)
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


def _ref_rank(m, skip=(), leads=None):
    basis = _ref_eliminate(row for i, row in enumerate(m) if i not in skip)
    if leads is not None:
        leads.update(basis)
    return len(basis)


def _ref_solve_right(m, ncols, rhs):
    basis = _ref_eliminate({**row, ncols: b} for row, b in zip(m, rhs))
    if ncols in basis:
        return None
    x = [F(0)] * ncols
    for lead in sorted(basis, reverse=True):
        row = basis[lead]
        x[lead] = F(row.get(ncols, 0)) - sum(
            (v * x[j] for j, v in row.items() if lead < j < ncols), F(0))
    return tuple(x)


def _ref_solve(z, order, side):
    """Substitution in ints while every diagonal entry is 1, else in Fractions;
    the elimination without a triangular order."""
    n = len(z)
    if order is None:
        if side == "coweight":
            z = [{i: row[j] for i, row in enumerate(z) if j in row} for j in range(n)]
        return _ref_solve_right(z, n, [F(1)] * n)
    x = [1] * n
    if side == "weight":
        for i in reversed(order):
            row = z[i]
            s = 1 - sum(v * x[j] for j, v in row.items() if j != i)
            x[i] = s if row[i] == 1 else F(s, row[i])
    else:
        for i in order:
            row = z[i]
            vi = x[i] = x[i] if row[i] == 1 else F(x[i], row[i])
            for j, v in row.items():
                if j != i:
                    x[j] -= vi * v
    return tuple(map(F, x))


def _ref_euler_characteristic(cat):
    z = zeta_matrix(cat)
    tri = _triangular_order(z)
    w, v = (_ref_solve(z, tri and tri[0], side) for side in ("weight", "coweight"))
    if w is None or v is None:
        missing = [name for name, vec in (("weighting", w), ("coweighting", v)) if vec is None]
        return EulerResult(None, w, v, reason="no " + " and no ".join(missing))
    return EulerResult(sum(w, F(0)), w, v)


@st.composite
def sparse_matrices(draw):
    """Sparse rows over at most 7 columns, ints or also Fractions, zeros kept in some."""
    c = draw(st.integers(0, 7))
    entry = st.integers(-4, 4)
    if draw(st.booleans()):
        entry = entry | st.fractions(-3, 3, max_denominator=5)
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), max_size=7))
    keep_zeros = draw(st.booleans())
    return [{j: v for j, v in enumerate(row) if v or keep_zeros} for row in rows]


@settings(max_examples=200)
@given(sparse_matrices(), st.sets(st.integers(0, 7)))
def test_rank_and_leads_match_the_reference(m, skip):
    leads, ref_leads = set(), set()
    assert rank(m, skip=skip, leads=leads) == _ref_rank(m, skip=skip, leads=ref_leads)
    assert leads == ref_leads
    basis = _eliminate(row for i, row in enumerate(m) if i not in skip)
    for lead, row in basis.items():  # integral, primitive, positive lead
        assert all(type(v) is int for v in row.values()) and min(row) == lead and row[lead] > 0
        assert math.gcd(*row.values()) == 1


def _boundary_inputs(rng, kind):
    if kind == "poset":
        return fx.random_poset(rng, rng.randint(2, 8)), None
    if kind == "dag":
        return fx.random_dag_category(rng, rng.randint(2, 5), max_morphisms=40), None
    return _times_cyclic(fx.random_poset(rng, rng.randint(2, 4)), rng.randint(2, 3)), 3


@settings(max_examples=60)
@given(st.integers(0, 10**9), st.sampled_from(["poset", "dag", "product"]))
def test_cleared_boundary_ranks_and_leads_match_the_reference(seed, kind):
    cat, cut = _boundary_inputs(random.Random(seed), kind)
    cleared: set[int] = set()
    for d in reversed(chain_complex(cat, cut).boundaries):
        leads, ref_leads = set(), set()
        assert rank(d, skip=cleared, leads=leads) == _ref_rank(d, skip=cleared, leads=ref_leads)
        assert leads == ref_leads
        cleared = leads


@settings(max_examples=200)
@given(linear_systems(rational=True))
def test_solve_right_matches_the_reference(system):
    m, c, b = system
    rows = _rows(m, range(c))
    x = solve_right(rows, c, b)
    assert x == _ref_solve_right(rows, c, b)
    if x is not None:
        assert all(type(v) is F for v in x)
        scaled, d = _solve_right(rows, c, b)
        assert type(d) is int and d > 0 and all(type(v) is int for v in scaled)
        assert tuple(F(v, d) for v in scaled) == x


def test_solve_right_reference_cases():
    half = F(1, 2)
    cases = [
        ([{0: half, 1: 1}, {0: 1, 1: F(2, 3)}], 2, [F(1), F(-1, 3)]),  # unique, rational
        ([{0: 2, 1: 4, 2: 6}], 3, [F(3, 5)]),  # underdetermined
        ([{0: half, 1: 1}, {0: 1, 1: 2}], 2, [F(1), F(3)]),  # inconsistent
        ([{1: 3}, {}], 2, [F(1), F(0)]),  # free column 0, zero row
    ]
    for m, c, b in cases:
        assert solve_right(m, c, b) == _ref_solve_right(m, c, b), (m, b)
    assert solve_right(*cases[2]) is None
    assert solve_right(*cases[1]) == (F(3, 10), F(0), F(0))


def _weighting_inputs(rng):
    cats = [fx.no_weighting_category(), FinCategory.build("E", [], []),
            FinCategory.build("C3", ["x", "y", "z"], [("f", "x", "y"), ("g", "y", "z"), ("h", "z", "x")])]
    cats.append(_times_cyclic(fx.random_poset(rng, rng.randint(1, 6)), rng.randint(1, 4)))
    cats.append(fx.random_dag_category(rng, rng.randint(1, 6), max_morphisms=60))
    return cats + [c.opposite() for c in cats]


@settings(max_examples=60)
@given(st.integers(0, 10**9))
def test_weightings_and_chi_match_the_reference(seed):
    for cat in _weighting_inputs(random.Random(seed)):
        res, ref = euler_characteristic(cat), _ref_euler_characteristic(cat)
        assert res == ref and repr(res) == repr(ref), cat
        assert (solve_weighting(cat, "weight"), solve_weighting(cat, "coweight")) == ref[1:3], cat
