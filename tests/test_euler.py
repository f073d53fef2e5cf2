import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from catnerve.covers import Cover, full_subcategory, intersect, whole_subcategory
from catnerve.euler import (
    euler_characteristic,
    format_rational,
    inclusion_exclusion_sum,
    inclusion_exclusion_terms,
    mobius_oracle,
    rank,
    solve_right,
    solve_weighting,
    two_set_formula,
    zeta_matrix,
)
from catnerve.fincat import FinCategory, validate_category
from catnerve import fixtures as fx

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
    assert solve_right(m, 2, [F(1)], free_value=F(7)) == (F(-6), F(7))


def test_solve_right_inconsistent_is_none():
    m = [{0: 1, 1: 1}, {0: 1, 1: 1}]
    assert solve_right(m, 2, [F(1), F(2)]) is None
    with pytest.raises(ValueError, match="rhs"):
        solve_right(m, 2, [F(1)])
    with pytest.raises(ValueError, match="column"):
        solve_right(m, 1, [F(1), F(2)])


@st.composite
def linear_systems(draw):
    """(dense integer matrix, column count, rhs, free value); half the rhs lie in the image."""
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.integers(-3, 3)
    m = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    if draw(st.booleans()):
        x0 = draw(st.lists(entry, min_size=c, max_size=c))
        b = [sum(a * x for a, x in zip(row, x0)) for row in m]
    else:
        b = draw(st.lists(entry, min_size=r, max_size=r))
    free = draw(st.sampled_from([F(0), F(1), F(-2), F(1, 3)]))
    return m, c, [F(v) for v in b], free


def _rows(m, cols):
    return [{j: row[j] for j in cols if row[j]} for row in m]


@settings(max_examples=300)
@given(linear_systems())
def test_solver_properties(system):
    m, c, b, free = system
    rows = _rows(m, range(c))
    transposed = [{i: row[j] for i, row in enumerate(m) if row[j]} for j in range(c)]
    r = rank(rows)
    assert isinstance(r, int) and r == rank(transposed) <= min(len(m), c)
    augmented = [{**row, c: v} if v else row for row, v in zip(rows, b)]
    x = solve_right(rows, c, b, free)
    assert (x is None) == (rank(augmented) > r)
    if x is None:
        return
    assert all(type(v) is F for v in x)
    assert [sum((a * v for a, v in zip(row, x)), F(0)) for row in m] == b
    for j in range(c):  # column j is free iff it adds nothing to the rank
        if rank(_rows(m, range(j + 1))) == rank(_rows(m, range(j))):
            assert x[j] == free


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


def test_two_set_formula_on_ideals():
    chain = fx.chain_poset(4)
    a = full_subcategory(chain, ["0", "1"])
    b = full_subcategory(chain, ["0", "1", "2"])
    rep = two_set_formula(a, b)
    assert rep.ok
    assert any("chi(AuB) = 1" in line for line in rep.details)


def test_two_set_formula_flags_mixed_hypotheses():
    c = fx.counterexample_category()
    d1 = full_subcategory(c, ["x", "y"])
    d2 = full_subcategory(c, ["y", "z"])
    rep = two_set_formula(d1, d2)
    assert any(v.rule == "hypothesis" for v in rep.violations)
    # and indeed the formula numerically fails here:
    lhs = euler_characteristic(c).chi
    rhs = (euler_characteristic(d1.as_category()).chi
           + euler_characteristic(d2.as_category()).chi
           - euler_characteristic(intersect([d1, d2]).as_category()).chi)
    assert lhs != rhs


def test_two_set_formula_different_parents():
    a = full_subcategory(fx.poset_v(), ["a"])
    b = full_subcategory(fx.counterexample_category(), ["x"])
    assert not two_set_formula(a, b).ok


def test_mobius_oracle_frozen():
    assert mobius_oracle(fx.poset_v()) == F(1)
    assert mobius_oracle(fx.chain_poset(4)) == F(1)
    assert mobius_oracle(FinCategory.build("disc2", ["x", "y"])) == F(2)
    with pytest.raises(ValueError, match="poset"):
        mobius_oracle(fx.counterexample_category())


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
    cover = Cover(cat, ["1"], {"1": whole_subcategory(cat)}, name="trivial")
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
