import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from catnerve.covers import Cover, full_subcategory
from catnerve.euler import euler_characteristic
from catnerve.fincat import validate_category, validate_functor
from catnerve.grothendieck import (
    GrObject,
    OrderedGrObjectDescriptor,
    ReducedGrothendieck,
    adjunction_check_R,
    adjunction_check_pi,
    ordered_gr_hom,
    reduce_object,
    reorder_iso,
)
from catnerve import fixtures as fx


def test_counterexample_gr_shape():
    g = ReducedGrothendieck(fx.counterexample_cover())
    assert sorted(o.name for o in g.objects) == ["x@1", "y@1", "y@1,2", "y@2", "z@2"]
    assert len(g.morphisms) == 6  # non-identity
    assert validate_category(g.category).ok
    assert g.category.is_acyclic()
    assert euler_characteristic(g.category).chi == Fraction(0)


def test_counterexample_gr_morphisms():
    g = ReducedGrothendieck(fx.counterexample_cover())
    # within-piece components over (1): f, g; over (2): h; structural from (1,2)
    by_endpoints = [(m.source.name, m.target.name, m.component) for m in g.morphisms]
    assert sorted(by_endpoints) == sorted([
        ("x@1", "y@1", "f"),
        ("x@1", "y@1", "g"),
        ("y@1,2", "y@1", "id_y"),
        ("y@1,2", "y@2", "id_y"),
        ("y@2", "z@2", "h"),
        ("y@1,2", "z@2", "h"),
    ])
    # the structural maps drop indices from the longer tuple
    m = next(m for m in g.morphisms if m.source.name == "y@1,2" and m.target.name == "y@1")
    assert m.phi == (0,)


def test_v_poset_gr_matches_parent():
    v = fx.poset_v()
    g = ReducedGrothendieck(fx.poset_v_ideal_cover(v))
    assert len(g.objects) == 5
    assert len(g.morphisms) == 6
    assert validate_category(g.category).ok
    assert euler_characteristic(g.category).chi == Fraction(1)


def test_require_cover():
    c = fx.counterexample_category()
    not_cov = Cover(c, ["1"], {"1": full_subcategory(c, ["x", "y"])})
    with pytest.raises(ValueError, match="do not cover"):
        ReducedGrothendieck(not_cov)
    g = ReducedGrothendieck(not_cov, require_cover=False)
    assert sorted(o.name for o in g.objects) == ["x@1", "y@1"]


def test_component_and_indices():
    g = ReducedGrothendieck(fx.counterexample_cover())
    assert g.indices_of("y") == ("1", "2")
    assert g.indices_of("x") == ("1",)
    some = g.morphisms[0]
    assert g.component_of(some.name) == some.component
    assert g.component_of("id_y@1,2") == "id_y"
    with pytest.raises(ValueError):
        g.component_of("nonsense")
    with pytest.raises(ValueError):
        g.indices_of("nonsense")


def test_rho_is_a_functor():
    for _, cov in fx.all_cover_fixtures():
        F = ReducedGrothendieck(cov).rho()
        assert validate_functor(F).ok


def test_pi_requires_ideals():
    with pytest.raises(ValueError, match="not ideals"):
        ReducedGrothendieck(fx.counterexample_cover()).pi()


def test_pi_is_a_functor_and_section():
    for _, cov in fx.ideal_cover_fixtures():
        g = ReducedGrothendieck(cov)
        pi = g.pi()
        assert validate_functor(pi).ok
        rho = g.rho()
        assert rho.after(pi).is_identity()


def test_adjunction_pi_on_ideal_fixtures():
    for name, cov in fx.ideal_cover_fixtures():
        rep = adjunction_check_pi(cov)
        assert rep.ok, (name, rep.messages()[:3])
        n_pairs = len(cov.parent.objects) * len(ReducedGrothendieck(cov).objects)
        assert rep.details == (f"checked {n_pairs} pairs",)


def test_adjunction_pi_diagnostic_fails_on_counterexample():
    rep = adjunction_check_pi(fx.counterexample_cover(), diagnostic=True)
    assert not rep.ok
    assert ("x", "z@2") in [v.subject for v in rep.violations]


def test_ordered_gr_hom_counts():
    cov = fx.counterexample_cover()
    # ordered fiber over (1,1) at y down to (1,) at y: two surjective phis? no --
    # phi must be order-preserving [0] -> [1] picking a position with label 1: two of them
    X = OrderedGrObjectDescriptor(("1", "1"), "y")
    Y = OrderedGrObjectDescriptor(("1",), "y")
    homs = ordered_gr_hom(cov, X, Y)
    assert sorted(h[0] for h in homs) == [(0,), (1,)]
    assert {h[1] for h in homs} == {"id_y"}
    # no maps when the component would leave the target piece
    Z = OrderedGrObjectDescriptor(("2",), "z")
    assert ordered_gr_hom(cov, OrderedGrObjectDescriptor(("1",), "x"), Z) == []


def test_ordered_gr_hom_guards():
    cov = fx.counterexample_cover()
    with pytest.raises(ValueError, match="weakly increasing"):
        ordered_gr_hom(cov, OrderedGrObjectDescriptor(("2", "1"), "y"),
                       OrderedGrObjectDescriptor(("1",), "y"))
    with pytest.raises(ValueError, match="not in the intersection"):
        ordered_gr_hom(cov, OrderedGrObjectDescriptor(("1",), "z"),
                       OrderedGrObjectDescriptor(("1",), "y"))


def test_reduce_object():
    r, psi = reduce_object(OrderedGrObjectDescriptor(("1", "1", "2"), "y"))
    assert r == GrObject(("1", "2"), "y")
    assert psi == (0, 0, 1)
    r2, psi2 = reduce_object(OrderedGrObjectDescriptor(("1",), "x"))
    assert r2.labels == ("1",) and psi2 == (0,)
    with pytest.raises(ValueError, match="non-adjacently"):
        reduce_object(OrderedGrObjectDescriptor(("1", "2", "1"), "y"))


@pytest.mark.parametrize("name,cov", fx.all_cover_fixtures())
def test_adjunction_R_on_fixtures(name, cov):
    rep = adjunction_check_R(cov, max_len=3)
    assert rep.ok, (name, rep.messages()[:3])


def test_reorder_iso_counterexample():
    cov = fx.counterexample_cover()
    F, G = reorder_iso(cov, ["2", "1"])
    assert validate_functor(F).isomorphism
    assert validate_functor(G).isomorphism
    assert G.after(F).is_identity()
    assert F.after(G).is_identity()
    chi1 = euler_characteristic(F.source).chi
    chi2 = euler_characteristic(F.target).chi
    assert chi1 == chi2 == Fraction(0)
    with pytest.raises(ValueError, match="permutation"):
        reorder_iso(cov, ["1", "1"])
    with pytest.raises(ValueError, match="permutation"):
        reorder_iso(cov, ["1", "3"])


def test_reduced_grothendieck_category():
    cat = ReducedGrothendieck(fx.poset_v_ideal_cover()).category
    assert len(cat.objects) == 5
    assert validate_category(cat).ok


@given(st.integers(0, 10**9), st.integers(2, 6))
def test_gr_of_acyclic_is_acyclic_and_chi_matches(seed, n):
    r = random.Random(seed)
    cat = fx.random_poset(r, n)
    cov = fx.random_ideal_cover(r, cat, max_parts=3)
    g = ReducedGrothendieck(cov)
    assert g.category.is_acyclic()
    assert euler_characteristic(g.category).chi == euler_characteristic(cat).chi


@given(st.integers(0, 10**9))
def test_pi_adjunction_random_ideal_covers(seed):
    r = random.Random(seed)
    cat = fx.random_poset(r, 5)
    cov = fx.random_ideal_cover(r, cat, max_parts=3)
    assert adjunction_check_pi(cov).ok
