import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from catnerve.covers import Cover, full_subcategory
from catnerve.euler import euler_characteristic, inclusion_exclusion_sum
from catnerve.fincat import validate_category, validate_functor
from catnerve.grothendieck import (
    GrObject,
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


def test_component_and_indices():
    g = ReducedGrothendieck(fx.counterexample_cover())
    assert g.cover.indices_of("y") == ("1", "2")
    assert g.cover.indices_of("x") == ("1",)
    some = g.morphisms[0]
    assert g.component_of(some.name) == some.component
    assert g.component_of("id_y@1,2") == "id_y"
    with pytest.raises(ValueError):
        g.component_of("nonsense")
    with pytest.raises(ValueError):
        g.cover.indices_of("nonsense")


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
    X = GrObject(("1", "1"), "y")
    Y = GrObject(("1",), "y")
    homs = ordered_gr_hom(cov, X, Y)
    assert sorted(h[0] for h in homs) == [(0,), (1,)]
    assert {h[1] for h in homs} == {"id_y"}
    # no maps when the component would leave the target piece
    Z = GrObject(("2",), "z")
    assert ordered_gr_hom(cov, GrObject(("1",), "x"), Z) == []


def test_ordered_gr_hom_guards():
    cov = fx.counterexample_cover()
    with pytest.raises(ValueError, match="weakly increasing"):
        ordered_gr_hom(cov, GrObject(("2", "1"), "y"), GrObject(("1",), "y"))
    with pytest.raises(ValueError, match="not in the intersection"):
        ordered_gr_hom(cov, GrObject(("1",), "z"), GrObject(("1",), "y"))


def test_reduce_object():
    r, psi = reduce_object(GrObject(("1", "1", "2"), "y"))
    assert r == GrObject(("1", "2"), "y")
    assert psi == (0, 0, 1)
    r2, psi2 = reduce_object(GrObject(("1",), "x"))
    assert r2.labels == ("1",) and psi2 == (0,)
    with pytest.raises(ValueError, match="non-adjacently"):
        reduce_object(GrObject(("1", "2", "1"), "y"))


@pytest.mark.parametrize("name,cov", fx.all_cover_fixtures())
def test_adjunction_R_on_fixtures(name, cov):
    rep = adjunction_check_R(cov, max_len=3)
    assert rep.ok, (name, rep.messages()[:3])


def test_adjunction_R_rejects_max_len_below_1():
    cov = fx.poset_v_ideal_cover()
    for max_len in (0, -2):
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            adjunction_check_R(cov, max_len=max_len)
    assert adjunction_check_R(cov, max_len=1).ok


def test_one_cover_yields_one_build(monkeypatch):
    built = []
    init = ReducedGrothendieck.__init__

    def counting_init(self, cover):
        built.append(cover.index_order)
        init(self, cover)

    monkeypatch.setattr(ReducedGrothendieck, "__init__", counting_init)
    cov = fx.chain_ideal_cover_3()
    g = ReducedGrothendieck(cov)
    pi = adjunction_check_pi(cov)
    assert pi.ok and adjunction_check_R(cov).ok
    assert built == [cov.index_order] and cov._gr() is g
    # a with_order copy lists its tuples in another order: it builds its own gr
    flipped = cov.with_order(cov.index_order[::-1])
    assert adjunction_check_pi(flipped).details == pi.details
    assert built == [cov.index_order, flipped.index_order]


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


# -- chi(gr U) equals the inclusion-exclusion sum -----------------------------
#
# gr(U) is a Grothendieck construction over the face poset of the reduced
# nerve, and Leinster's formula for such a construction ("The Euler
# characteristic of a category", Doc. Math. 2008) weights each piece by
# (-1)^dim: its chi is the alternating sum of the pieces' chis, whether or
# not gr(U) is equivalent to C.  On the counterexample both sides are 0
# while chi(C) = 1.

def _chi_gr_and_sum(cov):
    return (euler_characteristic(ReducedGrothendieck(cov).category).chi,
            inclusion_exclusion_sum(cov))


@pytest.mark.parametrize("name,cov", fx.all_cover_fixtures())
def test_chi_gr_is_inclusion_exclusion_on_fixtures(name, cov):
    chi_gr, total = _chi_gr_and_sum(cov)
    assert chi_gr is not None and chi_gr == total


def test_chi_gr_is_inclusion_exclusion_on_counterexample():
    cov = fx.counterexample_cover()
    assert _chi_gr_and_sum(cov) == (0, 0)
    assert euler_characteristic(cov.parent).chi == 1


@given(st.integers(0, 10**9), st.integers(2, 7), st.sampled_from(["poset", "dag"]),
       st.sampled_from(["ideal", "filter"]))
def test_chi_gr_is_inclusion_exclusion_random(seed, n, kind, parts):
    r = random.Random(seed)
    cat = fx.random_poset(r, n) if kind == "poset" else fx.random_dag_category(r, n, max_morphisms=120)
    make = fx.random_ideal_cover if parts == "ideal" else fx.random_filter_cover
    chi_gr, total = _chi_gr_and_sum(make(r, cat, max_parts=4))
    assert chi_gr is not None and chi_gr == total
