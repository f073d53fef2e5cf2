import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from catnerve.covers import Cover, full_subcategory
from catnerve.euler import euler_characteristic, inclusion_exclusion_sum
from catnerve.fincat import FinCategory, validate_category, validate_functor
from catnerve.homotopy import compare_homology
from catnerve.io import emit_category, parse_category
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
    components = g.rho().morphism_map
    assert components[some.name] == some.component
    assert components["id_y@1,2"] == "id_y"
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


@pytest.mark.parametrize("name,cov", fx.all_cover_fixtures())
def test_adjunction_R_counts_pairs_and_labels_in_closed_form(name, cov):
    # the counts the bound is checked against, against the walk's own
    g, k = ReducedGrothendieck(cov), len(cov.index_order)
    for max_len in range(1, 6):
        pairs = len(g.objects) * sum(len(g.piece[t].objects) * comb(max_len, len(t)) for t in g.tuples)
        assert adjunction_check_R(cov, max_len=max_len).details == (f"checked {pairs} pairs",)
        labels = sum(len(t) for n in range(1, max_len + 1) for t in cov.tuples(n, "ordered"))
        assert labels == k * comb(k + max_len, max_len - 1)


def test_adjunction_R_refuses_above_the_bound():
    cov = fx.counterexample_cover()
    with pytest.raises(ValueError, match=re.escape("length 400 has 407000 pairs and 21493600 tuple labels,"
                                                   " above the bound 262144")):
        adjunction_check_R(cov, max_len=400)
    empty = FinCategory.build("E", [])
    with pytest.raises(ValueError, match="has 0 pairs and 5000050000 tuple labels"):
        adjunction_check_R(Cover(empty, ["1"], {"1": full_subcategory(empty, [])}), max_len=100000)


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


# -- one naming rule for gr's arrows; a clash of names is refused --------------

def test_gr_refuses_two_arrows_of_one_name():
    # the arrow id_x : x@1,2 -> x@1 and the identity of x|x@1,2=>x@1 are both id_x|x@1,2=>x@1
    cat = FinCategory.build("D", ["x", "x|x@1,2=>x"])
    cov = Cover(cat, ["1", "2"], {"1": full_subcategory(cat, cat.objects), "2": full_subcategory(cat, ["x"])})
    with pytest.raises(ValueError, match=re.escape("two arrows of gr are named 'id_x|x@1,2=>x@1'")):
        ReducedGrothendieck(cov)
    assert inclusion_exclusion_sum(cov) == euler_characteristic(cat).chi == 2


def _with_clash_prone_ids(r, cat):
    """``cat`` with its objects renamed to ids built, as gr's arrow names are,
    from other ids, ``|``, ``=>`` and label lists."""
    names = []
    for _ in cat.objects:
        while True:
            if names and r.random() < 0.6:
                a, b, s = r.choice(names), r.choice(names), r.choice(["1", "2", "1,2", "1,3", "2,3"])
                name = r.choice([f"{a}|{a}@{s}=>{a}", f"{a}|{b}@{s}=>{a}", f"{a}@{s}=>{b}", f"{b}|{a}"])
            else:
                name = r.choice("xyzw")
            if name not in names:
                break
        names.append(name)
    ren = dict(zip(cat.objects, names))
    comp = {(g, f): h for (g, f), h in cat.comp.items() if not (cat.is_identity(g) or cat.is_identity(f))}
    return FinCategory.build(cat.name, names, [(m.name, ren[m.dom], ren[m.cod]) for m in cat.non_identities()], comp)


@given(st.integers(0, 10**9), st.integers(2, 5), st.sampled_from(["poset", "dag"]),
       st.sampled_from(["ideal", "filter"]))
def test_gr_is_valid_or_refused_on_clash_prone_ids(seed, n, kind, parts):
    from test_pieces import _ReferenceGr

    r = random.Random(seed)
    base = fx.random_poset(r, n) if kind == "poset" else fx.random_dag_category(r, n, max_morphisms=60)
    cat = _with_clash_prone_ids(r, base)
    cov = (fx.random_ideal_cover if parts == "ideal" else fx.random_filter_cover)(r, cat, max_parts=3)
    try:
        g = ReducedGrothendieck(cov)
    except ValueError as e:
        clash = re.fullmatch(r"two arrows of gr are named '(.*)' \(.*\)", str(e)).group(1)
        # two distinct (source, target, component) arrows of the construction share that name
        assert list(_ReferenceGr(cov)._by_key.values()).count(clash) >= 2
        return
    names = [m.name for m in g.category.morphisms]
    assert len(set(names)) == len(names)
    assert validate_category(g.category).ok
    assert parse_category(emit_category(g.category)) == g.category
    if parts == "ideal":
        assert compare_homology(cat, g.category).equal
