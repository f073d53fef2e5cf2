import random

import pytest
from hypothesis import given, strategies as st

from catnerve.covers import (
    Cover,
    Subcategory,
    classify_subcategory,
    complement,
    empty_subcategory,
    filter_closure,
    full_subcategory,
    ideal_closure,
    intersect,
    is_cover,
    membership_counts,
    opposite_subcategory,
    to_two_point_poset,
    two_point_poset,
    union_closure,
    whole_subcategory,
)
from catnerve.fincat import validate_category, validate_functor
from catnerve import fixtures as fx


def test_subcategory_construction_rejects_garbage():
    c = fx.counterexample_category()
    with pytest.raises(ValueError, match="unknown object"):
        Subcategory(c, ["ghost"], [])
    with pytest.raises(ValueError, match="unknown morphism"):
        Subcategory(c, ["x"], ["ghost"])
    with pytest.raises(ValueError, match="identity"):
        Subcategory(c, ["x"], [])  # id_x missing
    with pytest.raises(ValueError, match="endpoint"):
        Subcategory(c, ["x"], ["id_x", "f"])  # f lands outside
    with pytest.raises(ValueError, match="not closed"):
        # f and h without their composite k
        Subcategory(c, ["x", "y", "z"],
                    ["id_x", "id_y", "id_z", "f", "h"])


def test_full_subcategory_and_as_category():
    c = fx.counterexample_category()
    d1 = full_subcategory(c, ["x", "y"])
    assert d1.full
    assert d1.objects == ("x", "y")
    assert set(d1.morphisms) == {"id_x", "id_y", "f", "g"}
    cat = d1.as_category()
    assert cat.name == "C[x,y]"
    assert validate_category(cat).ok
    assert cat.hom_set("x", "y") == ["f", "g"]

    sub = Subcategory(c, ["x", "y"], ["id_x", "id_y"])
    assert not sub.full


def test_counterexample_parts_classification():
    c = fx.counterexample_category()
    d1 = full_subcategory(c, ["x", "y"])
    d2 = full_subcategory(c, ["y", "z"])
    assert classify_subcategory(d1) == (True, False)   # ideal, not filter
    assert classify_subcategory(d2) == (False, True)   # filter, not ideal
    assert classify_subcategory(whole_subcategory(c)) == (True, True)
    assert classify_subcategory(empty_subcategory(c)) == (True, True)
    # non-full subcategories are classified as neither
    sub = Subcategory(c, ["x", "y"], ["id_x", "id_y"])
    assert classify_subcategory(sub) == (False, False)


def test_intersect_and_union_closure():
    c = fx.counterexample_category()
    d1 = full_subcategory(c, ["x", "y"])
    d2 = full_subcategory(c, ["y", "z"])
    both = intersect([d1, d2])
    assert both.objects == ("y",) and both.morphisms == ("id_y",)
    u = union_closure([d1, d2])
    # closure must add k = h o f even though neither part contains it
    assert u.has_morphism("k")
    assert u == whole_subcategory(c)
    with pytest.raises(ValueError):
        intersect([d1, full_subcategory(fx.poset_v(), ["a"])])
    with pytest.raises(ValueError):
        intersect([])


def test_cover_construction_and_is_cover():
    c = fx.counterexample_category()
    cov = fx.counterexample_cover(c)
    assert is_cover(cov)
    assert cov.index_order == ("1", "2")
    assert cov.position("2") == 1
    with pytest.raises(ValueError):
        cov.part("9")
    not_covering = Cover(c, ["1"], {"1": full_subcategory(c, ["x", "y"])})
    assert not is_cover(not_covering)
    with pytest.raises(ValueError):
        Cover(c, ["1", "1"], {"1": full_subcategory(c, ["x"])})
    with pytest.raises(ValueError):
        Cover(c, ["1", "2"], {"1": full_subcategory(c, ["x"])})
    with pytest.raises(ValueError):
        Cover(c, ["1"], {"1": full_subcategory(fx.poset_v(), ["a"])})


def test_union_of_parts_without_closure_is_detected():
    # parts {x,y} and {y,z} miss k; union_closure adds it, so they do cover
    c = fx.counterexample_category()
    d1 = full_subcategory(c, ["x", "y"])
    d2 = full_subcategory(c, ["y", "z"])
    u = union_closure([d1, d2])
    assert u.has_morphism("k")
    # but the raw union (no closure) would not contain k
    raw = set(d1.morphisms) | set(d2.morphisms)
    assert "k" not in raw


def test_complement_swaps_ideal_and_filter():
    c = fx.counterexample_category()
    d1 = full_subcategory(c, ["x", "y"])
    comp = complement(d1)
    assert comp.objects == ("z",)
    assert classify_subcategory(comp) == (False, True)  # h, k enter from outside
    v = fx.poset_v()
    down = full_subcategory(v, ["c", "a"])
    up = complement(down)
    assert classify_subcategory(down).is_ideal
    assert classify_subcategory(up).is_filter
    with pytest.raises(ValueError):
        complement(Subcategory(c, ["x", "y"], ["id_x", "id_y"]))


def test_two_point_poset_classifier():
    p2 = two_point_poset()
    assert validate_category(p2).ok
    c = fx.counterexample_category()
    d1 = full_subcategory(c, ["x", "y"])
    F = to_two_point_poset(d1)
    rep = validate_functor(F)
    assert rep.ok
    assert F.object_map == {"x": "0", "y": "0", "z": "1"}
    assert F.morphism_map["h"] == "le" and F.morphism_map["k"] == "le"
    d2 = full_subcategory(c, ["y", "z"])
    with pytest.raises(ValueError):
        to_two_point_poset(d2)  # a filter, not an ideal


def test_membership_counts():
    cov = fx.counterexample_cover()
    assert membership_counts(cov) == {"x": 1, "y": 2, "z": 1}


def test_closures_are_classified_correctly():
    v = fx.poset_v()
    down = ideal_closure(v, ["a"])
    assert down.objects == ("a", "c")
    assert classify_subcategory(down).is_ideal
    up = filter_closure(v, ["c"])
    assert up == whole_subcategory(v)
    with pytest.raises(ValueError):
        ideal_closure(v, ["ghost"])


def test_opposite_subcategory_swaps_flags():
    c = fx.counterexample_category()
    d1 = full_subcategory(c, ["x", "y"])
    od1 = opposite_subcategory(d1)
    cls, ocls = classify_subcategory(d1), classify_subcategory(od1)
    assert (cls.is_ideal, cls.is_filter) == (ocls.is_filter, ocls.is_ideal)


@given(st.integers(0, 10**9), st.integers(2, 7))
def test_random_closures_are_ideals_resp_filters(seed, n):
    r = random.Random(seed)
    cat = fx.random_poset(r, n)
    k = r.randint(1, n)
    objs = r.sample(list(cat.objects), k)
    assert classify_subcategory(ideal_closure(cat, objs)).is_ideal
    assert classify_subcategory(filter_closure(cat, objs)).is_filter


@given(st.integers(0, 10**9), st.integers(2, 7))
def test_random_ideal_covers_cover(seed, n):
    r = random.Random(seed)
    cat = fx.random_poset(r, n)
    cov = fx.random_ideal_cover(r, cat)
    assert is_cover(cov)
    assert all(classify_subcategory(p).is_ideal for p in cov.parts.values())
    fcov = fx.random_filter_cover(r, cat)
    assert is_cover(fcov)
    assert all(classify_subcategory(p).is_filter for p in fcov.parts.values())


@given(st.integers(0, 10**9), st.integers(2, 6))
def test_ideal_flag_swaps_under_opposite_random(seed, n):
    r = random.Random(seed)
    cat = fx.random_dag_category(r, n, max_morphisms=120)
    objs = r.sample(list(cat.objects), r.randint(1, n))
    sub = ideal_closure(cat, objs)
    assert classify_subcategory(opposite_subcategory(sub)).is_filter
