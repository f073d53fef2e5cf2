import random
from itertools import combinations, combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import given, strategies as st

from catnerve.covers import (
    VARIANTS,
    Cover,
    Subcategory,
    classify_subcategory,
    filter_closure,
    full_subcategory,
    ideal_closure,
    intersect,
    is_cover,
    opposite_subcategory,
    union_closure,
)
from catnerve.fincat import FinCategory, FunctorMap, validate_category, validate_functor
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
    assert {m.name for m in d1.morphisms} == {"id_x", "id_y", "f", "g"}
    cat = d1.as_category()
    assert cat is d1 and isinstance(cat, FinCategory)
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
    assert classify_subcategory(full_subcategory(c, c.objects)) == (True, True)
    assert classify_subcategory(Subcategory(c, (), ())) == (True, True)
    # non-full subcategories are classified as neither
    sub = Subcategory(c, ["x", "y"], ["id_x", "id_y"])
    assert classify_subcategory(sub) == (False, False)


def test_intersect_and_union_closure():
    c = fx.counterexample_category()
    d1 = full_subcategory(c, ["x", "y"])
    d2 = full_subcategory(c, ["y", "z"])
    both = intersect([d1, d2])
    assert both.objects == ("y",) and tuple(m.name for m in both.morphisms) == ("id_y",)
    u = union_closure([d1, d2])
    # closure must add k = h o f even though neither part contains it
    assert u.has_morphism("k")
    assert u == full_subcategory(c, c.objects)
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
    not_covering = Cover(c, ["1"], {"1": full_subcategory(c, ["x", "y"])})
    assert not is_cover(not_covering)
    with pytest.raises(ValueError):
        Cover(c, ["1", "1"], {"1": full_subcategory(c, ["x"])})
    with pytest.raises(ValueError):
        Cover(c, ["1", "2"], {"1": full_subcategory(c, ["x"])})
    with pytest.raises(ValueError):
        Cover(c, ["1"], {"1": full_subcategory(fx.poset_v(), ["a"])})
    for bad in ("1,2", "b@c", ",", "@"):
        with pytest.raises(ValueError, match=f"cover label '{bad}' contains ',' or '@'"):
            Cover(c, ["1", bad], {"1": full_subcategory(c, ["x"]), bad: full_subcategory(c, ["y"])})


def _ref_is_cover(cover: Cover) -> bool:
    """Coverage read off the union-closure subcategory."""
    u = union_closure(list(cover.parts.values()))
    return u.objects == cover.parent.objects and u.morphisms == cover.parent.morphisms


def _families(rng: random.Random, cover: Cover) -> list[Cover]:
    """``cover``, the cover without one part, and the cover with one arrow
    that is no composite of two non-identities taken out of every part
    (nothing composes back to it, so that family never covers)."""
    cat = cover.parent
    families = [cover]
    if len(cover.index_order) > 1:
        rest = list(cover.index_order)
        rest.remove(rng.choice(rest))
        families.append(Cover(cat, rest, {a: cover.parts[a] for a in rest}))
    composites = {gf for (g, f), gf in cat.comp.items() if not cat.is_identity(g) and not cat.is_identity(f)}
    uncomposed = [m.name for m in cat.non_identities() if m.name not in composites]
    if uncomposed:
        gone = rng.choice(uncomposed)
        parts = {a: Subcategory(cat, p.objects, [m.name for m in p.morphisms if m.name != gone])
                 for a, p in cover.parts.items()}
        families.append(Cover(cat, cover.index_order, parts))
    return families


@given(st.integers(0, 10**9), st.sampled_from(["poset", "dag"]), st.booleans())
def test_is_cover_matches_union_closure(seed, kind, ideal):
    rng = random.Random(seed)
    if kind == "poset":
        cat = fx.random_poset(rng, rng.randint(2, 7))
    else:
        cat = fx.random_dag_category(rng, rng.randint(2, 5), max_morphisms=40)
    cover = (fx.random_ideal_cover if ideal else fx.random_filter_cover)(rng, cat)
    families = _families(rng, cover)
    assert [is_cover(c) for c in families] == [_ref_is_cover(c) for c in families]
    assert is_cover(cover)
    if cat.non_identities():  # some arrow is no composite of non-identities
        assert not is_cover(families[-1])


@pytest.mark.parametrize("name,cov", fx.all_cover_fixtures())
def test_is_cover_matches_union_closure_on_fixtures(name, cov):
    families = _families(random.Random(name), cov)
    assert [is_cover(c) for c in families] == [_ref_is_cover(c) for c in families]


def _ref_union_ids(parts):
    """The parts' ids with the morphisms closed by passes over the whole
    composition table until one adds nothing, covering unions included."""
    parent = parts[0].parent
    objs = set().union(*(p._objset for p in parts))
    mors = set().union(*(p._mors.keys() for p in parts))
    changed = True
    while changed:
        changed = False
        for (g, f), h in parent.comp.items():
            if g in mors and f in mors and h not in mors:
                mors.add(h)
                changed = True
    return objs, mors


def _assert_union_matches_the_reference(cover: Cover) -> None:
    parts = list(cover.parts.values())
    objs, mors = _ref_union_ids(parts)
    u = union_closure(parts)
    assert u == Subcategory._unchecked(cover.parent, objs, mors)
    assert u.morphisms == tuple(m for m in cover.parent.morphisms if m.name in mors)
    assert is_cover(cover) == (objs >= cover.parent._objset and mors >= cover.parent._mors.keys())


@given(st.integers(0, 10**9), st.sampled_from(["poset", "dag"]), st.booleans())
def test_union_closure_and_is_cover_match_the_full_table_pass(seed, kind, ideal):
    rng = random.Random(seed)
    if kind == "poset":
        cat = fx.random_poset(rng, rng.randint(2, 7))
    else:
        cat = fx.random_dag_category(rng, rng.randint(2, 5), max_morphisms=40)
    cover = (fx.random_ideal_cover if ideal else fx.random_filter_cover)(rng, cat)
    families = _families(rng, cover)  # covering, a part short, and non-full parts
    families.append(Cover(cat, ["1", "2"], {"1": full_subcategory(cat, cat.objects[:1]),
                                            "2": full_subcategory(cat, cat.objects[-1:])}))
    for c in families:
        _assert_union_matches_the_reference(c)


def test_covering_union_on_an_unvalidated_parent():
    # g o f names an arrow the parent never declares; f and g lie in different parts
    cat = FinCategory.build("U", ["x", "y", "z"], [("f", "x", "y"), ("g", "y", "z")], {("g", "f"): "gf"})
    assert not validate_category(cat).ok
    parts = {"1": full_subcategory(cat, ["x", "y"]), "2": full_subcategory(cat, ["y", "z"])}
    cover = Cover(cat, ["1", "2"], parts)
    assert _ref_union_ids(list(cover.parts.values()))[1] >= {"gf"}
    _assert_union_matches_the_reference(cover)
    assert is_cover(cover)


def test_union_of_parts_without_closure_is_detected():
    # parts {x,y} and {y,z} miss k; union_closure adds it, so they do cover
    c = fx.counterexample_category()
    d1 = full_subcategory(c, ["x", "y"])
    d2 = full_subcategory(c, ["y", "z"])
    u = union_closure([d1, d2])
    assert u.has_morphism("k")
    # but the raw union (no closure) would not contain k
    raw = {m.name for m in d1.morphisms} | {m.name for m in d2.morphisms}
    assert "k" not in raw


def _complement(sub):
    """Full subcategory on the objects outside ``sub``."""
    return full_subcategory(sub.parent, [x for x in sub.parent.objects if x not in sub.objects])


def _to_two_point_poset(ideal):
    """The functor onto ``0 < 1`` sending the ideal to 0 and the rest to 1."""
    parent = ideal.parent
    target = FinCategory.build("P2", ["0", "1"], [("le", "0", "1")])
    object_map = {x: "0" if ideal.has_object(x) else "1" for x in parent.objects}
    morphism_map = {
        m.name: "le" if object_map[m.dom] != object_map[m.cod] else target.identity_name(object_map[m.dom])
        for m in parent.morphisms
    }
    return FunctorMap(parent, target, object_map, morphism_map)


def test_complement_swaps_ideal_and_filter():
    c = fx.counterexample_category()
    d1 = full_subcategory(c, ["x", "y"])
    comp = _complement(d1)
    assert comp.objects == ("z",)
    assert classify_subcategory(comp) == (False, True)  # h, k enter from outside
    v = fx.poset_v()
    down = full_subcategory(v, ["c", "a"])
    up = _complement(down)
    assert classify_subcategory(down).is_ideal
    assert classify_subcategory(up).is_filter


@given(st.integers(0, 10**9), st.integers(1, 7))
def test_complement_of_an_ideal_is_a_filter(seed, n):
    r = random.Random(seed)
    cat = fx.random_dag_category(r, n, max_morphisms=60) if r.random() < 0.5 else fx.random_poset(r, n)
    ideal = ideal_closure(cat, r.sample(cat.objects, r.randint(0, n)))
    assert classify_subcategory(ideal).is_ideal
    assert classify_subcategory(_complement(ideal)).is_filter
    assert _complement(_complement(ideal)) == ideal


def test_two_point_poset_classifier():
    c = fx.counterexample_category()
    d1 = full_subcategory(c, ["x", "y"])
    F = _to_two_point_poset(d1)
    assert validate_category(F.target).ok
    assert validate_functor(F).ok
    assert F.object_map == {"x": "0", "y": "0", "z": "1"}
    assert F.morphism_map["h"] == "le" and F.morphism_map["k"] == "le"
    assert full_subcategory(c, [x for x, a in F.object_map.items() if a == "0"]) == d1
    # a filter that is not an ideal has an arrow 1 -> 0, which 0 < 1 lacks
    assert not validate_functor(_to_two_point_poset(full_subcategory(c, ["y", "z"]))).ok


@given(st.integers(0, 10**9), st.integers(1, 7))
def test_every_ideal_classifies_by_a_functor_onto_two_points(seed, n):
    r = random.Random(seed)
    cat = fx.random_dag_category(r, n, max_morphisms=60) if r.random() < 0.5 else fx.random_poset(r, n)
    ideal = ideal_closure(cat, r.sample(cat.objects, r.randint(0, n)))
    F = _to_two_point_poset(ideal)
    assert validate_functor(F).ok
    assert full_subcategory(cat, [x for x, a in F.object_map.items() if a == "0"]) == ideal


@pytest.mark.parametrize("k", range(6))
def test_tuple_count_is_the_number_listed(k):
    c = fx.counterexample_category()
    cov = Cover(c, [str(i) for i in range(k)], {str(i): full_subcategory(c, ["x"]) for i in range(k)})
    for variant in VARIANTS:
        for m in range(6):
            assert cov.tuple_count(m, variant) == len(list(cov.tuples(m, variant))), (variant, m)
    with pytest.raises(ValueError, match="unknown variant: 'bogus'"):
        cov.tuple_count(1, "bogus")


@pytest.mark.parametrize("variant,k,length,count", [
    ("ordinary", 2, 64, 2 ** 64),
    ("ordinary", 2, 65, None),
    ("ordinary", 2, 10 ** 9, None),
    ("ordinary", 1, 10 ** 9, 1),
    ("ordered", 1, 10 ** 9, 1),
    ("ordered", 2, 10 ** 9, 10 ** 9 + 1),
    ("ordered", 3, 10 ** 9, comb(10 ** 9 + 2, 2)),
    ("ordered", 34, 34, comb(67, 34)),
    ("ordered", 36, 35, None),
    ("reduced", 66, 33, comb(66, 33)),
    ("reduced", 70, 35, None),
    ("reduced", 200, 199, 200),
    ("reduced", 200, 10 ** 9, 0),
])
def test_tuple_count_is_none_above_2_to_the_64(variant, k, length, count):
    # None iff the count exceeds 2**64; a level of any length is counted at once
    c = fx.counterexample_category()
    part = full_subcategory(c, ["x"])
    cov = Cover(c, [str(i) for i in range(k)], {str(i): part for i in range(k)})
    assert cov.tuple_count(length, variant) == count


@pytest.mark.parametrize("name,cov", fx.all_cover_fixtures())
def test_cover_tuples_match_itertools_and_closed_form(name, cov):
    labels = cov.index_order
    k = len(labels)
    references = {
        "ordinary": (lambda n: product(labels, repeat=n), lambda n: k ** n),
        "ordered": (lambda n: combinations_with_replacement(labels, n), lambda n: comb(k + n - 1, n)),
        "reduced": (lambda n: combinations(labels, n), lambda n: comb(k, n)),
    }
    assert tuple(references) == VARIANTS
    for variant, (reference, size) in references.items():
        for n in range(1, 5):
            tuples = list(cov.tuples(n, variant))
            assert tuples == list(reference(n)), (variant, n)
            assert len(tuples) == size(n), (variant, n)
            for t in tuples:
                cov.check_tuple(t, variant)
    with pytest.raises(ValueError, match="unknown variant"):
        cov.tuples(1, "bogus")  # at the call, before any iteration
    with pytest.raises(ValueError, match="unknown variant"):
        cov.check_tuple(labels[:1], "bogus")
    with pytest.raises(ValueError, match="unknown cover label"):
        cov.check_tuple(("no such label",), "ordinary")


@pytest.mark.parametrize("name,cov", fx.all_cover_fixtures())
def test_cover_check_tuple_rejects_what_the_variant_forbids(name, cov):
    a, b = cov.index_order[:2]
    cov.check_tuple((b, a), "ordinary")
    cov.check_tuple((a, a), "ordinary")
    cov.check_tuple((a, a), "ordered")
    with pytest.raises(ValueError, match="weakly increasing"):
        cov.check_tuple((b, a), "ordered")
    with pytest.raises(ValueError, match="strictly increasing"):
        cov.check_tuple((b, a), "reduced")
    with pytest.raises(ValueError, match="strictly increasing"):
        cov.check_tuple((a, a), "reduced")


def test_closures_are_classified_correctly():
    v = fx.poset_v()
    down = ideal_closure(v, ["a"])
    assert down.objects == ("a", "c")
    assert classify_subcategory(down).is_ideal
    up = filter_closure(v, ["c"])
    assert up == full_subcategory(v, v.objects)
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
