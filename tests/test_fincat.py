import random

import pytest
from hypothesis import given, strategies as st

from catnerve.fincat import (
    FinCategory,
    FunctorMap,
    Mor,
    Violation,
    _generators,
    identity_functor,
    validate_category,
    validate_functor,
)
from catnerve import fixtures as fx


def test_build_creates_identities_and_identity_rows():
    c = FinCategory.build("A", ["x", "y"], [("f", "x", "y")])
    assert c.identity == {"x": "id_x", "y": "id_y"}
    assert {m.name for m in c.morphisms} == {"id_x", "id_y", "f"}
    assert c.comp[("f", "id_x")] == "f"
    assert c.comp[("id_y", "f")] == "f"
    assert c.compose("id_y", "f") == "f"
    assert validate_category(c).ok


def test_build_never_overwrites_explicit_entries():
    # a deliberately wrong identity row must survive so validation can see it
    c = FinCategory.build(
        "A", ["x", "y"], [("f", "x", "y"), ("g", "x", "y")], {("id_y", "f"): "g"}
    )
    assert c.comp[("id_y", "f")] == "g"
    rep = validate_category(c)
    assert not rep.ok
    assert any(v.rule == "identity-law" for v in rep.violations)


def test_hom_set_declaration_order_and_errors():
    c = fx.counterexample_category()
    assert c.hom_set("x", "y") == ["f", "g"]
    assert c.hom_set("y", "x") == []
    with pytest.raises(ValueError):
        c.hom_set("x", "nope")
    with pytest.raises(ValueError):
        c.mor("nope")
    with pytest.raises(ValueError):
        c.compose("f", "h")  # not composable, no table entry


def test_validate_reports_each_rule():
    dup_obj = FinCategory("B", ["x", "x"], [Mor("id_x", "x", "x")], {"x": "id_x"}, {})
    assert any(v.rule == "objects-distinct" for v in validate_category(dup_obj).violations)

    dup_mor = FinCategory(
        "B", ["x"], [Mor("id_x", "x", "x"), Mor("id_x", "x", "x")], {"x": "id_x"},
        {("id_x", "id_x"): "id_x"},
    )
    assert any(v.rule == "morphisms-distinct" for v in validate_category(dup_mor).violations)

    dangling = FinCategory("B", ["x"], [Mor("id_x", "x", "x"), Mor("f", "x", "ghost")],
                           {"x": "id_x"}, {("id_x", "id_x"): "id_x"})
    assert any(v.rule == "endpoints" for v in validate_category(dangling).violations)

    no_id = FinCategory("B", ["x"], [], {}, {})
    assert any(v.rule == "identity" for v in validate_category(no_id).violations)

    bad_ref = FinCategory("B", ["x"], [Mor("id_x", "x", "x")], {"x": "id_x"},
                          {("id_x", "id_x"): "id_x", ("id_x", "ghost"): "id_x"})
    assert any(v.rule == "composition-reference" for v in validate_category(bad_ref).violations)


def test_composition_totality_message_format():
    c = FinCategory.build(
        "B", ["x", "y", "z"],
        [("f", "x", "y"), ("h", "y", "z")],  # missing (h, f) entry
    )
    rep = validate_category(c)
    assert not rep.ok
    assert "composition not total at (h, f)" in rep.messages()[0]


def test_validate_extraneous_and_endpoint_rules():
    c = FinCategory.build(
        "B", ["x", "y", "z"],
        [("f", "x", "y"), ("h", "y", "z"), ("k", "x", "z"), ("l", "y", "z")],
        {("h", "f"): "k", ("l", "f"): "k", ("f", "h"): "k", ("k", "f"): "k"},
    )
    rep = validate_category(c)
    rules = {v.rule for v in rep.violations}
    assert "composition-extraneous" in rules  # (f, h) and (k, f) are not composable
    assert rep.ok is False


def test_validate_wrong_composite_endpoints():
    c = FinCategory.build(
        "B", ["x", "y", "z"],
        [("f", "x", "y"), ("h", "y", "z"), ("w", "y", "z")],
        {("h", "f"): "w", ("w", "f"): "w"},
    )
    rep = validate_category(c)
    assert any(v.rule == "composition-endpoints" for v in rep.violations)


def test_validate_associativity():
    # f then h then p, with (p o h) o f forced different from p o (h o f)
    c = FinCategory.build(
        "B", ["x", "y", "z", "w"],
        [("f", "x", "y"), ("h", "y", "z"), ("p", "z", "w"),
         ("hf", "x", "z"), ("ph", "y", "w"), ("a", "x", "w"), ("b", "x", "w")],
        {("h", "f"): "hf", ("p", "h"): "ph",
         ("p", "hf"): "a", ("ph", "f"): "b"},
    )
    assert validate_category(c).violations == (
        Violation("associativity", ("p", "h", "f"), "((p o h) o f) = b but (p o (h o f)) = a"),
    )


def test_validate_associativity_orders_triples_of_one_pair():
    # two non-associative triples under the pair (h, f), named in the
    # declaration order of the arrows out of z (q before p)
    c = FinCategory.build(
        "B", ["x", "y", "z", "w"],
        [("f", "x", "y"), ("h", "y", "z"), ("q", "z", "w"), ("p", "z", "w"),
         ("hf", "x", "z"), ("ph", "y", "w"), ("qh", "y", "w"),
         ("a", "x", "w"), ("b", "x", "w"), ("c", "x", "w"), ("d", "x", "w")],
        {("h", "f"): "hf", ("p", "h"): "ph", ("q", "h"): "qh",
         ("p", "hf"): "a", ("ph", "f"): "b", ("q", "hf"): "c", ("qh", "f"): "d"},
    )
    assert validate_category(c).violations == (
        Violation("associativity", ("q", "h", "f"), "((q o h) o f) = d but (q o (h o f)) = c"),
        Violation("associativity", ("p", "h", "f"), "((p o h) o f) = b but (p o (h o f)) = a"),
    )


def test_opposite_is_involutive_and_swaps():
    c = fx.counterexample_category()
    op = c.opposite()
    assert op.mor("f").dom == "y" and op.mor("f").cod == "x"
    assert op.compose("f", "h") == "k"  # reversed table
    assert validate_category(op).ok
    assert op.opposite() == c
    assert op.name == "C^op" and op.opposite().name == "C"


def test_acyclic_and_poset_predicates():
    assert fx.counterexample_category().is_acyclic()
    assert not fx.counterexample_category().is_poset()  # f, g parallel
    assert fx.poset_v().is_poset()
    iso = FinCategory.build(
        "Iso", ["x", "y"], [("f", "x", "y"), ("g", "y", "x")],
        {("g", "f"): "id_x", ("f", "g"): "id_y"},
    )
    assert validate_category(iso).ok
    assert not iso.is_acyclic()


def _ref_is_acyclic(cat):
    """No non-identity arrow x -> y with a path of such arrows from y back to x."""
    succ = {x: set() for x in cat.objects}
    for m in cat.non_identities():
        if m.dom in succ and m.cod in succ:
            succ[m.dom].add(m.cod)

    def reaches(start, goal):
        seen, todo = set(), [start]
        while todo:
            x = todo.pop()
            if x == goal:
                return True
            if x not in seen:
                seen.add(x)
                todo.extend(succ[x])
        return False

    return not any(reaches(y, x) for x in succ for y in succ[x])


@given(st.integers(0, 10**9), st.integers(1, 6), st.integers(0, 8), st.integers(0, 6))
def test_is_acyclic_is_exact_on_unvalidated_tables(seed, n, k, ring):
    # k arbitrary arrows and a ring through up to ``ring`` objects, with no
    # composites: loops, two-way pairs and longer cycles all occur
    rng = random.Random(seed)
    objs = [f"o{i}" for i in range(n)]
    arrows = [(f"a{i}", rng.choice(objs), rng.choice(objs)) for i in range(k)]
    on_ring = rng.sample(objs, min(ring, n))
    arrows += [(f"r{i}", x, on_ring[(i + 1) % len(on_ring)]) for i, x in enumerate(on_ring)]
    cat = FinCategory.build("R", objs, arrows)
    assert cat.is_acyclic() == _ref_is_acyclic(cat), arrows


def test_is_acyclic_counts_a_repeated_object_once():
    mors = [Mor("id_x", "x", "x"), Mor("id_y", "y", "y"), Mor("f", "x", "y")]
    ids = {"x": "id_x", "y": "id_y"}
    assert FinCategory("L", ["x", "y", "x"], mors, ids, {}).is_acyclic()
    assert not FinCategory("O", ["x", "y", "x"], [*mors, Mor("g", "y", "x")], ids, {}).is_acyclic()


def test_structural_equality_ignores_name():
    a = fx.counterexample_category()
    b = FinCategory("renamed", a.objects, a.morphisms, a.identity, a.comp)
    assert a == b
    c = FinCategory.build("A", ["x"], [])
    assert a != c


def test_identity_functor_and_composition():
    c = fx.counterexample_category()
    f = identity_functor(c)
    assert f.is_identity()
    assert validate_functor(f).ok
    assert validate_functor(f).isomorphism is True
    assert f.after(f).is_identity()


def test_validate_functor_raises_on_dangling_targets():
    c = fx.poset_v()
    f = FunctorMap(c, c, {x: x for x in c.objects} | {"a": "ghost"},
                   {m.name: m.name for m in c.morphisms})
    with pytest.raises(ValueError):
        validate_functor(f)
    g = FunctorMap(c, c, {x: x for x in c.objects},
                   {m.name: m.name for m in c.morphisms} | {"ca": "ghost"})
    with pytest.raises(ValueError):
        validate_functor(g)


def test_validate_functor_reports_violations():
    c = fx.poset_v()
    # constant functor onto an idempotent that is not the identity
    m = FinCategory.build("M", ["s"], [("e", "s", "s")], {("e", "e"): "e"})
    assert validate_category(m).ok
    f = FunctorMap(c, m, {x: "s" for x in c.objects},
                   {n.name: "e" for n in c.morphisms})
    rep = validate_functor(f)
    assert any(v.rule == "preserves-identity" for v in rep.violations)
    assert rep.isomorphism is False

    partial = FunctorMap(c, c, {"a": "a"}, {})
    rep2 = validate_functor(partial)
    rules = {v.rule for v in rep2.violations}
    assert "object-map-total" in rules and "morphism-map-total" in rules


def test_validate_functor_composition_rule():
    c = fx.counterexample_category()
    m = {x: x for x in c.objects}
    mm = {n.name: n.name for n in c.morphisms}
    mm["k"] = "k"
    mm["g"] = "f"  # ok: endpoints still match, composition h o f = k preserved
    assert validate_functor(FunctorMap(c, c, m, mm)).ok
    mm2 = dict(mm)
    mm2["h"] = "id_y"  # breaks endpoints and composition
    rep = validate_functor(FunctorMap(c, c, m, mm2))
    assert not rep.ok


@given(st.integers(0, 10**9), st.integers(2, 7))
def test_random_posets_validate_and_dualize(seed, n):
    cat = fx.random_poset(random.Random(seed), n)
    assert validate_category(cat).ok
    assert cat.is_poset()
    assert cat.opposite().opposite() == cat
    assert validate_category(cat.opposite()).ok


@given(st.integers(0, 10**9), st.integers(2, 6))
def test_random_dag_categories_validate(seed, n):
    cat = fx.random_dag_category(random.Random(seed), n, max_morphisms=120)
    assert validate_category(cat).ok
    assert cat.is_acyclic()


def _per_triple_reference(cat: FinCategory) -> list[tuple]:
    """The whole axiom check with associativity walked triple by triple:
    ``validate_category`` must give the same violations in the same order."""
    v: list[tuple] = []
    add = v.append

    seen: set[str] = set()
    for x in cat.objects:
        if x in seen:
            add(("objects-distinct", (x,), f"object id {x!r} declared twice"))
        seen.add(x)
    objset = set(cat.objects)

    mors: dict[str, Mor] = {}
    for m in cat.morphisms:
        if m.name in mors:
            add(("morphisms-distinct", (m.name,), f"morphism id {m.name!r} declared twice"))
        mors[m.name] = m
        for end, side in ((m.dom, "domain"), (m.cod, "codomain")):
            if end not in objset:
                add(("endpoints", (m.name,), f"morphism {m.name!r} has unknown {side} {end!r}"))

    for x in cat.objects:
        i = cat.identity.get(x)
        if i is None:
            add(("identity", (x,), f"object {x!r} has no identity"))
        elif i not in mors:
            add(("identity", (x, i), f"identity {i!r} of {x!r} is not a declared morphism"))
        else:
            m = mors[i]
            if m.dom != x or m.cod != x:
                add(("identity", (x, i), f"identity {i!r} of {x!r} has endpoints {m.dom!r} -> {m.cod!r}"))
    for x in cat.identity:
        if x not in objset:
            add(("identity", (x,), f"identity assigned to unknown object {x!r}"))

    for (g, f), h in cat.comp.items():
        missing = [n for n in (g, f, h) if n not in mors]
        if missing:
            add(("composition-reference", (g, f, h),
                 f"entry ({g}, {f}) = {h} references unknown morphism(s) {missing}"))
            continue
        if mors[f].cod != mors[g].dom:
            add(("composition-extraneous", (g, f), f"composition defined for non-composable pair ({g}, {f})"))
            continue
        if mors[h].dom != mors[f].dom or mors[h].cod != mors[g].cod:
            add(("composition-endpoints", (g, f, h), f"composite {h} of ({g}, {f}) has wrong endpoints"))

    by_dom: dict[str, list[Mor]] = {}
    for m in cat.morphisms:
        by_dom.setdefault(m.dom, []).append(m)
    for f in cat.morphisms:
        for g in by_dom.get(f.cod, ()):
            if (g.name, f.name) not in cat.comp:
                add(("composition-totality", (g.name, f.name), f"composition not total at ({g.name}, {f.name})"))

    for m in cat.morphisms:
        i_dom = cat.identity.get(m.dom)
        i_cod = cat.identity.get(m.cod)
        if i_dom is not None and cat.comp.get((m.name, i_dom), m.name) != m.name:
            add(("identity-law", (m.name,), f"{m.name} o {i_dom} = {cat.comp[(m.name, i_dom)]} != {m.name}"))
        if i_cod is not None and cat.comp.get((i_cod, m.name), m.name) != m.name:
            add(("identity-law", (m.name,), f"{i_cod} o {m.name} = {cat.comp[(i_cod, m.name)]} != {m.name}"))

    for (g, f), gf in cat.comp.items():
        if g not in mors or f not in mors or gf not in mors:
            continue
        if mors[f].cod != mors[g].dom:
            continue
        for h in by_dom.get(mors[g].cod, ()):
            hg = cat.comp.get((h.name, g))
            left = cat.comp.get((h.name, gf))
            right = cat.comp.get((hg, f)) if hg is not None else None
            if hg is None or left is None or right is None:
                continue
            if left != right:
                add(("associativity", (h.name, g, f),
                     f"(({h.name} o {g}) o {f}) = {right} but ({h.name} o ({g} o {f})) = {left}"))
    return v


def _times_cyclic(cat: FinCategory, m: int) -> FinCategory:
    """``cat x Z/m``: arrow ``(r, a)`` is named ``r`` for a = 0, else ``r+a``."""
    def name(r: str, a: int) -> str:
        return f"{r}+{a}" if a else r

    mors = [Mor(name(r.name, a), r.dom, r.cod) for r in cat.morphisms for a in range(m)]
    comp = {
        (name(g, b), name(f, a)): name(gf, (a + b) % m)
        for (g, f), gf in cat.comp.items() for a in range(m) for b in range(m)
    }
    return FinCategory(f"{cat.name}xZ{m}", cat.objects, mors, cat.identity, comp)


def _perturb(rng: random.Random, cat: FinCategory) -> FinCategory:
    """A copy of ``cat`` with one to four random defects in its objects,
    arrows, identities or table."""
    objects = list(cat.objects)
    mors = list(cat.morphisms)
    identity = dict(cat.identity)
    comp = dict(cat.comp)
    names = [m.name for m in mors]
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(10) if comp else rng.randrange(3, 10)
        key = g, f = rng.choice(list(comp)) if comp else ("", "")
        if kind == 0 and comp[key] in names:  # another arrow of the same hom-set
            gf = cat.mor(comp[key])
            comp[key] = rng.choice(cat.hom_set(gf.dom, gf.cod))
        elif kind == 1 and g in names:  # an arrow of another hom-set
            comp[key] = c = rng.choice(names)
            if rng.random() < 0.5:
                # extraneous entries (h, c) for h out of cod g: the only
                # extraneous entries the associativity walk of (g, f) reads
                for h in [m for m in cat.morphisms if m.dom == cat.mor(g).cod]:
                    comp.setdefault((h.name, c), rng.choice(names))
        elif kind == 2:
            del comp[key]
        elif kind == 3:  # extraneous or dangling
            comp[(rng.choice(names + ["ghost"]), rng.choice(names))] = rng.choice(names + ["ghost"])
        elif kind == 4:  # an arrow declared twice
            m = rng.choice(mors)
            ends = rng.choice([(m.dom, m.cod), (rng.choice(cat.objects), rng.choice(cat.objects))])
            mors.insert(rng.randrange(len(mors) + 1), Mor(m.name, *ends))
        elif kind == 5:  # an object declared twice
            objects.insert(rng.randrange(len(objects) + 1), rng.choice(cat.objects))
        elif kind == 6:  # an arrow with an unknown endpoint
            i = rng.randrange(len(mors))
            name, dom, cod = mors[i]
            mors[i] = rng.choice([Mor(name, "nowhere", cod), Mor(name, dom, "nowhere")])
        elif kind == 7:  # a missing identity
            identity.pop(rng.choice(cat.objects), None)
        elif kind == 8:  # an identity naming an undeclared arrow or one with other endpoints
            identity[rng.choice(cat.objects)] = rng.choice(names + ["ghost"])
        else:  # an identity for an unknown object
            identity["nowhere"] = rng.choice(names)
    return FinCategory(cat.name, objects, mors, identity, comp)


def test_validate_matches_per_triple_reference():
    rng = random.Random(20151103)
    bases = [c for _, c in fx.category_fixtures()] + [fx.no_weighting_category()]
    bases += [fx.random_poset(rng, rng.randint(3, 6)) for _ in range(6)]
    bases += [fx.random_dag_category(rng, rng.randint(3, 5), max_morphisms=40) for _ in range(6)]
    bases += [_times_cyclic(fx.random_poset(rng, rng.randint(3, 4)), rng.randint(2, 3)) for _ in range(4)]
    bases += [_times_cyclic(fx.fork_category(), 2), _times_cyclic(fx.delta_category(2), 3)]
    rules: set[str] = set()
    messages: set[str] = set()
    for base in bases:
        assert validate_category(base).ok
        for _ in range(60):
            cat = _perturb(rng, base)
            got = [(x.rule, x.subject, x.message) for x in validate_category(cat).violations]
            assert got == _per_triple_reference(cat), (cat.objects, cat.morphisms, cat.identity, cat.comp)
            rules.update(r for r, _, _ in got)
            messages.update(m for _, _, m in got)
    assert {"associativity", "composition-endpoints", "composition-extraneous",
            "composition-reference", "composition-totality", "endpoints", "identity",
            "identity-law", "morphisms-distinct", "objects-distinct"} <= rules
    for wording in ("has unknown domain", "has unknown codomain", "has no identity",
                    "is not a declared morphism", "has endpoints", "assigned to unknown object"):
        assert any(wording in m for m in messages), wording


# -- the proof by Light's test vs the full report -----------------------------

def _cyclic(m: int) -> FinCategory:
    """The group ``Z/m`` as a one-object category."""
    return _times_cyclic(FinCategory.build("pt", ["x"]), m)


def _reassociate(rng: random.Random, cat: FinCategory):
    """``cat`` with one composite of two non-identities replaced by another
    arrow of its hom-set, or None if no such change exists.  The table
    stays total with correct endpoints and identity laws, so only
    associativity can fail."""
    choices = [
        (key, other) for key, gf in cat.comp.items()
        if not cat.is_identity(key[0]) and not cat.is_identity(key[1])
        for other in cat.hom_set(cat.mor(gf).dom, cat.mor(gf).cod) if other != gf
    ]
    if not choices:
        return None
    key, other = rng.choice(choices)
    return FinCategory(cat.name, cat.objects, cat.morphisms, cat.identity, {**cat.comp, key: other})


def _ref_rows(cat: FinCategory) -> dict[str, dict[str, str]]:
    """The rows ``after[f] = {h: h o f}`` of a total table, for the
    arrows ``h`` out of ``cod f`` in declaration order."""
    return {f.name: {h.name: cat.comp[h.name, f.name] for h in cat.morphisms if h.dom == f.cod}
            for f in cat.morphisms}


def _holds_on(cat: FinCategory, middles) -> bool:
    """Light's test on a total table: ``(h o g) o f = h o (g o f)`` for
    every composable triple whose middle arrow ``g`` is in ``middles``."""
    comp = cat.comp
    return all(
        comp[comp[h.name, g], f.name] == comp[h.name, comp[g, f.name]]
        for g in middles
        for f in cat.morphisms if f.cod == cat.mor(g).dom
        for h in cat.morphisms if h.dom == cat.mor(g).cod
    )


def _reached(cat: FinCategory, gens) -> set[str]:
    """The identities closed under composing with ``gens`` on the left."""
    reached = set(cat.identity.values())
    todo = list(reached)
    while todo:
        a = todo.pop()
        for g in gens:
            ga = cat.comp.get((g, a))
            if ga is not None and ga not in reached:
                reached.add(ga)
                todo.append(ga)
    return reached


def _random_category(rng: random.Random, kind: str) -> FinCategory:
    if kind == "poset":
        return fx.random_poset(rng, rng.randint(1, 7))
    if kind == "dag":
        return fx.random_dag_category(rng, rng.randint(1, 5), max_morphisms=40)
    if kind == "cyclic":
        return _cyclic(rng.randint(1, 6))
    return _times_cyclic(fx.random_poset(rng, rng.randint(1, 4)), rng.randint(2, 3))


def _report(cat: FinCategory) -> list[tuple]:
    return [(x.rule, x.subject, x.message) for x in validate_category(cat).violations]


@given(st.integers(0, 10**9), st.sampled_from(["poset", "dag", "cyclic", "product"]))
def test_proof_succeeds_exactly_when_the_report_is_ok(seed, kind):
    rng = random.Random(seed)
    base = _random_category(rng, kind)
    assert validate_category(base).ok
    gens = _generators(base, _ref_rows(base))
    assert _holds_on(base, gens)
    assert _reached(base, gens) == {m.name for m in base.morphisms}
    composites = {gf for (g, f), gf in base.comp.items()
                  if not base.is_identity(g) and not base.is_identity(f)}
    assert {m.name for m in base.non_identities()} - composites <= set(gens)

    cats = [_perturb(rng, base) for _ in range(4)] + [_reassociate(rng, base) for _ in range(4)]
    for cat in filter(None, cats):
        ref = _per_triple_reference(cat)
        assert validate_category(cat).ok == (not ref), cat.comp
        assert _report(cat) == ref, cat.comp
        if all(rule == "associativity" for rule, _, _ in ref):  # sound structure
            assert _holds_on(cat, _generators(cat, _ref_rows(cat))) == (not ref), cat.comp


def test_report_names_failures_whose_middle_arrow_is_no_generator():
    # By Light's argument a failing table also fails at some triple whose
    # middle arrow is a generator, so no table fails at non-generator
    # middles only; the report must name those triples too.
    rng = random.Random(1961)
    bases = [_cyclic(m) for m in (3, 4, 5, 6)]
    bases += [_times_cyclic(fx.random_poset(rng, rng.randint(2, 4)), rng.randint(2, 3)) for _ in range(6)]
    bases += [fx.random_dag_category(rng, rng.randint(3, 5), max_morphisms=40) for _ in range(6)]
    away = 0
    for base in bases:
        for _ in range(10):
            cat = _reassociate(rng, base)
            if cat is None:
                break
            ref = _per_triple_reference(cat)
            assert {rule for rule, _, _ in ref} <= {"associativity"}  # sound structure
            assert _report(cat) == ref and validate_category(cat).ok == (not ref)
            gens = set(_generators(cat, _ref_rows(cat)))
            assert _holds_on(cat, gens) == (not ref), cat.comp
            assert _reached(cat, gens) == {m.name for m in cat.morphisms}
            middles = {subject[1] for _, subject, _ in ref}
            if ref:
                assert middles & gens, cat.comp
                away += bool(middles - gens)
    assert away >= 10
