"""Cover pieces are built once and shared; every consumer still sees
exactly the pieces it built for itself before.

The references below build each piece with its own validated
intersection and a standalone category per piece, as the consumers did
before ``Cover.piece`` existed and before a ``Subcategory`` was itself a
``FinCategory``.
"""

import random
import sys
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement, product

import pytest

from catnerve import cech, covers, fixtures as fx
from catnerve.covers import Cover, Subcategory, classify_subcategory, ideal_closure, is_cover
from catnerve.euler import euler_characteristic, inclusion_exclusion_sum, inclusion_exclusion_terms
from catnerve.fincat import FinCategory, ValidationReport, Violation, validate_category
from catnerve.grothendieck import (
    GrObject,
    ReducedGrothendieck,
    adjunction_check_R,
    adjunction_check_pi,
    ordered_gr_hom,
)
from catnerve.io import emit_category, emit_cover


# -- references ------------------------------------------------------------

def _names(sub):
    return {m.name for m in sub.morphisms}


def _ref_intersect(parts):
    """Intersection through the validating constructor."""
    parent = parts[0].parent
    objs = set(parts[0].objects)
    mors = _names(parts[0])
    for p in parts[1:]:
        objs &= set(p.objects)
        mors &= _names(p)
    return Subcategory(parent, objs, mors)


def _ref_union_closure(parts):
    """Union closed under composition, through the validating constructor."""
    parent = parts[0].parent
    objs = set().union(*(p.objects for p in parts))
    mors = set().union(*(_names(p) for p in parts))
    changed = True
    while changed:
        changed = False
        for (g, f), h in parent.comp.items():
            if g in mors and f in mors and h not in mors:
                mors.add(h)
                changed = True
    return Subcategory(parent, objs, mors)


def _ref_as_category(sub):
    """A standalone copy of a subcategory, built from its parent and its
    id sets alone: the restricted table comes from a scan of the
    parent's whole table."""
    parent = sub.parent
    objset, morset = set(sub.objects), _names(sub)
    objects = tuple(x for x in parent.objects if x in objset)
    names = tuple(m.name for m in parent.morphisms if m.name in morset)
    comp = {
        (g, f): h
        for (g, f), h in parent.comp.items()
        if g in morset and f in morset
    }
    return FinCategory(
        f"{parent.name}[{','.join(objects)}]",
        objects,
        [parent.mor(f) for f in names],
        {x: parent.identity_name(x) for x in objects},
        comp,
    )


def _ref_piece(cover, labels):
    return _ref_intersect([cover.parts[a] for a in dict.fromkeys(labels)])


def _gr_name(labels, obj):
    return f"{obj}@{','.join(labels)}"


class _ReferenceGr:
    """The construction with one standalone category per piece and names
    rebuilt wherever they are needed."""

    def __init__(self, cover):
        self.cover = cover
        parent = cover.parent
        order = cover.index_order
        self.tuples = [t for n in range(len(order)) for t in combinations(order, n + 1)]
        self.piece = {t: _ref_as_category(_ref_piece(cover, t)) for t in self.tuples}
        self.objects = [(t, x, _gr_name(t, x)) for t in self.tuples for x in self.piece[t].objects]
        self.morphisms = []  # (phi, component, source name, target name, name)
        self._by_key = {}
        for s in self.tuples:
            for t in self.tuples:
                if not set(t) <= set(s):
                    continue
                phi = tuple(s.index(a) for a in t)
                pc = self.piece[t]
                for x in self.piece[s].objects:
                    for y in pc.objects:
                        for f in pc.hom_set(x, y):
                            src, tgt = _gr_name(s, x), _gr_name(t, y)
                            if s == t and f == parent.identity_name(x):
                                self._by_key[(src, tgt, f)] = f"id_{src}"
                                continue
                            name = f"{f}|{src}=>{tgt}"
                            self.morphisms.append((phi, f, src, tgt, name))
                            self._by_key[(src, tgt, f)] = name
        comp = {}
        for m1 in self.morphisms:
            for m2 in self.morphisms:
                if m2[2] == m1[3]:
                    c = parent.compose(m2[1], m1[1])
                    comp[(m2[4], m1[4])] = self._by_key[(m1[2], m2[3], c)]
        self.category = FinCategory.build(
            f"gr_{cover.name}", [o[2] for o in self.objects],
            [(m[4], m[2], m[3]) for m in self.morphisms], comp)

    def rho_maps(self):
        parent = self.cover.parent
        component = {m[4]: m[1] for m in self.morphisms}
        component.update({f"id_{name}": parent.identity_name(x) for _, x, name in self.objects})
        return ({name: x for _, x, name in self.objects},
                {m.name: component[m.name] for m in self.category.morphisms})

    def pi_maps(self):
        cover = self.cover
        parent = cover.parent
        object_map = {
            x: _gr_name(tuple(a for a in cover.index_order if cover.parts[a].has_object(x)), x)
            for x in parent.objects
        }
        morphism_map = {m.name: self._by_key[(object_map[m.dom], object_map[m.cod], m.name)]
                        for m in parent.morphisms}
        return object_map, morphism_map


def _ref_ordered_gr_hom(cover, X, Y):
    xp = _ref_as_category(_ref_piece(cover, X.labels))
    yp = _ref_as_category(_ref_piece(cover, Y.labels))
    for d, p in ((X, xp), (Y, yp)):
        pos = [cover.position(a) for a in d.labels]
        if any(a > b for a, b in zip(pos, pos[1:])) or not p.has_object(d.obj):
            raise ValueError("bad descriptor")
    phis = [phi for phi in product(range(len(X.labels)), repeat=len(Y.labels))
            if all(a <= b for a, b in zip(phi, phi[1:]))
            and all(X.labels[p] == Y.labels[j] for j, p in enumerate(phi))]
    if not phis or X.obj not in yp.objects:
        return []
    return [(phi, f) for phi in phis for f in yp.hom_set(X.obj, Y.obj)]


def _ref_adjunction_check_pi(cover):
    """The pi check reading both hom-sets of every pair through ``hom_set``,
    with the parts' ideal hypothesis forced (``diagnostic=True``)."""
    rg = ReducedGrothendieck(cover)
    parent = cover.parent
    v = []
    pairs = 0
    for x in parent.objects:
        pix = _gr_name(tuple(a for a in cover.index_order if cover.parts[a].has_object(x)), x)
        for Y in rg.objects:
            pairs += 1
            expected = parent.hom_set(x, Y.obj)
            got = rg.category.hom_set(pix, Y.name)
            components = sorted(rg.component_of(n) for n in got)
            if len(got) != len(expected) or components != sorted(expected):
                v.append(Violation(
                    "adjunction-pi", (x, Y.name),
                    f"|hom({x}, {Y.obj})| = {len(expected)} but |gr(pi({x}), {Y.name})| = {len(got)}",
                ))
    return ValidationReport(tuple(v), details=(f"checked {pairs} pairs",))


# -- inputs ----------------------------------------------------------------

def _random_nonfull_cover(rng, cat, max_parts=4):
    """Parts generated by the blocks of a random partition of the
    non-identity morphisms (closed under composition), with every object
    placed in some part; parts are rarely full."""
    k = rng.randint(2, max_parts)
    objs = [set() for _ in range(k)]
    mors = [set() for _ in range(k)]
    for x in cat.objects:
        objs[rng.randrange(k)].add(x)
    for m in cat.non_identities():
        i = rng.randrange(k)
        mors[i].add(m.name)
        objs[i] |= {m.dom, m.cod}
    parts = {}
    for o, ms in zip(objs, mors):
        if not o:
            continue
        ms |= {cat.identity_name(x) for x in o}
        changed = True
        while changed:
            changed = False
            for (g, f), h in cat.comp.items():
                if g in ms and f in ms and h not in ms:
                    ms.add(h)
                    changed = True
        parts[str(len(parts) + 1)] = Subcategory(cat, o, ms)
    return Cover(cat, sorted(parts), parts, name="N")


def _random_covers():
    rng = random.Random(20261018)
    out = []
    for i in range(48):
        n = rng.randint(3, 6)
        if i % 2:
            cat = fx.random_dag_category(rng, n)
        else:
            cat = fx.random_poset(rng, n, p=0.5)
        kind = ("ideal", "filter", "nonfull")[i % 3]
        if kind == "ideal":
            cov = fx.random_ideal_cover(rng, cat, max_parts=4)
        elif kind == "filter":
            cov = fx.random_filter_cover(rng, cat, max_parts=4)
        else:
            cov = _random_nonfull_cover(rng, cat)
        out.append((f"{kind}-{i}", cov))
    return out


COVERS = fx.all_cover_fixtures() + _random_covers()


def test_random_covers_are_varied():
    random_covers = COVERS[len(fx.all_cover_fixtures()):]
    assert len(random_covers) >= 40
    assert all(is_cover(cov) for _, cov in random_covers)
    assert any(len(cov.index_order) == 4 for _, cov in random_covers)
    nonfull = [cov for name, cov in random_covers if name.startswith("nonfull")]
    assert sum(any(not p.full for p in cov.parts.values()) for cov in nonfull) >= 10


# -- differential tests ----------------------------------------------------

@pytest.mark.parametrize("name,cov", COVERS)
def test_pieces_and_hom_sets_match_reference(name, cov):
    # each piece is the category a standalone copy would be, field by field
    for n in range(len(cov.index_order)):
        for labels in combinations(cov.index_order, n + 1):
            got, ref = cov.piece(labels), _ref_piece(cov, labels)
            assert isinstance(got, FinCategory)
            assert (got.objects, got.morphisms) == (ref.objects, ref.morphisms)
            view = _ref_as_category(ref)
            assert got.name == view.name
            assert (got.objects, got.morphisms) == (view.objects, view.morphisms)
            assert list(got.identity.items()) == list(view.identity.items())
            assert list(got.comp.items()) == list(view.comp.items())
            assert list(got._hom.items()) == list(view._hom.items())
            for x in got.objects:
                for y in got.objects:
                    assert got.hom_set(x, y) == view.hom_set(x, y)
            assert emit_category(got) == emit_category(view)
            assert validate_category(got).ok == validate_category(view).ok
            assert got == view and view == got


@pytest.mark.parametrize("name,cov", COVERS)
def test_reduced_grothendieck_matches_reference(name, cov):
    g = ReducedGrothendieck(cov)
    ref = _ReferenceGr(cov)
    nonempty = [t for t in ref.tuples if ref.piece[t].objects]  # gr builds no empty piece
    assert g.tuples == nonempty
    assert all(isinstance(g.piece[t], Subcategory) for t in g.tuples)
    assert g.piece == {t: ref.piece[t] for t in nonempty}
    assert [(o.labels, o.obj, o.name) for o in g.objects] == ref.objects
    assert [(m.phi, m.component, m.source.name, m.target.name, m.name)
            for m in g.morphisms] == ref.morphisms
    assert list(g._by_key.items()) == list(ref._by_key.items())
    assert g.category == ref.category
    assert list(g.category.comp.items()) == list(ref.category.comp.items())
    assert emit_category(g.category) == emit_category(ref.category)
    rho = g.rho()
    assert (rho.object_map, rho.morphism_map) == ref.rho_maps()
    if all(classify_subcategory(p).is_ideal for p in cov.parts.values()):
        pi = g.pi()
        assert (pi.object_map, pi.morphism_map) == ref.pi_maps()


@pytest.mark.parametrize("name,cov", COVERS)
def test_cech_levels_match_reference(name, cov):
    labels = cov.index_order
    references = {"ordinary": lambda n: product(labels, repeat=n),
                  "ordered": lambda n: combinations_with_replacement(labels, n),
                  "reduced": lambda n: combinations(labels, n)}
    for variant, reference in references.items():
        for n in range(4):
            pieces = cech.level(cov, n, variant)
            tuples = list(reference(n + 1))
            assert [labels for labels, _ in pieces] == tuples
            for (_, piece), t in zip(pieces, tuples):
                ref = _ref_piece(cov, t)
                assert (piece.objects, piece.morphisms) == (ref.objects, ref.morphisms)


@pytest.mark.parametrize("name,cov", COVERS)
def test_inclusion_exclusion_matches_reference(name, cov):
    terms = inclusion_exclusion_terms(cov)
    expected = [
        (labels, euler_characteristic(_ref_as_category(_ref_intersect([cov.parts[a] for a in labels]))).chi)
        for n in range(len(cov.index_order))
        for labels in combinations(cov.index_order, n + 1)
    ]
    assert terms == expected
    total = F(0)
    for labels, chi in expected:
        if chi is None:
            total = None
            break
        total += chi if (len(labels) - 1) % 2 == 0 else -chi
    assert inclusion_exclusion_sum(cov) == total


@pytest.mark.parametrize("name,cov", COVERS[:len(fx.all_cover_fixtures())] + COVERS[-12:])
def test_ordered_gr_hom_matches_reference(name, cov):
    descriptors = [
        GrObject(labels, x)
        for length in (1, 2)
        for labels in combinations_with_replacement(cov.index_order, length)
        for x in _ref_piece(cov, labels).objects
    ]
    for X in descriptors:
        for Y in descriptors:
            assert ordered_gr_hom(cov, X, Y) == _ref_ordered_gr_hom(cov, X, Y)


@pytest.mark.parametrize("name,cov", COVERS)
def test_adjunction_check_pi_matches_reference(name, cov):
    assert adjunction_check_pi(cov, diagnostic=True) == _ref_adjunction_check_pi(cov)


# -- pieces are built once -------------------------------------------------

def _four_part_ideal_cover():
    chain = fx.chain_poset(5)
    parts = {str(i): ideal_closure(chain, [chain.objects[i]]) for i in range(1, 5)}
    return Cover(chain, sorted(parts), parts)


def test_each_piece_is_built_once(monkeypatch):
    cov = _four_part_ideal_cover()
    k = len(cov.index_order)
    assert k == 4 and is_cover(cov)
    calls = []
    real = covers.intersect

    def counting(parts):
        calls.append(tuple(parts))
        return real(parts)

    for mod in [m for n, m in sys.modules.items() if n == "catnerve" or n.startswith("catnerve.")]:
        if getattr(mod, "intersect", None) is real:
            monkeypatch.setattr(mod, "intersect", counting)

    inclusion_exclusion_sum(cov)
    ReducedGrothendieck(cov)
    assert adjunction_check_pi(cov).ok
    assert adjunction_check_R(cov, max_len=3).ok
    for variant in ("ordered", "reduced"):
        for n in range(k):
            cech.level(cov, n, variant)
    assert len(calls) <= 2 ** k - 1
    assert len(calls) == len({frozenset(id(p) for p in c) for c in calls})


def _fence_cover(k):
    """The fence ``a0 < b0 > a1 < b1 > ... > a_k`` covered by the k ideals
    ``{a_i, b_i, a_(i+1)}``: only the 2k - 1 intersections of one part or
    of two neighbouring parts are nonempty."""
    objects = [f"a{i}" for i in range(k + 1)] + [f"b{i}" for i in range(k)]
    arrows = [(f"l{i}", f"a{i}", f"b{i}") for i in range(k)] + [(f"r{i}", f"a{i + 1}", f"b{i}") for i in range(k)]
    fence = FinCategory.build("F", objects, arrows)
    parts = {f"{i:02}": ideal_closure(fence, [f"b{i}"]) for i in range(k)}
    return Cover(fence, sorted(parts), parts)


def test_gr_builds_only_the_nonempty_pieces():
    cov = _fence_cover(20)
    g = ReducedGrothendieck(cov)
    assert len(cov._pieces) == len(g.tuples) == 39
    assert len(g.objects) == 79
    for k in range(1, 7):
        cov = _fence_cover(k)
        g = ReducedGrothendieck(cov)
        assert len(cov._pieces) == 2 * k - 1
        ref = _ReferenceGr(cov)
        assert g.category == ref.category
        assert emit_category(g.category) == emit_category(ref.category)


def _count_category_inits(monkeypatch):
    calls = []
    real = FinCategory.__init__

    def counting(self, *args, **kwargs):
        calls.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(FinCategory, "__init__", counting)
    return calls


def test_no_category_is_copied(monkeypatch):
    cex = fx.counterexample_cover()
    fixture_cover = dict(fx.all_cover_fixtures())["fork_ideals"]
    calls = _count_category_inits(monkeypatch)
    assert cech.check_simplicial_identities(cex, 2, "ordinary").ok
    assert calls == []
    terms = inclusion_exclusion_terms(fixture_cover)
    assert len(terms) == 2 ** len(fixture_cover.index_order) - 1
    assert calls == []


def test_piece_is_keyed_by_label_set():
    cov = fx.counterexample_cover()
    both = cov.piece(("1", "2"))
    assert cov.piece(["2", "1"]) is both
    assert cov.piece(["2", "1", "2", "2"]) is both
    assert cov.piece(iter(("1", "2"))) is both
    assert cov.piece(("1", "1")) is cov.piece(("1",))
    assert both == covers.intersect([cov.parts["1"], cov.parts["2"]])
    assert both.objects == ("y",)
    assert cov.with_order(["2", "1"]).piece(("1", "2")) is both


def test_piece_rejects_unknown_and_empty_labels():
    cov = fx.counterexample_cover()
    with pytest.raises(ValueError, match="unknown cover label: '9'"):
        cov.piece(("1", "9"))
    with pytest.raises(ValueError, match="at least one label"):
        cov.piece(())
    with pytest.raises(ValueError, match="at least one label"):
        ordered_gr_hom(cov, GrObject((), "y"), GrObject(("1",), "y"))


def test_subcategory_hom_set():
    cov = fx.counterexample_cover()
    part = cov.parts["1"]
    assert part.hom_set("x", "y") == cov.parent.hom_set("x", "y") == ["f", "g"]
    both = cov.piece(("1", "2"))
    assert both.hom_set("y", "y") == ["id_y"]
    with pytest.raises(ValueError, match="unknown object id: 'x'"):
        both.hom_set("x", "y")
    # non-full: the parent's hom-set is filtered by the morphism set
    cat = cov.parent
    sub = Subcategory(cat, ["x", "y"], ["id_x", "id_y", "g"])
    assert sub.hom_set("x", "y") == ["g"]


def test_intersection_of_subcategories_is_valid():
    # intersect and union_closure build their results without re-running
    # the closure check
    rng = random.Random(5)
    for _ in range(40):
        cat = fx.random_dag_category(rng, rng.randint(3, 6))
        cov = _random_nonfull_cover(rng, cat)
        for n in range(len(cov.index_order)):
            for labels in combinations(cov.index_order, n + 1):
                parts = [cov.parts[a] for a in labels]
                got = covers.intersect(parts)
                assert got == _ref_intersect(parts)
                got = covers.union_closure(parts)
                ref = _ref_union_closure(parts)
                assert got == ref
                assert (got.objects, got.morphisms) == (ref.objects, ref.morphisms)


# -- the cover's nerve -----------------------------------------------------
# ``Cover`` decides which intersections are empty; the references below
# walk every label set and intersect its parts with ``intersect``.

def _random_full_cover(rng, cat, max_parts=4):
    """Full subcategories on random object sets, each arrow's endpoints
    put together in some part, so the parts cover the category."""
    k = rng.randint(2, max_parts)
    objs = [{x for x in cat.objects if rng.random() < 0.4} for _ in range(k)]
    for x in cat.objects:
        objs[rng.randrange(k)].add(x)
    for x, y in cat._hom:
        if not any({x, y} <= o for o in objs):
            objs[rng.randrange(k)] |= {x, y}
    parts = {str(i + 1): covers.full_subcategory(cat, o) for i, o in enumerate(objs)}
    return Cover(cat, sorted(parts), parts, name="F")


def _nerve_covers():
    rng = random.Random(20261021)
    out = list(fx.all_cover_fixtures())
    for i in range(30):
        n = rng.randint(2, 6)
        cat = fx.random_dag_category(rng, n) if i % 2 else fx.random_poset(rng, n, p=0.4)
        make = (fx.random_ideal_cover, fx.random_filter_cover, _random_full_cover)[i % 3]
        out.append((f"{make.__name__}-{i}", make(rng, cat, max_parts=4)))
    out += [(f"fence-{k}", _fence_cover(k)) for k in range(1, 9)]
    return out


NERVE_COVERS = _nerve_covers()


def _walked(cover, labels):
    return covers.intersect([cover.parts[a] for a in labels])


def _ref_nonempty_tuples(cover):
    """The derivation ``ReducedGrothendieck`` made before the cover owned it."""
    shared = {tuple(a for a in cover.index_order if cover.parts[a].has_object(x)) for x in cover.parent.objects}
    return sorted({t for s in shared for n in range(len(s)) for t in combinations(s, n + 1)},
                  key=lambda t: (len(t), [cover.position(a) for a in t]))


def _ref_adjunction_check_R(cover, max_len):
    """``adjunction_check_R`` with a descriptor list from every ordered tuple's intersection."""
    rg = ReducedGrothendieck(cover)
    descriptors = [GrObject(labels, x) for length in range(1, max_len + 1)
                   for labels in combinations_with_replacement(cover.index_order, length)
                   for x in _walked(cover, labels).objects]
    v = []
    for Z in rg.objects:
        for Y in descriptors:
            lhs = len(rg.category.hom_set(Z.name, GrObject(tuple(dict.fromkeys(Y.labels)), Y.obj).name))
            rhs = len(ordered_gr_hom(cover, Z, Y))
            if lhs != rhs:
                v.append(Violation("adjunction-R", (Z.name, Y.name),
                                   f"reduced hom has {lhs} morphisms, ordered hom has {rhs}"))
    return ValidationReport(tuple(v), details=(f"checked {len(rg.objects) * len(descriptors)} pairs",))


def test_nerve_covers_are_varied():
    names = [name for name, _ in NERVE_COVERS]
    assert sum(n.startswith("_random_full_cover") for n in names) == 10
    assert all(is_cover(cov) for _, cov in NERVE_COVERS)
    full = [cov for name, cov in NERVE_COVERS if name.startswith("_random_full_cover")]
    assert any(not classify_subcategory(p).is_ideal and not classify_subcategory(p).is_filter
               for cov in full for p in cov.parts.values())
    assert sum(any(not _walked(cov, t).objects for t in combinations(cov.index_order, 2))
               for _, cov in NERVE_COVERS) >= 15


@pytest.mark.parametrize("name,cov", NERVE_COVERS)
def test_cover_owns_the_nerve(name, cov):
    for x in cov.parent.objects:
        assert cov.indices_of(x) == tuple(a for a in cov.index_order if cov.parts[a].has_object(x))
    with pytest.raises(ValueError, match="unknown object id"):
        cov.indices_of("nonsense")
    walk = [t for n in range(len(cov.index_order)) for t in combinations(cov.index_order, n + 1)
            if _walked(cov, t).objects]
    assert cov.nonempty_tuples() == _ref_nonempty_tuples(cov) == walk
    assert ReducedGrothendieck(cov).tuples == walk


@pytest.mark.parametrize("name,cov", NERVE_COVERS)
def test_nerve_walk_matches_the_full_walk(name, cov):
    order = cov.index_order
    terms = inclusion_exclusion_terms(cov)
    every = [t for n in range(len(order)) for t in combinations(order, n + 1)]
    assert terms == [(t, euler_characteristic(_walked(cov, t)).chi) for t in every]
    references = {"ordinary": lambda n: product(order, repeat=n),
                  "ordered": lambda n: combinations_with_replacement(order, n),
                  "reduced": lambda n: combinations(order, n)}
    for variant, reference in references.items():
        for n in range(3):
            got = cech.level(cov, n, variant)
            tuples = list(reference(n + 1))
            assert [t for t, _ in got] == tuples
            for (t, piece), ref in zip(got, (_walked(cov, t) for t in tuples)):
                assert piece.objects == ref.objects and piece == ref
    assert len(cov._pieces) == len(cov.nonempty_tuples())
    assert adjunction_check_R(cov, max_len=2) == _ref_adjunction_check_R(cov, 2)


def test_many_part_fence_builds_only_its_nerve():
    cov = _fence_cover(16)
    assert inclusion_exclusion_sum(cov) == 1
    pieces = cech.level(cov, 1, "reduced")
    empty = [(t, p) for t, p in pieces if not p.objects]
    assert (len(pieces), len(empty)) == (120, 105)
    assert len(cov._pieces) == 31
    assert all(p is empty[0][1] for _, p in empty)
    assert all(p == _walked(cov, t) for t, p in empty)
    assert cov.piece(("00", "05", "09")) is empty[0][1]
    assert len(cov._pieces) == 31


def test_many_part_fence_through_the_cli(tmp_path):
    from test_io_cli import _cli_subprocess

    cov = _fence_cover(16)
    (tmp_path / "F.fincat").write_text(emit_category(cov.parent))
    (tmp_path / "F.cover").write_text(emit_cover(cov))
    p = _cli_subprocess("incl-excl", str(tmp_path / "F.fincat"), str(tmp_path / "F.cover"))
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    assert sum(line.startswith("term ") for line in lines) == 2 ** 16 - 1
    assert lines[-3:] == ["sum = 1", "chi(F) = 1", "MATCH"]
