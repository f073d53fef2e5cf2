"""The Grothendieck construction of the reduced nerve of a cover.

Objects are pairs (strictly increasing label tuple, object of the
intersection), written ``obj@a0,a1,...``.  A morphism carries an
order-preserving injection between index tuples (pointing from the
longer tuple to the shorter one) together with a component morphism in
the target intersection.  Because structure maps of the nerve are
inclusions, the component of a composite is the plain parent-category
composite inside the target intersection.
"""

from __future__ import annotations

import weakref
from itertools import combinations, product
from typing import NamedTuple, Sequence

from .covers import Cover, Subcategory, classify_subcategory, is_cover
from .fincat import FinCategory, FunctorMap, ValidationReport, Violation


class _GrObjectFields(NamedTuple):
    labels: tuple[str, ...]
    obj: str
    name: str


class GrObject(_GrObjectFields):
    """A fiber object sitting over a strictly or weakly increasing label tuple.

    ``GrObject(labels, obj)``; its ``name`` ``obj@a0,a1,...``, computed once,
    splits at its last ``@`` (labels hold no ``,`` or ``@``).  Objects of
    ``gr`` sit over strictly increasing tuples; the ordered nerve's objects,
    over weakly increasing ones, are never materialized as a category.
    """

    __slots__ = ()

    def __new__(cls, labels: tuple[str, ...], obj: str) -> "GrObject":
        return tuple.__new__(cls, (labels, obj, f"{obj}@{','.join(labels)}"))

    def __getnewargs__(self) -> tuple:  # copy and pickle pass the constructor's arguments
        return self[:2]


class _GrMorphismFields(NamedTuple):
    phi: tuple[int, ...]
    component: str
    source: GrObject
    target: GrObject
    name: str


class GrMorphism(_GrMorphismFields):
    """An index injection plus a component in the target intersection.

    ``GrMorphism(phi, component, source, target)``: ``phi[j]`` is the
    position in the source tuple carrying the j-th target label; the
    component runs between the underlying objects inside the target
    tuple's intersection.  The ``name`` is computed once, at
    construction.
    """

    __slots__ = ()

    def __new__(cls, phi: tuple[int, ...], component: str, source: GrObject, target: GrObject) -> "GrMorphism":
        return tuple.__new__(cls, (phi, component, source, target, f"{component}|{source.name}=>{target.name}"))

    def __getnewargs__(self) -> tuple:
        return self[:4]


class ReducedGrothendieck:
    """Total category of the reduced nerve, with its comparison functors.

    ``tuples`` are the cover's ``nonempty_tuples`` (its nerve), in level-lex
    order, and ``piece[t]`` is that intersection (``Cover.piece``), a
    ``Subcategory`` of the parent and a category in its own right.
    """

    def __init__(self, cover: Cover):
        if not is_cover(cover):
            raise ValueError("parts do not cover the parent category")
        self.cover = cover
        parent = cover.parent

        self.tuples: list[tuple[str, ...]] = cover.nonempty_tuples()
        self.piece: dict[tuple[str, ...], Subcategory] = {t: cover.piece(t) for t in self.tuples}

        # one GrObject per (tuple, object); its name is computed once
        fibers = {t: [GrObject(t, x) for x in self.piece[t].objects] for t in self.tuples}
        self.objects: list[GrObject] = [o for t in self.tuples for o in fibers[t]]

        # the parent's non-empty hom-sets out of each object, codomains in
        # declaration order: the fiber pairs with nothing between them are
        # never visited
        rank = {x: i for i, x in enumerate(parent.objects)}
        homs_from: dict[str, list[tuple[str, list[str]]]] = {}
        for (x, y), names in parent._hom.items():
            if y in rank:
                homs_from.setdefault(x, []).append((y, names))
        for out in homs_from.values():
            out.sort(key=lambda pair: rank[pair[0]])
        fiber_of = {t: {o.obj: o for o in fibers[t]} for t in self.tuples}

        self.morphisms: list[GrMorphism] = []  # non-identity only
        self._by_key: dict[tuple[str, str, str], str] = {}  # (src, tgt, component) -> name
        self._components: dict[str, str] = {}  # name -> component, identities included
        for s in self.tuples:
            # the sub-tuples t of s, in the order of self.tuples; phi is
            # forced, as both tuples are strictly increasing
            for phi in (p for n in range(len(s)) for p in combinations(range(len(s)), n + 1)):
                t = tuple(s[i] for i in phi)
                in_t = self.piece[t]._mors
                tgt_of = fiber_of[t]
                for src in fibers[s]:
                    x = src.obj
                    idx = parent.identity_name(x) if s == t else None
                    for y, names in homs_from.get(x, ()):
                        tgt = tgt_of.get(y)
                        if tgt is None:
                            continue
                        for f in names:
                            if f not in in_t:
                                continue
                            if f == idx:
                                name = f"id_{src.name}"
                            else:
                                m = GrMorphism(phi, f, src, tgt)
                                self.morphisms.append(m)
                                name = m.name
                            self._by_key[(src.name, tgt.name, f)] = name
                            self._components[name] = f

        by_src: dict[str, list[GrMorphism]] = {}
        for m in self.morphisms:
            by_src.setdefault(m.source.name, []).append(m)
        comp: dict[tuple[str, str], str] = {}
        for m1 in self.morphisms:
            for m2 in by_src.get(m1.target.name, ()):
                c = parent.compose(m2.component, m1.component)
                comp[(m2.name, m1.name)] = self._by_key[(m1.source.name, m2.target.name, c)]

        self.category = FinCategory.build(
            f"gr_{cover.name}",
            [o.name for o in self.objects],
            [(m.name, m.source.name, m.target.name) for m in self.morphisms],
            comp,
        )
        # the adjunction checks reuse this instance; a weak reference forms
        # no cycle and keeps no dropped gr alive
        cover._gr = weakref.ref(self)

    def component_of(self, name: str) -> str:
        """Underlying parent morphism of a gr morphism (identities included)."""
        try:
            return self._components[name]
        except KeyError:
            raise ValueError(f"unknown gr morphism id: {name!r}") from None

    def rho(self) -> FunctorMap:
        """Project away the index data: objects and components survive."""
        parent = self.cover.parent
        object_map = {o.name: o.obj for o in self.objects}
        morphism_map = {m.name: self._components[m.name] for m in self.category.morphisms}
        return FunctorMap(self.category, parent, object_map, morphism_map)

    def pi(self) -> FunctorMap:
        """Send x to the fiber over the tuple of ALL labels containing x.

        Requires every part to be an ideal: only then does the tuple of
        a codomain embed into the tuple of a domain.
        """
        bad = [a for a in self.cover.index_order
               if not classify_subcategory(self.cover.parts[a]).is_ideal]
        if bad:
            raise ValueError(f"parts are not ideals: {bad}")
        parent = self.cover.parent
        object_map = {x: GrObject(self.cover.indices_of(x), x).name for x in parent.objects}
        morphism_map = {}
        for m in parent.morphisms:
            key = (object_map[m.dom], object_map[m.cod], m.name)
            morphism_map[m.name] = self._by_key[key]
        return FunctorMap(parent, self.category, object_map, morphism_map)


def _built_on(cover: Cover) -> ReducedGrothendieck:
    """The ``ReducedGrothendieck`` last built on ``cover`` while it is
    still alive, else a new one."""
    rg = cover._gr and cover._gr()
    return rg if rg is not None else ReducedGrothendieck(cover)


def adjunction_check_pi(cover: Cover, diagnostic: bool = False) -> ValidationReport:
    """Verify |hom(x, rho(Y))| = |gr(pi(x), Y)| for every pair, with the
    canonical map f |-> (forced injection, f) a bijection.

    With ``diagnostic=True`` the formula for pi is forced even when the
    parts are not ideals, so the failing pairs can be reported.
    """
    rg = _built_on(cover)
    if not diagnostic:
        bad = [a for a in cover.index_order
               if not classify_subcategory(cover.parts[a]).is_ideal]
        if bad:
            raise ValueError(f"parts are not ideals: {bad} (use diagnostic=True to force)")
    parent = cover.parent
    # the hom indices are read directly, without hom_set's checks: pi(x)
    # is an object of gr, since the parts cover every object
    parent_hom, gr_hom = parent._hom, rg.category._hom
    v: list[Violation] = []
    pairs = 0
    for x in parent.objects:
        pix = GrObject(cover.indices_of(x), x).name
        for Y in rg.objects:
            pairs += 1
            expected = parent_hom.get((x, Y.obj), ())
            got = gr_hom.get((pix, Y.name), ())
            if not expected and not got:
                continue
            components = sorted(rg.component_of(n) for n in got)
            if len(got) != len(expected) or components != sorted(expected):
                v.append(Violation(
                    "adjunction-pi", (x, Y.name),
                    f"|hom({x}, {Y.obj})| = {len(expected)} but |gr(pi({x}), {Y.name})| = {len(got)}",
                ))
    return ValidationReport(tuple(v), details=(f"checked {pairs} pairs",))


def ordered_gr_hom(cover: Cover, X: GrObject, Y: GrObject) -> list[tuple[tuple[int, ...], str]]:
    """Hom-set between fibers of the ordered nerve, as (phi, component) pairs.

    The ordered total category itself is never materialized; this
    enumerates all order-preserving index maps compatible with the two
    tuples and pairs them with the component morphisms.
    """
    xp, yp = cover.piece(X.labels), cover.piece(Y.labels)  # raise on empty or unknown labels
    for d, piece in ((X, xp), (Y, yp)):
        cover.check_tuple(d.labels, "ordered")
        if not piece.has_object(d.obj):
            raise ValueError(f"object {d.obj!r} is not in the intersection of {d.labels}")
    # phi[j] is a source position holding the j-th target label; product walks them lexicographically
    at = [[p for p, a in enumerate(X.labels) if a == b] for b in Y.labels]
    phis = [phi for phi in product(*at) if all(a <= b for a, b in zip(phi, phi[1:]))]
    if not phis or not yp.has_object(X.obj):
        return []
    fs = yp.hom_set(X.obj, Y.obj)
    return [(phi, f) for phi in phis for f in fs]


def reduce_object(X: GrObject) -> tuple[GrObject, tuple[int, ...]]:
    """Deduplicate a weakly increasing tuple; return the witness surjection.

    ``psi[j]`` is the position of the j-th original label in the
    deduplicated tuple.
    """
    reduced = tuple(dict.fromkeys(X.labels))
    psi = tuple(reduced.index(a) for a in X.labels)
    if any(a > b for a, b in zip(psi, psi[1:])):
        raise ValueError(f"tuple {X.labels} repeats a label non-adjacently")
    return GrObject(reduced, X.obj), psi


def adjunction_check_R(cover: Cover, max_len: int = 3) -> ValidationReport:
    """Hom-cardinality check for deduplication as a right adjoint.

    For every reduced object Z and every ordered descriptor Y with tuple
    length <= max_len, the reduced hom-set at (Z, reduce(Y)) must be in
    bijection with the ordered hom-set at (Z, Y).  Raises ValueError when
    ``max_len`` is below 1, as no descriptor would be checked.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    rg = _built_on(cover)
    descriptors = []  # each ordered descriptor with the name of its reduction
    for length in range(1, max_len + 1):
        for labels in cover.tuples(length, "ordered"):
            for x in cover.piece(labels).objects:
                Y = GrObject(labels, x)
                descriptors.append((Y, reduce_object(Y)[0].name))
    v: list[Violation] = []
    pairs = 0
    for Z in rg.objects:
        for Y, ry in descriptors:
            pairs += 1
            lhs = len(rg.category.hom_set(Z.name, ry))
            rhs = len(ordered_gr_hom(cover, Z, Y))
            if lhs != rhs:
                v.append(Violation(
                    "adjunction-R", (Z.name, Y.name),
                    f"reduced hom has {lhs} morphisms, ordered hom has {rhs}",
                ))
    return ValidationReport(tuple(v), details=(f"checked {pairs} pairs",))


def reorder_iso(cover: Cover, order2: Sequence[str]) -> tuple[FunctorMap, FunctorMap]:
    """Mutually inverse isomorphisms between the constructions under two label orders."""
    order2 = tuple(order2)
    if sorted(order2) != sorted(cover.index_order) or len(set(order2)) != len(order2):
        raise ValueError("order2 must be a permutation of the cover labels")
    rg1 = ReducedGrothendieck(cover)
    rg2 = ReducedGrothendieck(cover.with_order(order2))

    def functor(src: ReducedGrothendieck, dst: ReducedGrothendieck) -> FunctorMap:
        pos = {a: i for i, a in enumerate(dst.cover.index_order)}
        relabel = lambda t: tuple(sorted(t, key=pos.__getitem__))
        object_map = {
            o.name: GrObject(relabel(o.labels), o.obj).name for o in src.objects
        }
        morphism_map = {}
        for m in src.category.morphisms:
            key = (object_map[m.dom], object_map[m.cod], src._components[m.name])
            morphism_map[m.name] = dst._by_key[key]
        return FunctorMap(src.category, dst.category, object_map, morphism_map)

    return functor(rg1, rg2), functor(rg2, rg1)
