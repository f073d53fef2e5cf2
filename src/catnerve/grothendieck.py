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
from math import comb
from typing import NamedTuple, Sequence

from .covers import MAX_TUPLES, Cover, Subcategory, classify_subcategory, is_cover
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
    construction, by ``arrow_name``.
    """

    __slots__ = ()

    def __new__(cls, phi: tuple[int, ...], component: str, source: GrObject, target: GrObject) -> "GrMorphism":
        return tuple.__new__(cls, (phi, component, source, target, arrow_name(component, source, target)))

    def __getnewargs__(self) -> tuple:
        return self[:4]


def arrow_name(f: str, X: GrObject, Y: GrObject, identity: bool = False) -> str:
    """The one naming rule of gr's arrows ``X -> Y`` with component ``f``
    (``identity``: f is an identity of the parent): ``id_<X>`` when X = Y
    and f is an identity, else ``f|X=>Y``."""
    return f"id_{X.name}" if identity and X == Y else f"{f}|{X.name}=>{Y.name}"


def _require_ideals(cover: Cover, hint: str = "") -> None:
    bad = [a for a in cover.index_order if not classify_subcategory(cover.parts[a]).is_ideal]
    if bad:
        raise ValueError(f"parts are not ideals: {bad}{hint}")


def _pi_objects(cover: Cover) -> dict[str, GrObject]:
    return {x: GrObject(cover.indices_of(x), x) for x in cover.parent.objects}


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
        for s in self.tuples:
            # the sub-tuples t of s, in the order of self.tuples; phi is
            # forced, as both tuples are strictly increasing
            for phi in (p for n in range(len(s)) for p in combinations(range(len(s)), n + 1)):
                t = tuple(s[i] for i in phi)
                in_t = self.piece[t]._mors
                tgt_of = fiber_of[t]
                for src in fibers[s]:
                    idx = parent.identity_name(src.obj) if s == t else None
                    for y, names in homs_from.get(src.obj, ()):
                        if y in tgt_of:
                            self.morphisms += [GrMorphism(phi, f, src, tgt_of[y]) for f in names
                                               if f in in_t and f != idx]

        by_src: dict[str, list[GrMorphism]] = {}
        for m in self.morphisms:
            by_src.setdefault(m.source.name, []).append(m)
        is_identity = parent.is_identity
        comp: dict[tuple[str, str], str] = {}
        for m1 in self.morphisms:
            for m2 in by_src.get(m1.target.name, ()):
                c = parent.compose(m2.component, m1.component)
                comp[(m2.name, m1.name)] = arrow_name(c, m1.source, m2.target, is_identity(c))

        identity = {o.name: arrow_name(parent.identity_name(o.obj), o, o, True) for o in self.objects}
        self.category = FinCategory._complete(
            f"gr_{cover.name}", tuple(identity), identity,
            [(m.name, m.source.name, m.target.name) for m in self.morphisms], comp)
        if len(self.category._mors) != len(self.category.morphisms):  # arrow_name met a clash
            clash = next(m.name for m in self.category.morphisms if self.category._mors[m.name] is not m)
            raise ValueError(f"two arrows of gr are named {clash!r} (object ids with '|' and '=>' can do this)")
        # the adjunction checks reuse this instance; a weak reference forms
        # no cycle and keeps no dropped gr alive
        cover._gr = weakref.ref(self)

    def rho(self) -> FunctorMap:
        """Project away the index data: objects and components survive."""
        parent = self.cover.parent
        object_map = {o.name: o.obj for o in self.objects}
        morphism_map = {self.category.identity[o.name]: parent.identity_name(o.obj) for o in self.objects}
        morphism_map.update((m.name, m.component) for m in self.morphisms)
        return FunctorMap(self.category, parent, object_map, morphism_map)

    def pi(self) -> FunctorMap:
        """Send x to the fiber over the tuple of ALL labels containing x.

        Requires every part to be an ideal: only then does the tuple of
        a codomain embed into the tuple of a domain.
        """
        _require_ideals(self.cover)
        parent = self.cover.parent
        pi = _pi_objects(self.cover)
        object_map = {x: o.name for x, o in pi.items()}
        morphism_map = {m.name: arrow_name(m.name, pi[m.dom], pi[m.cod], parent.is_identity(m.name))
                        for m in parent.morphisms}
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
        _require_ideals(cover, " (use diagnostic=True to force)")
    parent = cover.parent
    # the hom indices are read directly, without hom_set's checks: pi(x)
    # is an object of gr, since the parts cover every object
    parent_hom, gr_hom, is_identity = parent._hom, rg.category._hom, parent.is_identity
    v: list[Violation] = []
    pairs = 0
    for x, pix in _pi_objects(cover).items():
        for Y in rg.objects:
            pairs += 1
            expected = parent_hom.get((x, Y.obj), ())
            got = gr_hom.get((pix.name, Y.name), ())
            if not expected and not got:
                continue
            # names within one hom-set are distinct exactly when the components are
            if sorted(got) != sorted(arrow_name(f, pix, Y, is_identity(f)) for f in expected):
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
    ``max_len`` is below 1, as no descriptor would be checked, or when the
    pairs or the labels the walk writes number more than ``MAX_TUPLES``.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    rg = _built_on(cover)
    # comb(max_len, |S|) ordered tuples have label set S; the walk writes sum(n * comb(k + n - 1, n)) labels
    k = len(cover.index_order)
    pairs = len(rg.objects) * sum(len(rg.piece[t].objects) * comb(max_len, len(t)) for t in rg.tuples)
    labels = k * comb(k + max_len, max_len - 1)
    if max(pairs, labels) > MAX_TUPLES:
        raise ValueError(f"the ordered check up to length {max_len} has {pairs} pairs and {labels}"
                         f" tuple labels, above the bound {MAX_TUPLES}")
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
    if sorted(order2) != sorted(cover.index_order):  # the labels are distinct
        raise ValueError("order2 must be a permutation of the cover labels")
    rg1 = ReducedGrothendieck(cover)
    rg2 = ReducedGrothendieck(cover.with_order(order2))

    def functor(src: ReducedGrothendieck, dst: ReducedGrothendieck) -> FunctorMap:
        relabel = lambda t: tuple(sorted(t, key=dst.cover.position))
        image = {o.name: GrObject(relabel(o.labels), o.obj) for o in src.objects}
        object_map = {x: o.name for x, o in image.items()}
        morphism_map = {src.category.identity[x]: dst.category.identity[y] for x, y in object_map.items()}
        morphism_map.update((m.name, arrow_name(m.component, image[m.source.name], image[m.target.name]))
                            for m in src.morphisms)
        return FunctorMap(src.category, dst.category, object_map, morphism_map)

    return functor(rg1, rg2), functor(rg2, rg1)
