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

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Optional, Sequence

from .covers import Cover, classify_subcategory, intersect, is_cover
from .fincat import FinCategory, FunctorMap, ValidationReport, Violation


@dataclass(frozen=True)
class GrObject:
    """A fiber object sitting over a strictly increasing label tuple."""

    labels: tuple[str, ...]
    obj: str

    @property
    def name(self) -> str:
        return f"{self.obj}@{','.join(self.labels)}"


@dataclass(frozen=True)
class GrMorphism:
    """An index injection plus a component in the target intersection.

    ``phi[j]`` is the position in the source tuple carrying the j-th
    target label; the component runs between the underlying objects
    inside the target tuple's intersection.
    """

    phi: tuple[int, ...]
    component: str
    source: GrObject
    target: GrObject

    @property
    def name(self) -> str:
        return f"{self.component}|{self.source.name}=>{self.target.name}"


@dataclass(frozen=True)
class OrderedGrObjectDescriptor:
    """A fiber object over a weakly increasing label tuple (never materialized)."""

    labels: tuple[str, ...]
    obj: str


class ReducedGrothendieck:
    """Total category of the reduced nerve, with its comparison functors."""

    def __init__(self, cover: Cover, *, require_cover: bool = True):
        if require_cover and not is_cover(cover):
            raise ValueError("parts do not cover the parent category")
        self.cover = cover
        parent = cover.parent
        order = cover.index_order

        self.tuples: list[tuple[str, ...]] = [
            t for n in range(len(order)) for t in combinations(order, n + 1)
        ]
        self.piece: dict[tuple[str, ...], FinCategory] = {
            t: intersect([cover.parts[a] for a in t]).as_category() for t in self.tuples
        }

        self.objects: list[GrObject] = [
            GrObject(t, x) for t in self.tuples for x in self.piece[t].objects
        ]
        self.object_by_name = {o.name: o for o in self.objects}

        self.morphisms: list[GrMorphism] = []  # non-identity only
        self.morphism_by_name: dict[str, GrMorphism] = {}
        self._by_key: dict[tuple[str, str, str], str] = {}  # (src, tgt, component) -> name
        for s in self.tuples:
            sset = set(s)
            for t in self.tuples:
                if not set(t) <= sset:
                    continue
                phi = tuple(s.index(a) for a in t)  # forced: both tuples strictly increasing
                pc = self.piece[t]
                for x in self.piece[s].objects:
                    src = GrObject(s, x)
                    for y in pc.objects:
                        for f in pc.hom_set(x, y):
                            tgt = GrObject(t, y)
                            if s == t and f == parent.identity_name(x):
                                self._by_key[(src.name, tgt.name, f)] = f"id_{src.name}"
                                continue
                            m = GrMorphism(phi, f, src, tgt)
                            self.morphisms.append(m)
                            self.morphism_by_name[m.name] = m
                            self._by_key[(src.name, tgt.name, f)] = m.name

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

    def component_of(self, name: str) -> str:
        """Underlying parent morphism of a gr morphism (identities included)."""
        m = self.morphism_by_name.get(name)
        if m is not None:
            return m.component
        if name.startswith("id_"):
            o = self.object_by_name.get(name[3:])
            if o is not None:
                return self.cover.parent.identity_name(o.obj)
        raise ValueError(f"unknown gr morphism id: {name!r}")

    def indices_of(self, x: str) -> tuple[str, ...]:
        """All labels whose part contains x, in index order."""
        if not self.cover.parent.has_object(x):
            raise ValueError(f"unknown object id: {x!r}")
        return tuple(a for a in self.cover.index_order if self.cover.parts[a].has_object(x))

    def rho(self) -> FunctorMap:
        """Project away the index data: objects and components survive."""
        parent = self.cover.parent
        object_map = {o.name: o.obj for o in self.objects}
        morphism_map = {m.name: self.component_of(m.name) for m in self.category.morphisms}
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
        object_map = {x: GrObject(self.indices_of(x), x).name for x in parent.objects}
        morphism_map = {}
        for m in parent.morphisms:
            key = (object_map[m.dom], object_map[m.cod], m.name)
            morphism_map[m.name] = self._by_key[key]
        return FunctorMap(parent, self.category, object_map, morphism_map)


def adjunction_check_pi(cover: Cover, diagnostic: bool = False) -> ValidationReport:
    """Verify |hom(x, rho(Y))| = |gr(pi(x), Y)| for every pair, with the
    canonical map f |-> (forced injection, f) a bijection.

    With ``diagnostic=True`` the formula for pi is forced even when the
    parts are not ideals, so the failing pairs can be reported.
    """
    rg = ReducedGrothendieck(cover)
    if not diagnostic:
        bad = [a for a in cover.index_order
               if not classify_subcategory(cover.parts[a]).is_ideal]
        if bad:
            raise ValueError(f"parts are not ideals: {bad} (use diagnostic=True to force)")
    parent = cover.parent
    v: list[Violation] = []
    pairs = 0
    for x in parent.objects:
        pix = GrObject(rg.indices_of(x), x).name
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


def _check_descriptor(cover: Cover, d: OrderedGrObjectDescriptor, piece: FinCategory) -> None:
    pos = [cover.position(a) for a in d.labels]
    if not pos:
        raise ValueError("descriptor tuples are nonempty")
    if any(a > b for a, b in zip(pos, pos[1:])):
        raise ValueError(f"descriptor tuple {d.labels} is not weakly increasing")
    if not piece.has_object(d.obj):
        raise ValueError(f"object {d.obj!r} is not in the intersection of {d.labels}")


def _piece_of(cover: Cover, labels: Sequence[str], cache: dict) -> FinCategory:
    key = tuple(sorted(set(labels), key=cover.position))
    if key not in cache:
        cache[key] = intersect([cover.parts[a] for a in key]).as_category()
    return cache[key]


def _ordered_gr_hom(cover, X, Y, cache) -> list[tuple[tuple[int, ...], str]]:
    xp = _piece_of(cover, X.labels, cache)
    yp = _piece_of(cover, Y.labels, cache)
    _check_descriptor(cover, X, xp)
    _check_descriptor(cover, Y, yp)
    n = len(X.labels) - 1

    phis: list[tuple[int, ...]] = []

    def extend(j: int, prefix: tuple[int, ...]) -> None:
        if j == len(Y.labels):
            phis.append(prefix)
            return
        lo = prefix[-1] if prefix else 0
        for p in range(lo, n + 1):
            if X.labels[p] == Y.labels[j]:
                extend(j + 1, prefix + (p,))

    extend(0, ())
    if not phis:
        return []
    if X.obj not in set(yp.objects):
        return []
    fs = yp.hom_set(X.obj, Y.obj)
    return [(phi, f) for phi in phis for f in fs]


def ordered_gr_hom(
    cover: Cover, X: OrderedGrObjectDescriptor, Y: OrderedGrObjectDescriptor
) -> list[tuple[tuple[int, ...], str]]:
    """Hom-set between fibers of the ordered nerve, as (phi, component) pairs.

    The ordered total category itself is never materialized; this
    enumerates all order-preserving index maps compatible with the two
    tuples and pairs them with the component morphisms.
    """
    return _ordered_gr_hom(cover, X, Y, {})


def reduce_object(X: OrderedGrObjectDescriptor) -> tuple[GrObject, tuple[int, ...]]:
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
    bijection with the ordered hom-set at (Z, Y).
    """
    rg = ReducedGrothendieck(cover)
    cache: dict = {}
    descriptors = []
    for length in range(1, max_len + 1):
        for labels in combinations_with_replacement(cover.index_order, length):
            piece = _piece_of(cover, labels, cache)
            for x in piece.objects:
                descriptors.append(OrderedGrObjectDescriptor(labels, x))
    v: list[Violation] = []
    pairs = 0
    for Z in rg.objects:
        zd = OrderedGrObjectDescriptor(Z.labels, Z.obj)
        for Y in descriptors:
            pairs += 1
            ry, _ = reduce_object(Y)
            lhs = len(rg.category.hom_set(Z.name, ry.name))
            rhs = len(_ordered_gr_hom(cover, zd, Y, cache))
            if lhs != rhs:
                v.append(Violation(
                    "adjunction-R", (Z.name, f"{Y.obj}@{','.join(Y.labels)}"),
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
            gm = src.morphism_by_name.get(m.name)
            if gm is None:  # identity
                morphism_map[m.name] = f"id_{object_map[m.dom]}"
            else:
                key = (object_map[gm.source.name], object_map[gm.target.name], gm.component)
                morphism_map[m.name] = dst._by_key[key]
        return FunctorMap(src.category, dst.category, object_map, morphism_map)

    return functor(rg1, rg2), functor(rg2, rg1)
