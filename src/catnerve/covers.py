"""Subcategories of a fixed parent, covers, and the ideal/filter calculus."""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .fincat import FinCategory, FunctorMap, Mor


class Classification(NamedTuple):
    is_ideal: bool
    is_filter: bool


class Subcategory:
    """A subcategory of ``parent`` stored as object/morphism id subsets.

    Validity is enforced at construction: identities of every object are
    present, endpoints of every morphism are present, and the set is
    closed under the parent's composition.
    """

    def __init__(self, parent: FinCategory, objects: Iterable[str], morphisms: Iterable[str]):
        self.parent = parent
        objset = set(objects)
        morset = set(morphisms)
        for x in objset:
            if not parent.has_object(x):
                raise ValueError(f"unknown object id: {x!r}")
        for f in morset:
            if not parent.has_morphism(f):
                raise ValueError(f"unknown morphism id: {f!r}")
        # canonical order: parent declaration order
        self.objects = tuple(x for x in parent.objects if x in objset)
        self.morphisms = tuple(m.name for m in parent.morphisms if m.name in morset)
        self._objset = frozenset(self.objects)
        self._morset = frozenset(self.morphisms)
        for x in self.objects:
            if parent.identity_name(x) not in self._morset:
                raise ValueError(f"subcategory misses identity of {x!r}")
        for f in self.morphisms:
            m = parent.mor(f)
            if m.dom not in self._objset or m.cod not in self._objset:
                raise ValueError(f"morphism {f!r} has an endpoint outside the subcategory")
        for (g, f), h in parent.comp.items():
            if g in self._morset and f in self._morset and h not in self._morset:
                raise ValueError(f"subcategory not closed under composition: ({g}, {f}) = {h}")

    def has_object(self, x: str) -> bool:
        return x in self._objset

    def has_morphism(self, f: str) -> bool:
        return f in self._morset

    @property
    def full(self) -> bool:
        for m in self.parent.morphisms:
            if m.dom in self._objset and m.cod in self._objset and m.name not in self._morset:
                return False
        return True

    def as_category(self, name: str | None = None) -> FinCategory:
        """The subcategory as a standalone category (restricted table)."""
        parent = self.parent
        if name is None:
            name = f"{parent.name}[{','.join(self.objects)}]"
        comp = {
            (g, f): h
            for (g, f), h in parent.comp.items()
            if g in self._morset and f in self._morset
        }
        return FinCategory(
            name,
            self.objects,
            [parent.mor(f) for f in self.morphisms],
            {x: parent.identity_name(x) for x in self.objects},
            comp,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subcategory):
            return NotImplemented
        return (
            self.parent == other.parent
            and self._objset == other._objset
            and self._morset == other._morset
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Subcategory({self.parent.name!r}, objects={list(self.objects)}, full={self.full})"


def full_subcategory(cat: FinCategory, objects: Iterable[str]) -> Subcategory:
    objset = set(objects)
    mors = [m.name for m in cat.morphisms if m.dom in objset and m.cod in objset]
    return Subcategory(cat, objset, mors)


def whole_subcategory(cat: FinCategory) -> Subcategory:
    return full_subcategory(cat, cat.objects)


def empty_subcategory(cat: FinCategory) -> Subcategory:
    return Subcategory(cat, (), ())


def intersect(parts: Sequence[Subcategory]) -> Subcategory:
    """Objectwise and morphismwise intersection of subcategories."""
    if not parts:
        raise ValueError("intersect needs at least one part")
    parent = parts[0].parent
    for p in parts[1:]:
        if p.parent != parent:
            raise ValueError("parts have mismatched parents")
    objs = set(parts[0].objects)
    mors = set(parts[0].morphisms)
    for p in parts[1:]:
        objs &= p._objset
        mors &= p._morset
    return Subcategory(parent, objs, mors)


def union_closure(parts: Sequence[Subcategory]) -> Subcategory:
    """Smallest subcategory containing every part.

    Morphisms are generated by closing the union under the parent's
    composition (finite chains of composable part morphisms).
    """
    if not parts:
        raise ValueError("union_closure needs at least one part")
    parent = parts[0].parent
    for p in parts[1:]:
        if p.parent != parent:
            raise ValueError("parts have mismatched parents")
    objs = set()
    mors = set()
    for p in parts:
        objs |= p._objset
        mors |= p._morset
    changed = True
    while changed:
        changed = False
        for (g, f), h in parent.comp.items():
            if g in mors and f in mors and h not in mors:
                mors.add(h)
                changed = True
    return Subcategory(parent, objs, mors)


class Cover:
    """An indexed family of subcategories with a total order on labels."""

    def __init__(
        self,
        parent: FinCategory,
        index_order: Sequence[str],
        parts: Mapping[str, Subcategory],
        name: str = "cover",
    ):
        self.parent = parent
        self.name = str(name)
        self.index_order = tuple(str(a) for a in index_order)
        if len(set(self.index_order)) != len(self.index_order):
            raise ValueError("duplicate labels in index order")
        if set(parts) != set(self.index_order):
            raise ValueError("index order must list every part label exactly once")
        for label, part in parts.items():
            if part.parent != parent:
                raise ValueError(f"part {label!r} has a different parent")
        self.parts = {a: parts[a] for a in self.index_order}
        self._pos = {a: i for i, a in enumerate(self.index_order)}

    def part(self, label: str) -> Subcategory:
        try:
            return self.parts[label]
        except KeyError:
            raise ValueError(f"unknown cover label: {label!r}") from None

    def position(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise ValueError(f"unknown cover label: {label!r}") from None

    def with_order(self, index_order: Sequence[str]) -> "Cover":
        return Cover(self.parent, index_order, self.parts, name=self.name)

    def __repr__(self) -> str:
        return f"Cover({self.name!r} on {self.parent.name!r}, labels={list(self.index_order)})"


def is_cover(cover: Cover) -> bool:
    """True iff the union-closure of the parts is the whole parent."""
    u = union_closure(list(cover.parts.values()))
    return (
        u._objset == frozenset(cover.parent.objects)
        and u._morset == frozenset(m.name for m in cover.parent.morphisms)
    )


def classify_subcategory(sub: Subcategory) -> Classification:
    """Ideal/filter flags; non-full subcategories get (False, False).

    Ideal: closed under morphisms into it (anything mapping into an
    object of the part belongs to the part).  Filter is the dual.
    """
    if not sub.full:
        return Classification(False, False)
    parent = sub.parent
    is_ideal = True
    is_filter = True
    for y in parent.objects:
        if y in sub._objset:
            continue
        for x in sub.objects:
            if is_ideal and parent.hom_set(y, x):
                is_ideal = False
            if is_filter and parent.hom_set(x, y):
                is_filter = False
        if not (is_ideal or is_filter):
            break
    return Classification(is_ideal, is_filter)


def complement(sub: Subcategory) -> Subcategory:
    """Full subcategory on the complementary objects (ideal <-> filter)."""
    if not sub.full:
        raise ValueError("complement requires a full subcategory")
    return full_subcategory(sub.parent, [x for x in sub.parent.objects if x not in sub._objset])


def two_point_poset() -> FinCategory:
    """The poset 0 < 1 as a category (single arrow ``le``)."""
    return FinCategory.build("P2", ["0", "1"], [("le", "0", "1")])


def to_two_point_poset(sub: Subcategory) -> FunctorMap:
    """Classifying functor of an ideal: the parent maps onto 0 < 1.

    Objects inside the ideal land on 0, the rest on 1; the ideal is
    recovered as the fiber over 0.
    """
    if not classify_subcategory(sub).is_ideal:
        raise ValueError("to_two_point_poset requires an ideal")
    parent = sub.parent
    target = two_point_poset()
    object_map = {x: "0" if x in sub._objset else "1" for x in parent.objects}
    morphism_map = {}
    for m in parent.morphisms:
        a, b = object_map[m.dom], object_map[m.cod]
        if a == b:
            morphism_map[m.name] = target.identity_name(a)
        elif (a, b) == ("0", "1"):
            morphism_map[m.name] = "le"
        else:  # arrow into the ideal from outside: contradicts ideal-ness
            raise ValueError(f"morphism {m.name!r} enters the ideal from outside")
    return FunctorMap(parent, target, object_map, morphism_map)


def membership_counts(cover: Cover) -> dict[str, int]:
    """How many parts contain each parent object."""
    return {
        x: sum(1 for a in cover.index_order if cover.parts[a].has_object(x))
        for x in cover.parent.objects
    }


def _closure(cat: FinCategory, objects: Iterable[str], down: bool) -> Subcategory:
    """Smallest full subcategory containing ``objects`` and every object
    with an arrow into it (``down``) or out of it (otherwise)."""
    s = set(objects)
    for x in s:
        if not cat.has_object(x):
            raise ValueError(f"unknown object id: {x!r}")
    hom = cat.hom_set if down else (lambda y, x: cat.hom_set(x, y))
    changed = True
    while changed:
        changed = False
        for y in cat.objects:
            if y in s:
                continue
            if any(hom(y, x) for x in s):
                s.add(y)
                changed = True
    return full_subcategory(cat, s)


def ideal_closure(cat: FinCategory, objects: Iterable[str]) -> Subcategory:
    """Smallest ideal containing the given objects (full by construction)."""
    return _closure(cat, objects, down=True)


def filter_closure(cat: FinCategory, objects: Iterable[str]) -> Subcategory:
    """Smallest filter containing the given objects (dual of ideal_closure)."""
    return _closure(cat, objects, down=False)


def opposite_subcategory(sub: Subcategory) -> Subcategory:
    """The same id sets viewed inside the opposite parent."""
    return Subcategory(sub.parent.opposite(), sub.objects, sub.morphisms)
