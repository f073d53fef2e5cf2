"""Subcategories of a fixed parent, covers, and the ideal/filter calculus."""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, combinations_with_replacement, product
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .fincat import FinCategory

# label tuple disciplines: any tuple, weakly increasing, strictly increasing
VARIANTS = ("ordinary", "ordered", "reduced")


class Classification(NamedTuple):
    is_ideal: bool
    is_filter: bool


class Subcategory(FinCategory):
    """A subcategory of ``parent``, itself a ``FinCategory``.

    Objects and morphisms are the parent's, kept in the parent's
    declaration order, and the name is ``parent[x,y,...]``.  The lookup
    indices are built at construction; the restricted composition table
    ``comp`` is built on first read (``compose``, validation, emission
    and structural equality read it).

    Validity is enforced at construction: identities of every object
    are present, endpoints of every morphism are present, and the set is
    closed under the parent's composition.  ``intersect`` and
    ``union_closure`` skip the check, since their results are
    subcategories by construction.  Instances are not mutated after
    construction.
    """

    def __init__(self, parent: FinCategory, objects: Iterable[str], morphisms: Iterable[str]):
        objset = set(objects)
        morset = set(morphisms)
        for x in objset:
            if not parent.has_object(x):
                raise ValueError(f"unknown object id: {x!r}")
        for f in morset:
            if not parent.has_morphism(f):
                raise ValueError(f"unknown morphism id: {f!r}")
        self._adopt(parent, objset, morset)
        for x, i in self.identity.items():
            if i not in self._mors:
                raise ValueError(f"subcategory misses identity of {x!r}")
        for m in self.morphisms:
            if m.dom not in self._objset or m.cod not in self._objset:
                raise ValueError(f"morphism {m.name!r} has an endpoint outside the subcategory")
        for (g, f), h in parent.comp.items():
            if g in self._mors and f in self._mors and h not in self._mors:
                raise ValueError(f"subcategory not closed under composition: ({g}, {f}) = {h}")

    def _adopt(self, parent: FinCategory, objset: set[str], morset: set[str]) -> None:
        self.parent = parent
        # canonical order: parent declaration order
        self.objects = tuple(x for x in parent.objects if x in objset)
        self.morphisms = tuple(m for m in parent.morphisms if m.name in morset)
        self.identity = {x: parent.identity_name(x) for x in self.objects}
        self.name = f"{parent.name}[{','.join(self.objects)}]"
        self._index()

    @classmethod
    def _unchecked(cls, parent: FinCategory, objset: set[str], morset: set[str]) -> "Subcategory":
        """A subcategory from id sets already known to form one."""
        sub = cls.__new__(cls)
        sub._adopt(parent, objset, morset)
        return sub

    @cached_property
    def comp(self) -> dict[tuple[str, str], str]:
        """The parent's table on pairs of member morphisms, in the parent's order."""
        mors = self._mors
        return {(g, f): h for (g, f), h in self.parent.comp.items() if g in mors and f in mors}

    @property
    def full(self) -> bool:
        for m in self.parent.morphisms:
            if m.dom in self._objset and m.cod in self._objset and m.name not in self._mors:
                return False
        return True

    def as_category(self) -> "Subcategory":
        """The subcategory itself: it already is a category."""
        return self

    def __eq__(self, other) -> bool:
        """Same parent and same id sets; agrees with structural equality
        for subcategories of one parent.  Any other category is compared
        structurally."""
        if not isinstance(other, Subcategory):
            return NotImplemented
        return (
            self.parent == other.parent
            and self._objset == other._objset
            and self._mors.keys() == other._mors.keys()
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Subcategory({self.parent.name!r}, objects={list(self.objects)}, full={self.full})"


def full_subcategory(cat: FinCategory, objects: Iterable[str]) -> Subcategory:
    objset = set(objects)
    mors = [m.name for m in cat.morphisms if m.dom in objset and m.cod in objset]
    return Subcategory(cat, objset, mors)


def _common_parent(parts: Sequence[Subcategory], caller: str) -> FinCategory:
    """The parent shared by every part; ValueError on no parts or two parents."""
    if not parts:
        raise ValueError(f"{caller} needs at least one part")
    parent = parts[0].parent
    if any(p.parent != parent for p in parts[1:]):
        raise ValueError("parts have mismatched parents")
    return parent


def intersect(parts: Sequence[Subcategory]) -> Subcategory:
    """Objectwise and morphismwise intersection of subcategories.

    The result needs no check: identities, endpoints and composites of
    members common to every part are common to every part.
    """
    parent = _common_parent(parts, "intersect")
    objs = set(parts[0].objects)
    mors = set(parts[0]._mors)
    for p in parts[1:]:
        objs &= p._objset
        mors &= p._mors.keys()
    return Subcategory._unchecked(parent, objs, mors)


def _union_ids(parts: Sequence[Subcategory]) -> tuple[set[str], set[str]]:
    """Object and morphism ids of the parts, the morphisms closed under
    the parent's composition (finite chains of composable part morphisms)."""
    parent = _common_parent(parts, "union_closure")
    objs = set()
    mors = set()
    for p in parts:
        objs |= p._objset
        mors |= p._mors.keys()
    changed = not mors.issuperset(parent._mors)  # else the pass adds only undeclared names, which callers drop
    while changed:
        changed = False
        for (g, f), h in parent.comp.items():
            if g in mors and f in mors and h not in mors:
                mors.add(h)
                changed = True
    return objs, mors


def union_closure(parts: Sequence[Subcategory]) -> Subcategory:
    """Smallest subcategory containing every part.

    The result needs no check: identities and endpoints come from the
    parts, and ``_union_ids`` closes it under composition.
    """
    objs, mors = _union_ids(parts)
    return Subcategory._unchecked(parts[0].parent, objs, mors)


class Cover:
    """An indexed family of subcategories with a total order on labels.

    Covers are not mutated after construction.  The cover owns its nerve
    (``nonempty_tuples``): the intersection of the parts named by a label
    set, when nonempty, is built once, on first use, and shared by every
    later ``piece`` call (also from ``with_order`` copies); every empty
    one is the cover's one empty piece.  The label tuples of each nerve
    (the ``VARIANTS``) are enumerated by ``tuples`` and checked by
    ``check_tuple``.  A ``ReducedGrothendieck`` records itself on its
    cover, so the adjunction checks reuse it while it is alive; a
    ``with_order`` copy starts without one, as its tuple order differs.
    """

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
        if sorted(self.index_order) != sorted(parts):
            raise ValueError(
                f"order {list(self.index_order)} does not list the part labels {sorted(parts)} exactly once each"
            )
        for label, part in parts.items():
            if part.parent != parent:
                raise ValueError(f"part {label!r} has a different parent")
        self.parts = {a: parts[a] for a in self.index_order}
        self._pos = {a: i for i, a in enumerate(self.index_order)}
        self._pieces: dict[frozenset[str], Subcategory] = {}  # the nonempty intersections
        self._empty = Subcategory._unchecked(parent, set(), set())  # every empty one
        self._gr = None  # ReducedGrothendieck(self) puts a weak reference to itself here

    def position(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise ValueError(f"unknown cover label: {label!r}") from None

    def indices_of(self, x: str) -> tuple[str, ...]:
        """All labels whose part contains x, in index order."""
        if not self.parent.has_object(x):
            raise ValueError(f"unknown object id: {x!r}")
        return tuple(a for a in self.index_order if self.parts[a].has_object(x))

    def nonempty_tuples(self) -> list[tuple[str, ...]]:
        """The cover's nerve: the nonempty subsets of each object's ``indices_of``, in level-lex order."""
        shared = {self.indices_of(x) for x in self.parent.objects}
        return sorted({t for s in shared for n in range(len(s)) for t in combinations(s, n + 1)},
                      key=lambda t: (len(t), [self._pos[a] for a in t]))

    def tuples(self, length: int, variant: str) -> Iterator[tuple[str, ...]]:
        """The label tuples of one length under a variant, in lexicographic
        label order: ``k**length`` ordinary, ``comb(k + length - 1, length)``
        ordered and ``comb(k, length)`` reduced ones for ``k`` labels.

        Raises ValueError at the call on an unknown variant.
        """
        labels = self.index_order
        if variant == "ordinary":
            return product(labels, repeat=length)
        if variant == "ordered":
            return combinations_with_replacement(labels, length)
        if variant == "reduced":
            return combinations(labels, length)
        raise ValueError(f"unknown variant: {variant!r}")

    def check_tuple(self, labels: Sequence[str], variant: str) -> None:
        """Raise ValueError unless ``labels`` is a tuple of the variant."""
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant: {variant!r}")
        pos = [self.position(a) for a in labels]  # raises on unknown labels
        steps = list(zip(pos, pos[1:]))
        if variant == "ordered" and any(a > b for a, b in steps):
            raise ValueError(f"tuple {tuple(labels)} is not weakly increasing")
        if variant == "reduced" and any(a >= b for a, b in steps):
            raise ValueError(f"tuple {tuple(labels)} is not strictly increasing")

    def piece(self, labels: Iterable[str]) -> Subcategory:
        """Intersection of the parts named by ``labels``.

        Keyed by the label set, so order and repeats do not matter;
        raises ValueError on an unknown label or on no labels at all.
        An empty intersection is the cover's one shared empty piece, never cached.
        """
        key = frozenset(labels)
        sub = self._pieces.get(key)
        if sub is None:
            if not key:
                raise ValueError("a piece needs at least one label")
            unknown = key.difference(self.parts)
            if unknown:
                raise ValueError(f"unknown cover label: {min(unknown, key=str)!r}")
            parts = [self.parts[a] for a in self.index_order if a in key]
            if not frozenset.intersection(*[p._objset for p in parts]):
                return self._empty
            sub = self._pieces[key] = intersect(parts)
        return sub

    def with_order(self, index_order: Sequence[str]) -> "Cover":
        other = Cover(self.parent, index_order, self.parts, name=self.name)
        other._pieces, other._empty = self._pieces, self._empty  # same parts, same label sets
        return other

    def __repr__(self) -> str:
        return f"Cover({self.name!r} on {self.parent.name!r}, labels={list(self.index_order)})"


def is_cover(cover: Cover) -> bool:
    """True iff the union-closure of the parts is the whole parent."""
    objs, mors = _union_ids(list(cover.parts.values()))
    return objs.issuperset(cover.parent._objset) and mors.issuperset(cover.parent._mors)


def classify_subcategory(sub: Subcategory) -> Classification:
    """Ideal/filter flags; non-full subcategories get (False, False).

    Ideal: closed under morphisms into it (anything mapping into an
    object of the part belongs to the part).  Filter is the dual.
    """
    if not sub.full:
        return Classification(False, False)
    inside = sub._objset
    is_ideal = is_filter = True
    for x, y in sub.parent._hom:  # each pair of objects with an arrow x -> y, once
        if x not in inside and y in inside:  # an arrow into the part
            is_ideal = False
        elif x in inside and y not in inside:  # an arrow out of the part
            is_filter = False
    return Classification(is_ideal, is_filter)


def _closure(cat: FinCategory, objects: Iterable[str], down: bool) -> Subcategory:
    """Smallest full subcategory containing ``objects`` and every object
    with an arrow into it (``down``) or out of it (otherwise)."""
    s = set(objects)
    for x in s:
        if not cat.has_object(x):
            raise ValueError(f"unknown object id: {x!r}")
    # the objects one arrow away, read off the parent's arrows once
    step: dict[str, list[str]] = {}
    for x, y in cat._hom:
        a, b = (y, x) if down else (x, y)
        step.setdefault(a, []).append(b)
    todo = list(s)
    while todo:
        for y in step.get(todo.pop(), ()):
            if y not in s:
                s.add(y)
                todo.append(y)
    return full_subcategory(cat, s)


def ideal_closure(cat: FinCategory, objects: Iterable[str]) -> Subcategory:
    """Smallest ideal containing the given objects (full by construction)."""
    return _closure(cat, objects, down=True)


def filter_closure(cat: FinCategory, objects: Iterable[str]) -> Subcategory:
    """Smallest filter containing the given objects (dual of ideal_closure)."""
    return _closure(cat, objects, down=False)


def opposite_subcategory(sub: Subcategory) -> Subcategory:
    """The same id sets viewed inside the opposite parent."""
    return Subcategory(sub.parent.opposite(), sub.objects, sub._mors)
