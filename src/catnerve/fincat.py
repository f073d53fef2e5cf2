"""Finite categories presented by explicit composition tables.

Objects and morphisms are named by strings and every composite of a
composable pair is tabulated.  Construction is deliberately permissive:
the axioms are checked by ``validate_category``, which reports
violations instead of raising, so defective tables can be built,
inspected and tested.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence


class Mor(NamedTuple):
    """A named arrow with its two endpoints."""

    name: str
    dom: str
    cod: str


class Violation(NamedTuple):
    rule: str
    subject: tuple[str, ...]
    message: str


class ValidationReport(NamedTuple):
    """Outcome of an axiom check; ``ok`` iff no violations were found.

    ``isomorphism`` is filled in by ``validate_functor`` only;
    ``details`` carries informational lines (never failures).
    """

    violations: tuple[Violation, ...] = ()
    isomorphism: Optional[bool] = None
    details: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def messages(self) -> list[str]:
        return [f"{v.rule}: {v.message}" for v in self.violations]


def _as_mor(m) -> Mor:
    return m if isinstance(m, Mor) else Mor(*m)


def topological_order(succ: Sequence[Iterable[int]]) -> Optional[list[int]]:
    """The nodes ``0 .. n-1`` (``succ[i]`` lists the nodes the arrows out of
    ``i`` point to) in an order in which every arrow points forward, or
    None when the arrows form a directed cycle (a loop ``i -> i`` is one).

    Kahn's algorithm: the nodes without incoming arrows first, each next
    node once every arrow into it is passed.
    """
    indegree = [0] * len(succ)
    for ys in succ:
        for y in ys:
            indegree[y] += 1
    order = [i for i, k in enumerate(indegree) if not k]
    for x in order:  # grows while it is walked: the queue
        for y in succ[x]:
            indegree[y] -= 1
            if not indegree[y]:
                order.append(y)
    return order if len(order) == len(succ) else None


class FinCategory:
    """A finite category with an extensional composition table.

    ``comp`` maps a pair ``(g, f)`` with ``cod(f) == dom(g)`` to the
    name of the composite ``g after f``.  Instances are not mutated
    after construction.  Structural equality ignores ``name``.
    """

    def __init__(
        self,
        name: str,
        objects: Iterable[str],
        morphisms: Iterable,
        identity: Mapping[str, str],
        comp: Mapping[tuple[str, str], str],
    ):
        self._own(str(name), tuple(objects), tuple(map(_as_mor, morphisms)), dict(identity), dict(comp))

    def _own(
        self, name: str, objects: tuple[str, ...], morphisms: tuple[Mor, ...],
        identity: dict[str, str], comp: dict[tuple[str, str], str],
    ) -> None:
        """Keep the given containers as they are, without copying, and index them."""
        self.name, self.objects, self.morphisms, self.identity, self.comp = (
            name, objects, morphisms, identity, comp)
        self._index()

    def _index(self) -> None:
        """Lookup tables over ``objects``, ``morphisms`` and ``identity``."""
        self._mors = {m.name: m for m in self.morphisms}
        self._objset = frozenset(self.objects)
        self._idnames = frozenset(self.identity.values())
        self._hom: dict[tuple[str, str], list[str]] = {}
        for m in self.morphisms:
            self._hom.setdefault((m.dom, m.cod), []).append(m.name)

    @classmethod
    def build(
        cls,
        name: str,
        objects: Iterable[str],
        morphisms: Iterable = (),
        comp: Optional[Mapping[tuple[str, str], str]] = None,
    ) -> "FinCategory":
        """Assemble a category from its non-identity data.

        Identities are created automatically (named ``id_<object>``) and
        identity compositions are completed; explicitly supplied entries
        are never overwritten, so deliberately broken tables survive.
        """
        objs = tuple(objects)
        return cls._complete(str(name), objs, {x: f"id_{x}" for x in objs}, morphisms, dict(comp or {}))

    @classmethod
    def _complete(
        cls, name: str, objs: tuple[str, ...], identity: dict[str, str],
        morphisms: Iterable, table: dict[tuple[str, str], str],
    ) -> "FinCategory":
        """``build`` with the identity names given, ``identity[x] == f"id_{x}"``
        (the parser passes its shared strings); ``table`` is kept and filled in."""
        mors = (*(Mor(identity[x], x, x) for x in objs), *map(_as_mor, morphisms))
        for m in mors:
            if m.dom in identity:
                table.setdefault((m.name, identity[m.dom]), m.name)
            if m.cod in identity:
                table.setdefault((identity[m.cod], m.name), m.name)
        cat = cls.__new__(cls)
        cat._own(name, objs, mors, identity, table)
        return cat

    # -- queries ---------------------------------------------------------

    def has_object(self, x: str) -> bool:
        return x in self._objset

    def has_morphism(self, name: str) -> bool:
        return name in self._mors

    def mor(self, name: str) -> Mor:
        try:
            return self._mors[name]
        except KeyError:
            raise ValueError(f"unknown morphism id: {name!r}") from None

    def hom_set(self, x: str, y: str) -> list[str]:
        """Morphisms x -> y in declaration order."""
        for obj in (x, y):
            if obj not in self._objset:
                raise ValueError(f"unknown object id: {obj!r}")
        return list(self._hom.get((x, y), ()))

    def compose(self, g: str, f: str) -> str:
        """Name of ``g after f``."""
        try:
            return self.comp[(g, f)]
        except KeyError:
            raise ValueError(f"no tabulated composite for ({g}, {f})") from None

    def identity_name(self, x: str) -> str:
        try:
            return self.identity[x]
        except KeyError:
            raise ValueError(f"unknown object id: {x!r}") from None

    def is_identity(self, name: str) -> bool:
        return name in self._idnames

    def non_identities(self) -> list[Mor]:
        return [m for m in self.morphisms if m.name not in self._idnames]

    # -- constructions ---------------------------------------------------

    def opposite(self) -> "FinCategory":
        """Reverse every arrow; applying twice restores the original."""
        name = self.name[:-3] if self.name.endswith("^op") else self.name + "^op"
        mors = [Mor(m.name, m.cod, m.dom) for m in self.morphisms]
        comp = {(f, g): h for (g, f), h in self.comp.items()}
        return FinCategory(name, self.objects, mors, dict(self.identity), comp)

    # -- predicates ------------------------------------------------------

    def is_acyclic(self) -> bool:
        """The non-identity arrows form no directed cycle; a non-identity
        endomorphism is a cycle of length one.

        Decided on the table as given, so the answer is exact also on a
        category that was never validated.
        """
        ids = self._idnames
        index = {x: i for i, x in enumerate(dict.fromkeys(self.objects))}  # a table may repeat an object
        succ: list[list[int]] = [[] for _ in index]
        for m in self.morphisms:
            if m.name not in ids and m.dom in index and m.cod in index:
                succ[index[m.dom]].append(index[m.cod])
        return topological_order(succ) is not None

    def is_poset(self) -> bool:
        """At most one morphism between any two objects, antisymmetric."""
        return all(len(ms) <= 1 for ms in self._hom.values()) and self.is_acyclic()

    # -- plumbing --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, FinCategory):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.identity == other.identity
            and self.comp == other.comp
        )

    __hash__ = None  # mutable dict fields; structural eq only

    def __repr__(self) -> str:
        return (
            f"FinCategory({self.name!r}, {len(self.objects)} objects, "
            f"{len(self.morphisms)} morphisms)"
        )


class FunctorMap(NamedTuple):
    """A functor given by explicit object and morphism dictionaries."""

    source: FinCategory
    target: FinCategory
    object_map: dict[str, str]
    morphism_map: dict[str, str]

    def after(self, other: "FunctorMap") -> "FunctorMap":
        """Composite ``self after other`` (``other`` acts first)."""
        if other.target != self.source:
            raise ValueError("functors are not composable")
        return FunctorMap(
            other.source,
            self.target,
            {x: self.object_map[y] for x, y in other.object_map.items()},
            {f: self.morphism_map[g] for f, g in other.morphism_map.items()},
        )

    def is_identity(self) -> bool:
        return (
            self.source == self.target
            and all(x == y for x, y in self.object_map.items())
            and all(f == g for f, g in self.morphism_map.items())
        )


def identity_functor(cat: FinCategory) -> FunctorMap:
    return FunctorMap(
        cat,
        cat,
        {x: x for x in cat.objects},
        {m.name: m.name for m in cat.morphisms},
    )


def _generators(cat: FinCategory, after: Mapping[str, Mapping[str, str]]) -> list[str]:
    """Arrows that, with the identities, give every arrow as a composite.

    ``after`` holds the rows ``after[f] = {h: h o f}`` of a structurally
    sound table, as ``validate_category`` builds them.  Arrows are taken
    greedily, fewest factorisations ``g o f`` first (each non-identity
    arrow has exactly two with an identity factor, so this is the order
    by non-identity factorisations, and an arrow with none must be
    taken), skipping every arrow already reached; the reached set is the
    closure of the identities under composing with a taken arrow on the
    left.
    """
    mors = cat._mors
    reached = set(cat.identity.values())
    into = {x: [i] for x, i in cat.identity.items()}
    gens_from: dict[str, list[str]] = {x: [] for x in cat.objects}
    factorisations = Counter(cat.comp.values())
    gens: list[str] = []
    for g in sorted(after, key=factorisations.__getitem__):
        if g in reached:
            continue
        gens.append(g)
        x = mors[g].dom
        gens_from[x].append(g)
        todo = [after[r][g] for r in into[x]]
        while todo:
            a = todo.pop()
            if a not in reached:
                reached.add(a)
                y = mors[a].cod
                into[y].append(a)
                todo.extend(map(after[a].__getitem__, gens_from[y]))
    return gens


def validate_category(cat: FinCategory) -> ValidationReport:
    """Check all category axioms; the report names every violation.

    One pass proves the structural axioms and words each violation where
    it finds it: distinct ids, declared endpoints, an identity ``x -> x``
    for every object and no other, every table entry composable with a
    composite of the right endpoints, every composable pair tabulated,
    and both identity laws.  Each rule is first decided for the whole
    table by a cheap test (set sizes and inclusions, each entry against
    its slot in the rows ``after[f] = {h: h o f}`` for the ``h`` out of
    ``cod f``) and walked item by item only when that test fails.
    Malformed structure is reported, never thrown.

    A structurally sound table is checked for associativity only on the
    triples ``(h, g, f)`` whose middle arrow ``g`` is one of
    ``_generators``: Light's test (Clifford and Preston, *The Algebraic
    Theory of Semigroups* I, 1961, section 1.2).  The test is exact.  In
    a total table with correct endpoints and identity laws, the arrows
    ``g`` with ``(h o g) o f = h o (g o f)`` for all ``h`` and ``f``
    include the identities and are closed under composition: if ``g``
    and ``g'`` pass and ``g' o g`` is defined, then ``(h o (g' o g)) o f
    = ((h o g') o g) o f = (h o g') o (g o f) = h o (g' o (g o f)) = h o
    ((g' o g) o f)``.  So if every generator passes, every arrow does,
    and the empty report is returned.

    Otherwise every composable triple is checked, one table entry ``(g,
    f) = gf`` at a time: ``(h o g) o f`` for all ``h`` at once is
    ``after[f]`` read at the values of ``after[g]``, and must equal the
    values of ``after[gf]``.  An entry whose lists differ, or whose
    composite has the wrong endpoints, is walked ``h`` by ``h``, so the
    report names exactly the triples a per-triple loop would.
    """
    objects, morphisms, identity, comp, mors, objset = (
        cat.objects, cat.morphisms, cat.identity, cat.comp, cat._mors, cat._objset)
    v: list[Violation] = []
    add = v.append

    if len(objset) != len(objects):
        seen: set[str] = set()
        for x in objects:
            if x in seen:
                add(Violation("objects-distinct", (x,), f"object id {x!r} declared twice"))
            seen.add(x)

    twice = len(mors) != len(morphisms)
    if twice or not objset.issuperset(chain.from_iterable(cat._hom)):
        seen = set()
        for m in morphisms:
            if m.name in seen:
                add(Violation("morphisms-distinct", (m.name,), f"morphism id {m.name!r} declared twice"))
            seen.add(m.name)
            for end, side in ((m.dom, "domain"), (m.cod, "codomain")):
                if end not in objset:
                    add(Violation("endpoints", (m.name,), f"morphism {m.name!r} has unknown {side} {end!r}"))

    for x in objects:
        i = identity.get(x)
        if i is None:
            add(Violation("identity", (x,), f"object {x!r} has no identity"))
        elif i not in mors:
            add(Violation("identity", (x, i), f"identity {i!r} of {x!r} is not a declared morphism"))
        elif (m := mors[i]) != (i, x, x):
            add(Violation("identity", (x, i), f"identity {i!r} of {x!r} has endpoints {m.dom!r} -> {m.cod!r}"))
    for x in identity:
        if x not in objset:
            add(Violation("identity", (x,), f"identity assigned to unknown object {x!r}"))

    # A name declared twice keeps its last declaration, as in ``mors``.
    dom: dict[str, str] = {}
    cod: dict[str, str] = {}
    out: dict[str, list[str]] = {}  # the arrows out of each object, one per declaration
    for f, x, y in morphisms:
        dom[f] = x
        cod[f] = y
        out.setdefault(x, []).append(f)
    after: dict[str, dict[str, Optional[str]]] = {f: dict.fromkeys(out.get(y, ())) for f, y in cod.items()}
    bad_entries: dict[tuple[str, str], str] = {}
    unslotted = 0
    for (g, f), gf in comp.items():
        try:
            if cod[f] == dom[g] and dom[gf] == dom[f] and cod[gf] == cod[g]:
                after[f][g] = gf  # a slot of its own
                continue
        except KeyError:  # an id the table names is not declared
            pass
        missing = [n for n in (g, f, gf) if n not in mors]
        if missing:
            add(Violation(
                "composition-reference", (g, f, gf),
                f"entry ({g}, {f}) = {gf} references unknown morphism(s) {missing}",
            ))
        elif cod[f] != dom[g]:
            add(Violation("composition-extraneous", (g, f), f"composition defined for non-composable pair ({g}, {f})"))
        else:
            add(Violation("composition-endpoints", (g, f, gf), f"composite {gf} of ({g}, {f}) has wrong endpoints"))
        bad_entries[g, f] = v[-1].rule
        row = after.get(f, {})
        if g in row:
            row[g] = gf  # a row holds every entry naming one of its slots
        else:
            unslotted += 1

    if twice or sum(map(len, after.values())) != len(comp) - unslotted:
        for f, _, y in morphisms:  # each declaration: a name declared twice has one row, its last
            for g in out.get(y, ()):
                if (g, f) not in comp:
                    add(Violation("composition-totality", (g, f), f"composition not total at ({g}, {f})"))
    lawful = not v
    if lawful:  # with sound structure the rows hold f o id and id o f
        for f, x, y in morphisms:
            if after[identity[x]][f] != f or after[f][identity[y]] != f:
                lawful = False
                break
    if not lawful:
        for f, x, y in morphisms:
            i, j = identity.get(x), identity.get(y)  # a missing identity names no entry
            if comp.get((f, i), f) != f:
                add(Violation("identity-law", (f,), f"{f} o {i} = {comp[(f, i)]} != {f}"))
            if comp.get((j, f), f) != f:
                add(Violation("identity-law", (f,), f"{j} o {f} = {comp[(j, f)]} != {f}"))

    if not v:  # a sound table: Light's test decides associativity
        into: dict[str, list[str]] = {x: [] for x in objects}
        for f, y in cod.items():
            into[y].append(f)
        for g in _generators(cat, after):
            hg = list(after[g].values())  # h o g for the h out of cod g
            for f in into[dom[g]]:
                af = after[f]  # (h o g) o f from it, h o (g o f) from the row of g o f
                if list(map(af.__getitem__, hg)) != list(after[af[g]].values()):
                    break
            else:
                continue
            break  # g fails: the walk below words every failing triple
        else:
            return ValidationReport()

    for (g, f), gf in comp.items():
        rule = bad_entries.get((g, f))
        if rule is None:
            if list(map(after[f].get, after[g].values())) == list(after[gf].values()):
                continue  # after[g] and after[gf] list the same h in the same order
        elif rule != "composition-endpoints":
            continue
        for h in out.get(cod[g], ()):
            left, right = comp.get((h, gf)), comp.get((comp.get((h, g)), f))
            # a missing entry names no triple: a totality violation covers it
            if left is not None and right is not None and left != right:
                add(Violation(
                    "associativity", (h, g, f),
                    f"(({h} o {g}) o {f}) = {right} but ({h} o ({g} o {f})) = {left}",
                ))
    return ValidationReport(tuple(v))


def validate_functor(F: FunctorMap) -> ValidationReport:
    """Check functor axioms by full enumeration.

    Raises ValueError on dangling target ids; everything else is
    reported.  The report's ``isomorphism`` flag records whether both
    maps are bijections onto the target's objects and morphisms.
    """
    src, tgt = F.source, F.target
    v: list[Violation] = []
    add = v.append

    for x in src.objects:
        if x not in F.object_map:
            add(Violation("object-map-total", (x,), f"object {x!r} is not mapped"))
    for m in src.morphisms:
        if m.name not in F.morphism_map:
            add(Violation("morphism-map-total", (m.name,), f"morphism {m.name!r} is not mapped"))
    for x, fx in F.object_map.items():
        if not tgt.has_object(fx):
            raise ValueError(f"dangling target object id: {fx!r}")
    for f, ff in F.morphism_map.items():
        if not tgt.has_morphism(ff):
            raise ValueError(f"dangling target morphism id: {ff!r}")

    for m in src.morphisms:
        if m.name not in F.morphism_map or m.dom not in F.object_map or m.cod not in F.object_map:
            continue
        image = tgt.mor(F.morphism_map[m.name])
        if image.dom != F.object_map[m.dom] or image.cod != F.object_map[m.cod]:
            add(Violation(
                "preserves-endpoints", (m.name,),
                f"{m.name}: {m.dom} -> {m.cod} maps to {image.name}: {image.dom} -> {image.cod}",
            ))

    for x in src.objects:
        i = src.identity.get(x)
        if i is None or i not in F.morphism_map or x not in F.object_map:
            continue
        want = tgt.identity.get(F.object_map[x])
        if F.morphism_map[i] != want:
            add(Violation("preserves-identity", (x,), f"identity of {x!r} maps to {F.morphism_map[i]!r}, expected {want!r}"))

    for (g, f), h in src.comp.items():
        if any(n not in F.morphism_map for n in (g, f, h)):
            continue
        image = tgt.comp.get((F.morphism_map[g], F.morphism_map[f]))
        if image is None:
            add(Violation("preserves-composition", (g, f), f"images of ({g}, {f}) have no tabulated composite"))
        elif image != F.morphism_map[h]:
            add(Violation("preserves-composition", (g, f), f"F({g} o {f}) = {F.morphism_map[h]} but F({g}) o F({f}) = {image}"))

    obj_values = list(F.object_map.values())
    mor_values = list(F.morphism_map.values())
    iso = (
        len(obj_values) == len(set(obj_values)) == len(tgt.objects)
        and set(obj_values) == set(tgt.objects)
        and len(mor_values) == len(set(mor_values)) == len(tgt.morphisms)
        and set(mor_values) == {m.name for m in tgt.morphisms}
        and not v
    )
    return ValidationReport(tuple(v), isomorphism=iso)
