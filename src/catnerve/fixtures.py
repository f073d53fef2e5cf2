"""Canonical categories, covers and random generators used in tests and scripts.

The two-part counterexample here is the load-bearing one: an ideal part
and a filter part whose inclusion-exclusion sum misses the Euler
characteristic of the whole, visible again as a Betti mismatch against
the reduced-nerve total category.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

from .covers import Cover, Subcategory, filter_closure, full_subcategory, ideal_closure
from .fincat import FinCategory, Mor, topological_order


def _two_part_cover(
    cat: FinCategory, first: Iterable[str], second: Iterable[str], name: str
) -> Cover:
    """The cover labelled "1", "2" by the full subcategories on two object sets."""
    parts = {"1": full_subcategory(cat, first), "2": full_subcategory(cat, second)}
    return Cover(cat, ["1", "2"], parts, name=name)


# -- fixed categories -------------------------------------------------------

def counterexample_category() -> FinCategory:
    """Two parallel arrows coequalized one step later.

    f, g : x -> y are distinct but h o f = h o g = k, so the category is
    contractible while the two-part cover below yields a circle.
    """
    return FinCategory.build(
        "C",
        ["x", "y", "z"],
        [("f", "x", "y"), ("g", "x", "y"), ("h", "y", "z"), ("k", "x", "z")],
        {("h", "f"): "k", ("h", "g"): "k"},
    )


def counterexample_cover(cat: Optional[FinCategory] = None) -> Cover:
    """Part 1 = full on {x, y} (an ideal), part 2 = full on {y, z} (a filter)."""
    cat = cat or counterexample_category()
    return _two_part_cover(cat, ["x", "y"], ["y", "z"], "U")


def poset_v() -> FinCategory:
    """One bottom under two incomparable tops: c -> a, c -> b."""
    return FinCategory.build(
        "V", ["a", "b", "c"], [("ca", "c", "a"), ("cb", "c", "b")]
    )


def poset_v_ideal_cover(cat: Optional[FinCategory] = None) -> Cover:
    cat = cat or poset_v()
    return _two_part_cover(cat, ["c", "a"], ["c", "b"], "V_ideals")


def poset_lambda() -> FinCategory:
    """Two incomparable bottoms under one top: a -> c, b -> c."""
    return FinCategory.build(
        "L", ["a", "b", "c"], [("ac", "a", "c"), ("bc", "b", "c")]
    )


def poset_lambda_filter_cover(cat: Optional[FinCategory] = None) -> Cover:
    cat = cat or poset_lambda()
    return _two_part_cover(cat, ["a", "c"], ["b", "c"], "L_filters")


def parallel_pair() -> FinCategory:
    """Two parallel arrows and nothing else; its nerve is a circle."""
    return FinCategory.build("PP", ["x", "y"], [("f", "x", "y"), ("g", "x", "y")])


def chain_poset(n: int, name: Optional[str] = None) -> FinCategory:
    """The linear order 0 < 1 < ... < n-1."""
    objs = [str(i) for i in range(n)]
    mors = [(f"r{i}_{j}", str(i), str(j)) for i in range(n) for j in range(i + 1, n)]
    comp = {
        (f"r{j}_{k}", f"r{i}_{j}"): f"r{i}_{k}"
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    }
    return FinCategory.build(name or f"chain{n}", objs, mors, comp)


def chain_ideal_cover_3(cat: Optional[FinCategory] = None) -> Cover:
    """Three nested down-sets of the 4-chain; exercises 3-label tuples."""
    cat = cat or chain_poset(4)
    return Cover(
        cat,
        ["1", "2", "3"],
        {
            "1": full_subcategory(cat, ["0"]),
            "2": full_subcategory(cat, ["0", "1", "2"]),
            "3": full_subcategory(cat, cat.objects),
        },
        name="chain_ideals",
    )


def delta_category(k: int) -> FinCategory:
    """Ordinals [0]..[k-1] with injective order-preserving maps.

    hom([m], [n]) has C(n+1, m+1) elements (the image subsets); the only
    endomorphisms are identities, so the category is acyclic and its
    zeta matrix is unitriangular.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    objs = [str(n) for n in range(k)]
    by_key: dict[tuple[int, int, tuple[int, ...]], str] = {}
    mors: list[Mor] = []
    for m in range(k):
        for n in range(m + 1, k):
            for img in combinations(range(n + 1), m + 1):
                name = f"d{m}_{n}_" + "".join(str(i) for i in img)
                by_key[(m, n, img)] = name
                mors.append(Mor(name, str(m), str(n)))
    comp: dict[tuple[str, str], str] = {}
    for (m, n, img_f), fname in by_key.items():
        for (n2, p, img_g), gname in by_key.items():
            if n2 != n:
                continue
            img = tuple(img_g[i] for i in img_f)
            comp[(gname, fname)] = by_key[(m, p, img)]
    return FinCategory.build(f"delta{k}", objs, mors, comp)


def path_category(
    name: str, vertices: Sequence[str], edges: Iterable[tuple[str, str, str]]
) -> FinCategory:
    """Free category on a finite acyclic multigraph.

    Non-identity morphisms are the nonempty edge paths, named by joining
    edge ids with '+'; composition is concatenation, so associativity is
    automatic and parallel morphisms appear whenever two paths share
    endpoints.
    """
    verts = list(vertices)
    out: dict[str, list[tuple[str, str]]] = {v: [] for v in verts}
    for e, s, t in edges:
        if s not in out or t not in out:
            raise ValueError(f"edge {e!r} has an unknown endpoint")
        out[s].append((e, t))
    index = {v: i for i, v in enumerate(out)}
    order = topological_order([[index[t] for _, t in ts] for ts in out.values()])
    if order is None:
        raise ValueError("edge set has a directed cycle; the free category would be infinite")

    paths_from: dict[str, list[tuple[tuple[str, ...], str]]] = {v: [] for v in verts}
    for v in map(list(out).__getitem__, reversed(order)):
        acc = []
        for e, t in out[v]:
            acc.append(((e,), t))
            acc.extend(((e,) + q, u) for q, u in paths_from[t])
        paths_from[v] = acc

    mors = []
    ends: dict[tuple[str, ...], tuple[str, str]] = {}
    for v in verts:
        for q, u in paths_from[v]:
            mors.append(Mor("+".join(q), v, u))
            ends[q] = (v, u)
    comp = {}
    for p, (pv, pu) in ends.items():
        for q, (qv, qu) in ends.items():
            if qv == pu:
                comp[("+".join(q), "+".join(p))] = "+".join(p + q)
    return FinCategory.build(name, verts, mors, comp)


def fork_category() -> FinCategory:
    """Free category on x ==> y -> z: parallel pair whose pushforwards stay distinct."""
    return path_category(
        "fork", ["x", "y", "z"], [("f", "x", "y"), ("g", "x", "y"), ("h", "y", "z")]
    )


# -- random generators ------------------------------------------------------

def random_poset(rng: random.Random, n: int, p: float = 0.4, name: str = "P") -> FinCategory:
    """Random poset on n elements: sprinkle i < j relations, close transitively."""
    lt = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                lt[i][j] = True
    for m in range(n):  # Floyd-Warshall style closure over the index order
        for i in range(n):
            if lt[i][m]:
                for j in range(n):
                    if lt[m][j]:
                        lt[i][j] = True
    objs = [f"o{i}" for i in range(n)]
    mors = [(f"r{i}_{j}", objs[i], objs[j]) for i in range(n) for j in range(n) if lt[i][j]]
    comp = {
        (f"r{j}_{k}", f"r{i}_{j}"): f"r{i}_{k}"
        for i in range(n)
        for j in range(n)
        if lt[i][j]
        for k in range(n)
        if lt[j][k]
    }
    return FinCategory.build(name, objs, mors, comp)


def random_dag_category(
    rng: random.Random,
    n: int,
    p_edge: float = 0.35,
    p_double: float = 0.25,
    name: str = "D",
    max_morphisms: int = 400,
) -> FinCategory:
    """Free category on a random DAG, occasionally with doubled edges.

    Doubled edges (and diamonds) give parallel non-identity morphisms,
    so the result is acyclic but usually not a poset.  Dense draws are
    rejected until the path count fits under ``max_morphisms``.
    """
    while True:
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p_edge:
                    edges.append((f"e{i}_{j}", f"v{i}", f"v{j}"))
                    if rng.random() < p_double:
                        edges.append((f"e{i}_{j}b", f"v{i}", f"v{j}"))
        cat = path_category(name, [f"v{i}" for i in range(n)], edges)
        if len(cat.morphisms) <= max_morphisms:
            return cat


def _random_blocks(rng: random.Random, items: Sequence[str], k: int) -> list[list[str]]:
    """Partition items into k nonempty blocks, uniformly-ish."""
    pool = list(items)
    rng.shuffle(pool)
    blocks = [[pool[i]] for i in range(k)]
    for x in pool[k:]:
        blocks[rng.randrange(k)].append(x)
    return blocks


def _random_closure_cover(
    rng: random.Random,
    cat: FinCategory,
    max_parts: int,
    name: str,
    close: Callable[[FinCategory, Iterable[str]], Subcategory],
) -> Cover:
    """Cover by the closures of the blocks of a random partition, repeats dropped."""
    k = min(len(cat.objects), rng.randint(2, max(2, min(max_parts, len(cat.objects)))))
    parts: dict[str, Subcategory] = {}
    for block in _random_blocks(rng, cat.objects, k):
        sub = close(cat, block)
        if sub not in parts.values():
            parts[str(len(parts) + 1)] = sub
    return Cover(cat, sorted(parts), parts, name=name)


def random_ideal_cover(
    rng: random.Random, cat: FinCategory, max_parts: int = 4, name: str = "U"
) -> Cover:
    """Cover by ideals: down-closures of the blocks of a random partition.

    Full down-closed parts cover every morphism automatically (each
    arrow lies in the part that down-closes its codomain).
    """
    return _random_closure_cover(rng, cat, max_parts, name, ideal_closure)


def random_filter_cover(
    rng: random.Random, cat: FinCategory, max_parts: int = 4, name: str = "F"
) -> Cover:
    """Cover by filters: up-closures of the blocks of a random partition."""
    return _random_closure_cover(rng, cat, max_parts, name, filter_closure)


def no_weighting_category() -> FinCategory:
    """A finite category with no Euler characteristic.

    Found by exhaustive search (scripts/search_no_chi.py): the two rows
    of the hom-count matrix are proportional, [[2, 2], [3, 3]], so
    "zeta w = 1" is inconsistent and no weighting exists; the columns
    still admit a coweighting.  Smallest hit in the search order —
    nothing with <= 7 non-identity morphisms works.

    On a: one idempotent endomorphism e.  On b: an involution s and an
    absorbing idempotent t (ss = id, st = ts = tt = t).  Composition
    collapses the rest: v falls to u and q, r fall to p whenever any
    non-identity morphism acts on them from the appropriate side.
    """
    mors = [
        ("e", "a", "a"),
        ("s", "b", "b"),
        ("t", "b", "b"),
        ("u", "a", "b"),
        ("v", "a", "b"),
        ("p", "b", "a"),
        ("q", "b", "a"),
        ("r", "b", "a"),
    ]
    comp = {
        ("e", "e"): "e",
        ("u", "e"): "u",
        ("v", "e"): "u",
        ("s", "s"): "id_b",
        ("t", "s"): "t",
        ("p", "s"): "p",
        ("q", "s"): "q",
        ("r", "s"): "r",
        ("s", "t"): "t",
        ("t", "t"): "t",
        ("p", "t"): "p",
        ("q", "t"): "p",
        ("r", "t"): "p",
        ("s", "u"): "u",
        ("t", "u"): "u",
        ("p", "u"): "e",
        ("q", "u"): "e",
        ("r", "u"): "e",
        ("s", "v"): "v",
        ("t", "v"): "u",
        ("p", "v"): "e",
        ("q", "v"): "e",
        ("r", "v"): "e",
        ("e", "p"): "p",
        ("u", "p"): "t",
        ("v", "p"): "t",
        ("e", "q"): "p",
        ("u", "q"): "t",
        ("v", "q"): "t",
        ("e", "r"): "p",
        ("u", "r"): "t",
        ("v", "r"): "t",
    }
    return FinCategory.build("NW", ["a", "b"], mors, comp)


# -- registries used by the test suite --------------------------------------

def ideal_cover_fixtures() -> list[tuple[str, Cover]]:
    """Named covers whose parts are all ideals."""
    cex = counterexample_category()
    fork = fork_category()
    d3 = delta_category(3)
    return [
        ("v_ideals", poset_v_ideal_cover()),
        ("chain_ideals", chain_ideal_cover_3()),
        ("cex_ideals", _two_part_cover(cex, ["x", "y"], cex.objects, "C_ideals")),
        ("fork_ideals", _two_part_cover(fork, ["x", "y"], fork.objects, "fork_ideals")),
        ("delta3_ideals", _two_part_cover(d3, ["0", "1"], d3.objects, "delta_ideals")),
    ]


def filter_cover_fixtures() -> list[tuple[str, Cover]]:
    """Named covers whose parts are all filters."""
    cex = counterexample_category()
    fork = fork_category()
    return [
        ("lambda_filters", poset_lambda_filter_cover()),
        ("cex_filters", _two_part_cover(cex, ["y", "z"], cex.objects, "C_filters")),
        ("fork_filters", _two_part_cover(fork, ["y", "z"], fork.objects, "fork_filters")),
    ]


def mixed_cover_fixtures() -> list[tuple[str, Cover]]:
    """Covers with no uniform classification (includes the counterexample)."""
    return [
        ("counterexample", counterexample_cover()),
    ]


def all_cover_fixtures() -> list[tuple[str, Cover]]:
    return ideal_cover_fixtures() + filter_cover_fixtures() + mixed_cover_fixtures()


def category_fixtures() -> list[tuple[str, FinCategory]]:
    """Acyclic categories of varied shapes (posets and not)."""
    return [
        ("counterexample", counterexample_category()),
        ("v", poset_v()),
        ("lambda", poset_lambda()),
        ("parallel_pair", parallel_pair()),
        ("fork", fork_category()),
        ("chain4", chain_poset(4)),
        ("delta3", delta_category(3)),
        ("delta4", delta_category(4)),
    ]
