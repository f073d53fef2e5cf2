"""Seeded inputs for the catnerve benchmark, and the reference answers.

Posets are bitmask relations (``up[i]`` holds every j with i < j) drawn
by the same sprinkle-and-close rule as ``catnerve.fixtures.random_poset``.
Categories reach the program only as text in its own file format.

The reference side never calls the program: nerve sizes come from a
path count over hom-counts, Euler characteristics from the alternating
chain count (P. Hall), low Betti numbers from a small exact elimination.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations


# -- orders --------------------------------------------------------------

def random_order(rng: random.Random, n: int, p: float) -> list[int]:
    """Sprinkle i < j with probability p, then close transitively."""
    up = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                up[i] |= 1 << j
    for i in range(n - 1, -1, -1):  # relations point to higher indices
        acc = up[i]
        for j in bits(up[i]):
            acc |= up[j]
        up[i] = acc
    return up


def chain_order(n: int) -> list[int]:
    return [((1 << n) - 1) & ~((1 << (i + 1)) - 1) for i in range(n)]


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def down_sets(up: list[int]) -> list[int]:
    """``down[j]`` holds every i with i < j."""
    down = [0] * len(up)
    for i, mask in enumerate(up):
        for j in bits(mask):
            down[j] |= 1 << i
    return down


def relation_count(up: list[int]) -> int:
    return sum(bin(m).count("1") for m in up)


def ideal_cover(rng: random.Random, up: list[int], parts: int) -> list[int]:
    """Down-closures of the blocks of a random partition, deduplicated.

    Every part is an ideal, so the parts cover every morphism.  Returns
    object bitmasks in label order; may return fewer than ``parts``.
    """
    n = len(up)
    down = down_sets(up)
    pool = list(range(n))
    rng.shuffle(pool)
    blocks = [1 << pool[i] for i in range(parts)]
    for x in pool[parts:]:
        blocks[rng.randrange(parts)] |= 1 << x
    out: list[int] = []
    for b in blocks:
        closed = b
        for x in bits(b):
            closed |= down[x]
        if closed not in out:
            out.append(closed)
    return out


# -- reference arithmetic ------------------------------------------------

def nerve_dims(arrows: list[list[tuple[int, int]]], max_dim: int | None = None) -> list[int]:
    """Nondegenerate nerve simplices per dimension.

    ``arrows[x]`` lists ``(y, k)``: k non-identity morphisms x -> y.  A
    k-simplex is a string of k composable non-identity morphisms, so the
    counts are path counts; the category must be acyclic unless
    ``max_dim`` bounds the dimension.
    """
    level = [1] * len(arrows)
    dims = [len(arrows)]
    while max_dim is None or len(dims) <= max_dim:
        nxt = [0] * len(arrows)
        for x, c in enumerate(level):
            if c:
                for y, k in arrows[x]:
                    nxt[y] += c * k
        total = sum(nxt)
        if not total:
            break
        dims.append(total)
        level = nxt
    return dims


def order_arrows(up: list[int], objects: int | None = None, mult: int = 1) -> list[list[tuple[int, int]]]:
    """Non-identity hom counts of the poset restricted to ``objects``
    (a bitmask), times a cyclic group of order ``mult``."""
    keep = objects if objects is not None else (1 << len(up)) - 1
    idx = {x: i for i, x in enumerate(bits(keep))}
    arrows = []
    for x in bits(keep):
        row = [(idx[y], mult) for y in bits(up[x] & keep)]
        if mult > 1:
            row.append((idx[x], mult - 1))
        arrows.append(row)
    return arrows


def alternating(dims: list[int]) -> int:
    return sum(d if k % 2 == 0 else -d for k, d in enumerate(dims))


def poset_chi(up: list[int], objects: int | None = None) -> int:
    """chi of a (sub)poset: the alternating count of strict chains."""
    return alternating(nerve_dims(order_arrows(up, objects)))


def gr_shape(n: int, hom, parts: list[int]) -> tuple[int, int, list[list[tuple[int, int]]]]:
    """Objects, non-identity morphisms and hom-counts of gr(U).

    gr(U) of a cover of an acyclic category by full parts has objects
    (t, x) with t a strictly increasing label tuple and x in the
    intersection; hom((s, x), (t, y)) = hom(x, y) when t is contained
    in s, minus the identity when (s, x) = (t, y).  ``hom(x, y)`` counts
    all morphisms, identities included.
    """
    tuples = [t for r in range(1, len(parts) + 1) for t in combinations(range(len(parts)), r)]
    meet = {}
    for t in tuples:
        mask = (1 << n) - 1
        for a in t:
            mask &= parts[a]
        meet[t] = list(bits(mask))
    nodes = [(t, x) for t in tuples for x in meet[t]]
    index = {v: i for i, v in enumerate(nodes)}
    arrows: list[list[tuple[int, int]]] = [[] for _ in nodes]
    morphisms = 0
    for s in tuples:
        for t in tuples:
            if not set(t) <= set(s):
                continue
            for x in meet[s]:
                row = arrows[index[(s, x)]]
                for y in meet[t]:
                    k = hom(x, y) - (1 if s == t and x == y else 0)
                    if k:
                        row.append((index[(t, y)], k))
                        morphisms += k
    return len(nodes), morphisms, arrows


def rational_rank(rows: list[dict[int, int]]) -> int:
    """Rank over Q of a sparse integer matrix given by rows."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for r in rows:
        row = {c: Fraction(v) for c, v in r.items() if v}
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = row
                break
            p = pivots[c]
            f = row[c] / p[c]
            for cc, v in p.items():
                nv = row.get(cc, 0) - f * v
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
    return len(pivots)


def poset_betti(up: list[int], upto: int) -> tuple[int, ...]:
    """Betti numbers b_0..b_upto of the order complex, exactly."""
    chains: list[list[tuple[int, ...]]] = [[(x,) for x in range(len(up))]]
    for _ in range(upto + 1):
        chains.append([c + (y,) for c in chains[-1] for y in bits(up[c[-1]])])
    index = [{c: i for i, c in enumerate(level)} for level in chains]
    ranks = []
    for k in range(1, upto + 2):
        rows = []
        for c in chains[k]:
            rows.append({index[k - 1][c[:i] + c[i + 1:]]: (-1) ** i for i in range(len(c))})
        ranks.append(rational_rank(rows))
    return tuple(
        len(chains[k]) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(upto + 1)
    )


# -- file text ------------------------------------------------------------

def poset_text(name: str, up: list[int]) -> str:
    """A poset as a category file, objects o<i>, morphisms r<i>_<j>."""
    lines = [f"category {name}", "objects " + " ".join(f"o{i}" for i in range(len(up)))]
    for i, mask in enumerate(up):
        lines.extend(f"mor r{i}_{j} : o{i} -> o{j}" for j in bits(mask))
    for i, mask in enumerate(up):
        for j in bits(mask):
            lines.extend(f"comp r{j}_{k} r{i}_{j} = r{i}_{k}" for k in bits(up[j]))
    return "\n".join(lines) + "\n"


def product_text(rng: random.Random, name: str, up: list[int], m: int) -> str:
    """P x Z/m, with objects, morphisms and composites in shuffled order.

    Morphism a<i>_<j>_<g> is (i <= j, g); the identity is (i, i, 0).
    Composition adds group elements, so the category is not acyclic.
    """
    n = len(up)
    le = [up[i] | (1 << i) for i in range(n)]

    def mor(i: int, j: int, g: int) -> str:
        return f"id_o{i}" if i == j and g == 0 else f"a{i}_{j}_{g}"

    objects = [f"o{i}" for i in range(n)]
    rng.shuffle(objects)
    mors = [
        f"mor a{i}_{j}_{g} : o{i} -> o{j}"
        for i in range(n) for j in bits(le[i]) for g in range(m) if i != j or g
    ]
    rng.shuffle(mors)
    comps = [
        f"comp {mor(j, k, h)} {mor(i, j, g)} = {mor(i, k, (g + h) % m)}"
        for i in range(n) for j in bits(le[i]) for k in bits(le[j])
        for g in range(m) for h in range(m)
        if (i != j or g) and (j != k or h)
    ]
    rng.shuffle(comps)
    return "\n".join([f"category {name}", "objects " + " ".join(objects), *mors, *comps]) + "\n"


def cover_text(name: str, cat_name: str, parts: list[int]) -> str:
    lines = [f"cover {name} of {cat_name}"]
    for a, mask in enumerate(parts, start=1):
        lines.append(f"part {a} : " + " ".join(f"o{x}" for x in bits(mask)))
    return "\n".join(lines) + "\n"
