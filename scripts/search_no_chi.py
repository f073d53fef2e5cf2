#!/usr/bin/env python3
"""Search for a finite category with no Euler characteristic.

chi exists when the hom-count matrix zeta admits both a weighting
(zeta w = 1) and a coweighting (v zeta = 1).  Acyclic categories always
have both (zeta is unitriangular), so any failure needs nontrivial
endomorphisms or two-way connectivity.  The search runs in two stages:

  1. enumerate hom-count matrices S within bounds and keep only those
     whose linear system is inconsistent on at least one side — this
     depends on S alone, not on composition;
  2. for each survivor, backtrack over all composition tables realizing
     S, pruning on associativity, to decide whether an actual category
     with those hom counts exists.

Any hit is printed in the category file format (ready to freeze as a
fixture).  Exhausting the bounds without a hit is also a result: within
those bounds, every finite category has an Euler characteristic.
"""
import argparse
import itertools
import sys
import time
from fractions import Fraction

from catnerve.euler import euler_characteristic, solve_right
from catnerve.fincat import FinCategory, validate_category
from catnerve.io import emit_category

ONES = Fraction(1)


def inconsistent_sides(S: list[list[int]]) -> list[str]:
    m = len(S)
    rows = [{j: v for j, v in enumerate(row) if v} for row in S]
    cols = [{i: row[j] for i, row in enumerate(S) if row[j]} for j in range(m)]
    ones = [ONES] * m
    sides = []
    if solve_right(rows, m, ones) is None:
        sides.append("weighting")
    if solve_right(cols, m, ones) is None:
        sides.append("coweighting")
    return sides


def hom_matrices(m: int, max_endo: int, max_hom: int, max_mors: int):
    """All m x m hom-count matrices within bounds (identities included)."""
    diag_choices = range(1, max_endo + 1)
    off_choices = range(0, max_hom + 1)
    cells = [(i, j) for i in range(m) for j in range(m)]
    pools = [diag_choices if i == j else off_choices for i, j in cells]
    for combo in itertools.product(*pools):
        S = [[0] * m for _ in range(m)]
        for (i, j), v in zip(cells, combo):
            S[i][j] = v
        if sum(combo) - m <= max_mors:  # non-identity morphisms only
            yield S


def realize(S: list[list[int]], deadline: float):
    """Backtracking search for a category with hom counts S, or None."""
    m = len(S)
    objs = [f"o{i}" for i in range(m)]
    mors: list[tuple[str, int, int]] = []   # (name, dom, cod), non-identity
    for i in range(m):
        for t in range(S[i][i] - 1):
            mors.append((f"e{i}_{t}", i, i))
    for i in range(m):
        for j in range(m):
            if i != j:
                for t in range(S[i][j]):
                    mors.append((f"m{i}{j}_{t}", i, j))
    dom = {n: i for n, i, _ in mors}
    cod = {n: j for n, _, j in mors}
    hom_all: dict[tuple[int, int], list[str]] = {}
    for i in range(m):
        for j in range(m):
            names = [n for n, a, b in mors if a == i and b == j]
            if i == j:
                names = [f"id_o{i}"] + names
            hom_all[(i, j)] = names
    is_id = lambda n: n.startswith("id_")

    pairs = [(g, f) for (f, _, b) in mors for (g, a, _) in mors if a == b]
    triples = [(f, g, h) for (f, _, b1) in mors for (g, a1, b2) in mors
               if a1 == b1 for (h, a2, _) in mors if a2 == b2]
    table: dict[tuple[str, str], str] = {}

    def compose(g: str, f: str):
        if is_id(f):
            return g
        if is_id(g):
            return f
        return table.get((g, f))

    def associative_so_far() -> bool:
        for f, g, h in triples:
            gf = compose(g, f)
            if gf is None:
                continue
            hg = compose(h, g)
            if hg is None:
                continue
            left = compose(h, gf)
            right = compose(hg, f)
            if left is not None and right is not None and left != right:
                return False
        return True

    def backtrack(k: int):
        if time.monotonic() > deadline:
            raise TimeoutError
        if k == len(pairs):
            return dict(table)
        g, f = pairs[k]
        for h in hom_all[(dom[f], cod[g])]:
            table[(g, f)] = h
            if associative_so_far():
                found = backtrack(k + 1)
                if found is not None:
                    return found
            del table[(g, f)]
        return None

    assignment = backtrack(0)
    if assignment is None:
        return None
    comp = {(g, f): h for (g, f), h in assignment.items()}
    cat = FinCategory.build("Q", objs, [(n, f"o{i}", f"o{j}") for n, i, j in mors], comp)
    report = validate_category(cat)
    assert report.ok, report.messages()
    return cat


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-objects", type=int, default=3)
    ap.add_argument("--max-endo", type=int, default=3,
                    help="largest |hom(x, x)| including the identity")
    ap.add_argument("--max-hom", type=int, default=3,
                    help="largest |hom(x, y)| for x != y")
    ap.add_argument("--max-mors", type=int, default=8,
                    help="cap on non-identity morphisms per candidate")
    ap.add_argument("--time-limit", type=float, default=120.0)
    a = ap.parse_args()

    t0 = time.monotonic()
    deadline = t0 + a.time_limit
    candidates = 0
    realized_attempts = 0
    for m in range(1, a.max_objects + 1):
        for S in hom_matrices(m, a.max_endo, a.max_hom, a.max_mors):
            candidates += 1
            sides = inconsistent_sides(S)
            if not sides:
                continue
            realized_attempts += 1
            try:
                cat = realize(S, deadline)
            except TimeoutError:
                print(f"time limit hit after {time.monotonic() - t0:.1f}s "
                      f"({candidates} matrices, {realized_attempts} realization tries)")
                return 1
            if cat is None:
                continue
            res = euler_characteristic(cat)
            print(f"FOUND after {candidates} matrices "
                  f"({realized_attempts} realization tries, "
                  f"{time.monotonic() - t0:.1f}s)")
            print(f"hom counts: {S}")
            print(f"missing: {', '.join(sides)}  (reason: {res.reason})")
            assert res.chi is None
            print()
            print(emit_category(cat))
            return 0
    print(f"no example within bounds: objects<={a.max_objects}, "
          f"endo<={a.max_endo}, hom<={a.max_hom}, mors<={a.max_mors}")
    print(f"checked {candidates} hom matrices, "
          f"{realized_attempts} had an inconsistent side, "
          f"none realizable, {time.monotonic() - t0:.1f}s")
    return 1


if __name__ == "__main__":
    sys.exit(main())
