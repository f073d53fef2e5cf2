#!/usr/bin/env python3
"""Randomized verification sweep over covers of random acyclic categories.

For each trial: draw a random poset (or a free category on a random DAG,
which has parallel morphisms), cover it by ideal closures and by filter
closures of random partition blocks, then check

  * inclusion-exclusion sum == chi(parent) == chi(gr), where gr is the
    total category of the reduced nerve (ReducedGrothendieck)
  * Betti numbers of the parent == Betti numbers of gr

and report a summary table.  Everything is exact; a single mismatch is a
bug (or a theorem failing, which would be news).
"""
import argparse
import random
import sys
import time
from dataclasses import dataclass

from catnerve import fixtures as fx
from catnerve.euler import euler_characteristic, format_rational, inclusion_exclusion_sum
from catnerve.grothendieck import ReducedGrothendieck
from catnerve.homotopy import compare_homology


@dataclass
class SweepConfig:
    trials: int = 50
    seed: int = 7
    max_objects: int = 8
    max_parts: int = 4
    dag_fraction: float = 0.3   # remaining trials use posets
    check_homology: bool = True


def run(cfg: SweepConfig) -> int:
    rng = random.Random(cfg.seed)
    t0 = time.monotonic()
    failures = 0
    gr_sizes = []
    print(f"{'trial':>5} {'kind':<6} {'objs':>4} {'mors':>4} {'parts':>5} "
          f"{'chi':>5} {'ie':>4} {'betti':>6}")
    for i in range(cfg.trials):
        if rng.random() < cfg.dag_fraction:
            kind = "dag"
            cat = fx.random_dag_category(rng, rng.randint(3, min(6, cfg.max_objects)),
                                         max_morphisms=80)
        else:
            kind = "poset"
            cat = fx.random_poset(rng, rng.randint(1, cfg.max_objects))
        make = fx.random_ideal_cover if rng.random() < 0.5 else fx.random_filter_cover
        cover = make(rng, cat, max_parts=cfg.max_parts)
        chi = euler_characteristic(cat).chi
        total = inclusion_exclusion_sum(cover)
        g = ReducedGrothendieck(cover)
        chi_g = euler_characteristic(g.category).chi
        gr_sizes.append(len(g.objects))
        ie_ok = total == chi == chi_g
        betti_ok = True
        if cfg.check_homology:
            betti_ok = compare_homology(cat, g.category).equal
        if not (ie_ok and betti_ok):
            failures += 1
        print(f"{i:>5} {kind:<6} {len(cat.objects):>4} {len(cat.morphisms):>4} "
              f"{len(cover.index_order):>5} {format_rational(chi):>5} "
              f"{'ok' if ie_ok else 'XX':>4} "
              f"{'ok' if betti_ok else 'XX':>6}")
    dt = time.monotonic() - t0
    print()
    print(f"{cfg.trials} trials, {failures} failures, "
          f"largest gr had {max(gr_sizes)} objects, {dt:.2f}s")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    d = SweepConfig()
    ap.add_argument("--trials", type=int, default=d.trials)
    ap.add_argument("--seed", type=int, default=d.seed)
    ap.add_argument("--max-objects", type=int, default=d.max_objects)
    ap.add_argument("--max-parts", type=int, default=d.max_parts)
    ap.add_argument("--dag-fraction", type=float, default=d.dag_fraction)
    ap.add_argument("--no-homology", action="store_true",
                    help="skip the Betti comparison (inclusion-exclusion only)")
    a = ap.parse_args()
    cfg = SweepConfig(trials=a.trials, seed=a.seed, max_objects=a.max_objects,
                      max_parts=a.max_parts, dag_fraction=a.dag_fraction,
                      check_homology=not a.no_homology)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
