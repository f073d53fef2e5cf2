"""Tests of the benchmark itself: python3 -m pytest -q benchmark/test_benchmark.py"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs as gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

cn = run.load_catnerve()


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_passes_every_check(workload, trace):
    result, record = run.run(workload, seed=5, seconds=0.01, trace=trace, params=workloads.TINY[workload])
    assert record["failures"] == [] and record["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(record["jobs"])
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_same_seed_gives_identical_files(workload, tmp_path):
    def build(seed, name):
        d = tmp_path / name
        d.mkdir()
        built = workloads.BUILDERS[workload](random.Random(seed), workloads.TINY[workload], d, cn)
        return run.digest(d), built.counters

    first, second, other = build(11, "a"), build(11, "b"), build(12, "c")
    assert first == second
    assert other[0] != first[0]


def test_product_is_a_valid_category_with_chi_over_m():
    rng = random.Random(3)
    up = gen.random_order(rng, 7, 0.4)
    for m in (2, 3):
        cat = cn.io.parse_category(gen.product_text(rng, "T", up, m), validate=False)
        assert cn.fincat.validate_category(cat).ok
        assert not cat.is_acyclic()
        assert len(cat.comp) == workloads.product_composites(up, m)
        assert cn.euler.euler_characteristic(cat).chi == Fraction(gen.poset_chi(up), m)
        dims = gen.nerve_dims(gen.order_arrows(up, mult=m), 2)
        assert cn.homotopy.betti_numbers(cat, 1).basis_dims == tuple(dims[:2])


def test_references_agree_with_the_program():
    rng = random.Random(8)
    for _ in range(5):
        up = gen.random_order(rng, 8, 0.35)
        cat = cn.io.parse_category(gen.poset_text("P", up))
        assert cn.euler.mobius_oracle(cat) == gen.poset_chi(up)
        report = cn.homotopy.betti_numbers(cat)
        assert list(report.basis_dims) == gen.nerve_dims(gen.order_arrows(up))
        assert report.betti[:2] == gen.poset_betti(up, 1)
        parts = gen.ideal_cover(rng, up, 2)
        cover = cn.io.parse_cover(gen.cover_text("U", "P", parts), cat)
        g = cn.grothendieck.ReducedGrothendieck(cover)
        objects, morphisms, arrows = gen.gr_shape(len(up), lambda x, y: int(x == y or (up[x] >> y) & 1), parts)
        assert (len(g.objects), len(g.morphisms)) == (objects, morphisms)
        assert gen.nerve_dims(arrows) == [len(level) for level in cn.homotopy.nerve_chains(g.category)]


def test_wrong_output_and_timeout_count_as_failures(tmp_path):
    built = workloads.build_nerve(random.Random(1), workloads.TINY["nerve"], tmp_path)
    checker = run.Checker(built.jobs)
    checker.add(0, run.Outcome(0, "dim\tbasis\tbetti\n", 0.1))
    checker.add(0, run.Outcome(None, "", 0.1, "timeout after 1s"))
    assert checker.attempted == 2 and len(checker.failures) == 2


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "nerve", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                       timeout=120)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
