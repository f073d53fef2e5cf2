"""The scripts under ``scripts/`` run end to end against the library."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_counterexample_walkthrough_matches_golden():
    res = run_script("counterexample_walkthrough.py")
    assert res.returncode == 0, res.stderr
    assert res.stdout == (GOLDEN / "counterexample_walkthrough.txt").read_text()


def test_search_no_chi_exhausts_small_bounds():
    res = run_script("search_no_chi.py", "--max-objects", "2", "--max-endo", "2",
                     "--max-hom", "2", "--max-mors", "4")
    assert res.returncode == 1, res.stderr
    last = res.stdout.splitlines()[-1]  # ends with a timing
    assert last.startswith("checked 33 hom matrices, 4 had an inconsistent side"), res.stdout


def test_cover_experiment_reports_no_failures():
    res = run_script("cover_experiment.py", "--trials", "5", "--seed", "1")
    assert res.returncode == 0, res.stderr
    assert "5 trials, 0 failures" in res.stdout, res.stdout
