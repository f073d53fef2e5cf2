#!/usr/bin/env python3
"""Benchmark of the catnerve library and CLI on the checked-out tree.

    python3 benchmark/run.py --workload {sweep,nerve,tables} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; catnerve is imported from its
``src`` directory and the CLI is run as ``python -m catnerve.cli`` with
``src`` on PYTHONPATH, one job at a time.  Inputs are drawn from the
seed and written under ``.bench_work/``.  Jobs are repeated in passes
until ``--seconds`` have gone by; every output is checked against an
answer worked out without the program.

With ``--trace 0`` the end-to-end metrics are measured; with
``--trace 1`` the same jobs run in-process under a tracer and the
per-layer metrics are reported.  The last line of stdout is one JSON
object; a fuller record goes to ``.bench_work/results/``.  See
README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# Set-up is repeated this often per run; setup_s reports the median.
SETUP_REPEATS = 5

END_TO_END = {"wall_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_p90_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_TIMES = ["io.parse_s", "fincat.validate_s", "covers.check_s", "cech.level_s",
               "grothendieck.build_s", "grothendieck.adjunction_s", "euler.weighting_s",
               "euler.incl_excl_s", "homotopy.chains_s", "homotopy.boundary_s", "homotopy.rank_s"]
LAYER_COUNTS = ["io.bytes_in", "fincat.objects", "fincat.morphisms", "fincat.composites", "covers.parts",
                "cech.pieces", "grothendieck.gr_objects", "grothendieck.gr_morphisms",
                "grothendieck.adjunction_pairs", "euler.zeta_nnz", "euler.incl_excl_terms",
                "homotopy.chains_total", "homotopy.top_dim", "homotopy.boundary_nnz", "homotopy.rank_sum"]
PER_LAYER = {**{k: "s" for k in LAYER_TIMES}, "euler.mobius_s": "s", "cli.self_s": "s",
             "trace.overhead_s": "s", **{k: "count" for k in LAYER_COUNTS}}


class JobTimeout(Exception):
    pass


@dataclass
class Outcome:
    code: int | None
    stdout: str
    seconds: float
    error: str = ""   # set when the job did not run to an exit code


def load_catnerve():
    """Import catnerve from this checkout's ``src``, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import catnerve
    import catnerve.cli
    import catnerve.fixtures  # noqa: F401

    if Path(catnerve.__file__).resolve().parent.parent != src:
        raise ImportError(f"catnerve was imported from {catnerve.__file__}, not from {src}")
    return catnerve


@contextlib.contextmanager
def deadline(seconds: float):
    def expire(signum, frame):
        raise JobTimeout(f"timeout after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_subprocess(job: workloads.Job, timeout: float) -> Outcome:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    t = time.perf_counter()
    try:
        p = subprocess.run([sys.executable, "-m", "catnerve.cli", *job.argv], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return Outcome(None, "", time.perf_counter() - t, f"timeout after {timeout}s")
    seconds = time.perf_counter() - t
    return Outcome(p.returncode, p.stdout, seconds, "" if p.returncode in (0, 1) else p.stderr[-500:])


def run_inprocess(cn, job: workloads.Job, timeout: float) -> Outcome:
    """A sweep call, or a CLI job through the CLI's own code in this process."""
    buf = io.StringIO()
    t = time.perf_counter()
    code, error = 0, ""
    try:
        with deadline(timeout), contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            if job.call is not None:
                buf.write(job.call(cn))
            else:
                try:
                    cn.cli.main.main(args=list(job.argv), prog_name="catnerve", standalone_mode=False)
                except SystemExit as e:
                    code = e.code if isinstance(e.code, int) else 1
    except JobTimeout as e:
        code, error = None, str(e)
    except Exception as e:  # a failed job is counted, and the run goes on
        code, error = None, f"{type(e).__name__}: {e}"
    return Outcome(code, buf.getvalue(), time.perf_counter() - t, error)


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(directory.rglob("*")):
        if f.is_file():
            h.update(f.relative_to(directory).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def setup(cn, workload: str, seed: int, params: dict):
    """Draw and write the inputs SETUP_REPEATS times; the same seed must
    give byte-identical files every time."""
    work = WORK / f"{workload}-{seed}"
    times, digests = [], []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        built = workloads.BUILDERS[workload](random.Random(seed), params, work, cn)
        times.append(time.perf_counter() - t)
        digests.append(digest(work))
    return built, times, digests


class Checker:
    """Checks every outcome once per distinct output and keeps the failures."""

    def __init__(self, jobs: list[workloads.Job]):
        self.jobs = jobs
        self.verdicts: dict[tuple, str | None] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, index: int, outcome: Outcome) -> None:
        self.attempted += 1
        job = self.jobs[index]
        if outcome.error:
            self.failures.append(f"{job.name}: {outcome.error}")
            return
        key = (index, outcome.code, outcome.stdout)
        if key not in self.verdicts:
            self.verdicts[key] = job.check(outcome.code, outcome.stdout)
        if self.verdicts[key] is not None:
            self.failures.append(f"{job.name}: {self.verdicts[key]}")


def run_pass(jobs, execute, checker: Checker) -> tuple[float, list[Outcome]]:
    t = time.perf_counter()
    outcomes = [execute(job) for job in jobs]
    wall = time.perf_counter() - t
    for i, o in enumerate(outcomes):
        checker.add(i, o)
    return wall, outcomes


def check_oracles(cn, oracles: list[workloads.Oracle]) -> list[str]:
    """chi from the program's Mobius oracle against the benchmark's chain count."""
    errors = []
    for o in oracles:
        objs = [f"o{i}" for i in range(len(o.up))]
        mors = [(f"r{i}_{j}", objs[i], objs[j]) for i in range(len(o.up)) for j in range(len(o.up)) if (o.up[i] >> j) & 1]
        cat = cn.fincat.FinCategory.build(o.name, objs, mors)
        chi = cn.euler.mobius_oracle(cat)
        if chi != o.chi:
            errors.append(f"mobius_oracle({o.name}) = {chi}, expected {o.chi}")
    return errors


def environment(workload: str, seed: int, seconds: int, trace: int, params: dict) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = p.stdout.strip() or commit
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "params": params,
            "python": platform.python_version(), "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "commit": commit}


def measure(cn, built, workload: str, params: dict, seconds: float, record: dict):
    """Untraced passes; the end-to-end metrics."""
    timeout = params["timeout_s"]
    in_process = workload == "sweep"

    def execute(job):
        return run_inprocess(cn, job, timeout) if in_process else run_subprocess(job, timeout)

    checker = Checker(built.jobs)
    walls, latencies = [], []
    start = time.perf_counter()
    while True:
        wall, outcomes = run_pass(built.jobs, execute, checker)
        walls.append(wall)
        latencies += [o.seconds for o in outcomes]
        if time.perf_counter() - start >= seconds:
            break
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    wall_s = statistics.median(walls)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else latencies[0]
    record.update(passes=len(walls), pass_walls=walls, job_samples=len(latencies),
                  samples_beyond_p90=sum(x > p90 for x in latencies),
                  job_latencies={j.name: [round(x, 6) for x in latencies[i::len(built.jobs)]]
                                 for i, j in enumerate(built.jobs)})
    metrics = {"wall_s": wall_s, "jobs_per_s": len(built.jobs) / wall_s,
               "job_p50_s": statistics.median(latencies), "job_p90_s": p90,
               "peak_rss_mb": usage.ru_maxrss / 1024}
    return metrics, checker


def measure_traced(cn, built, workload: str, params: dict, seconds: float, record: dict, trace_path: Path):
    """Rounds of an untraced pass (through the CLI on the CLI workloads), an
    untraced in-process pass and a traced one; the per-layer metrics."""
    timeout = params["timeout_s"]
    checker = Checker(built.jobs)
    tracer = Tracer()

    def execute(job):
        return run_inprocess(cn, job, timeout)

    def execute_traced(job):
        with tracer.span(job.name, "job"):
            return run_inprocess(cn, job, timeout)

    cli_walls, untraced, traced, pass_spans = [], [], [], []
    start = time.perf_counter()
    while True:
        if workload != "sweep":
            cli_walls.append(run_pass(built.jobs, lambda job: run_subprocess(job, timeout), checker)[0])
        untraced.append(run_pass(built.jobs, execute, checker)[0])
        first = len(tracer.spans)
        tracer.install(cn)
        try:
            traced.append(run_pass(built.jobs, execute_traced, checker)[0])
        finally:
            tracer.uninstall()
        pass_spans.append(tracer.spans[first:])
        if time.perf_counter() - start >= seconds:
            break
    first = len(tracer.spans)
    tracer.install(cn)
    try:
        with tracer.span("check", "check"):
            oracle_errors = check_oracles(cn, built.oracles)
    finally:
        tracer.uninstall()
    check_times = Tracer.self_times(tracer.spans[first:])

    per_pass = [Tracer.self_times(spans) for spans in pass_spans]
    metrics = {k: statistics.median(p.get(k, 0.0) for p in per_pass) for k in LAYER_TIMES}
    metrics["euler.mobius_s"] = check_times.get("euler.mobius_s", 0.0)
    if cli_walls:  # interpreter start, import, argument parsing and formatting
        metrics["cli.self_s"] = statistics.median(
            wall - sum(v for k, v in p.items() if k != "job") for wall, p in zip(cli_walls, per_pass))
    else:  # in-process sweep: the loop's own time around the calls
        metrics["cli.self_s"] = statistics.median(p.get("job", 0.0) for p in per_pass)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    counts = [Tracer.counters(spans) for spans in pass_spans]
    if any(c != counts[0] for c in counts):
        oracle_errors.append("span counters differ between traced passes")
    metrics.update({k: counts[0].get(k, 0) for k in LAYER_COUNTS})

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    origin = tracer.spans[0]["start"] if tracer.spans else 0.0
    trace_path.write_text(json.dumps([
        {**s, "start": s["start"] - origin, "end": s["end"] - origin} for s in tracer.spans]))
    record.update(passes=len(traced), cli_pass_walls=cli_walls, untraced_walls=untraced, traced_walls=traced,
                  layer_self_s={k: metrics[k] for k in [*LAYER_TIMES, "euler.mobius_s", "cli.self_s"]},
                  trace_file=str(trace_path.relative_to(ROOT)))
    return metrics, checker, oracle_errors


def run(workload: str, seed: int, seconds: float, trace: int, params: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns the result printed as the last line, and the full record."""
    start = time.perf_counter()
    cn = load_catnerve()
    import_s = time.perf_counter() - start
    params = dict(params or workloads.DEFAULTS[workload])
    built, setup_times, digests = setup(cn, workload, seed, params)
    record = environment(workload, seed, seconds, trace, params)
    record.update(import_s=import_s, setup_build_s=setup_times, counters=built.counters, jobs=[j.name for j in built.jobs])
    errors = [] if len(set(digests)) == 1 else [f"inputs differ between set-ups at the same seed: {digests}"]

    name = f"{workload}-seed{seed}-trace{trace}"
    if trace:
        metrics, checker, oracle_errors = measure_traced(
            cn, built, workload, params, seconds, record, WORK / "traces" / f"{name}.json")
        errors += oracle_errors
        units = PER_LAYER
    else:
        metrics, checker = measure(cn, built, workload, params, seconds, record)
        errors += check_oracles(cn, built.oracles)
        metrics["setup_s"] = import_s + statistics.median(setup_times)
        units = END_TO_END
    result = {
        "correct": not checker.failures and not errors,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record.update(result=result, failures=checker.failures[:50], errors=errors)
    out = WORK / "results" / f"{name}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    record["result_file"] = str(out.relative_to(ROOT))
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    try:
        result, record = run(a.workload, a.seed, a.seconds, a.trace)
    except ImportError as e:
        print(f"error: cannot import catnerve from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    samples = "" if a.trace else f", {record['job_samples']} job samples ({record['samples_beyond_p90']} beyond p90)"
    print(f"{a.workload} seed {a.seed}: {record['passes']} passes{samples},"
          f" failures {result['failed']}/{result['attempted']}, record {record['result_file']}")
    for line in (record["failures"] + record["errors"])[:10]:
        print(f"  FAILED {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
