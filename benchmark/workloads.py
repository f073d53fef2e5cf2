"""The three workloads: their inputs, job lists and expected outputs.

Each ``build_*`` draws its inputs from a seeded ``random.Random``,
writes them under a work directory and returns the jobs.  A job is a
CLI invocation (``argv``) or an in-process call (``call``); either way
its result is an exit code and a stdout text, which ``check`` compares
with an answer worked out by ``inputs`` without the program.

Draws are accepted only inside a band of an exact size counter (nerve
chains, composites), so that runs with different seeds do the same
amount of work; the number of rejected draws is recorded.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement
from math import comb
from pathlib import Path
from typing import Callable, Optional

import inputs as gen

# Sizes at which the workloads are defined.  A job that passes its
# timeout counts as failed.
SWEEP = dict(min_objects=3, max_objects=6, max_parts=4, dag_fraction=0.3,
             chain_buckets=((1, 30), (31, 60), (61, 100), (101, 150)),
             per_bucket_poset=24, per_bucket_dag=10, timeout_s=10)
NERVE = dict(chain_n=10, compare_objects=11, compare_p=0.3, compare_chains=(1000, 1100),
             cover_objects=70, cover_p=0.05, cover_parts=3, gr_morphisms=(2400, 2700),
             cech_level=3, timeout_s=30)
TABLES = dict(objects=60, p=0.09, m=3, composites=(30000, 32500), parts=3,
              small_objects=10, small_p=0.3, small_m=3, small_chains=(400, 480), timeout_s=30)

# Small sizes for the smoke test.
TINY = {
    "sweep": dict(SWEEP, chain_buckets=((1, 60), (61, 200)), per_bucket_poset=1, per_bucket_dag=1),
    "nerve": dict(NERVE, chain_n=4, compare_objects=6, compare_chains=(10, 200), cover_objects=8,
                  cover_p=0.3, gr_morphisms=(10, 400), cech_level=1),
    "tables": dict(TABLES, objects=8, p=0.3, m=2, composites=(50, 2000), small_objects=5,
                   small_chains=(10, 400)),
}

MAX_DRAWS = 20000
_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CEX = (str(_FIXTURES / "cex.fincat"), str(_FIXTURES / "cex.cover"))


@dataclass
class Job:
    name: str
    check: Callable[[int, str], Optional[str]]
    argv: Optional[list[str]] = None          # catnerve CLI arguments
    call: Optional[Callable[[object], str]] = None  # in-process: catnerve package -> stdout


@dataclass
class Oracle:
    """A poset whose chi the program's Mobius oracle must reproduce."""

    name: str
    up: list[int]
    chi: Fraction


@dataclass
class Built:
    jobs: list[Job]
    oracles: list[Oracle]
    counters: dict = field(default_factory=dict)


def fmt(q) -> str:
    """Render like ``catnerve.euler.format_rational``."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def exact(code: int, text: Callable[[], str]) -> Callable[[int, str], Optional[str]]:
    """Check for an exact exit code and stdout; ``text`` runs once, lazily."""
    want = cache(text)

    def check(got_code: int, out: str) -> Optional[str]:
        if got_code != code:
            return f"exit code {got_code}, expected {code}"
        expected = want()
        if out != expected:
            got_lines, want_lines = out.splitlines(), expected.splitlines()
            for i, (a, b) in enumerate(zip(got_lines, want_lines)):
                if a != b:
                    return f"line {i + 1}: got {a[:120]!r}, expected {b[:120]!r}"
            return f"{len(got_lines)} lines, expected {len(want_lines)}"
        return None

    return check


def _draw(rng: random.Random, n: int, p: float, parts: int, accept) -> tuple[list[int], list[int], int]:
    """First order with a ``parts``-part ideal cover that ``accept`` takes."""
    for rejected in range(MAX_DRAWS):
        up = gen.random_order(rng, n, p)
        cover = gen.ideal_cover(rng, up, parts)
        if len(cover) == parts and accept(up, cover):
            return up, cover, rejected
    raise RuntimeError(f"no accepted draw in {MAX_DRAWS} tries (n={n}, p={p})")


def _in_band(value: int, band) -> bool:
    return band[0] <= value <= band[1]


def _poset_hom(up: list[int], mult: int = 1):
    return lambda x, y: mult if x == y or (up[x] >> y) & 1 else 0


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


# -- expected outputs shared by the CLI workloads ------------------------------

def _object_order(text: str) -> list[str]:
    return text.splitlines()[1].split()[1:]


def _cech_text(order: list[str], parts: list[int], level: int, variant: str) -> str:
    labels = [str(a) for a in range(1, len(parts) + 1)]
    tuples = (combinations_with_replacement if variant == "ordered" else combinations)(labels, level + 1)
    lines = []
    for t in tuples:
        mask = -1
        for a in t:
            mask &= parts[int(a) - 1]
        objs = " ".join(x for x in order if (mask >> int(x[1:])) & 1) or "-"
        lines.append(f"({','.join(t)}): objects {objs}")
    return f"variant {variant}, level {level}: {len(lines)} pieces\n" + "".join(l + "\n" for l in lines)


def _incl_excl_text(name: str, up: list[int], parts: list[int], m: int) -> str:
    labels = range(1, len(parts) + 1)
    lines, total = [], Fraction(0)
    for r in range(1, len(parts) + 1):
        for t in combinations(labels, r):
            mask = -1
            for a in t:
                mask &= parts[a - 1]
            chi = Fraction(gen.poset_chi(up, mask & ((1 << len(up)) - 1)), m)
            lines.append(f"term ({','.join(map(str, t))}): chi = {fmt(chi)}")
            total += chi if r % 2 else -chi
    chi = Fraction(gen.poset_chi(up), m)
    verdict = "MATCH" if total == chi else "MISMATCH"
    return "\n".join(lines + [f"sum = {fmt(total)}", f"chi({name}) = {fmt(chi)}", verdict]) + "\n"


def _gr_texts(name: str, up: list[int], parts: list[int], m: int) -> tuple[str, str]:
    objects, morphisms, _ = gen.gr_shape(len(up), _poset_hom(up, m), parts)
    gr = f"objects: {objects}\nnon-identity morphisms: {morphisms}\nchi = {fmt(Fraction(gen.poset_chi(up), m))}\n"
    adjunction = f"checked {len(up) * objects} pairs\nadjunction holds\n"
    return gr, adjunction


def _cex_job(command: str) -> Job:
    if command == "nerve-compare":
        text = "category betti: 1 0 0\ngr betti: 1 1 0\nbetti differ: 1 0 0 vs 1 1 0\n"
    else:
        text = "term (1): chi = 0\nterm (2): chi = 1\nterm (1,2): chi = 1\nsum = 0\nchi(C) = 1\nMISMATCH\n"
    return Job(f"{command} cex", exact(1, lambda: text), argv=[command, *CEX])


# -- nerve ----------------------------------------------------------------------

def _nerve_compare_check(up: list[int], parts: list[int]):
    def check(code: int, out: str) -> Optional[str]:
        lines = out.splitlines()
        if code != 0 or len(lines) != 3:
            return f"exit code {code} with {len(lines)} lines, expected 0 with 3"
        left, right = (line.split(": ", 1)[1] for line in lines[:2])
        if not (left == right and lines[2] == f"betti equal: {left}"):
            return f"betti differ: {out!r}"
        betti = [int(b) for b in left.split()]
        dims_p = gen.nerve_dims(gen.order_arrows(up))
        dims_gr = gen.nerve_dims(gen.gr_shape(len(up), _poset_hom(up), parts)[2])
        if len(betti) != max(len(dims_p), len(dims_gr)):
            return f"{len(betti)} Betti numbers for nerves of dimension {len(dims_p) - 1}, {len(dims_gr) - 1}"
        if gen.alternating(betti) != gen.alternating(dims_p):
            return f"alternating Betti sum {gen.alternating(betti)} != chi {gen.alternating(dims_p)}"
        return None

    return check


def build_nerve(rng: random.Random, p: dict, work: Path, cn=None) -> Built:
    n = p["chain_n"]
    chain = _write(work / "chain.fincat", gen.poset_text(f"chain{n}", gen.chain_order(n)))
    chain_text = "dim\tbasis\tbetti\n" + "".join(
        f"{k}\t{comb(n, k + 1)}\t{int(k == 0)}\n" for k in range(n)) + "euler_top = 1\n"
    jobs = [Job(f"homology chain{n}", exact(0, lambda: chain_text), argv=["homology", chain])]
    oracles = [Oracle(f"chain{n}", gen.chain_order(n), Fraction(1))]
    counters = {"chain_dims": [comb(n, k + 1) for k in range(n)]}

    def compare_size(up, cover):
        dims_gr = gen.nerve_dims(gen.gr_shape(len(up), _poset_hom(up), cover)[2])
        return sum(gen.nerve_dims(gen.order_arrows(up))) + sum(dims_gr)

    rejected = 0
    for i in (1, 2, 3):
        up, cover, r = _draw(rng, p["compare_objects"], p["compare_p"], 2,
                             lambda up, c: _in_band(compare_size(up, c), p["compare_chains"]))
        rejected += r
        cat = _write(work / f"P{i}.fincat", gen.poset_text(f"P{i}", up))
        cov = _write(work / f"P{i}.cover", gen.cover_text("U", f"P{i}", cover))
        jobs.append(Job(f"nerve-compare P{i}", _nerve_compare_check(up, cover), argv=["nerve-compare", cat, cov]))
        oracles.append(Oracle(f"P{i}", up, Fraction(gen.poset_chi(up))))
        counters[f"P{i}"] = {"relations": gen.relation_count(up), "chains": compare_size(up, cover)}

    def gr_size(up, cover):
        return gen.gr_shape(len(up), _poset_hom(up), cover)[1]

    up, cover, r = _draw(rng, p["cover_objects"], p["cover_p"], p["cover_parts"],
                         lambda up, c: _in_band(gr_size(up, c), p["gr_morphisms"]))
    rejected += r
    cat = _write(work / "Q.fincat", gen.poset_text("Q", up))
    cov = _write(work / "Q.cover", gen.cover_text("U", "Q", cover))
    gr_text, adj_text = _gr_texts("Q", up, cover, 1)
    level = p["cech_level"]
    order = [f"o{i}" for i in range(len(up))]
    jobs += [
        Job("gr Q", exact(0, lambda: gr_text), argv=["gr", cat, cov]),
        Job("adjunction Q", exact(0, lambda: adj_text), argv=["adjunction", cat, cov]),
        Job("incl-excl Q", exact(0, lambda: _incl_excl_text("Q", up, cover, 1)), argv=["incl-excl", cat, cov]),
        Job(f"cech Q level {level}", exact(0, lambda: _cech_text(order, cover, level, "ordered")),
            argv=["cech", cat, cov, "--level", str(level), "--variant", "ordered"]),
        _cex_job("nerve-compare"),
    ]
    oracles.append(Oracle("Q", up, Fraction(gen.poset_chi(up))))
    objects, morphisms, _ = gen.gr_shape(len(up), _poset_hom(up), cover)
    counters["Q"] = {"relations": gen.relation_count(up), "gr_objects": objects, "gr_morphisms": morphisms}
    counters["rejected_draws"] = rejected
    return Built(jobs, oracles, counters)


# -- tables -----------------------------------------------------------------------

def product_composites(up: list[int], m: int) -> int:
    """Tabulated composites of P x Z/m, identity rows included."""
    n = len(up)
    le = [up[i] | (1 << i) for i in range(n)]
    size = [bin(x).count("1") for x in le]
    nonid = sum((m - (i == j)) * (m * size[j] - 1) for i in range(n) for j in gen.bits(le[i]))
    morphisms = m * sum(size)
    return nonid + 2 * morphisms - n


def _weights_check(text: str, up: list[int], m: int):
    order = _object_order(text)

    def check(code: int, out: str) -> Optional[str]:
        lines = out.splitlines()
        chi = Fraction(gen.poset_chi(up), m)
        if code != 0 or len(lines) != 3 or lines[0] != f"chi = {fmt(chi)}":
            return f"exit code {code}, first line {lines[:1]}, expected chi = {fmt(chi)}"
        for line, dual in zip(lines[1:], (False, True)):
            label, _, body = line.partition(": ")
            pairs = [kv.split("=") for kv in body.split()]
            if label != ("coweighting" if dual else "weighting") or [k for k, _ in pairs] != order:
                return f"{label}: objects not in declaration order"
            w = {int(k[1:]): Fraction(v) for k, v in pairs}
            # zeta w = 1 (weighting) or v zeta = 1 (coweighting), zeta = m * (<=)
            for x in range(len(up)):
                related = [y for y in range(len(up)) if y == x or (up[y if dual else x] >> (x if dual else y)) & 1]
                if m * sum(w[y] for y in related) != 1:
                    return f"{label} fails its equation at o{x}"
            if sum(w.values()) != chi:
                return f"{label} sums to {sum(w.values())}, expected {chi}"
        return None

    return check


def build_tables(rng: random.Random, p: dict, work: Path, cn=None) -> Built:
    m = p["m"]
    up, cover, rejected = _draw(
        rng, p["objects"], p["p"], p["parts"],
        lambda up, c: _in_band(product_composites(up, m), p["composites"]))
    text = gen.product_text(rng, "T", up, m)
    cat = _write(work / "T.fincat", text)
    cov = _write(work / "T.cover", gen.cover_text("U", "T", cover))
    n = len(up)
    morphisms = m * (gen.relation_count(up) + n)
    validate_text = f"ok: category T ({n} objects, {morphisms} morphisms)\n"

    def cover_check_text():
        lines = []
        for a, mask in enumerate(cover, start=1):
            upward = all(up[x] & ~mask == 0 for x in gen.bits(mask))
            lines.append(f"part {a}: objects={bin(mask).count('1')} full=yes ideal=yes"
                         f" filter={'yes' if upward else 'no'}")
        return "\n".join(lines + ["covers: yes"]) + "\n"

    order = _object_order(text)
    jobs = [
        Job("validate T", exact(0, lambda: validate_text), argv=["validate", cat]),
        Job("euler T", _weights_check(text, up, m), argv=["euler", cat, "--weights"]),
        Job("cover-check T", exact(0, cover_check_text), argv=["cover-check", cat, cov]),
        Job("incl-excl T", exact(0, lambda: _incl_excl_text("T", up, cover, m)), argv=["incl-excl", cat, cov]),
        Job("cech T level 1", exact(0, lambda: _cech_text(order, cover, 1, "reduced")),
            argv=["cech", cat, cov, "--level", "1", "--variant", "reduced"]),
    ]
    counters = {"T": {"objects": n, "morphisms": morphisms, "composites": product_composites(up, m)}}

    sm = p["small_m"]
    s_up, s_cover, r = _draw(
        rng, p["small_objects"], p["small_p"], 2,
        lambda up, c: _in_band(gen.nerve_dims(gen.order_arrows(up, mult=sm), 2)[-1], p["small_chains"]))
    rejected += r
    s_cat = _write(work / "S.fincat", gen.product_text(rng, "S", s_up, sm))
    s_cov = _write(work / "S.cover", gen.cover_text("U", "S", s_cover))
    dims = gen.nerve_dims(gen.order_arrows(s_up, mult=sm), 2)

    def homology_text():
        betti = gen.poset_betti(s_up, 1)
        rows = "".join(f"{k}\t{dims[k]}\t{betti[k]}\n" for k in range(2))
        return f"dim\tbasis\tbetti\n{rows}euler_top = {dims[0] - dims[1]}\ntruncated at dim 1\n"

    gr_text, adj_text = _gr_texts("S", s_up, s_cover, sm)
    jobs += [
        Job("homology S", exact(0, homology_text), argv=["homology", s_cat, "--max-dim", "1"]),
        Job("gr S", exact(0, lambda: gr_text), argv=["gr", s_cat, s_cov]),
        Job("adjunction S", exact(0, lambda: adj_text), argv=["adjunction", s_cat, s_cov]),
        _cex_job("incl-excl"),
    ]
    objects, gr_morphisms, _ = gen.gr_shape(len(s_up), _poset_hom(s_up, sm), s_cover)
    counters["S"] = {"objects": len(s_up), "chain_dims": dims, "gr_objects": objects, "gr_morphisms": gr_morphisms}
    counters["rejected_draws"] = rejected
    oracles = [Oracle("T/P", up, Fraction(gen.poset_chi(up))), Oracle("S/P", s_up, Fraction(gen.poset_chi(s_up)))]
    return Built(jobs, oracles, counters)


# -- sweep ------------------------------------------------------------------------

@dataclass
class SweepInstance:
    """One random category with a cover, and its answers worked out by path counting."""

    kind: str
    ideal: bool
    cat_text: str
    cover_text: str
    expected: dict
    chains: int
    poset: Optional[list[int]]


def _sweep_instance(cat, cover, kind: str, ideal: bool, io) -> SweepInstance:
    names = {x: i for i, x in enumerate(cat.objects)}
    n = len(names)
    hom = [[0] * n for _ in range(n)]
    for mor in cat.morphisms:
        hom[names[mor.dom]][names[mor.cod]] += 1
    arrows = [[(y, hom[x][y]) for y in range(n) if y != x and hom[x][y]] for x in range(n)]
    labels = cover.index_order
    parts = [sum(1 << names[x] for x in cover.parts[a].objects) for a in labels]
    dims = gen.nerve_dims(arrows)
    gr_objects, gr_morphisms, gr_arrows = gen.gr_shape(n, lambda x, y: hom[x][y], parts)
    gr_dims = gen.nerve_dims(gr_arrows)
    chi = gen.alternating(dims)
    classes = []
    for mask in parts:
        outside = [y for y in range(n) if not (mask >> y) & 1]
        inside = list(gen.bits(mask))
        classes.append([all(hom[y][x] == 0 for y in outside for x in inside),
                        all(hom[x][y] == 0 for y in outside for x in inside)])
    k = len(labels)
    expected = {
        "covers": True,
        "classes": classes,
        "chi": fmt(chi), "incl_excl": fmt(chi), "chi_gr": fmt(chi),
        "betti_equal": True, "betti_chi": chi,
        "dims": dims, "gr_dims": gr_dims,
        "gr": [gr_objects, gr_morphisms],
        "pieces": [comb(k + i, i + 1) for i in range(k)] + [comb(k, i + 1) for i in range(k)],
        "adjunction_pairs": n * gr_objects if ideal else None,
    }
    up = None
    if kind == "poset":
        up = [sum(1 << y for y in range(n) if y != x and hom[x][y]) for x in range(n)]
    return SweepInstance(kind, ideal, io.emit_category(cat), io.emit_cover(cover), expected,
                         sum(dims) + sum(gr_dims), up)


def sweep_call(inst: SweepInstance) -> Callable[[object], str]:
    """The per-instance calls of the sweep, through module attributes so
    that a tracer's wrappers see them."""

    def call(cn) -> str:
        cat = cn.io.parse_category(inst.cat_text)
        cover = cn.io.parse_cover(inst.cover_text, cat)
        labels = cover.index_order
        out = {
            "covers": cn.covers.is_cover(cover),
            "classes": [list(cn.covers.classify_subcategory(cover.parts[a])) for a in labels],
            "chi": fmt(cn.euler.euler_characteristic(cat).chi),
            "incl_excl": fmt(cn.euler.inclusion_exclusion_sum(cover)),
        }
        g = cn.grothendieck.ReducedGrothendieck(cover)
        out["chi_gr"] = fmt(cn.euler.euler_characteristic(g.category).chi)
        cmp = cn.homotopy.compare_homology(cat, g.category)
        out["betti_equal"] = cmp.equal
        out["betti_chi"] = gen.alternating(list(cmp.left.betti))
        out["dims"] = list(cmp.left.basis_dims)
        out["gr_dims"] = list(cmp.right.basis_dims)
        out["gr"] = [len(g.objects), len(g.morphisms)]
        out["pieces"] = [len(cn.cech.level(cover, i, v)) for v in ("ordered", "reduced") for i in range(len(labels))]
        if inst.ideal:
            rep = cn.grothendieck.adjunction_check_pi(cover)
            out["adjunction_pairs"] = int(rep.details[0].split()[1]) if rep.ok else None
        else:
            out["adjunction_pairs"] = None
        return json.dumps(out, sort_keys=True)

    return call


def build_sweep(rng: random.Random, p: dict, work: Path, cn) -> Built:
    """Draws fill fixed quotas per (nerve-size bucket, category kind, cover
    kind), so every seed gets the same mix of small and heavy instances."""
    fx = cn.fixtures
    buckets = p["chain_buckets"]
    quota = {(b, kind, ideal): p[f"per_bucket_{kind}"] for b in range(len(buckets))
             for kind in ("poset", "dag") for ideal in (True, False)}
    slots: dict[tuple, list[SweepInstance]] = {key: [] for key in quota}
    rejected = 0
    while any(len(slots[key]) < q for key, q in quota.items()):
        if rng.random() < p["dag_fraction"]:
            cat = fx.random_dag_category(rng, rng.randint(p["min_objects"], p["max_objects"]), max_morphisms=80)
            kind = "dag"
        else:
            cat = fx.random_poset(rng, rng.randint(p["min_objects"], p["max_objects"]))
            kind = "poset"
        ideal = rng.random() < 0.5
        make = fx.random_ideal_cover if ideal else fx.random_filter_cover
        inst = _sweep_instance(cat, make(rng, cat, max_parts=p["max_parts"]), kind, ideal, cn.io)
        b = next((i for i, (lo, hi) in enumerate(buckets) if lo <= inst.chains <= hi), None)
        if b is None or len(slots[(b, kind, ideal)]) >= quota[(b, kind, ideal)]:
            rejected += 1
            if rejected > MAX_DRAWS:
                raise RuntimeError("sweep draws do not fill the size buckets")
            continue
        slots[(b, kind, ideal)].append(inst)
    instances = [inst for key in quota for inst in slots[key]]
    rng.shuffle(instances)
    (work / "instances.json").write_text(json.dumps(
        [[i.kind, i.ideal, i.cat_text, i.cover_text] for i in instances], indent=0))
    jobs = []
    for i, inst in enumerate(instances):
        want = json.dumps(inst.expected, sort_keys=True)
        jobs.append(Job(f"sweep {i} {inst.kind}", exact(0, lambda want=want: want), call=sweep_call(inst)))
    oracles = [Oracle(f"sweep {i}", inst.poset, Fraction(gen.alternating(inst.expected["dims"])))
               for i, inst in enumerate(instances) if inst.poset is not None]
    counters = {
        "instances": len(instances),
        "rejected_draws": rejected,
        "chains": sum(i.chains for i in instances),
        "objects": sum(i.expected["dims"][0] for i in instances),
        "gr_objects": sum(i.expected["gr"][0] for i in instances),
        "gr_morphisms": sum(i.expected["gr"][1] for i in instances),
        "cech_pieces": sum(sum(i.expected["pieces"]) for i in instances),
    }
    return Built(jobs, oracles, counters)


BUILDERS = {"sweep": build_sweep, "nerve": build_nerve, "tables": build_tables}
DEFAULTS = {"sweep": SWEEP, "nerve": NERVE, "tables": TABLES}
