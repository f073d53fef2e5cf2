import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, strategies as st

from catnerve.euler import rank
from catnerve.fincat import FinCategory, validate_category
from catnerve.grothendieck import ReducedGrothendieck
from catnerve.homotopy import (
    betti_numbers,
    chain_complex,
    compare_homology,
    euler_consistency,
    nerve_chains,
)
from catnerve import fixtures as fx, homotopy
from test_fincat import _times_cyclic

F = Fraction


def walking_iso():
    return FinCategory.build(
        "Iso", ["x", "y"], [("f", "x", "y"), ("g", "y", "x")],
        {("g", "f"): "id_x", ("f", "g"): "id_y"},
    )


def _names(cat: FinCategory, chain: tuple[int, ...]) -> tuple[str, ...]:
    """The arrow names of a chain of dimension >= 1."""
    return tuple(cat.morphisms[i].name for i in chain)


def test_nerve_chains_counterexample():
    c = fx.counterexample_category()
    levels = nerve_chains(c)
    assert [len(l) for l in levels] == [3, 4, 2]
    assert levels[0] == [(0,), (1,), (2,)]  # object indices
    two = {_names(c, ch) for ch in levels[2]}
    assert two == {("f", "h"), ("g", "h")}
    assert c.morphisms[levels[2][0][-1]].cod == "z"


def test_nerve_chains_guards():
    with pytest.raises(ValueError, match="acyclic"):
        nerve_chains(walking_iso())
    with pytest.raises(ValueError):
        nerve_chains(fx.poset_v(), max_dim=-1)
    assert [len(l) for l in nerve_chains(walking_iso(), max_dim=3)] == [2, 2, 2, 2]


def test_nerve_chains_refuses_an_unvalidated_cycle():
    # x -> y -> z -> x with no composites: not a category, and it has
    # no endomorphism and no two-way pair.
    # betti_numbers runs in a subprocess with a timeout, so that
    # enumerating the cycle's chains without end fails the test instead
    # of hanging it.
    arrows = [("f", "x", "y"), ("g", "y", "z"), ("h", "z", "x")]
    code = ("from catnerve.fincat import FinCategory\n"
            "from catnerve.homotopy import betti_numbers\n"
            f"cat = FinCategory.build('C3', ['x', 'y', 'z'], {arrows!r})\n"
            "try:\n"
            "    betti_numbers(cat)\n"
            "except ValueError as e:\n"
            "    print(e)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    p = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert p.returncode == 0, p.stderr
    assert p.stdout.startswith("category is not acyclic;")
    cycle = FinCategory.build("C3", ["x", "y", "z"], arrows)
    assert [len(l) for l in nerve_chains(cycle, max_dim=3)] == [3, 3, 3, 3]


def test_degenerate_middle_faces_vanish():
    # in the walking iso, d1 of (f, g) composes to an identity: dropped
    iso = walking_iso()
    cx = chain_complex(iso, max_dim=2)
    j = [_names(iso, ch) for ch in cx.levels[2]].index(("f", "g"))
    # only the two outer faces contribute, both with even index (sign +1)
    assert sorted(cx.boundaries[1][j].values()) == [1, 1]


def test_boundary_squares_to_zero_on_fixtures():
    for name, cat in fx.category_fixtures():
        cx = chain_complex(cat)  # raises internally if dd != 0
        for d in cx.boundaries:
            assert all(v in (1, -1) for col in d for v in col.values()), name
        for a, b in zip(cx.boundaries, cx.boundaries[1:]):
            for col in b:
                image = Counter()
                for i, v in col.items():
                    for j, w in a[i].items():
                        image[j] += v * w
                assert not any(image.values()), name


def test_chain_complex_rejects_nonzero_boundary_square(monkeypatch):
    signed = homotopy.boundary_matrix
    monkeypatch.setattr(homotopy, "boundary_matrix", lambda cat, lower, upper: [
        dict.fromkeys(col, 1) for col in signed(cat, lower, upper)])
    with pytest.raises(RuntimeError, match="boundary square is nonzero"):
        chain_complex(fx.chain_poset(3))


def test_betti_frozen_values():
    c = fx.counterexample_category()
    rep = betti_numbers(c)
    assert rep.betti == (1, 0, 0)
    assert rep.basis_dims == (3, 4, 2)
    assert rep.euler_top == F(1)
    assert not rep.truncated

    g = ReducedGrothendieck(fx.counterexample_cover())
    grep = betti_numbers(g.category)
    assert grep.betti == (1, 1, 0)
    assert grep.basis_dims == (5, 6, 1)
    assert grep.euler_top == F(0)

    assert betti_numbers(fx.parallel_pair()).betti == (1, 1)
    assert betti_numbers(fx.fork_category()).betti == (1, 1, 0)
    assert betti_numbers(fx.poset_v()).betti == (1, 0)
    assert betti_numbers(fx.chain_poset(4)).betti == (1, 0, 0, 0)
    assert betti_numbers(fx.chain_poset(4)).basis_dims == (4, 6, 4, 1)


def test_betti_truncation():
    iso = walking_iso()
    rep = betti_numbers(iso, max_dim=2)
    assert rep.betti == (1, 0, 0)
    assert rep.truncated
    assert rep.basis_dims == (2, 2, 2)
    assert rep.euler_top == F(2)  # partial sum, not an Euler characteristic
    # acyclic category: max_dim beyond the top is not truncation
    rep2 = betti_numbers(fx.poset_v(), max_dim=5)
    assert rep2.betti == (1, 0)
    assert not rep2.truncated


def test_negative_max_dim_is_rejected():
    chain = fx.chain_poset(4)
    for max_dim in (-1, -3):
        with pytest.raises(ValueError, match="max_dim must be >= 0"):
            betti_numbers(chain, max_dim)
        with pytest.raises(ValueError, match="max_dim must be >= 0"):
            compare_homology(chain, chain, max_dim)
    rep = betti_numbers(chain, 0)
    assert rep.betti == (1,) and rep.basis_dims == (4,) and rep.truncated
    assert compare_homology(chain, chain, 0).equal


def test_compare_homology_counterexample_vs_gr():
    c = fx.counterexample_category()
    g = ReducedGrothendieck(fx.counterexample_cover())
    cmp = compare_homology(c, g.category)
    assert not cmp.equal
    assert cmp.left.betti == (1, 0, 0)
    assert cmp.right.betti == (1, 1, 0)
    assert cmp.compared_through == 2


def test_compare_homology_padding():
    disc2 = FinCategory.build("disc2", ["x", "y"])
    cmp = compare_homology(fx.parallel_pair(), disc2)
    assert not cmp.equal
    assert cmp.left.betti == (1, 1) and cmp.right.betti == (2,)
    same = compare_homology(fx.poset_v(), fx.poset_lambda())
    assert same.equal  # both contractible


def test_compare_homology_truncated():
    iso = walking_iso()
    cmp = compare_homology(iso, iso, max_dim=2)
    assert cmp.equal


def test_gr_matches_parent_on_ideal_and_filter_fixtures():
    for name, cov in fx.ideal_cover_fixtures() + fx.filter_cover_fixtures():
        g = ReducedGrothendieck(cov)
        assert compare_homology(cov.parent, g.category).equal, name


def test_euler_consistency_on_acyclic_fixtures():
    for name, cat in fx.category_fixtures():
        chi, top = euler_consistency(cat)
        assert chi == top, name


def _components(cat) -> int:
    parent = {x: x for x in cat.objects}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for m in cat.morphisms:
        ra, rb = find(m.dom), find(m.cod)
        if ra != rb:
            parent[ra] = rb
    return len({find(x) for x in cat.objects})


@given(st.integers(0, 10**9), st.integers(2, 7))
def test_b0_counts_connected_components(seed, n):
    cat = fx.random_poset(random.Random(seed), n, p=0.3)
    assert betti_numbers(cat).betti[0] == _components(cat)


@given(st.integers(0, 10**9), st.integers(2, 6))
def test_euler_top_equals_chi_random_acyclic(seed, n):
    cat = fx.random_dag_category(random.Random(seed), n, max_morphisms=100)
    chi, top = euler_consistency(cat)
    assert chi == top


# -- differential: int chains and cleared ranks vs the named-chain reference --

class _RefChain(NamedTuple):
    """The former chain record: ``start`` then ``dim`` non-identity arrow names."""

    dim: int
    start: str
    morphisms: tuple[str, ...]


def _ref_chains(cat: FinCategory, max_dim: Optional[int]) -> list[list[_RefChain]]:
    """The former enumeration, by names, kept as the reference."""
    levels = [[_RefChain(0, x, ()) for x in cat.objects]]
    d = 0
    while max_dim is None or d < max_dim:
        nxt = []
        for ch in levels[d]:
            end = cat.mor(ch.morphisms[-1]).cod if ch.morphisms else ch.start
            for m in [m for m in cat.morphisms if m.dom == end]:
                if not cat.is_identity(m.name):
                    nxt.append(_RefChain(d + 1, ch.start, ch.morphisms + (m.name,)))
        if not nxt:
            break
        levels.append(nxt)
        d += 1
    return levels


def _ref_face(cat: FinCategory, ch: _RefChain, i: int) -> Optional[_RefChain]:
    k, ms = ch.dim, ch.morphisms
    if i == 0:
        return _RefChain(k - 1, cat.mor(ms[0]).cod, ms[1:])
    if i == k:
        return _RefChain(k - 1, ch.start, ms[:-1])
    comp = cat.compose(ms[i], ms[i - 1])
    if cat.is_identity(comp):
        return None
    return _RefChain(k - 1, ch.start, ms[: i - 1] + (comp,) + ms[i + 1 :])


def _ref_boundary(cat: FinCategory, lower: list[_RefChain], upper: list[_RefChain]) -> list[dict[int, int]]:
    index = {ch: i for i, ch in enumerate(lower)}
    cols = []
    for ch in upper:
        col: dict[int, int] = {}
        for i in range(ch.dim + 1):
            face = _ref_face(cat, ch, i)
            if face is not None:
                j = index[face]
                col[j] = col.get(j, 0) + (1 if i % 2 == 0 else -1)
        cols.append({j: v for j, v in col.items() if v})
    return cols


def _decode(cat: FinCategory, dim: int, chain: tuple[int, ...]) -> _RefChain:
    if dim == 0:
        return _RefChain(0, cat.objects[chain[0]], ())
    return _RefChain(dim, cat.morphisms[chain[0]].dom, _names(cat, chain))


def _check_against_reference(cat: FinCategory, max_dim: Optional[int] = None) -> None:
    """Same chains in the same order, the same boundaries, cleared ranks
    equal to plain ranks, and the reference's Betti numbers."""
    cut = None if max_dim is None else max_dim + 1
    ref = _ref_chains(cat, cut)
    cx = chain_complex(cat, cut)
    assert cx.basis_dims == tuple(map(len, ref))
    assert [[_decode(cat, k, ch) for ch in lv] for k, lv in enumerate(cx.levels)] == ref
    ref_bnds = [_ref_boundary(cat, ref[k], ref[k + 1]) for k in range(len(ref) - 1)]
    assert [sum(map(len, d)) for d in cx.boundaries] == [sum(map(len, d)) for d in ref_bnds]
    assert list(cx.boundaries) == ref_bnds
    plain = [rank(d) for d in ref_bnds]
    cleared: set[int] = set()
    for k in reversed(range(len(cx.boundaries))):
        leads: set[int] = set()
        assert rank(cx.boundaries[k], skip=cleared, leads=leads) == plain[k], (cat.name, k)
        assert len(leads) == plain[k]
        cleared = leads
    top = len(ref) - 1 if max_dim is None else min(max_dim, len(ref) - 1)
    betti = tuple(len(ref[k]) - (plain[k - 1] if k else 0) - (plain[k] if k < len(plain) else 0)
                  for k in range(top + 1))
    assert betti_numbers(cat, max_dim).betti == betti


def test_int_chains_match_reference_on_fixtures():
    for name, cat in fx.category_fixtures():
        _check_against_reference(cat)
    for name, cov in fx.all_cover_fixtures():
        _check_against_reference(cov.parent)
        _check_against_reference(ReducedGrothendieck(cov).category)
    for max_dim in (0, 1, 2, 3):  # truncated, not acyclic
        _check_against_reference(walking_iso(), max_dim)
        _check_against_reference(fx.no_weighting_category(), max_dim)
        _check_against_reference(_times_cyclic(fx.fork_category(), 3), max_dim)


@given(st.integers(0, 10**9), st.sampled_from(["poset", "dag", "ideal", "filter", "product"]))
def test_int_chains_and_clearing_match_reference(seed, kind):
    rng = random.Random(seed)
    if kind == "dag" or kind in ("ideal", "filter") and rng.random() < 0.5:
        cat = fx.random_dag_category(rng, rng.randint(2, 6), max_morphisms=60)
    else:
        cat = fx.random_poset(rng, rng.randint(2, 7), p=0.4)
    if kind == "product":
        _check_against_reference(_times_cyclic(cat, rng.randint(2, 3)), rng.randint(0, 2))
    elif kind in ("ideal", "filter"):
        make = fx.random_ideal_cover if kind == "ideal" else fx.random_filter_cover
        _check_against_reference(ReducedGrothendieck(make(rng, cat, max_parts=3)).category)
    else:
        _check_against_reference(cat)


@given(st.integers(0, 10**9),
       st.sampled_from(["poset", "dag", "ideal", "filter", "product", "iso", "no_weighting"]))
def test_nerve_chains_refuses_exactly_the_categories_that_are_not_acyclic(seed, kind):
    rng = random.Random(seed)
    if kind == "iso":
        cat = walking_iso()
    elif kind == "no_weighting":
        cat = fx.no_weighting_category()
    elif kind == "dag":
        cat = fx.random_dag_category(rng, rng.randint(2, 6), max_morphisms=40)
    else:
        cat = fx.random_poset(rng, rng.randint(2, 7), p=0.4)
    if kind == "product":
        cat = _times_cyclic(cat, rng.randint(2, 3))
    elif kind in ("ideal", "filter"):
        make = fx.random_ideal_cover if kind == "ideal" else fx.random_filter_cover
        cat = ReducedGrothendieck(make(rng, cat, max_parts=3)).category
    assert validate_category(cat).ok
    try:
        nerve_chains(cat)
    except ValueError:
        refused = True
    else:
        refused = False
    assert refused == (not cat.is_acyclic())
