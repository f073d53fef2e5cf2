import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from catnerve.euler import euler_characteristic
from catnerve.fincat import FinCategory
from catnerve.grothendieck import ReducedGrothendieck
from catnerve.homotopy import (
    SimplexChain,
    betti_numbers,
    chain_complex,
    compare_homology,
    euler_consistency,
    nerve_chains,
)
from catnerve import fixtures as fx, homotopy

F = Fraction


def walking_iso():
    return FinCategory.build(
        "Iso", ["x", "y"], [("f", "x", "y"), ("g", "y", "x")],
        {("g", "f"): "id_x", ("f", "g"): "id_y"},
    )


def test_nerve_chains_counterexample():
    c = fx.counterexample_category()
    levels = nerve_chains(c)
    assert [len(l) for l in levels] == [3, 4, 2]
    two = {ch.morphisms for ch in levels[2]}
    assert two == {("f", "h"), ("g", "h")}
    assert levels[2][0].end(c) == "z"
    assert levels[0][0].end(c) == levels[0][0].start


def test_nerve_chains_guards():
    with pytest.raises(ValueError, match="acyclic"):
        nerve_chains(walking_iso())
    with pytest.raises(ValueError):
        nerve_chains(fx.poset_v(), max_dim=-1)
    assert [len(l) for l in nerve_chains(walking_iso(), max_dim=3)] == [2, 2, 2, 2]


def test_degenerate_middle_faces_vanish():
    # in the walking iso, d1 of (f, g) composes to an identity: dropped
    iso = walking_iso()
    cx = chain_complex(iso, max_dim=2)
    col = {ch: i for i, ch in enumerate(cx.levels[2])}
    j = col[SimplexChain(2, "x", ("f", "g"))]
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
