import time
from math import comb

import pytest

from catnerve import cech
from catnerve.cech import (
    check_simplicial_identities,
    delta_degeneracy,
    delta_face,
    induced_functor,
    level,
)
from catnerve.covers import MAX_TUPLES, Cover, full_subcategory
from catnerve.fincat import FinCategory, FunctorMap, validate_functor
from catnerve import fixtures as fx


def test_level_counts_by_variant():
    cov = fx.counterexample_cover()
    assert len(level(cov, 0, "ordinary")) == 2
    assert len(level(cov, 1, "ordinary")) == 4
    assert len(level(cov, 2, "ordinary")) == 8
    assert len(level(cov, 1, "ordered")) == 3
    assert len(level(cov, 2, "ordered")) == 4
    assert len(level(cov, 1, "reduced")) == 1
    assert level(cov, 2, "reduced") == []  # only two labels available


def test_level_guards():
    from test_pieces import _fence_cover

    cov = fx.counterexample_cover()
    with pytest.raises(ValueError):
        level(cov, -1)
    with pytest.raises(ValueError):
        level(cov, 0, "bogus")
    assert len(level(cov, 5, "ordinary")) == 2 ** 6
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"ordinary level 40 has 2199023255552 tuples of 41 labels, above the bound 262144"):
        level(cov, 40)
    with pytest.raises(ValueError, match=r"ordinary level 1000000000 has more than 2\*\*64 tuples"):
        level(cov, 10 ** 9)
    assert time.perf_counter() - start < 1
    fence = _fence_cover(16)
    assert len(level(fence, 6, "ordered")) == comb(22, 7) <= MAX_TUPLES
    with pytest.raises(ValueError, match=f"ordered level 7 has {comb(23, 8)} tuples"):
        level(fence, 7, "ordered")
    assert comb(23, 8) > MAX_TUPLES


def test_level_bounds_the_tuple_length():
    # one label gives one tuple at every ordinary or ordered level, n + 1 labels long
    cov = fx.counterexample_cover()
    one = Cover(cov.parent, ["1"], {"1": full_subcategory(cov.parent, cov.parent.objects)})
    for variant in ("ordinary", "ordered"):
        (labels, piece), = level(one, MAX_TUPLES - 1, variant)
        assert labels == ("1",) * MAX_TUPLES and piece == one.parts["1"]
        with pytest.raises(ValueError, match=f"{variant} level {MAX_TUPLES} has 1 tuples of {MAX_TUPLES + 1} labels"):
            level(one, MAX_TUPLES, variant)
    assert level(one, 1, "reduced") == []
    with pytest.raises(ValueError, match=f"reduced level {MAX_TUPLES} has 0 tuples"):
        level(one, MAX_TUPLES, "reduced")


def test_tuple_constraints():
    cov = fx.counterexample_cover()
    for check in (lambda t, variant: induced_functor(cov, (0,), t, variant), cov.check_tuple):
        with pytest.raises(ValueError, match="not weakly increasing"):
            check(("2", "1"), "ordered")
        with pytest.raises(ValueError, match="not strictly increasing"):
            check(("1", "1"), "reduced")
        with pytest.raises(ValueError, match="unknown cover label: '9'"):
            check(("9",), "ordinary")
        with pytest.raises(ValueError, match="unknown variant: 'bogus'"):
            check(("1",), "bogus")
    with pytest.raises(ValueError, match="at least one label"):
        cov.piece(())
    with pytest.raises(ValueError, match="out of range"):
        induced_functor(cov, (0,), ())
    with pytest.raises(ValueError, match="nonempty"):
        induced_functor(cov, (), ())
    assert induced_functor(cov, (0,), ("1", "1"), "ordered").target == cov.parts["1"]


def test_level_piece_contents():
    cov = fx.counterexample_cover()
    [(labels, piece)] = level(cov, 1, "reduced")
    assert labels == ("1", "2") and piece.objects == ("y",)
    assert piece is cov.piece(labels)
    # degenerate ordinary tuple intersects a part with itself
    assert (("1", "1"), cov.parts["1"]) in level(cov, 1, "ordinary")


def test_empty_intersections_are_materialized():
    two = FinCategory.build("two", ["x", "y"])
    cov = Cover(two, ["1", "2"],
                {"1": full_subcategory(two, ["x"]), "2": full_subcategory(two, ["y"])})
    pieces = level(cov, 1, "reduced")
    assert len(pieces) == 1
    assert pieces[0][1].objects == ()


def test_delta_maps():
    assert delta_face(0, 1) == (1,)
    assert delta_face(1, 1) == (0,)
    assert delta_face(1, 2) == (0, 2)
    assert delta_degeneracy(0, 0) == (0, 0)
    assert delta_degeneracy(1, 2) == (0, 1, 1, 2)
    with pytest.raises(ValueError):
        delta_face(3, 2)
    with pytest.raises(ValueError):
        delta_degeneracy(3, 2)


def test_induced_functor_is_inclusion():
    cov = fx.counterexample_cover()
    F = induced_functor(cov, delta_face(0, 1), ("1", "2"))  # drop label 1
    assert F.source.objects == ("y",)
    assert set(F.target.objects) == {"y", "z"}
    assert F.object_map == {"y": "y"}
    assert validate_functor(F).ok

    G = induced_functor(cov, delta_degeneracy(0, 0), ("1",), "ordinary")
    assert G.source == G.target  # piece of (1,) equals piece of (1, 1)
    assert G.is_identity()


def test_induced_functor_guards():
    cov = fx.counterexample_cover()
    t = ("1", "2")
    with pytest.raises(ValueError, match="out of range"):
        induced_functor(cov, (0, 5), t)
    with pytest.raises(ValueError, match="order-preserving"):
        induced_functor(cov, (1, 0), t)
    with pytest.raises(ValueError, match="nonempty"):
        induced_functor(cov, (), t)
    with pytest.raises(ValueError, match="injective"):
        induced_functor(cov, (0, 0), t, "reduced")
    # weakly increasing phi is fine outside the reduced variant
    assert induced_functor(cov, (0, 0), t) is not None


@pytest.mark.parametrize("name,cov", fx.all_cover_fixtures())
def test_simplicial_identities_level_2(name, cov):
    rep = check_simplicial_identities(cov, 2, "ordinary")
    assert rep.ok, rep.messages()[:3]
    assert rep.details and rep.details[0].startswith("checked ")


def test_simplicial_identities_other_variants():
    cov = fx.counterexample_cover()
    assert check_simplicial_identities(cov, 2, "ordered").ok
    assert check_simplicial_identities(cov, 2, "reduced").ok


def test_fault_injection_is_detected(monkeypatch):
    cov = fx.counterexample_cover()
    real = cech.induced_functor

    def broken(cover, phi, labels, variant):
        F = real(cover, phi, labels, variant)
        if len(set(phi)) < len(tuple(phi)):  # proper degeneracies lose content
            mm = {
                m: (m if F.source.is_identity(m)
                    else F.source.identity_name(F.source.mor(m).dom))
                for m in F.morphism_map
            }
            return FunctorMap(F.source, F.target, F.object_map, mm)
        return F

    monkeypatch.setattr(cech, "induced_functor", broken)
    rep = check_simplicial_identities(cov, 1, "ordinary")
    assert not rep.ok
    assert any(v.rule == "simplicial-ds" for v in rep.violations)


def test_check_guards():
    cov = fx.counterexample_cover()
    with pytest.raises(ValueError):
        check_simplicial_identities(cov, -1)
    with pytest.raises(ValueError):
        check_simplicial_identities(cov, 1, "bogus")
