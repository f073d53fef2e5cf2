#!/usr/bin/env python3
"""Walk through the headline counterexample end to end.

A three-object category C (two parallel arrows x -> y merged after
composing with y -> z) covered by two full subcategories D1 = {x, y}
and D2 = {y, z}.  D1 is an ideal, D2 is a filter, so no hypothesis of
the two-subcategory inclusion-exclusion formula holds — and indeed the
formula fails, even though every piece has a well-defined Euler
characteristic.  The Grothendieck construction of the reduced nerve
shows *why*: gluing the pieces along their intersection pattern
produces a circle, not the contractible shape of C itself.
"""
from fractions import Fraction

from catnerve import fixtures as fx
from catnerve.covers import classify_subcategory
from catnerve.euler import (
    euler_characteristic,
    format_rational,
    inclusion_exclusion_sum,
    inclusion_exclusion_terms,
    zeta_matrix,
)
from catnerve.grothendieck import ReducedGrothendieck
from catnerve.homotopy import betti_numbers, compare_homology


def section(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def main() -> None:
    cat = fx.counterexample_category()
    cover = fx.counterexample_cover(cat)

    section(f"category {cat.name}")
    print("objects:", " ".join(cat.objects))
    print("non-identity morphisms:",
          ", ".join(f"{m.name}: {m.dom} -> {m.cod}" for m in cat.non_identities()))
    z = zeta_matrix(cat)
    print("zeta (hom counts):")
    for row in z:
        print("   ", " ".join(str(row.get(j, 0)) for j in range(len(z))))
    res = euler_characteristic(cat)
    print("weighting:  ", " ".join(
        f"{o}={format_rational(w)}" for o, w in zip(cat.objects, res.weighting)))
    print("coweighting:", " ".join(
        f"{o}={format_rational(w)}" for o, w in zip(cat.objects, res.coweighting)))
    print("chi =", format_rational(res.chi))

    section("cover parts")
    for label in cover.index_order:
        part = cover.parts[label]
        cls = classify_subcategory(part)
        chi = euler_characteristic(part).chi
        print(f"part {label}: objects {{{', '.join(part.objects)}}}"
              f"  ideal={cls.is_ideal} filter={cls.is_filter}"
              f"  chi={format_rational(chi)}")
    both = cover.piece(cover.index_order)
    print(f"intersection: objects {{{', '.join(both.objects)}}}"
          f"  chi={format_rational(euler_characteristic(both).chi)}")

    section("inclusion-exclusion")
    for labels, chi in inclusion_exclusion_terms(cover):
        sign = "+" if (len(labels) + 1) % 2 == 0 else "-"
        print(f"  {sign} chi({','.join(labels)}) = {format_rational(chi)}")
    total = inclusion_exclusion_sum(cover)
    print(f"sum = {format_rational(total)}  vs  chi(C) = {format_rational(res.chi)}"
          f"  ->  {'MATCH' if total == res.chi else 'MISMATCH'}")
    print("(one part is an ideal, the other a filter: the formula's")
    print(" hypothesis fails, and so does its conclusion)")

    section("Grothendieck construction of the reduced nerve")
    g = ReducedGrothendieck(cover)
    print("objects:", " ".join(o.name for o in g.objects))
    print("non-identity morphisms:")
    for m in g.category.non_identities():
        print(f"    {m.name}")
    chi_g = euler_characteristic(g.category).chi
    print("chi(gr) =", format_rational(chi_g), " (already != chi(C))")

    section("rational homology")
    rc = betti_numbers(cat)
    rg = betti_numbers(g.category)
    print(f"C:  chain basis {rc.basis_dims}  betti {rc.betti}   (a point)")
    print(f"gr: chain basis {rg.basis_dims}  betti {rg.betti}   (a circle)")
    cmp = compare_homology(cat, g.category)
    print("equal through degree", cmp.compared_through, "->", cmp.equal)
    print()
    print("The cover glues two contractible pieces along a contractible")
    print("intersection, yet the gluing pattern itself carries a loop:")
    print("the two parallel routes through (f, g) close up in gr.")

    assert res.chi == Fraction(1) and total == Fraction(0)
    assert rg.betti[:2] == (1, 1) and rc.betti == (1, 0, 0)


if __name__ == "__main__":
    main()
