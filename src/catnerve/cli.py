"""Command line front end.

Exit codes: 0 success, 1 a check ran and failed (axiom violations,
mismatched characteristics, differing Betti vectors, ...), 2 the input
could not be used at all (unreadable file, parse error, usage error).
Output is deterministic for a given input: object, morphism and label
orders are the declaration orders.

Only parsing (``io``, and through it ``covers`` and ``fincat``) is
imported up front; each command imports the other modules it needs in
its own body, so a process loads only what its command uses.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .covers import VARIANTS, Cover, classify_subcategory, is_cover
from .fincat import FinCategory, validate_category
from .io import InvalidStructureError, ParseError, emit_category, parse_category, parse_cover


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        _fail(str(e), 2)


def _load_category(path: str, validate: bool = True) -> FinCategory:
    try:
        return parse_category(_read(path), validate=validate)
    except (ParseError, InvalidStructureError) as e:
        _fail(f"{path}: {e}", 2)


def _load_cover(cat_path: str, cover_path: str) -> tuple[FinCategory, Cover]:
    cat = _load_category(cat_path)
    try:
        cover = parse_cover(_read(cover_path), cat)
    except (ParseError, InvalidStructureError) as e:
        _fail(f"{cover_path}: {e}", 2)
    return cat, cover


@click.group()
def main() -> None:
    """Nerve and Euler characteristic toolkit for finite categories."""


@main.command()
@click.argument("cat_file")
def validate(cat_file: str) -> None:
    """Check the category axioms; report every violation."""
    try:
        cat = parse_category(_read(cat_file), validate=False)
    except ParseError as e:
        _fail(f"{cat_file}: {e}", 2)
    report = validate_category(cat)
    if report.ok:
        click.echo(f"ok: category {cat.name} ({len(cat.objects)} objects, {len(cat.morphisms)} morphisms)")
    else:
        for line in report.messages():
            click.echo(line)
        sys.exit(1)


@main.command()
@click.argument("cat_file")
@click.option("--weights", is_flag=True, help="also print the weighting and coweighting")
def euler(cat_file: str, weights: bool) -> None:
    """Exact Euler characteristic via weightings."""
    from .euler import euler_characteristic, format_rational

    cat = _load_category(cat_file)
    res = euler_characteristic(cat)
    if res.chi is None:
        click.echo(f"chi undefined: {res.reason}")
        sys.exit(1)
    click.echo(f"chi = {format_rational(res.chi)}")
    if weights:
        for label, vec in (("weighting", res.weighting), ("coweighting", res.coweighting)):
            pairs = " ".join(f"{x}={format_rational(q)}" for x, q in zip(cat.objects, vec))
            click.echo(f"{label}: {pairs}")


@main.command("cover-check")
@click.argument("cat_file")
@click.argument("cover_file")
@click.option("--require-ideal", is_flag=True, help="fail unless every part is an ideal")
@click.option("--require-filter", is_flag=True, help="fail unless every part is a filter")
def cover_check(cat_file: str, cover_file: str, require_ideal: bool, require_filter: bool) -> None:
    """Verify the parts cover the category; classify each part."""
    _, cover = _load_cover(cat_file, cover_file)
    failed = False
    for label in cover.index_order:
        part = cover.parts[label]
        cls = classify_subcategory(part)
        click.echo(
            f"part {label}: objects={len(part.objects)}"
            f" full={'yes' if part.full else 'no'}"
            f" ideal={'yes' if cls.is_ideal else 'no'}"
            f" filter={'yes' if cls.is_filter else 'no'}"
        )
        if require_ideal and not cls.is_ideal:
            failed = True
        if require_filter and not cls.is_filter:
            failed = True
    covering = is_cover(cover)
    click.echo(f"covers: {'yes' if covering else 'no'}")
    if not covering or failed:
        sys.exit(1)


@main.command()
@click.argument("cat_file")
@click.argument("cover_file")
@click.option("--level", "level_n", type=int, required=True, help="nerve level (tuples of length level+1)")
@click.option("--variant", type=click.Choice(VARIANTS), default="ordinary", show_default=True)
def cech(cat_file: str, cover_file: str, level_n: int, variant: str) -> None:
    """List the intersection pieces at one nerve level."""
    from .cech import level

    _, cover = _load_cover(cat_file, cover_file)
    try:
        pieces = level(cover, level_n, variant, ordinary_cap=max(level_n, 0))
    except ValueError as e:
        _fail(str(e), 2)
    click.echo(f"variant {variant}, level {level_n}: {len(pieces)} pieces")
    for labels, piece in pieces:
        objs = " ".join(piece.objects) or "-"
        click.echo(f"({','.join(labels)}): objects {objs}")


@main.command()
@click.argument("cat_file")
@click.argument("cover_file")
@click.option("--emit", "emit_path", default=None, metavar="PATH",
              help="write the total category in file format ('-' for stdout)")
def gr(cat_file: str, cover_file: str, emit_path: str) -> None:
    """Build the total category of the reduced nerve."""
    from .euler import euler_characteristic, format_rational
    from .grothendieck import ReducedGrothendieck

    _, cover = _load_cover(cat_file, cover_file)
    try:
        g = ReducedGrothendieck(cover)
    except ValueError as e:
        _fail(str(e), 1)
    if emit_path is not None:
        text = emit_category(g.category)
        if emit_path == "-":
            click.echo(text, nl=False)
            return
        try:
            with open(emit_path, "w") as fh:
                fh.write(text)
        except OSError as e:
            _fail(str(e), 2)
    click.echo(f"objects: {len(g.objects)}")
    click.echo(f"non-identity morphisms: {len(g.morphisms)}")
    res = euler_characteristic(g.category)
    click.echo(f"chi = {format_rational(res.chi) if res.chi is not None else 'undefined'}")


@main.command("incl-excl")
@click.argument("cat_file")
@click.argument("cover_file")
def incl_excl(cat_file: str, cover_file: str) -> None:
    """Inclusion-exclusion over the cover versus the true characteristic."""
    from .euler import alternating_sum, euler_characteristic, format_rational, inclusion_exclusion_terms

    cat, cover = _load_cover(cat_file, cover_file)
    terms = inclusion_exclusion_terms(cover)
    for labels, chi in terms:
        shown = format_rational(chi) if chi is not None else "undefined"
        click.echo(f"term ({','.join(labels)}): chi = {shown}")
    total = alternating_sum(terms)
    parent_chi = euler_characteristic(cat).chi
    click.echo(f"sum = {format_rational(total) if total is not None else 'undefined'}")
    click.echo(
        f"chi({cat.name}) = "
        f"{format_rational(parent_chi) if parent_chi is not None else 'undefined'}"
    )
    if total is None or parent_chi is None:
        click.echo("UNDEFINED")
        sys.exit(1)
    if total == parent_chi:
        click.echo("MATCH")
    else:
        click.echo("MISMATCH")
        sys.exit(1)


@main.command()
@click.argument("cat_file")
@click.option("--max-dim", type=click.IntRange(min=0), default=None, help="truncate the nerve at this dimension")
def homology(cat_file: str, max_dim) -> None:
    """Betti numbers of the nerve over the rationals."""
    from .euler import format_rational
    from .homotopy import betti_numbers

    cat = _load_category(cat_file)
    try:
        rep = betti_numbers(cat, max_dim)
    except ValueError:  # without --max-dim the nerve of a non-acyclic category never ends
        _fail(f"category {cat.name} is not acyclic; pass --max-dim to truncate", 1)
    click.echo("dim\tbasis\tbetti")
    for k, (n, b) in enumerate(zip(rep.basis_dims, rep.betti)):
        click.echo(f"{k}\t{n}\t{b}")
    click.echo(f"euler_top = {format_rational(rep.euler_top)}")
    if rep.truncated:
        click.echo(f"truncated at dim {len(rep.betti) - 1}")


@main.command("nerve-compare")
@click.argument("cat_file")
@click.argument("cover_file")
@click.option("--max-dim", type=click.IntRange(min=0), default=None, help="truncate both nerves at this dimension")
def nerve_compare(cat_file: str, cover_file: str, max_dim) -> None:
    """Betti numbers of the category against its reduced-nerve total category."""
    from .grothendieck import ReducedGrothendieck
    from .homotopy import compare_homology

    cat, cover = _load_cover(cat_file, cover_file)
    try:
        g = ReducedGrothendieck(cover)
    except ValueError as e:
        _fail(str(e), 1)
    try:
        cmpr = compare_homology(cat, g.category, max_dim)
    except ValueError:  # without --max-dim a non-acyclic category has an endless nerve
        _fail("nerves are unbounded (a category involved is not acyclic); pass --max-dim", 1)
    n = cmpr.compared_through + 1
    left = " ".join(str(b) for b in (cmpr.left.betti + (0,) * n)[:n])
    right = " ".join(str(b) for b in (cmpr.right.betti + (0,) * n)[:n])
    click.echo(f"category betti: {left}")
    click.echo(f"gr betti: {right}")
    if cmpr.equal:
        click.echo(f"betti equal: {left}")
    else:
        click.echo(f"betti differ: {left} vs {right}")
        sys.exit(1)


@main.command()
@click.argument("cat_file")
@click.argument("cover_file")
@click.option("--diagnostic", is_flag=True, help="force the hom-count comparison on non-ideal covers")
@click.option("--ordered", "ordered_side", is_flag=True, help="check the ordered-to-reduced comparison instead")
@click.option("--max-len", type=click.IntRange(min=1), default=3, show_default=True,
              help="tuple length bound for --ordered")
def adjunction(cat_file: str, cover_file: str, diagnostic: bool, ordered_side: bool, max_len: int) -> None:
    """Hom-set counting checks for the comparison functors."""
    from .grothendieck import adjunction_check_pi, adjunction_check_R

    _, cover = _load_cover(cat_file, cover_file)
    try:
        if ordered_side:
            report = adjunction_check_R(cover, max_len=max_len)
        else:
            report = adjunction_check_pi(cover, diagnostic=diagnostic)
    except ValueError as e:
        _fail(str(e), 1)
    for line in report.details:
        click.echo(line)
    if report.ok:
        click.echo("adjunction holds")
    else:
        for line in report.messages():
            click.echo(line)
        sys.exit(1)


if __name__ == "__main__":
    main()
