"""Command line front end.

Exit codes: 0 success, 1 a check ran and failed (axiom violations,
mismatched characteristics, differing Betti vectors, ...), 2 the input
could not be used at all (unreadable or undecodable file, parse error,
usage error).  Output is deterministic for a given input: object,
morphism and label orders are the declaration orders.

Arguments are parsed by the standard library's ``argparse``, one
subparser per command, with abbreviated options refused.  ``main`` runs
one command and returns, or raises ``SystemExit``, like any function:
the tests (through ``click.testing.CliRunner``) and the benchmark
harness call it in-process.  ``script`` is the process entry of the
``catnerve`` console script and of ``python -m catnerve.cli``: it runs
``main``, flushes stdout and stderr and ends the process with
``os._exit``, so the interpreter does not finalize its modules and free
the heap (a parsed category included) after the output is written.  It
alone handles a closed stdout; ``main`` leaves that to its caller.
Only parsing (``io``, and through it ``covers`` and ``fincat``) is
imported up front; each command imports the other modules it needs in
its own body, so a process loads only what its command uses.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from .covers import VARIANTS, Cover, classify_subcategory, is_cover
from .fincat import FinCategory, validate_category
from .io import InvalidStructureError, ParseError, emit_category, parse_category, parse_cover


def _fail(message: str, code: int) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        _fail(str(e), 2)
    except UnicodeDecodeError as e:
        _fail(f"{path}: {e}", 2)


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


def _gr(cover: Cover):  # exit 1 when the cover's gr cannot be built
    from .grothendieck import ReducedGrothendieck

    try:
        return ReducedGrothendieck(cover)
    except ValueError as e:
        _fail(str(e), 1)


def validate(cat_file: str) -> None:
    """Check the category axioms; report every violation."""
    cat = _load_category(cat_file, validate=False)
    report = validate_category(cat)
    if report.ok:
        print(f"ok: category {cat.name} ({len(cat.objects)} objects, {len(cat.morphisms)} morphisms)")
    else:
        for line in report.messages():
            print(line)
        sys.exit(1)


def euler(cat_file: str, weights: bool) -> None:
    """Exact Euler characteristic via weightings."""
    from .euler import euler_characteristic, format_rational

    cat = _load_category(cat_file)
    res = euler_characteristic(cat)
    if res.chi is None:
        print(f"chi undefined: {res.reason}")
        sys.exit(1)
    print(f"chi = {format_rational(res.chi)}")
    if weights:
        for label, vec in (("weighting", res.weighting), ("coweighting", res.coweighting)):
            pairs = " ".join(f"{x}={format_rational(q)}" for x, q in zip(cat.objects, vec))
            print(f"{label}: {pairs}")


def cover_check(cat_file: str, cover_file: str, require_ideal: bool, require_filter: bool) -> None:
    """Verify the parts cover the category; classify each part."""
    _, cover = _load_cover(cat_file, cover_file)
    failed = False
    for label in cover.index_order:
        part = cover.parts[label]
        cls = classify_subcategory(part)
        print(
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
    print(f"covers: {'yes' if covering else 'no'}")
    if not covering or failed:
        sys.exit(1)


def cech(cat_file: str, cover_file: str, level_n: int, variant: str) -> None:
    """List the intersection pieces at one nerve level."""
    from .cech import level

    _, cover = _load_cover(cat_file, cover_file)
    try:
        pieces = level(cover, level_n, variant)
    except ValueError as e:
        _fail(str(e), 2)
    print(f"variant {variant}, level {level_n}: {len(pieces)} pieces")
    for labels, piece in pieces:
        objs = " ".join(piece.objects) or "-"
        print(f"({','.join(labels)}): objects {objs}")


def gr(cat_file: str, cover_file: str, emit_path: str | None) -> None:
    """Build the total category of the reduced nerve."""
    from .euler import euler_characteristic, format_rational

    _, cover = _load_cover(cat_file, cover_file)
    g = _gr(cover)
    if emit_path is not None:
        text = emit_category(g.category)
        if emit_path == "-":
            sys.stdout.write(text)
            return
        try:
            with open(emit_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            _fail(str(e), 2)
    print(f"objects: {len(g.objects)}")
    print(f"non-identity morphisms: {len(g.morphisms)}")
    res = euler_characteristic(g.category)
    print(f"chi = {format_rational(res.chi) if res.chi is not None else 'undefined'}")


def incl_excl(cat_file: str, cover_file: str) -> None:
    """Inclusion-exclusion over the cover versus the true characteristic."""
    from .euler import alternating_sum, euler_characteristic, format_rational, inclusion_exclusion_terms

    cat, cover = _load_cover(cat_file, cover_file)
    try:
        terms = inclusion_exclusion_terms(cover)
    except ValueError as e:
        _fail(str(e), 2)
    for labels, chi in terms:
        shown = format_rational(chi) if chi is not None else "undefined"
        print(f"term ({','.join(labels)}): chi = {shown}")
    total = alternating_sum(terms)
    parent_chi = euler_characteristic(cat).chi
    print(f"sum = {format_rational(total) if total is not None else 'undefined'}")
    print(
        f"chi({cat.name}) = "
        f"{format_rational(parent_chi) if parent_chi is not None else 'undefined'}"
    )
    if total is None or parent_chi is None:
        print("UNDEFINED")
        sys.exit(1)
    if total == parent_chi:
        print("MATCH")
    else:
        print("MISMATCH")
        sys.exit(1)


def homology(cat_file: str, max_dim: int | None) -> None:
    """Betti numbers of the nerve over the rationals."""
    from .euler import format_rational
    from .homotopy import betti_numbers

    cat = _load_category(cat_file)
    try:
        rep = betti_numbers(cat, max_dim)
    except ValueError:  # without --max-dim the nerve of a non-acyclic category never ends
        _fail(f"category {cat.name} is not acyclic; pass --max-dim to truncate", 1)
    print("dim\tbasis\tbetti")
    for k, (n, b) in enumerate(zip(rep.basis_dims, rep.betti)):
        print(f"{k}\t{n}\t{b}")
    print(f"euler_top = {format_rational(rep.euler_top)}")
    if rep.truncated:
        print(f"truncated at dim {len(rep.betti) - 1}")


def nerve_compare(cat_file: str, cover_file: str, max_dim: int | None) -> None:
    """Betti numbers of the category against its reduced-nerve total category."""
    from .homotopy import compare_homology

    cat, cover = _load_cover(cat_file, cover_file)
    g = _gr(cover)
    try:
        cmpr = compare_homology(cat, g.category, max_dim)
    except ValueError:  # without --max-dim a non-acyclic category has an endless nerve
        _fail("nerves are unbounded (a category involved is not acyclic); pass --max-dim", 1)
    n = cmpr.compared_through + 1
    left = " ".join(str(b) for b in (cmpr.left.betti + (0,) * n)[:n])
    right = " ".join(str(b) for b in (cmpr.right.betti + (0,) * n)[:n])
    print(f"category betti: {left}")
    print(f"gr betti: {right}")
    if cmpr.equal:
        print(f"betti equal: {left}")
    else:
        print(f"betti differ: {left} vs {right}")
        sys.exit(1)


def adjunction(cat_file: str, cover_file: str, diagnostic: bool, ordered_side: bool, max_len: int) -> None:
    """Hom-set counting checks for the comparison functors."""
    from .grothendieck import adjunction_check_pi, adjunction_check_R

    _, cover = _load_cover(cat_file, cover_file)
    g = _gr(cover)  # the checks reuse it while it lives
    try:
        if ordered_side:
            report = adjunction_check_R(cover, max_len=max_len)
        else:
            report = adjunction_check_pi(cover, diagnostic=diagnostic)
    except ValueError as e:  # --ordered's check refuses only above its bound
        _fail(str(e), 2 if ordered_side else 1)
    for line in report.details:
        print(line)
    if report.ok:
        print("adjunction holds")
    else:
        for line in report.messages():
            print(line)
        sys.exit(1)


def _at_least(low: int):
    """An argparse ``type`` accepting the integers ``>= low``."""
    def integer(text: str) -> int:
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")
    return integer


def _parser(prog: str = "catnerve") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog, description="Nerve and Euler characteristic toolkit for finite categories.",
        allow_abbrev=False)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run, *files: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(run.__name__.replace("_", "-"), help=run.__doc__,
                                  description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run)
        for name in files:
            sub.add_argument(name)
        return sub

    command(validate, "cat_file")
    sub = command(euler, "cat_file")
    sub.add_argument("--weights", action="store_true", help="also print the weighting and coweighting")
    sub = command(cover_check, "cat_file", "cover_file")
    sub.add_argument("--require-ideal", action="store_true", help="fail unless every part is an ideal")
    sub.add_argument("--require-filter", action="store_true", help="fail unless every part is a filter")
    sub = command(cech, "cat_file", "cover_file")
    sub.add_argument("--level", dest="level_n", type=int, required=True,
                     help="nerve level (tuples of length level+1)")
    sub.add_argument("--variant", choices=VARIANTS, default="ordinary", help="(default: ordinary)")
    sub = command(gr, "cat_file", "cover_file")
    sub.add_argument("--emit", dest="emit_path", default=None, metavar="PATH",
                     help="write the total category in file format ('-' for stdout)")
    command(incl_excl, "cat_file", "cover_file")
    sub = command(homology, "cat_file")
    sub.add_argument("--max-dim", type=_at_least(0), default=None, help="truncate the nerve at this dimension")
    sub = command(nerve_compare, "cat_file", "cover_file")
    sub.add_argument("--max-dim", type=_at_least(0), default=None, help="truncate both nerves at this dimension")
    sub = command(adjunction, "cat_file", "cover_file")
    sub.add_argument("--diagnostic", action="store_true", help="force the hom-count comparison on non-ideal covers")
    sub.add_argument("--ordered", dest="ordered_side", action="store_true",
                     help="check the ordered-to-reduced comparison instead")
    sub.add_argument("--max-len", type=_at_least(1), default=3,
                     help="tuple length bound for --ordered (default: 3)")
    return parser


def main(args: Sequence[str] | None = None, prog_name: str | None = None, standalone_mode: bool = True) -> None:
    """Run one command on ``args`` (default ``sys.argv[1:]``).

    Returns when the command exits 0 and raises ``SystemExit`` with the
    exit code otherwise, whatever ``standalone_mode`` says.  The
    signature, ``main.main`` and ``main.name`` are the calling
    convention of ``click.testing.CliRunner`` and of the benchmark
    harness.
    """
    opts = vars(_parser(prog_name or "catnerve").parse_args(args))
    try:
        opts.pop("run")(**opts)
    except KeyboardInterrupt:
        _fail("interrupted", 1)


main.name = "catnerve"
main.main = main


def script() -> None:
    """Run ``main`` as a process and end the process without interpreter teardown.

    The exit status is the one CPython gives an uncaught ``SystemExit``:
    0 for ``None``, an int as it is, and 1 for anything else, which is
    printed to stderr.  A stdout closed by its reader before the final
    flush (``catnerve gr --emit - | head``), or never opened, makes it 1,
    without a traceback.  Any other exception propagates, and the process
    ends the usual way.
    """
    try:
        main()
        code = 0
    except SystemExit as e:
        code = e.code
    except BrokenPipeError:
        code = 1
    try:
        if code is None:
            code = 0
        elif not isinstance(code, int):
            print(code, file=sys.stderr)
            code = 1
        if sys.stdout is None:  # started with fd 1 closed
            code = 1
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
    except BrokenPipeError:
        code = 1
    os._exit(code)


if __name__ == "__main__":
    script()
