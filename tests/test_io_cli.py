import io
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from catnerve.cli import main
from catnerve.fincat import FinCategory, Mor, validate_category
from catnerve.covers import Subcategory, full_subcategory, Cover, is_cover
from catnerve.grothendieck import ReducedGrothendieck
from catnerve.io import (
    InvalidStructureError,
    ParseError,
    emit_category,
    emit_cover,
    parse_category,
    parse_cover,
)
from catnerve import fixtures as fx
from test_cli_golden import invocations
from test_fincat import _times_cyclic

CEX = """\
category C
objects x y z
mor f : x -> y
mor g : x -> y
mor h : y -> z
mor k : x -> z
comp h f = k
comp h g = k
"""

CEX_COVER = """\
cover U of C
order 1 2
part 1 : x y
part 2 : y z
"""


# -- parsing ----------------------------------------------------------------

def test_parse_category_matches_fixture():
    assert parse_category(CEX) == fx.counterexample_category()


def test_parse_tolerates_comments_and_blank_lines():
    text = "# header\ncategory C  # trailing\n\nobjects x\n"
    cat = parse_category(text)
    assert cat.objects == ("x",)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_category("category A\nwhat is this\n")
    assert e.value.line_no == 2
    with pytest.raises(ParseError, match="line 1"):
        parse_category("objects x\n")
    with pytest.raises(ParseError, match="expected: mor"):
        parse_category("category A\nmor f x -> y\n")
    with pytest.raises(ParseError, match="expected: comp"):
        parse_category("category A\ncomp g f h\n")
    with pytest.raises(ParseError, match="second 'category'"):
        parse_category("category A\ncategory B\n")
    with pytest.raises(ParseError, match="already given"):
        parse_category("category A\nobjects x\ncomp id_x id_x = id_x\ncomp id_x id_x = id_x\n")
    with pytest.raises(ParseError, match="empty"):
        parse_category("# nothing\n")


def test_duplicate_composite_names_the_first_line():
    text = ("category A\n# comment\nobjects x y\nmor f : x -> y\n\n"
            "comp  f id_x = f   # trailing\ncomp id_y f = f\ncomp f   id_x = id_x\n")
    with pytest.raises(ParseError) as e:
        parse_category(text, validate=False)
    assert str(e.value) == "line 8: composite of (f, id_x) already given on line 6"
    assert e.value.line_no == 8


def test_parse_validation_toggle():
    text = "category A\nobjects x y z\nmor f : x -> y\nmor h : y -> z\n"
    with pytest.raises(InvalidStructureError, match="composition not total"):
        parse_category(text)
    cat = parse_category(text, validate=False)
    assert cat.has_morphism("f")


def test_category_round_trip_fixed():
    for name, cat in fx.category_fixtures():
        assert parse_category(emit_category(cat)) == cat, name


def test_cover_parse_and_round_trip():
    cat = parse_category(CEX)
    cov = parse_cover(CEX_COVER, cat)
    assert cov.index_order == ("1", "2")
    assert cov.parts["1"] == full_subcategory(cat, ["x", "y"])
    again = parse_cover(emit_cover(cov), cat)
    assert again.index_order == cov.index_order
    assert all(again.parts[a] == cov.parts[a] for a in cov.index_order)


def test_cover_default_order_is_lexicographic():
    cat = parse_category(CEX)
    cov = parse_cover("cover U of C\npart b : y z\npart a : x y\n", cat)
    assert cov.index_order == ("a", "b")


def test_cover_long_form_parts():
    cat = parse_category(CEX)
    cov = parse_cover(
        "cover W of C\npart 1 : objects x y ; morphisms\npart 2 : x y z\n", cat
    )
    assert not cov.parts["1"].full
    assert tuple(m.name for m in cov.parts["1"].morphisms) == ("id_x", "id_y")
    # identities are implied, listed morphisms are added
    cov2 = parse_cover(
        "cover W of C\npart 1 : objects x y ; morphisms f g\npart 2 : x y z\n", cat
    )
    assert cov2.parts["1"] == full_subcategory(cat, ["x", "y"])


def test_cover_errors():
    cat = parse_category(CEX)
    with pytest.raises(InvalidStructureError, match="declared over"):
        parse_cover("cover U of Other\npart 1 : x\n", cat)
    with pytest.raises(ParseError, match="already given"):
        parse_cover("cover U of C\npart 1 : x\npart 1 : y\n", cat)
    with pytest.raises(InvalidStructureError, match="does not list"):
        parse_cover("cover U of C\norder 1 2\npart 1 : x\n", cat)
    with pytest.raises(InvalidStructureError, match="unknown object"):
        parse_cover("cover U of C\npart 1 : ghost\n", cat)
    with pytest.raises(InvalidStructureError, match="not closed"):
        parse_cover("cover U of C\npart 1 : objects x y z ; morphisms f h\n", cat)
    with pytest.raises(InvalidStructureError, match="no parts"):
        parse_cover("cover U of C\n", cat)
    with pytest.raises(ParseError, match="expected: cover"):
        parse_cover("cover U\npart 1 : x\n", cat)


def test_non_full_part_round_trips_in_long_form():
    cat = parse_category(CEX)
    sub = Subcategory(cat, ["x", "y"], ["id_x", "id_y", "f"])
    cov = Cover(cat, ["a", "b"], {"a": sub, "b": full_subcategory(cat, cat.objects)}, name="W")
    text = emit_cover(cov)
    assert "part a : objects x y ; morphisms f" in text
    again = parse_cover(text, cat)
    assert again.parts["a"] == sub


@given(st.integers(0, 10**9), st.integers(2, 7))
def test_round_trip_random_posets(seed, n):
    cat = fx.random_poset(random.Random(seed), n)
    assert parse_category(emit_category(cat)) == cat


@given(st.integers(0, 10**9), st.integers(2, 6))
def test_round_trip_random_dags_and_covers(seed, n):
    r = random.Random(seed)
    cat = fx.random_dag_category(r, n, max_morphisms=120)
    assert parse_category(emit_category(cat)) == cat
    cov = fx.random_ideal_cover(r, cat)
    again = parse_cover(emit_cover(cov), cat)
    assert again.index_order == cov.index_order
    assert all(again.parts[a] == cov.parts[a] for a in cov.index_order)


# -- parser fuzzing ---------------------------------------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CATEGORY_TEXTS = [p.read_text() for p in sorted(FIXTURES.glob("*.fincat"))]
# each cover file with the category file it is written against (chain4_ideal -> chain4)
COVER_TEXTS = [(p.read_text(), (FIXTURES / (p.stem.split("_")[0] + ".fincat")).read_text())
               for p in sorted(FIXTURES.glob("*.cover"))]
TOKENS = st.sampled_from([
    "category", "objects", "mor", "comp", "cover", "of", "order", "part", "morphisms",
    ":", "->", "=", ";", "#", "\n", "C", "U", "x", "y", "z", "f", "g", "h", "id_x", "id_", "1", "2", "1,2", "y@2",
]) | st.text(max_size=4)
SOUP = st.lists(TOKENS, max_size=30).map(" ".join)


@st.composite
def one_token_mutation(draw, texts):
    """A fixture text with one token replaced, deleted or preceded by another."""
    parts = re.split(r"(\s+)", draw(st.sampled_from(texts)))
    i = draw(st.sampled_from([i for i, p in enumerate(parts) if p and not p.isspace()]))
    tok = draw(TOKENS)
    parts[i] = draw(st.sampled_from([tok, "", f"{tok} {parts[i]}"]))
    return "".join(parts)


@settings(max_examples=200)
@given(SOUP | one_token_mutation(CATEGORY_TEXTS), st.booleans())
def test_parse_category_raises_only_its_own_errors(text, validate):
    try:
        parse_category(text, validate=validate)
    except (ParseError, InvalidStructureError):
        pass


@settings(max_examples=200)
@given(st.sampled_from(COVER_TEXTS), st.data())
def test_parse_cover_raises_only_its_own_errors(pair, data):
    cover_text, cat_text = pair
    text = data.draw(SOUP | one_token_mutation([cover_text]))
    try:
        cover = parse_cover(text, parse_category(cat_text))
    except (ParseError, InvalidStructureError):
        return
    if is_cover(cover):  # every label parse_cover lets through gives gr distinct names
        ReducedGrothendieck(cover)


# -- the parser against its line-by-line reference ------------------------

def _ref_logical_lines(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if line:
            yield i, line


def _ref_parse_category(text, validate=True):
    """The parser before ids were interned: a generator of logical lines
    and one branch per directive, the header tested first."""
    name = None
    objects, morphisms, comp = [], [], {}
    for no, line in _ref_logical_lines(text):
        tok = line.split()
        if tok[0] == "category":
            if name is not None:
                raise ParseError(no, "second 'category' header")
            if len(tok) != 2:
                raise ParseError(no, "expected: category <name>")
            name = tok[1]
            continue
        if name is None:
            raise ParseError(no, "file must start with 'category <name>'")
        if tok[0] == "objects":
            if len(tok) < 2:
                raise ParseError(no, "expected: objects <id>...")
            objects.extend(tok[1:])
        elif tok[0] == "mor":
            if len(tok) != 6 or tok[2] != ":" or tok[4] != "->":
                raise ParseError(no, "expected: mor <id> : <dom> -> <cod>")
            morphisms.append(Mor(tok[1], tok[3], tok[5]))
        elif tok[0] == "comp":
            if len(tok) != 5 or tok[3] != "=":
                raise ParseError(no, "expected: comp <g> <f> = <h>")
            key = (tok[1], tok[2])
            if key in comp:
                first = next(n for n, earlier in _ref_logical_lines(text) if earlier.split()[:3] == tok[:3])
                raise ParseError(no, f"composite of ({tok[1]}, {tok[2]}) already given on line {first}")
            comp[key] = tok[4]
        else:
            raise ParseError(no, f"unknown directive {tok[0]!r}")
    if name is None:
        raise ParseError(1, "empty input; expected 'category <name>'")
    cat = FinCategory.build(name, objects, morphisms, comp)
    if validate:
        report = validate_category(cat)
        if not report.ok:
            raise InvalidStructureError("; ".join(report.messages()))
    return cat


IDS = st.sampled_from(["x", "y", "z", "f", "g", "h", "id_x", "f+1"])
DIRECTIVES = {
    "objects": st.lists(IDS, min_size=1, max_size=4).map(lambda ids: ["objects", *ids]),
    "mor": st.tuples(IDS, IDS, IDS).map(lambda t: ["mor", t[0], ":", t[1], "->", t[2]]),
    "comp": st.tuples(IDS, IDS, IDS).map(lambda t: ["comp", t[0], t[1], "=", t[2]]),
    "blank": st.just([]),
}
BROKEN_LINES = st.sampled_from([
    ["category", "D"], ["category"], ["category", "A", "B"], ["objects"], ["frob", "x"],
    ["mor", "f", "x", "->", "y"], ["mor", "f", ":", "x", "->", "y", "z"], ["mor", "f", ":", "x", "=", "y"],
    ["comp", "g", "f", "h"], ["comp", "g", "f", "=", "h", "k"], ["comp", "g", "f", "-", "h"], ["COMP", "g"],
])


@st.composite
def category_texts(draw):
    """Category files with comments, blank lines, tabs, every line break
    ``str.splitlines`` knows and directives in any order; one line in
    eight breaks a rule, and the header may be missing or late."""
    lines = [draw(DIRECTIVES[k]) for k in draw(st.lists(st.sampled_from(
        ["objects", "mor", "comp", "comp", "comp", "comp", "blank"]), max_size=14))]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.integers(0, 7)) == 0 or not lines:
            lines.insert(draw(st.integers(0, len(lines))), draw(BROKEN_LINES))
    header = draw(st.sampled_from(["first", "first", "first", "late", "none"]))
    if header != "none":
        at = 0 if header == "first" or not lines else draw(st.integers(1, len(lines)))
        lines.insert(at, ["category", draw(st.sampled_from(["C", "P_x", "id_x"]))])
    out = []
    for tok in lines:
        sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        comment = draw(st.sampled_from(["", "", "", " # note", "#", "\t# comp x y = z", "#objects q"]))
        brk = draw(st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x85", "\u2028"]))
        out.append(lead + sep.join(tok) + comment + brk)
    return "".join(out)[: None if draw(st.booleans()) else -1]


def _parsed(parse, text, validate):
    try:
        cat = parse(text, validate=validate)
    except ParseError as e:
        return ParseError, str(e), e.line_no
    except InvalidStructureError as e:
        return InvalidStructureError, str(e)
    return cat, cat.name, cat.objects, cat.morphisms, list(cat.identity.items()), list(cat.comp.items())


@settings(max_examples=300)
@given(category_texts(), st.booleans())
def test_parse_category_matches_the_reference(text, validate):
    assert _parsed(parse_category, text, validate) == _parsed(_ref_parse_category, text, validate)


def test_parse_category_matches_the_reference_on_fixed_texts():
    texts = [*CATEGORY_TEXTS, CEX, "", "\n\n", "# only\r\n", "category C\r\nobjects\tx  y\x0cmor f : x -> y\r",
             "objects x\ncategory C\n", "category C\ncategory C\n", "category C D\n",
             "category C\nobjects x y\nmor f : x -> y\ncomp f id_x = f\n# c\ncomp f  id_x = f#x\n"]
    for text in texts:
        for validate in (True, False):
            assert _parsed(parse_category, text, validate) == _parsed(_ref_parse_category, text, validate), text


def _distinct_ids_and_names(cat):
    names = [*cat.objects, *(s for m in cat.morphisms for s in m),
             *(s for (g, f), h in cat.comp.items() for s in (g, f, h))]
    return len({id(s) for s in names}), len(set(names))


def test_parse_category_keeps_one_string_per_name():
    texts = [*CATEGORY_TEXTS]
    for seed, n in ((0, 5), (1, 8), (2, 12)):
        texts.append(emit_category(_times_cyclic(fx.random_poset(random.Random(seed), n), 3)))
    for text in texts:
        ids, names = _distinct_ids_and_names(parse_category(text, validate=False))
        assert ids == names, text[:40]


# -- command line -----------------------------------------------------------

@pytest.fixture
def files(tmp_path):
    cat = tmp_path / "cex.fincat"
    cov = tmp_path / "cex.cover"
    cat.write_text(CEX)
    cov.write_text(CEX_COVER)
    return str(cat), str(cov)


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_cli_validate(files):
    cat, _ = files
    res = run("validate", cat)
    assert res.exit_code == 0
    assert res.output == "ok: category C (3 objects, 7 morphisms)\n"


def test_cli_validate_reports_violations(tmp_path):
    bad = tmp_path / "bad.fincat"
    bad.write_text("category B\nobjects x y z\nmor f : x -> y\nmor h : y -> z\n")
    res = run("validate", str(bad))
    assert res.exit_code == 1
    assert "composition not total at (h, f)" in res.output


BROKEN = """\
category B
objects x y z w x
mor f : x -> y
mor g : x -> y
mor h : y -> z
mor p : z -> w
mor hf : x -> z
mor ph : y -> w
mor a : x -> w
mor b : x -> w
mor s : y -> nowhere
mor id_w : w -> x
comp h f = hf
comp h g = hf
comp p h = ph
comp p hf = a
comp ph f = b
comp id_y f = g
comp f h = hf
comp h ghost = hf
comp s f = h
"""


def test_cli_validate_prints_every_violation_of_the_reference(tmp_path):
    from test_fincat import _per_triple_reference

    bad = tmp_path / "broken.fincat"
    bad.write_text(BROKEN)
    ref = _per_triple_reference(parse_category(BROKEN, validate=False))
    assert {rule for rule, _, _ in ref} == {
        "objects-distinct", "morphisms-distinct", "endpoints", "identity", "composition-reference",
        "composition-extraneous", "composition-endpoints", "composition-totality", "identity-law",
        "associativity"}
    res = run("validate", str(bad))
    assert res.exit_code == 1
    assert res.stdout == "".join(f"{rule}: {message}\n" for rule, _, message in ref)
    assert res.stderr == ""


def test_cli_parse_error_is_exit_2(tmp_path):
    bad = tmp_path / "bad.fincat"
    bad.write_text("category B\nwhatever\n")
    res = run("validate", str(bad))
    assert res.exit_code == 2
    res2 = run("euler", str(tmp_path / "missing.fincat"))
    assert res2.exit_code == 2


def test_cli_usage_error_is_exit_2(files):
    cat, cov = files
    assert run("cech", cat, cov).exit_code == 2  # --level is required
    assert run("no-such-command").exit_code == 2


USAGE_ERRORS = {
    "abbreviated-option": ("euler", "{cat}", "--weight"),
    "unknown-option": ("euler", "{cat}", "--bogus"),
    "extra-positional": ("euler", "{cat}", "extra"),
    "non-integer-level": ("cech", "{cat}", "{cov}", "--level", "x"),
    "unknown-variant": ("cech", "{cat}", "{cov}", "--level", "1", "--variant", "bogus"),
    "no-command": (),
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_cli_usage_errors_print_nothing(files, argv):
    cat, cov = files
    res = run(*(a.format(cat=cat, cov=cov) for a in argv))
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""


def test_main_returns_on_exit_0_and_raises_the_exit_code(files, capsys):
    # the calling convention of benchmark/run.py's in-process jobs
    cat, cov = files
    assert main.name == "catnerve"
    assert main.main(args=["validate", cat], prog_name="catnerve", standalone_mode=False) is None
    assert capsys.readouterr().out == "ok: category C (3 objects, 7 morphisms)\n"
    for argv, code in ((["incl-excl", cat, cov], 1), (["cech", cat, cov], 2)):
        with pytest.raises(SystemExit) as raised:
            main.main(args=argv, prog_name="catnerve", standalone_mode=False)
        assert raised.value.code == code


BAD_BOUNDS = [
    (("homology", "{cat}", "--max-dim", "-3"), "--max-dim"),
    (("homology", "{cat}", "--max-dim", "-1"), "--max-dim"),
    (("nerve-compare", "{cat}", "{cov}", "--max-dim", "-1"), "--max-dim"),
    (("adjunction", "{cat}", "{cov}", "--ordered", "--max-len", "0"), "--max-len"),
]


@pytest.mark.parametrize("argv,option", BAD_BOUNDS)
def test_cli_bad_bounds_are_usage_errors(files, argv, option):
    cat, cov = files
    res = run(*(a.format(cat=cat, cov=cov) for a in argv))
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert option in res.stderr and argv[-1] in res.stderr


def test_cli_smallest_bounds_are_accepted(files):
    cat, cov = files
    res = run("homology", cat, "--max-dim", "0")
    assert res.exit_code == 0
    assert res.output.startswith("dim\tbasis\tbetti\n0\t3\t1\n")
    assert run("nerve-compare", cat, cov, "--max-dim", "0").exit_code == 0
    res = run("adjunction", cat, cov, "--ordered", "--max-len", "1")
    assert res.exit_code == 0 and res.output.endswith("adjunction holds\n")


def _cli_env() -> dict[str, str]:
    """The environment in which ``python -m catnerve.cli`` runs this checkout's code, with
    stdout block-buffered into a pipe as in a shell (``PYTHONUNBUFFERED`` dropped)."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src") + (os.pathsep + path if path else ""))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _cli_subprocess(*args: str, text: bool = True) -> subprocess.CompletedProcess:
    """``python -m catnerve.cli args`` from the checkout's root; stdout and stderr as bytes unless ``text``."""
    return subprocess.run([sys.executable, "-m", "catnerve.cli", *args], cwd=FIXTURES.parent, env=_cli_env(),
                          capture_output=True, text=text, timeout=60)


@pytest.mark.parametrize("argv,option", BAD_BOUNDS)
def test_cli_bad_bounds_print_no_traceback(argv, option):
    args = [a.format(cat="fixtures/chain4.fincat", cov="fixtures/chain4_ideal.cover") for a in argv]
    p = _cli_subprocess(*args)
    assert p.returncode == 2
    assert p.stdout == ""
    assert "Traceback" not in p.stderr
    assert option in p.stderr and argv[-1] in p.stderr


@pytest.mark.parametrize("bad", ["category", "cover"])
def test_cli_undecodable_file_is_exit_2(tmp_path, bad):
    cat, cov = tmp_path / "c.fincat", tmp_path / "c.cover"
    cat.write_bytes(b"category C\nobjects x\xff\n" if bad == "category" else CEX.encode())
    cov.write_bytes(b"cover U of C\npart 1 : x\xff\n" if bad == "cover" else CEX_COVER.encode())
    argv = ["validate", str(cat)] if bad == "category" else ["cover-check", str(cat), str(cov)]
    p = _cli_subprocess(*argv)
    assert p.returncode == 2
    assert p.stdout == ""
    assert "Traceback" not in p.stderr
    assert p.stderr.startswith(f"error: {cat if bad == 'category' else cov}: ")


def test_cli_interrupt_is_exit_1(files, monkeypatch):
    def interrupted(cat):
        raise KeyboardInterrupt

    monkeypatch.setattr("catnerve.cli.validate_category", interrupted)
    res = run("validate", files[0])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr == "error: interrupted\n"


def test_cli_closed_stdout_is_exit_1_without_traceback(tmp_path):
    # one violation line per missing composite: far more output than a pipe holds
    text = emit_category(fx.random_poset(random.Random(3), 30))
    bad = tmp_path / "nocomp.fincat"
    bad.write_text("".join(line for line in text.splitlines(keepends=True) if not line.startswith("comp ")))
    with subprocess.Popen([sys.executable, "-m", "catnerve.cli", "validate", str(bad)], env=_cli_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as p:
        assert p.stdout.read(100)
        p.stdout.close()
        err = p.stderr.read()
        p.wait(timeout=60)
    assert p.returncode == 1
    assert "Traceback" not in err


def test_cli_without_stdout_is_exit_1_without_traceback():
    # started with fd 1 closed, the process has no sys.stdout at all
    command = f"{shlex.quote(sys.executable)} -m catnerve.cli validate fixtures/cex.fincat >&-"
    p = subprocess.run(["sh", "-c", command], cwd=FIXTURES.parent, env=_cli_env(),
                       capture_output=True, text=True, timeout=60)
    assert (p.returncode, p.stdout, p.stderr) == (1, "", "")


# -- the process entry: same bytes and exit codes as main in-process -------------

PROCESS_PARITY = [
    *invocations(),  # every command on every fixture and cover
    ["--help"],
    ["euler", "fixtures/cex.fincat", "--bogus"],
    ["validate", "fixtures/missing.fincat"],
    ["cover-check", "fixtures/cex.fincat", "fixtures/cex.cover", "--require-ideal"],
]


@pytest.mark.parametrize("argv", PROCESS_PARITY, ids=" ".join)
def test_process_matches_main_in_process(argv, monkeypatch):
    monkeypatch.chdir(FIXTURES.parent)
    monkeypatch.setenv("COLUMNS", "80")  # the --help width, in-process and in the child
    res = run(*argv)
    p = _cli_subprocess(*argv, text=False)
    assert (p.returncode, p.stdout, p.stderr.decode()) == (res.exit_code, res.stdout_bytes, res.stderr)


def test_process_writes_an_emit_larger_than_a_pipe_buffer(tmp_path):
    cat = fx.random_poset(random.Random(3), 20)
    cat_file, cover_file = tmp_path / "p.fincat", tmp_path / "p.cover"
    cat_file.write_text(emit_category(cat))
    cover_file.write_text(emit_cover(fx.random_ideal_cover(random.Random(3), cat)))
    argv = ["gr", str(cat_file), str(cover_file), "--emit", "-"]
    p = _cli_subprocess(*argv, text=False)
    res = run(*argv)
    assert res.exit_code == p.returncode == 0
    assert len(res.stdout_bytes) >= 100_000
    assert p.stdout == res.stdout_bytes


@pytest.mark.parametrize("raised,code,err", [(None, 0, ""), (3, 3, ""), ("msg", 1, "msg\n")])
def test_script_exit_status_is_cpythons(monkeypatch, capsys, raised, code, err):
    from catnerve import cli

    def command():
        print("out")
        raise SystemExit(raised)

    exits = []
    monkeypatch.setattr(cli, "main", command)
    monkeypatch.setattr(os, "_exit", exits.append)
    cli.script()
    assert exits == [code]
    assert capsys.readouterr() == ("out\n", err)


def test_script_closed_stdout_at_flush_is_1_and_other_errors_propagate(monkeypatch):
    from catnerve import cli

    class ClosedPipe(io.StringIO):
        def flush(self):
            raise BrokenPipeError

    exits = []
    monkeypatch.setattr(os, "_exit", exits.append)
    monkeypatch.setattr(cli, "main", lambda: None)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    cli.script()
    assert exits == [1]

    def broken():
        raise ValueError("not an exit")

    monkeypatch.setattr(cli, "main", broken)
    with pytest.raises(ValueError, match="not an exit"):
        cli.script()
    assert exits == [1]


def test_console_script_is_the_process_entry():
    assert '\ncatnerve = "catnerve.cli:script"\n' in (FIXTURES.parent / "pyproject.toml").read_text()


@pytest.mark.parametrize("argv,code", [(["validate", "fixtures/cex.fincat"], 0),
                                       (["incl-excl", "fixtures/cex.fincat", "fixtures/cex.cover"], 1)])
def test_process_ends_without_interpreter_teardown(argv, code):
    # an atexit handler runs during teardown, so it prints only if teardown happens
    run_cli = ("import atexit, runpy; atexit.register(print, 'teardown'); "
               "runpy.run_module('catnerve.cli', run_name='__main__')")
    p = subprocess.run([sys.executable, "-c", run_cli, *argv], cwd=FIXTURES.parent, env=_cli_env(),
                       capture_output=True, text=True, timeout=60)
    assert p.returncode == code, p.stderr
    assert p.stdout and "teardown" not in p.stdout


def test_cli_euler(files):
    cat, _ = files
    res = run("euler", cat, "--weights")
    assert res.exit_code == 0
    assert res.output == (
        "chi = 1\n"
        "weighting: x=0 y=0 z=1\n"
        "coweighting: x=1 y=-1 z=1\n"
    )


def test_cli_euler_undefined(tmp_path):
    f = tmp_path / "nw.fincat"
    f.write_text(emit_category(fx.no_weighting_category()))
    res = run("euler", str(f))
    assert res.exit_code == 1
    assert res.output == "chi undefined: no weighting\n"


def test_cli_cover_check(files):
    cat, cov = files
    res = run("cover-check", cat, cov)
    assert res.exit_code == 0
    assert res.output == (
        "part 1: objects=2 full=yes ideal=yes filter=no\n"
        "part 2: objects=2 full=yes ideal=no filter=yes\n"
        "covers: yes\n"
    )
    assert run("cover-check", cat, cov, "--require-ideal").exit_code == 1
    assert run("cover-check", cat, cov, "--require-filter").exit_code == 1


def test_cli_cech(files):
    cat, cov = files
    res = run("cech", cat, cov, "--level", "1", "--variant", "reduced")
    assert res.exit_code == 0
    assert res.output == "variant reduced, level 1: 1 pieces\n(1,2): objects y\n"


def test_cli_cech_refuses_a_level_above_the_bound():
    for level, count in (("40", "2199023255552"), ("1000000000", "more than 2**64")):
        p = _cli_subprocess("cech", "fixtures/cex.fincat", "fixtures/cex.cover", "--level", level)
        assert p.returncode == 2
        assert p.stdout == ""
        assert p.stderr == f"error: ordinary level {level} has {count} tuples of {int(level) + 1} labels, above the bound 262144\n"


def test_cli_cech_lists_a_level_at_the_bound():
    p = _cli_subprocess("cech", "fixtures/cex.fincat", "fixtures/cex.cover", "--level", "17")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    assert lines[0] == "variant ordinary, level 17: 262144 pieces"
    assert len(lines) == 262145
    assert lines[1] == "(" + ",".join("1" * 18) + "): objects x y"


LABEL_SEPARATORS = [
    # gr's object y@1,2 sits over (1, 2) and over (1,2); the pieces' names collide
    (CEX, "cover U of C\npart 1 : x y\npart 2 : y z\npart 1,2 : y\n", "1,2",
     [["gr"], ["nerve-compare"], ["adjunction"], ["incl-excl"], ["cech", "--level", "1"]]),
    # incl-excl would print the term (a,b) twice
    (CEX, "cover U of C\npart a : x y\npart a,b : y\npart b : y z\n", "a,b", [["incl-excl"]]),
    # a@b over c and a over b@c are both a@b@c in gr
    ("category D\nobjects a@b a\n", "cover U of D\npart c : a@b\npart b@c : a\n", "b@c", [["gr"]]),
]


@pytest.mark.parametrize("cat_text,cover_text,label,commands", LABEL_SEPARATORS, ids=["1,2", "a,b", "b@c"])
def test_cli_refuses_cover_labels_with_a_separator(tmp_path, cat_text, cover_text, label, commands):
    cat, cov = tmp_path / "c.fincat", tmp_path / "c.cover"
    cat.write_text(cat_text)
    cov.write_text(cover_text)
    with pytest.raises(InvalidStructureError, match=f"cover label '{label}' contains ',' or '@'"):
        parse_cover(cover_text, parse_category(cat_text))
    for command, *options in commands:
        res = run(command, str(cat), str(cov), *options)
        assert res.exit_code == 2, command
        assert res.stdout == ""
        assert f"cover label '{label}'" in res.stderr


def test_cli_gr_and_emit(files, tmp_path):
    cat, cov = files
    res = run("gr", cat, cov)
    assert res.exit_code == 0
    assert res.output == "objects: 5\nnon-identity morphisms: 6\nchi = 0\n"
    emitted = run("gr", cat, cov, "--emit", "-")
    assert emitted.exit_code == 0
    g = parse_category(emitted.output)
    assert len(g.objects) == 5
    out = tmp_path / "gr.fincat"
    to_file = run("gr", cat, cov, "--emit", str(out))
    assert to_file.exit_code == 0
    assert to_file.output.startswith("objects: 5\n")
    assert parse_category(out.read_text()) == g


def test_cli_incl_excl_counterexample(files):
    cat, cov = files
    res = run("incl-excl", cat, cov)
    assert res.exit_code == 1
    assert res.output == (
        "term (1): chi = 0\n"
        "term (2): chi = 1\n"
        "term (1,2): chi = 1\n"
        "sum = 0\n"
        "chi(C) = 1\n"
        "MISMATCH\n"
    )


def test_cli_incl_excl_match(tmp_path):
    cat = tmp_path / "v.fincat"
    cov = tmp_path / "v.cover"
    cat.write_text(emit_category(fx.poset_v()))
    cov.write_text(emit_cover(fx.poset_v_ideal_cover()))
    res = run("incl-excl", str(cat), str(cov))
    assert res.exit_code == 0
    assert res.output.endswith("sum = 1\nchi(V) = 1\nMATCH\n")


def test_cli_homology(files):
    cat, _ = files
    res = run("homology", cat)
    assert res.exit_code == 0
    assert res.output == (
        "dim\tbasis\tbetti\n"
        "0\t3\t1\n"
        "1\t4\t0\n"
        "2\t2\t0\n"
        "euler_top = 1\n"
    )


def test_cli_homology_non_acyclic(tmp_path):
    f = tmp_path / "iso.fincat"
    f.write_text(
        "category Iso\nobjects x y\nmor f : x -> y\nmor g : y -> x\n"
        "comp g f = id_x\ncomp f g = id_y\n"
    )
    res = run("homology", str(f))
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == "error: category Iso is not acyclic; pass --max-dim to truncate\n"
    res = run("homology", str(f), "--max-dim", "2")
    assert res.exit_code == 0
    assert "truncated at dim 2" in res.output


def test_cli_nerve_compare_non_acyclic(tmp_path):
    f = tmp_path / "iso.fincat"
    f.write_text(
        "category Iso\nobjects x y\nmor f : x -> y\nmor g : y -> x\n"
        "comp g f = id_x\ncomp f g = id_y\n"
    )
    c = tmp_path / "iso.cover"
    c.write_text("cover U of Iso\npart 1 : x\npart 2 : x y\n")
    res = run("nerve-compare", str(f), str(c))
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == "error: nerves are unbounded (a category involved is not acyclic); pass --max-dim\n"
    res = run("nerve-compare", str(f), str(c), "--max-dim", "1")
    assert res.exit_code == 0
    assert res.stdout.endswith("betti equal: 1 0\n")


def test_cli_nerve_compare(files, tmp_path):
    cat, cov = files
    res = run("nerve-compare", cat, cov)
    assert res.exit_code == 1
    assert res.output == (
        "category betti: 1 0 0\n"
        "gr betti: 1 1 0\n"
        "betti differ: 1 0 0 vs 1 1 0\n"
    )
    v = tmp_path / "v.fincat"
    vc = tmp_path / "v.cover"
    v.write_text(emit_category(fx.poset_v()))
    vc.write_text(emit_cover(fx.poset_v_ideal_cover()))
    res2 = run("nerve-compare", str(v), str(vc))
    assert res2.exit_code == 0
    assert res2.output.endswith("betti equal: 1 0 0\n")


def test_cli_refuses_a_gr_whose_arrow_names_clash(tmp_path):
    cat, cov = tmp_path / "d.fincat", tmp_path / "d.cover"
    cat.write_text("category D\nobjects x x|x@1,2=>x\n")
    cov.write_text("cover U of D\norder 1 2\npart 1 : x x|x@1,2=>x\npart 2 : x\n")
    for command, *options in (["gr"], ["gr", "--emit", "-"], ["nerve-compare"], ["adjunction"],
                              ["adjunction", "--ordered"]):
        res = run(command, str(cat), str(cov), *options)
        assert res.exit_code == 1, command
        assert res.stdout == ""
        assert res.stderr.startswith("error: two arrows of gr are named 'id_x|x@1,2=>x@1'")
    res = run("incl-excl", str(cat), str(cov))
    assert res.exit_code == 0
    assert res.output.endswith("sum = 2\nchi(D) = 2\nMATCH\n")


def test_cli_adjunction_ordered_refuses_above_the_bound(tmp_path):
    cat, cov = tmp_path / "e.fincat", tmp_path / "e.cover"
    cat.write_text("category E\n")
    cov.write_text("cover U of E\npart 1 :\n")
    for files, max_len, counts in (((str(FIXTURES / "cex.fincat"), str(FIXTURES / "cex.cover")), "400",
                                    "407000 pairs and 21493600"),
                                   ((str(cat), str(cov)), "100000", "0 pairs and 5000050000")):
        start = time.perf_counter()
        res = run("adjunction", *files, "--ordered", "--max-len", max_len)
        assert time.perf_counter() - start < 1
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == (f"error: the ordered check up to length {max_len} has {counts} tuple labels,"
                              " above the bound 262144\n")
    # parts that do not cover are still a failed check, whatever the length
    cov.write_text("cover U of C\npart 1 : x y\n")
    res = run("adjunction", str(FIXTURES / "cex.fincat"), str(cov), "--ordered", "--max-len", "100000")
    assert (res.exit_code, res.stdout, res.stderr) == (1, "", "error: parts do not cover the parent category\n")


def test_cli_adjunction(files, tmp_path):
    cat, cov = files
    assert run("adjunction", cat, cov).exit_code == 1
    res = run("adjunction", cat, cov, "--diagnostic")
    assert res.exit_code == 1
    assert "adjunction-pi" in res.output
    assert run("adjunction", cat, cov, "--ordered").exit_code == 0

    v = tmp_path / "v.fincat"
    vc = tmp_path / "v.cover"
    v.write_text(emit_category(fx.poset_v()))
    vc.write_text(emit_cover(fx.poset_v_ideal_cover()))
    res2 = run("adjunction", str(v), str(vc))
    assert res2.exit_code == 0
    assert res2.output == "checked 15 pairs\nadjunction holds\n"
