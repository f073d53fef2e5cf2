"""Byte-stability gate: exit code and stdout of every CLI command on every fixture.

Each category fixture runs through the category commands; each cover
fixture runs, with the category it names, through the cover commands.
The transcript is compared byte for byte with ``golden/cli.txt``.
After an intended output change, rewrite the golden file with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""
from pathlib import Path

from click.testing import CliRunner

from catnerve.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.txt"

CATEGORY_COMMANDS = [
    ["validate"],
    ["euler"],
    ["euler", "--weights"],
    ["homology"],
    ["homology", "--max-dim", "2"],
]
COVER_COMMANDS = [
    ["cover-check"],
    ["incl-excl"],
    ["gr"],
    ["gr", "--emit", "-"],
    ["nerve-compare"],
    ["adjunction"],
    ["adjunction", "--diagnostic"],
    ["adjunction", "--ordered"],
    ["cech", "--level", "2", "--variant", "ordinary"],
    ["cech", "--level", "2", "--variant", "ordered"],
    ["cech", "--level", "2", "--variant", "reduced"],
]


def _header_word(path: Path, keyword: str) -> str:
    """The word after ``keyword`` on the file's first non-comment line."""
    for line in path.read_text().splitlines():
        words = line.split()
        if words and not words[0].startswith("#"):
            return words[words.index(keyword) + 1]
    raise ValueError(f"{path.name}: empty fixture")


def invocations() -> list[list[str]]:
    """(command, *options, file...) argument lists, fixture paths relative to the root."""
    cats = sorted(FIXTURES.glob("*.fincat"))
    by_name = {_header_word(p, "category"): p for p in cats}
    out = []
    for cat in cats:
        for cmd in CATEGORY_COMMANDS:
            out.append([cmd[0], str(cat.relative_to(ROOT)), *cmd[1:]])
    for cover in sorted(FIXTURES.glob("*.cover")):
        cat = by_name[_header_word(cover, "of")]
        files = [str(cat.relative_to(ROOT)), str(cover.relative_to(ROOT))]
        for cmd in COVER_COMMANDS:
            out.append([cmd[0], *files, *cmd[1:]])
    return out


def transcript() -> str:
    runner = CliRunner()
    chunks = []
    for args in invocations():
        res = runner.invoke(main, [str(ROOT / a) if a.startswith("fixtures/") else a for a in args])
        raised = res.exception is not None and not isinstance(res.exception, SystemExit)
        status = f"raised {type(res.exception).__name__}" if raised else f"exit {res.exit_code}"
        chunks.append(f"$ catnerve {' '.join(args)}\n[{status}]\n{res.stdout}")
    return "".join(chunks)


def test_every_fixture_is_exercised():
    used = {a for args in invocations() for a in args if a.startswith("fixtures/")}
    assert used == {str(p.relative_to(ROOT)) for p in FIXTURES.iterdir()}


def test_cli_stdout_and_exit_codes_match_golden():
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(transcript())
