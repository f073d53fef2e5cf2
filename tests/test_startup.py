"""What importing catnerve, and running one CLI command, loads.

The package is lazy: ``import catnerve`` loads none of its modules and
each exported name is resolved from its module on first access.  Each
CLI command loads parsing (``io``, ``covers``, ``fincat``) plus only the
modules it uses, and none loads ``pathlib``; the subprocess checks below
read the loaded modules from ``-X importtime``, in a fresh interpreter
per command.
"""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catnerve

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EXPORTS = 51

# Exports that no library module, script or benchmark names, kept on purpose:
# the independent routes kept as oracles, the names tests/test_acceptance.py
# imports, and the union A u B of the two-set formula.
TEST_ONLY_EXPORTS = {
    "check_simplicial_identities", "euler_consistency", "reorder_iso", "validate_functor",
    "opposite_subcategory", "solve_weighting",
    "union_closure",
}


def _python(*args: str) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60)


def _imported(stderr: str) -> set[str]:
    """Modules named in ``-X importtime`` lines."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")}


def _loaded(stderr: str) -> set[str]:
    """catnerve modules named in ``-X importtime`` lines."""
    return {n for n in _imported(stderr) if n == "catnerve" or n.startswith("catnerve.")}


# -- the lazy package --------------------------------------------------------

def test_import_loads_no_submodule():
    p = _python("-c", "import sys, catnerve; "
                      "print(sorted(m for m in sys.modules if m.startswith('catnerve')))")
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "['catnerve']"


def test_every_export_is_its_modules_object():
    assert len(catnerve.__all__) == len(set(catnerve.__all__)) == EXPORTS
    for name in catnerve.__all__:
        value = getattr(catnerve, name)
        assert value.__module__.startswith("catnerve.")
        assert getattr(sys.modules[value.__module__], name) is value


def test_dir_lists_every_export_and_module():
    listed = set(dir(catnerve))
    assert set(catnerve.__all__) <= listed
    assert {"fincat", "covers", "cech", "grothendieck", "euler", "homotopy", "io"} <= listed


def test_star_import():
    namespace: dict = {}
    exec("from catnerve import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(catnerve.__all__)
    assert namespace["FinCategory"] is catnerve.fincat.FinCategory


def test_submodules_are_attributes():
    import catnerve.fixtures

    for mod in ("fincat", "covers", "cech", "grothendieck", "euler", "homotopy", "io", "fixtures"):
        assert getattr(catnerve, mod) is sys.modules[f"catnerve.{mod}"]


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        catnerve.no_such_name
    with pytest.raises(ImportError):
        exec("from catnerve import no_such_name", {})


def _names_in(path: Path) -> set[str]:
    """Identifiers a file reads, imports or looks up as attributes (not strings)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_export_is_used_outside_the_tests():
    files = [p for p in (SRC / "catnerve").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "benchmark").glob("*.py")]
    named = set().union(*map(_names_in, files))
    assert TEST_ONLY_EXPORTS <= set(catnerve.__all__)
    assert set(catnerve.__all__) - named <= TEST_ONLY_EXPORTS


# -- per-command module sets -------------------------------------------------

PARSING = {"catnerve", "catnerve.io", "catnerve.covers", "catnerve.fincat"}
CAT, COVER = "fixtures/cex.fincat", "fixtures/cex.cover"

# catnerve.cli itself runs as __main__ under -m, so it is not listed
COMMANDS = [
    (["validate", CAT], set()),
    (["cover-check", CAT, COVER], set()),
    (["euler", CAT], {"euler"}),
    (["homology", CAT], {"euler", "homotopy"}),
    (["incl-excl", CAT, COVER], {"euler"}),
    (["gr", CAT, COVER], {"euler", "grothendieck"}),
    (["adjunction", CAT, COVER], {"grothendieck"}),
    (["nerve-compare", CAT, COVER], {"euler", "grothendieck", "homotopy"}),
    (["cech", CAT, COVER, "--level", "1", "--variant", "reduced"], {"cech"}),
]


@pytest.mark.parametrize("argv,extra", COMMANDS, ids=[c[0][0] for c in COMMANDS])
def test_command_loads_only_its_modules(argv, extra):
    # -S: without site, whose .pth files may load pathlib and more before catnerve runs
    p = _python("-S", "-X", "importtime", "-m", "catnerve.cli", *argv)
    assert p.returncode in (0, 1), p.stderr[-2000:]
    assert _loaded(p.stderr) == PARSING | {f"catnerve.{m}" for m in extra}
    assert not {"dataclasses", "click", "pathlib"} & _imported(p.stderr)


def test_record_modules_do_not_import_dataclasses():
    p = _python("-c", "import sys, catnerve.homotopy, catnerve.grothendieck, catnerve.cech; "
                      "print(sorted(m for m in sys.modules if m.startswith('catnerve')), "
                      "'dataclasses' in sys.modules)")
    assert p.returncode == 0, p.stderr
    loaded = ("['catnerve', 'catnerve.cech', 'catnerve.covers', 'catnerve.euler', 'catnerve.fincat', "
              "'catnerve.grothendieck', 'catnerve.homotopy']")
    assert p.stdout.strip() == f"{loaded} False"


def test_variant_choices_are_cech_variants():
    from catnerve import cech
    from catnerve.cli import _parser

    (commands,) = [a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (option,) = [a for a in commands.choices["cech"]._actions if a.dest == "variant"]
    assert tuple(option.choices) == cech.VARIANTS
