"""Checks on the package source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).parent.parent / "src" / "crcodes"


def test_no_assert_statement_in_the_package():
    # theorem checks raise TheoremViolationError; `python -O` strips asserts
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_only_the_algebra_and_the_linear_structure_row_reduce():
    # a linear code's parity check is row-reduced once, when its
    # LinearStructure is built; every other module reads the stored echelon
    calls = {path.name for path in SOURCE.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and "rref" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}
    assert calls == {"algebra.py", "hamming_space.py"}


def test_only_the_table_of_theorem_checks_decides_which_apply():
    # the census, `crcodes classify` and `crcodes decompose` read one table
    # in classify.py; no other module calls a check that applies to some
    # codes only
    guarded = {"coset_family", "clique_bound_checks", "classify_arithmetic_forms",
               "decompose_product", "classify_small_covering_radius"}
    calls = {path.name for path in SOURCE.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & guarded}
    assert calls == {"classify.py"}


def test_a_cli_call_imports_neither_argparse_nor_locale(tmp_path):
    # building an argparse parser on every call cost more than the analysis
    # of a small code; locale comes with argparse's gettext lookups
    spec = tmp_path / "hamming74.json"
    spec.write_text(json.dumps({"type": "construct", "name": "hamming", "q": 2, "r": 3}))
    script = (
        "import json, sys\n"
        "from crcodes.cli import main\n"
        f"code = main(['check', {str(spec)!r}])\n"
        "print(json.dumps([code, sorted({'argparse', 'locale'} & set(sys.modules))]))\n")
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == [0, []]


def test_an_import_builds_no_lane_masks_or_tables():
    # a fresh import compiles src/ and must stay cheap: every cache of the
    # package (lane masks and plans, neighbour tables, scaled columns,
    # alphabets) is filled on first use, never at import
    script = (
        "import json, sys\n"
        "import crcodes.cli\n"
        "print(json.dumps({f'{name}.{attr}': fn.cache_info().currsize\n"
        "    for name, module in sorted(sys.modules.items()) if name.startswith('crcodes')\n"
        "    for attr, fn in vars(module).items()\n"
        "    if hasattr(fn, 'cache_info') and fn.__module__ == name}))\n")
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    caches = json.loads(run.stdout.splitlines()[-1])
    assert "crcodes.cr_analysis._lanes" in caches and "crcodes.algebra.alphabet" in caches
    assert set(caches.values()) == {0}, caches
