"""The library's import surface.

The names the benchmark harness imports from tstab must keep resolving:
the benchmark under `perfbench/` imports library names directly, and its
own smoke test is not part of this suite, so a rename in the library
would otherwise break the benchmark without failing a test here.

Importing the CLI must also stay cheap: every `tstab` command pays for it,
and each command loads only the modules it uses.
"""

import ast
import importlib
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# Modules whose import alone costs milliseconds at start-up: dataclasses, with
# the code generation it runs per class, inspect and the modules inspect pulls
# in, typing, and fractions with the decimal it imports: slopes are ints in an
# ExtendedRational, and only ExtendedRational.finite, given a Fraction, needs it.
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "fractions",
                 "decimal")


SRC = ROOT / "src"
SUBMODULES = sorted(path.stem for path in (SRC / "tstab").glob("*.py")
                    if not path.stem.startswith("__"))


def _in_fresh_process(code: str, *args: str, stdin_text: str = "") -> str:
    """Run `code` with `src` first on sys.path; its stdout.  -S: no site
    hooks, which may import any module on their own."""
    done = subprocess.run([sys.executable, "-S", "-c", code, str(SRC), *args], input=stdin_text,
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout


def test_cli_import_pulls_in_no_heavy_module():
    # Every submodule, as the package and the CLI import them only on demand.
    imports = "; ".join(f"import tstab.{name}" for name in SUBMODULES)
    code = (f"import sys; sys.path.insert(0, sys.argv[1]); {imports}; "
            f"print(sorted(set({HEAVY_MODULES!r}) & set(sys.modules)))")
    assert {"cli", "elliptic", "tstructures"} <= set(SUBMODULES)
    assert _in_fresh_process(code).strip() == "[]"


_BASE = ["cli", "errors", "p1", "slopes", "syntax", "value"]


@pytest.mark.parametrize("argv, loaded", [
    (["normalize", "O(1) + T(x,2)"], _BASE),
    (["hom", "O(1)", "T(x,2)"], _BASE),
    (["hn", "O(3) + T(x,2)", "--stability", "std"], [*_BASE, "families", "stability"]),
    (["hn", "S(1,0,x)", "--stability", "ell"], [*_BASE, "elliptic", "families", "stability"]),
    (["check", "hn"], [*_BASE, "families", "stability"]),
], ids=["normalize", "hom", "hn-std", "hn-ell", "check-hn"])
def test_each_command_loads_only_the_modules_it_uses(argv, loaded):
    from tstab import cli
    document = io.StringIO()
    assert cli.run(["hn", "O(3)", "--stability", "exc", "--format", "json"], document) == 0
    code = ("import io, sys; sys.path.insert(0, sys.argv[1]); import tstab.cli; "
            "out = io.StringIO(); exit_code = tstab.cli.run(sys.argv[2:], out); "
            "print(exit_code, sorted(m[6:] for m in sys.modules if m.startswith('tstab.')))")
    exit_code, modules = _in_fresh_process(code, *argv, stdin_text=document.getvalue()).split(" ", 1)
    assert exit_code == "0"
    assert modules.strip() == repr(sorted(loaded))


@pytest.mark.parametrize("argv", [
    ["hn", "O(3) + T(x,2) + O(1)[1]", "--stability", "std", "--points", "z,x"],
    ["hn", "S(1,0,x) + S(0,1,y)[-1]", "--stability", "ell"],
], ids=["std", "ell"])
def test_a_cli_document_is_read_back_without_the_cli(argv):
    """`tstab.syntax` reads a `tstab hn --format json` document, which then
    verifies, in a process that never loads argparse or `tstab.cli`."""
    from tstab import cli
    document = io.StringIO()
    assert cli.run([*argv, "--format", "json"], document) == 0
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from tstab.syntax import filtration_from_json; from tstab.stability import verify_hn; "
            "x, filt = filtration_from_json(json.load(sys.stdin)); "
            "print(verify_hn(x, filt, filt.family).ok, "
            "sorted({'argparse', 'tstab.cli'} & set(sys.modules)))")
    assert _in_fresh_process(code, stdin_text=document.getvalue()).strip() == "True []"


def test_package_names_resolve_on_first_access():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tstab; "
            "print(sorted(m for m in sys.modules if m.startswith('tstab')))")
    assert _in_fresh_process(code).strip() == "['tstab']"  # the package imports nothing itself
    tstab = importlib.import_module("tstab")
    public = [name for name in dir(tstab) if not name.startswith("_")]
    assert set(SUBMODULES) <= set(public)
    for name in public:
        getattr(tstab, name)
    for name in SUBMODULES:
        assert getattr(tstab, name) is importlib.import_module(f"tstab.{name}")
    assert tstab.INF is importlib.import_module("tstab.families").INF
    assert set(tstab.__all__) == set(public)
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        tstab.nothing


def test_readme_library_api_names_each_export_once():
    """README's Library API section names every export but the submodules, once
    each, so the export table cannot grow or shrink unnoticed."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"`([^`]+)`", section)
    assert len(names) == len(set(names))
    assert set(names) == set(importlib.import_module("tstab").__all__) - set(SUBMODULES)


def _trees():
    for path in sorted(PERFBENCH.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _tstab_imports():
    """(file, module, name) for every `from tstab... import name` in perfbench."""
    found = []
    for filename, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                    and node.module.split(".")[0] == "tstab":
                found.extend((filename, node.module, alias.name) for alias in node.names)
    return found


def _tstab_attribute_chains():
    """(file, dotted chain) for every `tstab.a.b` attribute read in perfbench."""
    found = []
    for filename, tree in _trees():
        for node in ast.walk(tree):
            chain, base = [], node
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if chain and isinstance(base, ast.Name) and base.id == "tstab":
                found.append((filename, ["tstab", *reversed(chain)]))
    return found


def test_perfbench_imports_resolve():
    imports = _tstab_imports()
    assert imports, f"no tstab imports found under {PERFBENCH}"
    missing = []
    for filename, module, name in imports:
        mod = importlib.import_module(module)
        if not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{filename}: from {module} import {name}")
    assert not missing, missing


def test_perfbench_attribute_reads_resolve():
    missing = []
    for filename, chain in _tstab_attribute_chains():
        obj = importlib.import_module("tstab")
        for name in chain[1:]:
            if not hasattr(obj, name):
                missing.append(f"{filename}: {'.'.join(chain)}")
                break
            obj = getattr(obj, name)
    assert not missing, missing
