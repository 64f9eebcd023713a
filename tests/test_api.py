"""The library's import surface.

The names the benchmark harness imports from tstab must keep resolving:
the benchmark under `perfbench/` imports library names directly, and its
own smoke test is not part of this suite, so a rename in the library
would otherwise break the benchmark without failing a test here.

Importing the CLI must also stay cheap: every `tstab` command pays for it.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# Modules whose import alone costs milliseconds at start-up: dataclasses, with
# the code generation it runs per class, inspect and the modules inspect pulls
# in, and typing.
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def test_cli_import_pulls_in_no_heavy_module():
    # -S: no site hooks, which may import any of these on their own.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tstab.cli; "
            f"print(sorted(set({HEAVY_MODULES!r}) & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


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
