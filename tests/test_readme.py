"""README.md is the compatibility contract of the CLI: its examples must run.

Every `tstab ...` line of the README's `sh` examples runs in-process through
`cli.run` and exits 0; a pipe `a | tstab check hn` feeds the first command's
output to the second as its stdin.  The JSON examples must equal what the
commands they document print.
"""

import io
import json
import math
import re
import shlex
import sys
from pathlib import Path

import pytest

from tstab import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


COMMANDS = [line for block in _blocks("sh") for line in block.splitlines()
            if line.startswith("tstab ")]


def _run(argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    out = io.StringIO()
    return cli.run(argv, out=out), out.getvalue()


def test_readme_has_its_examples():
    assert len(COMMANDS) >= 12
    assert any("|" in line for line in COMMANDS)


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(line, monkeypatch):
    stdin_text = None
    for stage in line.split(" | "):  # no quoted argument of the README holds " | "
        argv = shlex.split(stage)
        assert argv[0] == "tstab"
        code, stdin_text = _run(argv[1:], stdin_text, monkeypatch)
        assert code == 0, (stage, stdin_text)


@pytest.mark.parametrize("argv, marker", [
    ('hn "O(3)" --stability exc --k 0 --p 0 --format json', '"quotients"'),
    ("catalog E --params p=2 --format json", '"name"'),
])
def test_readme_json_example_is_the_output(argv, marker):
    (example,) = [block for block in _blocks("json") if marker in block]
    code, out = _run(shlex.split(argv))
    assert code == 0
    assert json.loads(out) == json.loads(example)


def test_readme_config_example_loads(tmp_path):
    """The session-config example is a file `load_config` reads as the README says."""
    section = README.split("### Session configuration", 1)[1]
    example = re.search(r"^```\n(.*?)^```", section, flags=re.M | re.S).group(1)
    path = tmp_path / "session.cfg"
    path.write_text(example, encoding="utf-8")
    assert cli.load_config(str(path)) == {"points": ("x", "y", "z"), "k": 0, "p": math.inf,
                                          "format": "json", "seed": 7}
    assert _run(["normalize", "T(z,1) + T(x,1)", "--config", str(path)]) == \
        (0, '{\n  "object": "T(x,1) + T(z,1)"\n}\n')
