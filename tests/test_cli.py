"""Tests for the expression parser and the command-line interface."""

import argparse
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import validate as js_validate

from tstab import cli
from tstab.cli import (build_parser, load_config, make_session, parse_cutspec, parse_famspec,
                       parse_object, run)
from tstab.elliptic import EllipticObject, EllipticStandard, stable
from tstab.errors import (InvalidLengthError, NonCoprimeError, ObjectParseError)
from tstab.families import (INF, CoarseZ, ExceptionalP1, StandardP1, by_shift_partition, coarsen,
                            family_from_descriptor)
from tstab.p1 import Point, ZERO, line, torsion


def _run(*argv, stdin=None):
    buf = io.StringIO()
    code = run(list(argv), out=buf)
    return code, buf.getvalue()


# --- parser ----------------------------------------------------------------------

def test_parse_basic_grammar():
    obj = parse_object("O(3) + 2*O(-1)[2] + T(x,2)")
    assert obj == line(3) + 2 * line(-1, 2) + torsion(Point("x"), 2)
    assert len(obj.terms) == 3


def test_parse_merges_duplicates():
    assert parse_object("O(1)[0] + O(1)") == 2 * line(1)


def test_parse_zero_and_whitespace():
    assert parse_object("0") == ZERO
    assert parse_object("  O( 3 )  +  0  ") == line(3)
    assert parse_object("0[5]") == ZERO
    assert parse_object("3*0 + O(2)") == line(2)
    assert parse_object("0", category="elliptic") == EllipticObject()


def test_parse_elliptic_atoms():
    assert parse_object("2*S(1,0,l)[1] + S(0,1,m)") == \
        2 * stable(1, 0, "l", shift=1) + stable(0, 1, "m")


def test_parse_zero_multiplicity_drops_term():
    assert parse_object("0*O(5) + O(1)") == line(1)


def test_parse_errors():
    with pytest.raises(InvalidLengthError):
        parse_object("T(x,0)")
    with pytest.raises(NonCoprimeError):
        parse_object("S(2,4,l)")
    with pytest.raises(NonCoprimeError):
        parse_object("S(0,3,l)")
    with pytest.raises(ObjectParseError):
        parse_object("O(3) + S(1,1,l)")
    with pytest.raises(ObjectParseError):
        parse_object("O(x)")
    with pytest.raises(ObjectParseError):
        parse_object("Q(3)")
    with pytest.raises(ObjectParseError):
        parse_object("O(3) +")
    with pytest.raises(ObjectParseError):
        parse_object("2 O(3)")
    with pytest.raises(ObjectParseError):
        parse_object("S(1,1,l)", category="p1")
    with pytest.raises(ObjectParseError):
        parse_object("O(1)", category="elliptic")


def test_parse_error_carries_position():
    try:
        parse_object("O(1) + T(x,)")
    except ObjectParseError as exc:
        assert exc.position == 11
    else:
        pytest.fail("expected a parse error")


def _random_expression(rng: random.Random) -> str:
    kind = rng.random()
    parts = []
    for _ in range(rng.randint(1, 5)):
        mult = rng.choice(["", f"{rng.randint(1, 4)}*"])
        shift = rng.choice(["", f"[{rng.randint(-3, 3)}]"])
        if kind < 0.8:
            if rng.random() < 0.6:
                atom = f"O({rng.randint(-6, 6)})"
            else:
                atom = f"T({rng.choice('xyz')},{rng.randint(1, 4)})"
        else:
            r, d = rng.choice([(1, 0), (1, 1), (2, 1), (3, -2), (0, 1), (2, -5)])
            atom = f"S({r},{d},{rng.choice('lmn')})"
        ws = lambda: " " * rng.randint(0, 2)
        parts.append(f"{ws()}{mult}{ws()}{atom}{ws()}{shift}")
    return " + ".join(parts)


def test_parser_round_trip_corpus():
    rng = random.Random(2024)
    for _ in range(200):
        text = _random_expression(rng)
        once = parse_object(text)
        twice = parse_object(once.render())
        assert once == twice
        assert once.render() == twice.render()


# --- subcommands -----------------------------------------------------------------

def test_normalize_command():
    code, out = _run("normalize", "O(1) + O(1)[0]")
    assert code == 0 and out.strip() == "2*O(1)"


def test_normalize_json():
    code, out = _run("normalize", "O(2)", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"object": "O(2)"}


def test_hom_command():
    code, out = _run("hom", "O(0)", "O(2)", "--degree", "0")
    assert code == 0 and out.strip() == "3"
    code, out = _run("hom", "O(0)", "O(2)", "--format", "json")
    assert json.loads(out) == {"profile": {"0": 3}}
    code, out = _run("hom", "S(1,0,l)", "S(1,1,m)", "--format", "json")
    assert json.loads(out) == {"profile": {"0": 1}}
    code, out = _run("hom", "O(0)", "S(1,1,m)")
    assert code == 1


def test_hom_takes_a_bare_zero_on_the_other_curve():
    for argv in (("0", "S(1,0,x)"), ("S(1,0,x)", "0")):
        assert _run("hom", *argv) == (0, "0\n"), argv
        assert _run("hom", *argv, "--degree", "1") == (0, "0\n"), argv
        code, out = _run("hom", *argv, "--format", "json")
        assert (code, json.loads(out)) == (0, {"profile": {}}), argv
    _assert_error(("hom", "O(1)", "S(1,0,x)"), "both objects must live on the same curve")
    _assert_error(("hom", "S(1,0,x)", "O(1)"), "both objects must live on the same curve")


FILTRATION_SCHEMA = {
    "type": "object",
    "required": ["object", "family", "quotients", "terms"],
    "properties": {
        "object": {"type": "string"},
        "family": {"type": "object", "required": ["family"]},
        "quotients": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["slope", "object"],
                "properties": {"slope": {"type": "object"}, "object": {"type": "string"}},
            },
        },
        "terms": {"type": "array", "items": {"type": "string"}},
    },
}

CATALOG_SCHEMA = {
    "type": "object",
    "required": ["name", "params", "twist", "shift", "heart", "bounded"],
    "properties": {
        "name": {"enum": list("ABCDEFGHI")},
        "params": {"type": "object"},
        "twist": {"type": "integer"},
        "shift": {"type": "integer"},
        "heart": {"type": "array", "items": {"type": "string"}},
        "bounded": {"type": "boolean"},
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["ok", "checks"],
    "properties": {
        "ok": {"type": "boolean"},
        "checks": {
            "type": "array",
            "items": {"type": "object", "required": ["name", "ok", "detail"]},
        },
    },
}


def test_hn_json_matches_schema():
    for argv in (("hn", "O(3)", "--stability", "exc", "--k", "0", "--p", "0"),
                 ("hn", "O(3) + 2*T(x,2)[1]", "--stability", "std"),
                 ("hn", "S(1,0,l) + S(0,1,m)", "--stability", "ell"),
                 ("hn", "O(1)", "--stability", "coarse")):
        code, out = _run(*argv, "--format", "json")
        assert code == 0
        js_validate(json.loads(out), FILTRATION_SCHEMA)


def test_hn_example_output():
    code, out = _run("hn", "O(3)", "--stability", "exc", "--k", "0", "--p", "0",
                     "--format", "json")
    data = json.loads(out)
    assert data["object"] == "O(3)"
    assert data["quotients"] == [
        {"slope": {"shift": 1, "col": 0}, "object": "2*O(0)[1]"},
        {"slope": {"shift": 0, "col": 1}, "object": "3*O(1)"},
    ]
    assert data["terms"] == ["O(3)", "3*O(1)", "0"]


def test_hn_pipes_into_check_hn(tmp_path):
    code, out = _run("hn", "O(3) + T(x,2) + 2*O(-4)[2]", "--stability", "exc",
                     "--k", "1", "--p", "2", "--format", "json")
    assert code == 0
    path = tmp_path / "filt.json"
    path.write_text(out)
    code, out = _run("check", "hn", "--input", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    js_validate(report, REPORT_SCHEMA)
    assert report["ok"]


def test_hn_check_hn_pipe_across_families(tmp_path):
    cases = [
        ("T(x,2) + 3*O(-1)[1] + O(5)", ("--stability", "std")),
        ("T(c,2) + T(a,1)[1] + O(0)", ("--stability", "std", "--points", "c,b,a")),
        ("S(1,0,b) + S(1,0,a)", ("--stability", "ell", "--points", "b,a")),
        ("O(2) + O(0)[2]", ("--stability", "exc", "--k", "0", "--p", "inf")),
        ("2*S(2,1,l) + S(0,1,m)[1] + S(1,-3,n)[-1]", ("--stability", "ell")),
        ("O(1) + T(y,1)[-2]", ("--stability", "coarse")),
    ]
    for expr, flags in cases:
        code, out = _run("hn", expr, *flags, "--format", "json")
        assert code == 0
        path = tmp_path / "pipe.json"
        path.write_text(out)
        code, out = _run("check", "hn", "--input", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["ok"], (expr, out)


def test_truncate_invalid_cut_is_domain_error():
    code, out = _run("truncate", "O(3)", "--cut", "exc:a=0,b=0", "--k", "0", "--p", "0",
                     "--format", "json")
    assert code == 1
    assert "error" in json.loads(out)


def test_check_hn_malformed_document_is_domain_error(tmp_path):
    _, out = _run("hn", "O(3)", "--stability", "exc", "--k", "0", "--p", "0",
                  "--format", "json")
    no_shift = json.loads(out)
    del no_shift["quotients"][0]["slope"]["shift"]
    no_class = {"object": "S(1,0,x)", "family": {"family": "elliptic", "point_order": []},
                "quotients": [{"slope": {"shift": 0, "mu": "0"}, "object": "S(1,0,x)"}],
                "terms": ["S(1,0,x)", "0"]}
    docs = [{"object": "O(3)"}, no_shift, no_class, [], "O(3)", {"object": "O(3)", "family": 3},
            {"object": 5, "family": {"family": "coarse"}, "quotients": [], "terms": ["0"]}]
    path = tmp_path / "doc.json"
    for doc in docs:
        path.write_text(json.dumps(doc))
        code, out = _run("check", "hn", "--input", str(path), "--format", "json")
        assert code == 1, doc
        assert set(json.loads(out)) == {"error"}, doc
        code, out = _run("check", "hn", "--input", str(path))
        assert code == 1 and out.startswith("error: "), doc


def test_check_hn_deeply_nested_document_is_domain_error(tmp_path, monkeypatch):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    for source in ("stdin", "input"):
        for fmt in ("json", "text"):
            monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100000))
            extra = ("--input", str(path)) if source == "input" else ()
            code, out = _run("check", "hn", *extra, "--format", fmt)
            assert code == 1, (source, fmt)
            if fmt == "json":
                assert set(json.loads(out)) == {"error"}
            else:
                assert out.startswith("error: ")


def test_check_hn_nested_coarsened_family_is_domain_error(tmp_path):
    by_shift = {"family": "coarsened", "base": {"family": "standard", "point_order": []},
                "partition": "by-shift"}
    doc = {"object": "O(0)", "family": {"family": "coarsened", "base": by_shift,
                                        "partition": "by-shift"},
           "quotients": [{"slope": {"block": "0"}, "object": "O(0)"}], "terms": ["O(0)", "0"]}
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(doc))
    message = ("partition 'by-shift' does not apply to the slopes of the "
               "coarsened(standard; by-shift) family")
    assert _run("check", "hn", "--input", str(path)) == (1, f"error: {message}\n")
    code, out = _run("check", "hn", "--input", str(path), "--format", "json")
    assert (code, json.loads(out)) == (1, {"error": message})


def test_check_hn_rejects_tampered_filtration(tmp_path):
    code, out = _run("hn", "O(3)", "--stability", "exc", "--k", "0", "--p", "0",
                     "--format", "json")
    data = json.loads(out)
    data["quotients"] = list(reversed(data["quotients"]))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out = _run("check", "hn", "--input", str(path), "--format", "json")
    assert code == 1
    assert not json.loads(out)["ok"]


def test_catalog_json_schema():
    for args in (("catalog", "E", "--params", "p=1"),
                 ("catalog", "B"),
                 ("catalog", "D", "--params", "P=z"),
                 ("catalog", "G")):
        code, out = _run(*args, "--format", "json")
        assert code == 0, out
        js_validate(json.loads(out), CATALOG_SCHEMA)
    code, out = _run("catalog", "--format", "json")
    assert code == 0
    for entry in json.loads(out)["entries"]:
        js_validate(entry, CATALOG_SCHEMA)


def test_catalog_example():
    code, out = _run("catalog", "E", "--params", "p=1", "--format", "json")
    assert json.loads(out) == {"name": "E", "params": {"p": 1}, "twist": 0,
                               "shift": 0, "heart": ["O[1]", "O(1)[-2]"], "bounded": True}


def test_catalog_diagram():
    code, out = _run("catalog", "F", "--params", "p=0", "--diagram")
    assert code == 0
    assert "][" in out


def test_check_stability_pass_and_fail_codes():
    code, out = _run("check", "stability", "--stability", "exc", "--k", "0",
                     "--p", "inf", "--window", "5", "--format", "json")
    assert code == 0
    report = json.loads(out)
    js_validate(report, REPORT_SCHEMA)
    assert report["ok"]
    code, out = _run("check", "stability", "--stability", "std", "--window", "4")
    assert code == 0 and "PASS" in out


def test_check_stability_with_no_samples_fails():
    code, out = _run("check", "stability", "--stability", "std", "--window", "2",
                     "--samples", "0")
    assert code == 1
    assert "FAIL hn_random_objects: no cases examined" in out


def test_negative_window_or_samples_is_usage_error():
    for argv in (("check", "stability", "--window", "-3"),
                 ("check", "stability", "--samples", "-1"),
                 ("check", "cut", "--cut", "exc:a=1,b=-1", "--window", "-1"),
                 ("compare", "--fine", "std", "--weak", "coarse", "--window", "-2")):
        code, out = _run(*argv, "--format", "json")
        assert code == 2, argv
        assert json.loads(out)["error"].startswith("--"), argv
        code, out = _run(*argv)
        assert code == 2 and out.startswith("error: --"), argv


def test_check_cut_codes():
    code, _ = _run("check", "cut", "--cut", "exc:a=0,b=-2", "--k", "0", "--p", "0")
    assert code == 0
    code, _ = _run("check", "cut", "--cut", "exc:a=0,b=-inf", "--k", "0", "--p", "0")
    assert code == 1
    code, _ = _run("check", "cut", "--cut", "exc:a=0,b=-inf", "--k", "0", "--p", "inf")
    assert code == 0


def test_truncate_command():
    code, out = _run("truncate", "O(3) + O(-2)", "--cut", "exc:a=2,b=0",
                     "--k", "0", "--p", "0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"le0": "3*O(1)", "ge1": "O(-2) + 2*O(0)[1]"}


def test_heart_command():
    code, out = _run("heart", "--cut", "std:m=0,K=0,P=all", "--contains", "O(-1)[1]",
                     "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["contains"] is True
    assert data["bounded"] is True
    code, out = _run("heart", "--cut", "exc:a=inf,b=-inf", "--k", "0", "--p", "inf",
                     "--format", "json")
    assert json.loads(out)["generators"] == []


def test_compare_command():
    code, out = _run("compare", "--fine", "std", "--weak", "coarse", "--format", "json")
    assert code == 0
    assert json.loads(out)["finer"] is True
    code, out = _run("compare", "--fine", "std", "--weak", "exc:k=0,p=0",
                     "--window", "5", "--format", "json")
    data = json.loads(out)
    assert data["finer"] is False
    assert "O(3)" in data["witnesses"]


def test_window_checks_use_the_declared_point_order():
    code, out = _run("compare", "--fine", "std", "--weak", "exc:k=0,p=0", "--points", "b,a",
                     "--window", "1", "--format", "json")
    assert code == 0
    torsion_labels = {w[2] for w in json.loads(out)["witnesses"] if w.startswith("T(")}
    assert torsion_labels == {"a", "b"}
    for family in ("std", "coarse", "ell"):
        code, out = _run("check", "stability", "--stability", family, "--points", "b,a",
                         "--window", "2", "--samples", "10")
        assert code == 0 and "FAIL" not in out, family
    session = _session("--points", "b,a")
    args = build_parser().parse_args(["check", "stability"])
    assert cli._window_from_args(args, session).points == (Point("b", 0), Point("a", 1))
    assert cli._window_from_args(args, _session()).points == (Point("x"), Point("y"), Point("z"))


def _assert_error(argv, message):
    """The text and the JSON form of a domain error (exit 1)."""
    assert _run(*argv) == (1, f"error: {message}\n"), argv
    code, out = _run(*argv, "--format", "json")
    assert (code, json.loads(out)) == (1, {"error": message}), argv


def test_standard_cut_point_sets():
    code, out = _run("truncate", "T(x,1) + T(y,1) + T(z,1)", "--cut", "std:m=0,K=inf,P=y;z",
                     "--points", "x,y,z", "--format", "json")
    assert (code, json.loads(out)) == (0, {"le0": "T(y,1) + T(z,1)", "ge1": "T(x,1)"})
    code, out = _run("heart", "--cut", "std:m=0,K=inf,P=y;z", "--points", "x,y,z",
                     "--format", "json")
    assert code == 0
    assert json.loads(out)["generators"] == [
        "O_x[0] (x in {y,z})", "O(n)[1] (n in Z)", "O_x[1] (x not in {y,z})"]
    code, out = _run("check", "cut", "--cut", "std:m=0,K=inf,P=x;z", "--points", "x,y,z")
    assert code == 1 and "FAIL cut_constraints: P must be up-closed in the point order" in out
    # the empty point set is the constant threshold m + 1
    code, out = _run("truncate", "T(x,1) + O(3)", "--cut", "std:m=0,K=inf,P=none",
                     "--format", "json")
    assert (code, json.loads(out)) == (0, {"le0": "0", "ge1": "O(3) + T(x,1)"})
    assert _run("check", "cut", "--cut", "std:m=0,K=inf,P=none")[0] == 0
    assert _run("heart", "--cut", "std:m=0,K=inf,P=none") == \
        _run("heart", "--cut", "std:m=1,K=-inf,P=all")


def test_bad_cut_specs_are_domain_errors():
    for spec in ("exc:a=1", "exc:b=1", "exc:"):
        _assert_error(("heart", "--cut", spec, "--p", "0"), "an exceptional cut needs a and b")
    _assert_error(("heart", "--cut", "foo:m=1"),
                  "unknown cut kind 'foo' (use std:, exc: or coarse:)")
    _assert_error(("check", "cut"), "check cut needs --cut")


@pytest.mark.parametrize("line, message", [
    ("points x,y", "{path}:2: expected 'key = value'"),
    ("format = yaml", "{path}:2: format must be text or json"),
    ("colour = red", "{path}:2: unknown key 'colour'"),
    ("seed = x", "seed must be an integer, got 'x' in '{path}:2'"),
], ids=["no-equals", "format", "unknown-key", "seed"])
def test_bad_config_lines_are_domain_errors(line, message, tmp_path):
    cfg = tmp_path / "session.cfg"
    cfg.write_text(f"# session\n{line}\n")
    _assert_error(("normalize", "O(1)", "--config", str(cfg)), message.format(path=cfg))


def test_setting_errors_print_in_the_format_read_so_far(tmp_path):
    """A bad setting prints like any other error: as indented JSON under --format json,
    or under a config's `format = json` read before the bad setting."""
    def as_json(message):
        return json.dumps({"error": message}, indent=2, sort_keys=True) + "\n"

    flag_error = "k must be an integer, got 'x' in '--k'"
    cfg = tmp_path / "session.cfg"
    cfg.write_text("format = json\n")
    assert _run("normalize", "O(1)", "--config", str(cfg), "--k", "x") == (1, as_json(flag_error))
    assert _run("normalize", "O(1)", "--format", "json", "--k", "x") == (1, as_json(flag_error))
    cfg.write_text("format = json\nk = x\n")
    assert _run("normalize", "O(1)", "--config", str(cfg)) == \
        (1, as_json(f"k must be an integer, got 'x' in '{cfg}:2'"))
    cfg.write_text("k = x\nformat = json\n")  # the format line is never read
    assert _run("normalize", "O(1)", "--config", str(cfg)) == \
        (1, f"error: k must be an integer, got 'x' in '{cfg}:1'\n")


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("flag", ["--input", "--config"])
def test_unreadable_files_are_domain_errors(flag, kind, tmp_path):
    path = str(tmp_path / "absent") if kind == "missing" else str(tmp_path)
    reason = "No such file or directory" if kind == "missing" else "Is a directory"
    argv = (("check", "hn", "--input", path) if flag == "--input"
            else ("normalize", "O(1)", "--config", path))
    _assert_error(argv, f"cannot read {path!r}: {reason}")


@pytest.mark.parametrize("flag", ["--input", "--config"])
def test_files_that_are_not_utf8_are_domain_errors(flag, tmp_path):
    path = tmp_path / "latin1"
    path.write_bytes(b"\xffpoints = x\n")
    argv = (("check", "hn", "--input", str(path)) if flag == "--input"
            else ("normalize", "O(1)", "--config", str(path)))
    _assert_error(argv, f"cannot read {str(path)!r}: 'utf-8' codec can't decode byte 0xff "
                        "in position 0: invalid start byte")


@pytest.mark.parametrize("flag", [("--params", "p=1"), ("--diagram",)], ids=["params", "diagram"])
def test_catalog_flags_need_a_name(flag):
    message = f"{flag[0]} needs a catalog NAME"
    assert _run("catalog", *flag) == (2, f"error: {message}\n")
    code, out = _run("catalog", *flag, "--format", "json")
    assert (code, json.loads(out)) == (2, {"error": message})


def test_config_file_sets_point_order(tmp_path):
    cfg = tmp_path / "session.cfg"
    cfg.write_text("# session\npoints = b,a\nk = 0\np = 0\nformat = json\n")
    code, out = _run("hn", "T(a,1) + T(b,1)", "--stability", "std",
                     "--config", str(cfg))
    assert code == 0
    data = json.loads(out)
    order = [q["slope"]["level"]["point"] for q in data["quotients"]]
    assert order == ["b", "a"]
    # flags override the file
    code, out = _run("hn", "T(a,1) + T(b,1)", "--stability", "std",
                     "--config", str(cfg), "--points", "a,b")
    assert [q["slope"]["level"]["point"] for q in json.loads(out)["quotients"]] == ["a", "b"]


def test_undeclared_point_rejected_when_universe_fixed():
    code, out = _run("normalize", "T(q,1)", "--points", "x,y", "--format", "json")
    assert code == 1
    assert "error" in json.loads(out)


def test_usage_errors_exit_2():
    code, _ = _run("hn", "O(1)")  # missing --stability
    assert code == 2
    code, _ = _run("frobnicate")
    assert code == 2


def test_seed_determinism():
    a = _run("check", "stability", "--stability", "std", "--window", "4", "--seed", "9")
    b = _run("check", "stability", "--stability", "std", "--window", "4", "--seed", "9")
    assert a == b


# --- one reader per setting ------------------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (("hn", "O(3)", "--stability", "exc", "--k", "1_0"),
     "k must be an integer, got '1_0' in '--k'"),
    (("hn", "O(3)", "--stability", "exc", "--k", " \u0663"),
     "k must be an integer, got ' \u0663' in '--k'"),
    (("hn", "O(3)", "--stability", "exc", "--k", "x"), "k must be an integer, got 'x' in '--k'"),
    (("check", "stability", "--seed", "0_7"), "seed must be an integer, got '0_7' in '--seed'"),
    (("check", "stability", "--seed", "x"), "seed must be an integer, got 'x' in '--seed'"),
], ids=["k-underscore", "k-non-ascii", "k-text", "seed-underscore", "seed-text"])
def test_setting_flags_are_read_like_config_lines(argv, message):
    _assert_error(argv, message)


@pytest.mark.parametrize("argv", [
    ("check", "stability", "--window", "1_0", "--samples", "0_1"),
    ("check", "stability", "--samples", " 3"),
    ("compare", "--fine", "std", "--weak", "coarse", "--window", "\u0663"),
    ("hom", "O(0)", "O(2)", "--degree", " 0_0"),
], ids=["window-samples", "samples-space", "compare-window", "degree"])
def test_subcommand_integers_take_plain_integers_only(argv, capsys):
    for fmt in ((), ("--format", "json")):
        assert _run(*argv, *fmt) == (2, ""), fmt
        assert "invalid int value" in capsys.readouterr().err


def test_an_empty_points_flag_declares_no_order(tmp_path):
    cfg = tmp_path / "session.cfg"
    cfg.write_text("points = b,a\n")
    assert _session("--config", str(cfg)).points == ("b", "a")
    assert _session("--config", str(cfg), "--points", "").points == ()
    code, out = _run("hn", "T(a,1) + T(b,1)", "--stability", "std", "--config", str(cfg),
                     "--points", "", "--format", "json")
    assert code == 0
    assert [q["slope"]["level"]["point"] for q in json.loads(out)["quotients"]] == ["a", "b"]


_SETTING_TEXTS = {
    "points": ("b,a", "x, y ,,z", "", ","),
    "k": ("3", "-2", "+0", "x", "1_0", "1.5", "inf", "\u0663", "3 4"),
    "p": ("0", "7", "inf", "-1", "-inf", "x", "0_1", "2.0"),
    "format": ("text", "json", "yaml", "JSON"),
    "seed": ("7", "-7", "0_7", "x", "inf"),
}


def _setting_outcome(read, where):
    try:
        return "ok", read()
    except Exception as exc:  # the outcome is compared, so any error class counts
        return type(exc), str(exc).replace(where, "<where>")


@pytest.mark.parametrize("key, text", [(key, text) for key, texts in _SETTING_TEXTS.items()
                                       for text in texts])
def test_a_setting_reads_the_same_as_a_config_line_and_as_a_flag(key, text, tmp_path):
    cfg = tmp_path / "session.cfg"
    cfg.write_text(f"{key} = {text}\n")
    line = _setting_outcome(lambda: load_config(str(cfg))[key], f"{cfg}:1")
    flag = _setting_outcome(lambda: getattr(make_session(argparse.Namespace(**{key: text})), key),
                            f"--{key}")
    assert line == flag


def test_closed_stdout_exits_1_without_a_traceback():
    paths = (str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    read_end, write_end = os.pipe()
    os.close(read_end)  # stdout's reader is gone before the command writes
    try:
        done = subprocess.run([sys.executable, "-m", "tstab", "catalog", "--format", "json"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


# --- family registry ------------------------------------------------------------------

def _session(*flags):
    return make_session(build_parser().parse_args(["normalize", "0", *flags]))


def test_family_specs_round_trip_through_descriptors():
    bounds = {"0": 0, "2": 2, "inf": INF}
    for flags, points in (((), ()), (("--points", "z,x,y"), ("z", "x", "y"))):
        session = _session(*flags)
        expected = {"std": StandardP1(points), "coarse": CoarseZ(),
                    "ell": EllipticStandard(points)}
        expected.update({f"exc:k={k},p={p}": ExceptionalP1(k, bounds[p])
                         for k in (-1, 0, 1) for p in bounds})
        for spec, family in expected.items():
            assert parse_famspec(spec, session) == family, spec
            assert family_from_descriptor(family.descriptor()) == family, spec
        for k in (-1, 0, 1):
            for p in bounds:
                exc_session = _session(*flags, "--k", str(k), "--p", p)
                assert parse_famspec("exc", exc_session) == ExceptionalP1(k, bounds[p])
                cut_family = parse_cutspec("exc:a=0,b=-inf", exc_session)[1]
                assert cut_family == parse_famspec("exc", exc_session)
        for cut, kind in (("std:m=0,K=2", "std"), ("coarse:m=1", "coarse")):
            assert parse_cutspec(cut, session)[1] == parse_famspec(kind, session)


def test_bad_family_specs_keep_their_error_texts():
    unknown = "unknown family 'foo' (use std, coarse, exc:k=..,p=.. or ell)"
    for spec, message in (("exc:p=-1", "p must be nonnegative or inf"), ("foo", unknown)):
        for side in ("--fine", "--weak"):
            other = "--weak" if side == "--fine" else "--fine"
            assert _run("compare", side, spec, other, "std") == (1, f"error: {message}\n")
            code, out = _run("compare", side, spec, other, "std", "--format", "json")
            assert (code, json.loads(out)) == (1, {"error": message})


def test_spec_fields_are_never_silently_ignored():
    cases = [
        (("heart", "--cut", "coarse:m=1,K=2"), "unknown cut field 'K' in 'coarse:m=1,K=2'"),
        (("heart", "--cut", "std:m=1,Q=2"), "unknown cut field 'Q' in 'std:m=1,Q=2'"),
        (("heart", "--cut", "exc:a=1,b=-1,k=2", "--p", "0"),
         "unknown cut field 'k' in 'exc:a=1,b=-1,k=2'"),
        (("heart", "--cut", "std:m=1,m=2"), "repeated cut field 'm' in 'std:m=1,m=2'"),
        (("heart", "--cut", "std:m"), "bad cut field 'm' in 'std:m'"),
        (("compare", "--fine", "exc:k=1,q=2", "--weak", "std"),
         "unknown family field 'q' in 'exc:k=1,q=2'"),
        (("compare", "--fine", "std", "--weak", "exc:k"), "bad family field 'k' in 'exc:k'"),
        (("compare", "--fine", "exc:p=1,p=2", "--weak", "std"),
         "repeated family field 'p' in 'exc:p=1,p=2'"),
        (("compare", "--fine", "std:k=1", "--weak", "coarse"),
         "unknown family field 'k' in 'std:k=1'"),
    ]
    for argv, message in cases:
        assert _run(*argv) == (1, f"error: {message}\n"), argv
        code, out = _run(*argv, "--format", "json")
        assert (code, json.loads(out)) == (1, {"error": message}), argv


@pytest.mark.parametrize("argv, message", [
    (("compare", "--fine", "exc:k=x", "--weak", "std"),
     "k must be an integer, got 'x' in 'exc:k=x'"),
    (("heart", "--cut", "std:m=x"), "m must be an integer, got 'x' in 'std:m=x'"),
    (("heart", "--cut", "exc:a=1.5,b=0"),
     "a must be an integer or inf or -inf, got '1.5' in 'exc:a=1.5,b=0'"),
    (("check", "cut", "--cut", "std:m=1,K=x"),
     "K must be an integer or inf or -inf, got 'x' in 'std:m=1,K=x'"),
    (("hn", "O(1)", "--stability", "exc", "--p", "x"),
     "p must be an integer or inf, got 'x' in '--p'"),
    (("catalog", "E", "--params", "p=1.5"), "p must be an integer or inf, got '1.5' in 'E:p=1.5'"),
], ids=["family-k", "cut-m", "cut-a", "cut-K", "flag-p", "catalog-p"])
def test_integer_fields_name_the_field_and_the_spec(argv, message):
    assert _run(*argv) == (1, f"error: {message}\n")
    code, out = _run(*argv, "--format", "json")
    assert (code, json.loads(out)) == (1, {"error": message})


def test_catalog_parameters_are_spec_fields():
    assert _run("catalog", "A", "--params", "p=1") == \
        (1, "error: unknown parameter field 'p' in 'A:p=1'\n")
    assert _run("catalog", "E", "--params", "p=1", "--params", "p=2") == \
        (1, "error: repeated parameter field 'p' in 'E:p=1,p=2'\n")
    assert _run("catalog", "D", "--params", "P=y;z")[0] == 0


def _check_hn(doc, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return _run("check", "hn", "--input", str(path), "--format", "json")


def _check_hn_is_domain_error(doc, tmp_path):
    code, out = _check_hn(doc, tmp_path)
    assert code == 1 and set(json.loads(out)) == {"error"}, out
    return json.loads(out)["error"]


@pytest.mark.parametrize("family", [
    {"family": "exceptional", "k": 1.5, "p": 2.7},
    {"family": "exceptional", "k": True, "p": 0},
    {"family": "standard", "point_order": "zyx"},
    {"family": "standard", "point_order": ["x", "x"]},
], ids=["float-k-p", "bool-k", "string-order", "repeated-label"])
def test_family_descriptor_fields_are_not_coerced(family, tmp_path):
    with pytest.raises(ValueError):
        family_from_descriptor(family)
    doc = {"object": "O(3)", "family": family, "quotients": [], "terms": ["O(3)", "0"]}
    _check_hn_is_domain_error(doc, tmp_path)


def test_check_hn_rejects_a_fractional_twist(tmp_path):
    _, out = _run("hn", "O(3)", "--stability", "exc", "--k", "0", "--p", "0", "--format", "json")
    doc = json.loads(out)
    doc["family"]["k"] = 0.9
    assert _check_hn_is_domain_error(doc, tmp_path) == "k must be an integer, got 0.9"


def test_check_hn_rejects_labels_outside_the_declared_order(tmp_path):
    _, out = _run("hn", "T(y,1) + T(x,1)", "--stability", "std", "--points", "y,x",
                  "--format", "json")
    doc = json.loads(out)
    doc["family"]["point_order"] = ["y"]
    assert _check_hn_is_domain_error(doc, tmp_path) == \
        "undeclared point label 'x' (at position 0)"


def _hn_json(*argv):
    return json.loads(_run("hn", *argv, "--format", "json")[1])


_BY_SHIFT_DOC = json.loads(json.dumps(
    coarsen(StandardP1(), by_shift_partition()).hn(line(3) + line(0, 1)).to_json()))


@pytest.mark.parametrize("doc, path, value, message", [
    (_hn_json("O(3)", "--stability", "coarse"), ("shift",), 0.7,
     "slope field 'shift' must be an integer, got 0.7"),
    (_hn_json("O(3)", "--stability", "coarse"), ("shift",), "0",
     "slope field 'shift' must be an integer, got '0'"),
    (_hn_json("O(3)", "--stability", "std"), ("level", "int"), 3.9,
     "slope field 'level.int' must be an integer, got 3.9"),
    (_hn_json("O(3)", "--stability", "exc"), ("col",), True,
     "slope field 'col' must be an integer, got True"),
    (_BY_SHIFT_DOC, ("block",), 0.5,
     "slope field 'block' must be a decimal integer string, got 0.5"),
    (_BY_SHIFT_DOC, ("block",), "x",
     "slope field 'block' must be a decimal integer string, got 'x'"),
    (_hn_json("S(1,0,x)", "--stability", "ell"), ("mu",), "5",
     "slope field 'mu' is '5', but S(1,0,x) has slope '0'"),
    (_hn_json("S(1,3,x)", "--stability", "ell"), ("class",), "S(1,\u0663,x)",
     "bad stable class 'S(1,\u0663,x)'"),
], ids=["coarse-float-shift", "coarse-string-shift", "std-float-int", "exc-bool-col",
        "float-block", "text-block", "ell-mu", "ell-non-ascii-degree"])
def test_slope_fields_are_not_coerced(doc, path, value, message, tmp_path):
    assert _check_hn(doc, tmp_path)[0] == 0
    doc = json.loads(json.dumps(doc))
    slope = doc["quotients"][0]["slope"]
    for key in path[:-1]:
        slope = slope[key]
    slope[path[-1]] = value
    assert _check_hn_is_domain_error(doc, tmp_path) == message


# --- fuzzing ---------------------------------------------------------------------

_HN_DOCS = [json.loads(_run("hn", expr, *flags, "--format", "json")[1]) for expr, flags in (
    ("O(3) + T(x,2) + 2*O(-4)[2]", ("--stability", "exc", "--k", "1", "--p", "2")),
    ("T(c,2) + T(a,1)[1] + O(0) + 3*O(-1)[1]", ("--stability", "std", "--points", "c,b,a")),
    ("2*S(2,1,l) + S(0,1,m)[1] + S(1,-3,n)[-1]", ("--stability", "ell")),
)]
_JUNK = st.one_of(  # fresh copies: a drawn value may be mutated later
    st.sampled_from([None, True, 0, -1, 1.5, "", "x", [], {}, [1, 2], {"a": 1}]).map(
        lambda value: json.loads(json.dumps(value))),
    st.text(max_size=8))
_STRAY = st.sampled_from(list("()[]*+,0123456789OTSxyz-") + [" ", "\t", "\n", " ", "é", "٣"])


def _value_slots(value):
    """(container, key) of every value nested in a JSON document."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    slots = []
    for key, child in items:
        slots.append((value, key))
        slots.extend(_value_slots(child))
    return slots


@st.composite
def mutated_documents(draw):
    """A real `hn --format json` document, mangled a few times, as JSON text.

    Strings (mostly object expressions) are cut short or get a stray
    character or whitespace; values change type; fields go missing.
    """
    doc = json.loads(json.dumps(draw(st.sampled_from(_HN_DOCS))))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("mangle", "mangle", "mangle", "retype", "drop")))
        slots = _value_slots(doc)
        if op == "mangle":
            slots = [(box, key) for box, key in slots if isinstance(box[key], str)]
            if slots:
                box, key = draw(st.sampled_from(slots))
                text = box[key]
                i = draw(st.integers(0, len(text)))
                cut = draw(st.sampled_from(("truncate", "insert", "delete")))
                box[key] = (text[:i] if cut == "truncate" else
                            text[:i] + draw(_STRAY) + text[i:] if cut == "insert" else
                            text[:i] + text[i + 1:])
        elif op == "retype":
            if slots and draw(st.integers(0, 9)):
                box, key = draw(st.sampled_from(slots))
                box[key] = draw(_JUNK)
            else:
                doc = draw(_JUNK)
        else:
            slots = [(box, key) for box, key in slots if isinstance(box, dict)]
            if slots:
                box, key = draw(st.sampled_from(slots))
                del box[key]
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]  # cut off mid-document
    return text


def _assert_clean_exit(argv, stdin_text=None):
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        code, out = _run(*argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2), (argv, stdin_text, out)
    if "--format" in argv and code != 2:
        payload = json.loads(out)
        if code == 0:
            assert payload.get("ok", True) is True
        else:
            assert set(payload) == {"error"} or payload.get("ok") is False, out
    return code, out


@settings(max_examples=150, deadline=None)
@given(mutated_documents(), st.booleans())
def test_check_hn_fuzzed_documents_exit_cleanly(text, as_json):
    argv = ["check", "hn"] + (["--format", "json"] if as_json else [])
    code, out = _assert_clean_exit(argv, text)
    if not as_json and code == 1 and not out.startswith("error: "):
        assert "FAIL" in out


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_HN_DOCS), st.data())
def test_object_expressions_fuzzed_exit_cleanly(doc, data):
    text = doc["object"]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(text)))
        text = text[:i] + data.draw(st.just("") | _STRAY) + text[i + 1:]
    stability = "ell" if text.count("S") > text.count("O") + text.count("T") else "std"
    for argv in (["normalize", text], ["hn", text, "--stability", stability]):
        _assert_clean_exit(argv + ["--format", "json"])
