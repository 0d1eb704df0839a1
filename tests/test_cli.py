import json
import runpy
import sys

import pytest

from juxtaspec.builtins import builtin_spec
from juxtaspec.cli import MAX_TERMS, main
from juxtaspec.dsl import parse_spec, render_spec, spec_from_json
from juxtaspec.juxtapose import build_grid, juxtapose
from juxtaspec.oracle import MAX_LENGTH
from juxtaspec.series import count_series, format_series
from juxtaspec.spec import Equation, make_spec
from helpers import deep_expr


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_builtin(capsys):
    code, out, _ = run(capsys, "enumerate", "--builtin", "av321", "--terms", "6")
    assert code == 0
    assert out.strip() == "1,1,2,5,14,42,132"


def test_enumerate_matches_library(capsys):
    code, out, _ = run(capsys, "enumerate", "--builtin", "separable", "--terms", "8")
    assert code == 0
    assert out.strip() == format_series(count_series(builtin_spec("separable"), 8))


@pytest.mark.parametrize("terms", (str(MAX_TERMS + 1), "100000000"))
def test_enumerate_terms_over_budget(monkeypatch, capsys, terms):
    """An order above the budget is refused before any counting starts."""
    import juxtaspec.cli as cli

    def never(*args):
        raise AssertionError("count_series must not run")

    monkeypatch.setattr(cli, "count_series", never)
    code, out, err = run(capsys, "enumerate", "--builtin", "av321", "--terms", terms)
    assert code == 2
    assert out == ""
    assert err == f"error: --terms may be at most {MAX_TERMS}\n"


def test_enumerate_negative_terms_refused_before_reading(capsys):
    """Like ``verify --max-len``, a negative order is refused before the
    specification is read."""
    code, out, err = run(capsys, "enumerate", "--spec", "/nonexistent/x.txt", "--terms", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --terms must be nonnegative\n"


def test_verify_negative_max_len_refused_before_reading(capsys):
    code, out, err = run(capsys, "verify", "--spec", "/nonexistent/x.txt", "--cells", "inc",
                         "--max-len", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --max-len must be nonnegative\n"


def test_enumerate_bad_spec_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("C = E +\n")
    code, _, err = run(capsys, "enumerate", "--spec", str(bad))
    assert code == 2
    assert "error" in err


def test_enumerate_spec_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"A = Z\xff\n")
    code, out, err = run(capsys, "enumerate", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")
    assert "can't decode byte 0xff" in err


def test_enumerate_missing_file(capsys):
    code, _, err = run(capsys, "enumerate", "--spec", "/nonexistent/x.txt")
    assert code == 2


def test_enumerate_requires_source(capsys):
    code, _, err = run(capsys, "enumerate")
    assert code == 2


def test_juxtapose_writes_spec(tmp_path, capsys):
    out_path = tmp_path / "jux.txt"
    code, _, _ = run(
        capsys, "juxtapose", "--builtin", "separable",
        "--side", "right", "--dir", "inc", "--out", str(out_path),
    )
    assert code == 0
    spec = parse_spec(out_path.read_text())
    assert count_series(spec, 10) == [1, 1, 2, 6, 24, 115, 609, 3409, 19728, 116692, 701062]


@pytest.mark.parametrize("command", [
    ["complement", "--builtin", "av321"],
    ["juxtapose", "--builtin", "monotone", "--side", "left", "--dir", "dec", "--track", "both"],
])
def test_out_writes_what_spec_reads(tmp_path, capsys, command):
    """--out writes JSON to a .json path and DSL text to any other, as
    --spec reads them: both files read back as the specification printed."""
    code, printed, _ = run(capsys, *command)
    assert code == 0
    for name, read in (("out.json", spec_from_json), ("out.txt", parse_spec)):
        path = tmp_path / name
        assert run(capsys, *command, "--out", str(path)) == (0, "", "")
        assert render_spec(read(path.read_text())) == printed
        code, out, _ = run(capsys, "classify", "--spec", str(path))
        assert code == 0 and out.startswith("regular: ")


def test_juxtapose_stdout_round_trips(capsys):
    code, out, _ = run(capsys, "juxtapose", "--builtin", "monotone", "--side", "right", "--dir", "inc")
    assert code == 0
    spec = parse_spec(out)
    assert count_series(spec, 5) == [1, 1, 2, 5, 12, 27]


def test_juxtapose_grid(capsys):
    code, out, _ = run(capsys, "juxtapose", "--builtin", "monotone", "--grid", "inc|core|inc")
    assert code == 0
    spec = parse_spec(out)
    assert count_series(spec, 4) == [1, 1, 2, 6, 23]


def test_juxtapose_conflicting_flags(capsys):
    code, _, err = run(
        capsys, "juxtapose", "--builtin", "monotone",
        "--grid", "inc|core", "--side", "right",
    )
    assert code == 2
    assert "cannot be combined" in err


def test_juxtapose_grid_refuses_track(capsys):
    # a grid picks the tracking of each step itself; --track would be ignored
    code, out, err = run(
        capsys, "juxtapose", "--builtin", "monotone",
        "--grid", "inc|core|inc", "--track", "both",
    )
    assert code == 2
    assert out == ""
    assert err == "error: --grid cannot be combined with --track\n"


def test_juxtapose_needs_side_and_dir(capsys):
    code, _, err = run(capsys, "juxtapose", "--builtin", "monotone", "--side", "right")
    assert code == 2


def test_juxtapose_insufficient_tracking(capsys):
    code, _, err = run(
        capsys, "juxtapose", "--builtin", "separable", "--side", "left", "--dir", "inc"
    )
    assert code == 2
    assert "leftmost" in err


@pytest.mark.parametrize("side", ("right", "left"))
def test_juxtapose_names_an_unproductive_symbol(tmp_path, capsys, side):
    # R0 derives nothing, so no tracking fits the output; the refusal says why
    path = tmp_path / "unproductive.txt"
    path.write_text("T = ZLR + ZL R0 ZR + R0 T\nR0 = R0\n")
    code, out, err = run(
        capsys, "juxtapose", "--spec", str(path),
        "--side", side, "--dir", "inc", "--track", "right",
    )
    assert code == 2
    assert out == ""
    assert err == "error: non-productive system: no objects derivable for 'R0'\n"


def test_complement_and_reverse_commands(tmp_path, capsys):
    code, out, _ = run(capsys, "complement", "--builtin", "monotone")
    assert code == 0
    assert "ZR Seq(Z) ZL" in out
    path = tmp_path / "rev.txt"
    code, _, _ = run(capsys, "reverse", "--builtin", "av312", "--out", str(path))
    assert code == 0
    spec = parse_spec(path.read_text())
    assert count_series(spec, 6) == [1, 1, 2, 5, 14, 42, 132]


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "--builtin", "monotone")
    assert code == 0
    assert "regular: yes" in out
    code, out, _ = run(capsys, "classify", "--builtin", "av321")
    assert "context-free: yes" in out
    assert "regular: no" in out


def test_verify_pass(tmp_path, capsys):
    path = tmp_path / "jux.txt"
    run(capsys, "juxtapose", "--builtin", "monotone", "--side", "right", "--dir", "inc",
        "--out", str(path))
    code, out, _ = run(
        capsys, "verify", "--spec", str(path), "--cells", "basis:21 | inc", "--max-len", "6"
    )
    assert code == 0
    assert "ok" in out


def test_verify_detects_corruption(tmp_path, capsys):
    jux = render_spec(juxtapose(builtin_spec("monotone"), "right", "inc", "none"))
    # corrupt one equation: an extra atom shifts every later coefficient
    corrupted = jux.replace("E + ZL SZ + ", "E + ZL SZ Z + ", 1)
    assert corrupted != jux
    path = tmp_path / "bad.txt"
    path.write_text(corrupted)
    code, out, _ = run(
        capsys, "verify", "--spec", str(path), "--cells", "basis:21 | inc", "--max-len", "4"
    )
    assert code == 1
    assert "mismatch at size" in out


def test_verify_size_limit(capsys):
    code, _, err = run(
        capsys, "verify", "--builtin", "monotone", "--cells", "inc", "--max-len", str(MAX_LENGTH + 1)
    )
    assert code == 2
    assert err == f"error: --max-len may be at most {MAX_LENGTH}\n"


def test_verify_bad_cells(capsys):
    code, _, err = run(
        capsys, "verify", "--builtin", "monotone", "--cells", "nope", "--max-len", "3"
    )
    assert code == 2


def test_builtins_listing(capsys):
    code, out, _ = run(capsys, "builtins")
    assert code == 0
    assert set(out.split()) == {"av312", "av321", "monotone", "separable"}
    code, out, _ = run(capsys, "builtins", "--show", "monotone")
    assert code == 0
    assert "M = ZLR + ZL Seq(Z) ZR" in out


def test_json_spec_input(tmp_path, capsys):
    from juxtaspec.dsl import spec_to_json

    path = tmp_path / "spec.json"
    path.write_text(spec_to_json(builtin_spec("av312")))
    code, out, _ = run(capsys, "enumerate", "--spec", str(path), "--terms", "5")
    assert code == 0
    assert out.strip() == "1,1,2,5,14,42"


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2


def test_usage_error_then_valid_command_in_one_process(capsys):
    """The parser is built once; a failed parse leaves nothing behind."""
    code, out, err = run(capsys, "juxtapose", "--builtin", "monotone", "--side", "up")
    assert code == 2
    assert out == ""
    assert "invalid choice: 'up'" in err
    code, out, err = run(capsys, "juxtapose", "--builtin", "monotone", "--grid", "inc|core")
    assert code == 0
    assert err == ""
    assert out == render_spec(build_grid(builtin_spec("monotone"), "inc|core"))


def test_json_name_outside_the_dsl_grammar_rejected(tmp_path, capsys):
    # the reverse of this spec would render "A B = ..." which no parser reads
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "root": "A B",
        "equations": [{"lhs": "A B", "rhs": {"kind": "atom", "name": "ZR"}}],
    }))
    code, out, err = run(capsys, "reverse", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "'A B'" in err


def test_deeply_nested_dsl_rejected(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    path.write_text("A = " + "(" * 3000 + "Z" + ")" * 3000 + "\n")
    code, _, err = run(capsys, "enumerate", "--spec", str(path))
    assert code == 2
    assert err.startswith("error: ") and "nested too deeply" in err


@pytest.mark.parametrize("text, message", [
    ("A = Z B + ZR\nB = E + Z\n",
     "mixed terms in 'A': some carry the rightmost marker, others do not (term 1 of 'A', line 1)"),
    ("A = ZR ZR\n",
     "term of 'A' carries the rightmost marker more than once (term 1 of 'A', line 1)"),
])
def test_tracking_refusal_names_term_and_line(tmp_path, capsys, text, message):
    path = tmp_path / "spec.txt"
    path.write_text(text)
    code, out, err = run(capsys, "enumerate", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_deeply_nested_json_rejected(tmp_path, capsys):
    z = '{"kind": "atom", "name": "Z"}'
    rhs = '{"kind": "product", "factors": [%s, ' % z * 3000 + z + "]}" * 3000
    path = tmp_path / "deep.json"
    path.write_text('{"root": "A", "equations": [{"lhs": "A", "rhs": %s}]}' % rhs)
    code, _, err = run(capsys, "enumerate", "--spec", str(path))
    assert code == 2
    assert err.startswith("error: ") and "nested too deeply" in err


def test_json_forward_node_index_rejected(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "root": "A",
        "nodes": [{"kind": "seq", "arg": 1}, {"kind": "atom", "name": "Z"}],
        "equations": [{"lhs": "A", "rhs": 0}],
    }))
    code, out, err = run(capsys, "enumerate", "--spec", str(path))
    assert (code, out, err) == (2, "", "error: node index 1 names no node read before it\n")


@pytest.mark.parametrize("where", ["missing/out.txt", "."])
def test_out_that_cannot_be_written_rejected(tmp_path, capsys, where):
    """A missing directory or a directory as --out is a usage error."""
    out = str(tmp_path / where)
    code, stdout, err = run(capsys, "complement", "--builtin", "av321", "--out", out)
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: cannot write {out}: ")


def test_json_out_of_a_deeply_nested_system_reads_back(monkeypatch, tmp_path, capsys):
    """JSON lists each node once and refers to it by index, so a system of
    any depth is written, and read back by ``--spec``."""
    import juxtaspec.cli as cli
    from juxtaspec.operators import complement

    for depth in (3000, 5000):
        deep = make_spec([Equation("A", deep_expr(depth))])
        out = tmp_path / "deep.json"
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_load_spec", lambda args: deep)
            code, stdout, err = run(capsys, "complement", "--builtin", "av321", "--out", str(out))
        assert (code, stdout, err) == (0, "", "")
        flipped = complement(deep)
        assert spec_from_json(out.read_text()) == flipped
        code, stdout, err = run(capsys, "enumerate", "--spec", str(out), "--terms", "6")
        assert (code, err) == (0, "")
        assert stdout.strip() == format_series(count_series(flipped, 6))


@pytest.mark.parametrize("root", ([1], {"a": 1}, 5, None))
def test_json_root_that_is_not_a_name_rejected(tmp_path, capsys, root):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "root": root,
        "equations": [{"lhs": "A", "rhs": {"kind": "atom", "name": "Z"}}],
    }))
    code, out, err = run(capsys, "enumerate", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: root symbol {root!r} has no equation\n"


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["juxtaspec", "builtins"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("juxtaspec", run_name="__main__")
    assert info.value.code == 0
    assert capsys.readouterr().out.split() == ["av312", "av321", "monotone", "separable"]
