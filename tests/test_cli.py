import contextlib
import io
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from sperner import load_fixture, parse, serialize, verify_sperner
from sperner.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixtures_list(capsys):
    code, out, _ = run(capsys, "fixtures", "list")
    assert code == 0
    assert "fig-7-3: n=7 k=3 partitions=5" in out
    assert "fig-10-4: n=10 k=4 partitions=10" in out


def test_fixtures_emit_roundtrip(capsys, tmp_path):
    target = tmp_path / "sys.txt"
    code, _, _ = run(capsys, "fixtures", "emit", "fig-9-4", "-o", str(target))
    assert code == 0
    assert parse(target.read_text()) == load_fixture("fig-9-4")


def test_fixtures_emit_unknown_name(capsys):
    code, _, err = run(capsys, "fixtures", "emit", "fig-99")
    assert code == 64
    assert "unknown fixture" in err


def test_construct_writes_verified_document(capsys, tmp_path):
    target = tmp_path / "out.txt"
    code, _, _ = run(capsys, "construct", "--n", "9", "--k", "4", "-o", str(target))
    assert code == 0
    system = parse(target.read_text())
    assert (system.n, system.k, len(system)) == (9, 4, 8)


def test_construct_17_8_matches_bundled_system(capsys):
    code, out, _ = run(capsys, "construct", "--n", "17", "--k", "8")
    assert code == 0
    assert parse(out) == load_fixture("fig-17-8").with_name("auto(17,8)")


@pytest.mark.parametrize(
    "argv, sizes",
    [
        (("--n", "39", "--k", "8", "--method", "latin-lift"), [23, 184, 1472]),
        (("--n", "40", "--k", "8", "--method", "extend"), [23, 184, 1472, 1472]),
    ],
)
def test_construct_step_method_verifies_each_system_once(capsys, monkeypatch, argv, sizes):
    import sperner.construct

    seen = []

    def counting_verify(system):
        seen.append(len(system))
        return verify_sperner(system)

    monkeypatch.setattr(sperner.construct, "verify_sperner", counting_verify)
    code, out, _ = run(capsys, "construct", *argv)
    assert code == 0
    assert len(parse(out)) == sizes[-1]
    assert seen == sizes


def test_construct_json_format(capsys):
    code, out, _ = run(capsys, "construct", "--n", "8", "--k", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 8 and len(doc["partitions"]) == 8


@pytest.mark.parametrize(
    "method, n, k, requirement",
    [
        ("auto", 3, 4, "n < k"),
        ("k2", 9, 4, "requires k = 2 and odd n >= 3"),
        ("k2", 8, 2, "requires k = 2 and odd n >= 3"),
        ("dev-2k1", 7, 3, "requires n = 2k+1 with k even"),
        ("dev-2k2", 6, 2, "requires n = 2k+2 with k >= 3"),
        ("dev-3k1", 9, 4, "requires n = 3k-1"),
        ("dev-3k1", 8, 3, "requires n = 3k-1 with k >= 4"),
        ("latin-lift", 7, 4, "requires n >= 2k"),
        ("extend", 4, 4, "requires n >= k+1"),
    ],
)
def test_construct_method_mismatch_is_usage_error(capsys, method, n, k, requirement):
    code, out, err = run(capsys, "construct", "--n", str(n), "--k", str(k), "--method", method)
    assert code == 64
    assert out == ""
    assert requirement in err


@pytest.mark.parametrize(
    "method, n, k, name",
    [
        ("auto", 9, 4, "auto(9,4)"),
        ("k2", 7, 2, "construct_k2(7)"),
        ("dev-2k1", 13, 6, "construct_2k1(6)"),
        ("dev-2k2", 10, 4, "construct_2k2(4)"),
        ("dev-3k1", 11, 4, "construct_3k1(4)"),
        ("latin-lift", 10, 3, "latin-lift(10,3)"),
        ("extend", 8, 3, "extend(8,3)"),
    ],
)
def test_construct_method_names_the_system(capsys, method, n, k, name):
    code, out, _ = run(capsys, "construct", "--n", str(n), "--k", str(k), "--method", method)
    assert code == 0
    assert out.splitlines()[0] == f"# name: {name}"


def test_construct_oversized_plan_is_usage_error(capsys, monkeypatch):
    import sperner.construct

    def no_build(*args):
        raise AssertionError("built a system over the cap")

    # C(28,13) = 37,442,160 partitions are planned and refused before any is built
    monkeypatch.setattr(sperner.construct, "construct_k2", no_build)
    code, out, err = run(capsys, "construct", "--n", "29", "--k", "2")
    assert code == 64
    assert out == ""
    assert "37,442,160 partitions" in err


def test_construct_k_below_one_is_usage_error(capsys):
    code, out, err = run(capsys, "construct", "--n", "3", "--k", "0")
    assert code == 64
    assert out == ""
    assert "k >= 1" in err
    assert "n < k" not in err


def test_construct_unknown_method_is_usage_error(capsys):
    code, _, _ = run(capsys, "construct", "--n", "9", "--k", "4", "--method", "bogus")
    assert code == 64


def test_construct_explicit_methods(capsys):
    for argv, expected in [
        (("--n", "7", "--k", "2", "--method", "k2"), 15),
        (("--n", "13", "--k", "6", "--method", "dev-2k1"), 12),
        (("--n", "10", "--k", "4", "--method", "dev-2k2"), 9),
        (("--n", "11", "--k", "4", "--method", "dev-3k1"), 11),
        (("--n", "10", "--k", "3", "--method", "latin-lift"), 15),
        (("--n", "8", "--k", "3", "--method", "extend"), 5),
    ]:
        code, out, _ = run(capsys, "construct", *argv)
        assert code == 0
        assert len(parse(out)) == expected, argv


def test_verify_valid_exit_0(capsys, tmp_path):
    target = tmp_path / "good.txt"
    run(capsys, "fixtures", "emit", "fig-7-3", "-o", str(target))
    code, out, _ = run(capsys, "verify", str(target))
    assert code == 0
    assert "valid" in out


def test_verify_invalid_exit_2_with_report(capsys, tmp_path):
    target = tmp_path / "bad.txt"
    target.write_text("4 2 2\n0,1|2,3\n0,1|2,3\n")
    code, out, _ = run(capsys, "verify", str(target), "--report")
    assert code == 2
    assert "equals" in out


def test_verify_invalid_exit_2_counts_without_report(capsys, tmp_path):
    target = tmp_path / "bad.txt"
    target.write_text("4 2 2\n0,1|2,3\n0,1|2,3\n")
    code, out, _ = run(capsys, "verify", str(target))
    assert code == 2
    assert out == "invalid: 4 violations, 0 well-formedness errors\n"


def test_verify_parse_error_exit_1(capsys, tmp_path):
    target = tmp_path / "broken.txt"
    target.write_text("7 3 1\n0,1|2,3|4,5\n")
    code, _, err = run(capsys, "verify", str(target))
    assert code == 1
    assert "element 6 uncovered" in err


def test_verify_non_utf8_file_is_a_parse_error(capsys, tmp_path):
    target = tmp_path / "latin1.txt"
    target.write_bytes(b"\xff 3 1 1\n0,1,2\n")
    code, out, err = run(capsys, "verify", str(target))
    assert code == 1
    assert out == ""
    assert err == "parse error: not UTF-8 text: invalid start byte at byte 0\n"


def test_verify_missing_file_exit_1(capsys):
    code, _, _ = run(capsys, "verify", "/nonexistent/file.txt")
    assert code == 1


def test_bounds_single(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "9", "--k", "4")
    assert code == 0
    assert "SP(9,4): lower 8, upper 8 (exact)" in out


def test_bounds_open_interval(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "11", "--k", "4")
    assert code == 0
    assert "lower 11, upper 27 (open)" in out


def test_bounds_table(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "3", "--table", "--max-n", "9")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:] if line.strip()]
    assert ["7", "3", "5", "5", "exact"] in rows
    assert ["8", "3", "8", "9", "open"] in rows


def test_bounds_table_requires_max_n(capsys):
    code, _, err = run(capsys, "bounds", "--k", "3", "--table")
    assert code == 64
    assert "--max-n" in err


def test_bounds_requires_n_without_table(capsys):
    code, out, err = run(capsys, "bounds", "--k", "3")
    assert code == 64
    assert out == ""
    assert err == "error: --n is required without --table\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "0", "--k", "3"),
        ("--k", "0", "--table", "--max-n", "4"),
        ("--k", "-3", "--table", "--max-n", "-5"),
    ],
)
def test_bounds_non_positive_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "bounds", *argv)
    assert code == 64
    assert out == ""
    assert "n and k must be positive" in err


def test_search_exact_ignores_met_target(capsys):
    # the greedy seed meets the target at once, but --exact asks for a proof
    argv = ["--n", "8", "--k", "3", "--exact", "--target", "5", "--time-limit", "0.001"]
    code, out, _ = run(capsys, "search", *argv)
    assert code == 3
    assert "(not proven maximum)" in out


def test_search_exact_small(capsys):
    code, out, err = run(capsys, "search", "--n", "6", "--k", "3", "--exact")
    assert code == 0
    assert "size 5 (proven maximum)" in out
    assert "nodes" in err


def test_search_target_met(capsys):
    code, out, _ = run(capsys, "search", "--n", "7", "--k", "3", "--target", "5")
    assert code == 0
    assert "size 5" in out


def test_search_budget_exhausted_exit_3(capsys):
    # proving SP(10,4) = 10 takes far longer; a one-second budget must cut it off
    code, out, _ = run(capsys, "search", "--n", "10", "--k", "4", "--time-limit", "1")
    assert code == 3
    assert "not proven" in out


def test_search_nan_time_limit_is_usage_error(capsys, monkeypatch):
    # every comparison with NaN is false, so a NaN budget would never expire
    import sperner.search

    def no_enumeration(*args):
        raise AssertionError("enumerated a search with a NaN budget")

    monkeypatch.setattr(sperner.search, "enumerate_partitions", no_enumeration)
    code, out, err = run(capsys, "search", "--n", "7", "--k", "3", "--time-limit", "nan")
    assert code == 64
    assert out == ""
    assert "NaN" in err


def test_search_oversized_is_usage_error(capsys, monkeypatch):
    import sperner.search

    def no_enumeration(*args):
        raise AssertionError("enumerated a search over the cap")

    monkeypatch.setattr(sperner.search, "enumerate_partitions", no_enumeration)
    code, out, err = run(capsys, "search", "--n", "12", "--k", "4", "--target", "16")
    assert code == 64
    assert out == ""
    assert "302,995 candidates" in err and "11,475,935,625 bytes" in err


def test_search_refuses_n_below_2k(capsys):
    code, out, err = run(capsys, "search", "--n", "5", "--k", "3")
    assert code == 64
    assert out == ""
    assert err == "error: no candidates: n=5 cannot hold 3 classes of size >= 2\n"


def test_search_has_no_class_size_option(capsys):
    # a singleton class never helps, so the class-size floor is the constant 2
    code, out, err = run(capsys, "search", "--n", "7", "--k", "3", "--min-class-size", "2")
    assert code == 64
    assert out == ""
    assert "unrecognized arguments: --min-class-size 2" in err
    code, out, _ = run(capsys, "search", "--help")
    assert code == 0
    assert "--min-class-size" not in out


def test_search_writes_witness(capsys, tmp_path):
    target = tmp_path / "witness.txt"
    code, _, _ = run(capsys, "search", "--n", "5", "--k", "2", "--exact", "-o", str(target))
    assert code == 0
    system = parse(target.read_text())
    assert (system.n, system.k, len(system)) == (5, 2, 4)


def test_search_deterministic_stdout(capsys):
    _, out1, _ = run(capsys, "search", "--n", "6", "--k", "3", "--exact")
    _, out2, _ = run(capsys, "search", "--n", "6", "--k", "3", "--exact")
    assert out1 == out2


def test_usage_error_on_unknown_flag(capsys):
    code, _, _ = run(capsys, "bounds", "--n", "9", "--k", "4", "--frobnicate")
    assert code == 64


def test_usage_error_on_missing_subcommand(capsys):
    code, _, _ = run(capsys, "--n", "9")
    assert code == 64


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--n", "8", "--k", "3"),
        ("search", "--n", "7", "--k", "3", "--exact"),
        ("fixtures", "emit", "fig-8-3"),
    ],
    ids=["construct", "search", "fixtures-emit"],
)
def test_unwritable_output_is_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x.txt"
    code, _, err = run(capsys, *argv, "-o", str(target))
    assert code == 64
    assert err.splitlines()[-1].startswith("error: ") and str(target) in err
    assert "Traceback" not in err
    assert not target.exists()


def child_env(unbuffered):
    """The environment of a CLI child process, with or without PYTHONUNBUFFERED."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_cli(argv, unbuffered, fd1_closed=False):
    """Run the CLI in a child process whose stdout cannot be delivered.

    stdout is either a pipe whose read end is closed before the CLI starts,
    so the first write that reaches it fails whatever the pipe's buffer size,
    or, with fd1_closed, no file at all: Python then gives the process no
    sys.stdout.
    """
    cli = [sys.executable, "-m", "sperner.cli", *argv]
    kwargs = dict(stderr=subprocess.PIPE, env=child_env(unbuffered), text=True, timeout=120)
    if fd1_closed:
        return subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *cli], stdout=subprocess.DEVNULL, **kwargs)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(cli, stdout=write_end, **kwargs)
    finally:
        os.close(write_end)


PRINTING_COMMANDS = {
    "bounds": ("bounds", "--n", "9", "--k", "4"),
    "bounds-table": ("bounds", "--k", "3", "--table", "--max-n", "3000"),
    "search": ("search", "--n", "7", "--k", "3", "--exact"),
    "verify": ("verify",),
    "fixtures-list": ("fixtures", "list"),
    "construct": ("construct", "--n", "8", "--k", "3"),
    "fixtures-emit": ("fixtures", "emit", "fig-8-3"),
}


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv, fd1_closed",
    [
        pytest.param(argv, fd1_closed, id=f"{name}-fd1-closed" if fd1_closed else name)
        for fd1_closed in (False, True)
        for name, argv in PRINTING_COMMANDS.items()
    ],
)
def test_closed_stdout_exits_1_without_traceback(tmp_path, argv, fd1_closed, unbuffered):
    # a command whose stdout output goes nowhere fails, however stdout was closed
    witness = tmp_path / "w.txt"
    if argv[0] == "search":
        argv = (*argv, "-o", str(witness))
    if argv[0] == "verify":
        document = tmp_path / "valid.txt"
        document.write_text(serialize(load_fixture("fig-8-3")), encoding="utf-8")
        argv = (*argv, str(document))
    done = run_cli(argv, unbuffered, fd1_closed)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr
    if argv[0] == "search":
        assert done.stderr.startswith("nodes ") and done.stderr.count("\n") == 1
        # the search finished, so its witness is written whatever stdout does
        assert witness.read_text(encoding="utf-8").splitlines()[1] == "7 3 5"
    else:
        assert done.stderr == ""


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_reader_closing_mid_write_exits_1(unbuffered):
    # 2.5 MB of table, far more than a pipe buffers, to a reader that leaves
    # after 10 bytes: the write is cut short, which an unbuffered stdout's
    # text layer does not report
    with subprocess.Popen(
        [sys.executable, "-m", "sperner.cli", "bounds", "--k", "3", "--table", "--max-n", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(unbuffered),
    ) as child:
        assert len(child.stdout.read(10)) == 10
        child.stdout.close()
        assert child.wait(timeout=120) == 1
        assert child.stderr.read() == b""


def test_text_only_stdout_gets_the_output():
    # an in-process caller may swap sys.stdout for a stream with no binary layer
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["bounds", "--n", "9", "--k", "4"])
    assert (code, out.getvalue().splitlines()[0]) == (0, "SP(9,4): lower 8, upper 8 (exact)")


# SP(2300,2) = C(2299,1149), the k | n value, has 691 digits
SP_2300_2 = str(comb(2299, 1149))


@pytest.mark.parametrize(
    "argv", [("--n", "2300", "--k", "2"), ("--k", "2", "--table", "--max-n", "2300")], ids=["single", "table"]
)
def test_bounds_prints_values_past_the_int_digit_limit(argv):
    # the child may convert ints of at most 640 digits
    lower = SP_2300_2
    assert len(lower) == 691
    env = dict(child_env(False), PYTHONINTMAXSTRDIGITS="640")
    done = subprocess.run(
        [sys.executable, "-m", "sperner.cli", "bounds", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    if argv[0] == "--n":
        assert done.stdout.startswith(f"SP(2300,2): lower {lower}, upper {lower} (exact)\n")
    else:
        assert done.stdout.splitlines()[-1].split() == ["2300", "2", lower, lower, "exact"]


@pytest.fixture
def int_digit_limit_640():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("Python before 3.10.7 has no int-to-str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(before)


def test_only_bounds_lifts_the_int_digit_limit(capsys, tmp_path, int_digit_limit_640):
    code, out, _ = run(capsys, "bounds", "--n", "2300", "--k", "2")
    assert code == 0 and out.startswith(f"SP(2300,2): lower {SP_2300_2}, ")
    # main also runs in-process, so the caller's limit is restored
    assert sys.get_int_max_str_digits() == 640
    document = tmp_path / "long-token.txt"
    document.write_text("2 2 1\n0|" + "1" * 5000 + "\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(document))
    assert (code, out) == (1, "")
    assert err.startswith("parse error: line 2, column 3: bad element token '1111")


def test_construct_to_file_succeeds_without_stdout(tmp_path):
    # nothing goes to stdout, so a missing stdout costs the command nothing
    target = tmp_path / "c.txt"
    done = run_cli(("construct", "--n", "8", "--k", "3", "-o", str(target)), False, fd1_closed=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert verify_sperner(parse(target.read_text(encoding="utf-8"))).valid
