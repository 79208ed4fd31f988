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
from sperner.cli import _build_parser, main


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
        (("--n", "39", "--k", "8", "--method", "latin-lift"), [23, 1472]),
        (("--n", "40", "--k", "8", "--method", "extend"), [23, 1472]),
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


@pytest.mark.parametrize(
    "method, n, k, size", [("k2", 29, 2, "37,442,160"), ("latin-lift", 60, 3, "1,162,261,467")]
)
def test_construct_forced_plan_over_the_cap_gets_no_note(capsys, method, n, k, size):
    # the forced rule applies here, so there is nothing for a note to say
    code, out, err = run(capsys, "construct", "--n", str(n), "--k", str(k), "--method", method)
    assert (code, out) == (64, "")
    assert err == f"error: the planned system has {size} partitions, over the cap of 1,000,000\n"


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
    "argv, error",
    [
        (("--n", "5", "--k", "3", "--table", "--max-n", "6"), "error: --table takes no --n\n"),
        (("--n", "5", "--k", "3", "--max-n", "6"), "error: --max-n requires --table\n"),
        (("--k", "3", "--max-n", "6"), "error: --max-n requires --table\n"),
    ],
    ids=["n-with-table", "max-n-without-table", "max-n-alone"],
)
def test_bounds_refuses_an_option_it_would_ignore(capsys, argv, error):
    # --n says nothing to a table and --max-n nothing to one (n, k)
    assert run(capsys, "bounds", *argv) == (64, "", error)


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

    monkeypatch.setattr(sperner.search, "_candidate_rows", no_enumeration)
    code, out, err = run(capsys, "search", "--n", "7", "--k", "3", "--time-limit", "nan")
    assert code == 64
    assert out == ""
    assert "NaN" in err


def test_search_oversized_is_usage_error(capsys, monkeypatch):
    import sperner.search

    def no_enumeration(*args):
        raise AssertionError("enumerated a search over the cap")

    monkeypatch.setattr(sperner.search, "_candidate_rows", no_enumeration)
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


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (("construct", "--n", "2301", "--k", "2"), "error: the planned system has "),
        (("construct", "--n", "2301", "--k", "2", "--method", "k2"), "error: the planned system has "),
        (("search", "--n", "1400", "--k", "3"), "error: the search has "),
    ],
    ids=["construct", "construct-k2", "search"],
)
def test_refusals_word_numbers_past_the_int_digit_limit(argv, refusal):
    # C(2300,1149) partitions and 1400-element candidate counts pass 640 digits;
    # main lifts the limit, so each command words its own refusal
    env = dict(child_env(False), PYTHONINTMAXSTRDIGITS="640")
    done = subprocess.run(
        [sys.executable, "-m", "sperner.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert (done.returncode, done.stdout) == (64, "")
    assert done.stderr.startswith(refusal) and done.stderr.count("\n") == 1, done.stderr


def test_only_bounds_lifts_the_int_digit_limit(capsys, tmp_path, int_digit_limit_640):
    code, out, _ = run(capsys, "bounds", "--n", "2300", "--k", "2")
    assert code == 0 and out.startswith(f"SP(2300,2): lower {SP_2300_2}, ")
    # main also runs in-process, so the caller's limit is restored
    assert sys.get_int_max_str_digits() == 640
    # a table's rows are rendered as main writes them, with the limit still lifted
    code, out, _ = run(capsys, "bounds", "--k", "2", "--table", "--max-n", "2300")
    assert code == 0 and out.splitlines()[-1].split() == ["2300", "2", SP_2300_2, SP_2300_2, "exact"]
    assert sys.get_int_max_str_digits() == 640
    document = tmp_path / "long-token.txt"
    document.write_text("2 2 1\n0|" + "1" * 5000 + "\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(document))
    assert (code, out) == (1, "")
    assert err.startswith("parse error: line 2, column 3: bad element token '1111")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_document_of_many_write_chunks_is_byte_identical(tmp_path, unbuffered):
    # 480,540 characters: main and -o encode and write 65,536 at a time
    from sperner import construct_auto

    doc = serialize(construct_auto(17, 2))
    assert len(doc) > 4 * 65_536
    target = tmp_path / "k2.txt"
    argv = [sys.executable, "-m", "sperner.cli", "construct", "--n", "17", "--k", "2"]
    done = subprocess.run(argv, capture_output=True, env=child_env(unbuffered), timeout=120)
    assert (done.returncode, done.stderr, done.stdout) == (0, b"", doc.encode("utf-8"))
    done = subprocess.run([*argv, "-o", str(target)], capture_output=True, env=child_env(unbuffered), timeout=120)
    assert (done.returncode, done.stderr, done.stdout) == (0, b"", b"")
    assert target.read_bytes() == doc.encode("utf-8")


def test_utf16_stdout_gets_one_byte_order_mark(tmp_path):
    # one incremental encoder writes every chunk, so the mark opens the
    # output once; -o files are UTF-8 whatever stdout's encoding
    from sperner import construct_auto

    doc = serialize(construct_auto(17, 2))
    target = tmp_path / "k2.txt"
    env = dict(child_env(False), PYTHONIOENCODING="utf-16")
    argv = [sys.executable, "-m", "sperner.cli", "construct", "--n", "17", "--k", "2"]
    done = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == doc.encode("utf-16")
    assert done.stdout.count(b"\xff\xfe") == 1 and done.stdout.startswith(b"\xff\xfe")
    done = subprocess.run([*argv, "-o", str(target)], capture_output=True, env=env, timeout=120)
    assert (done.returncode, done.stderr, done.stdout) == (0, b"", b"")
    assert target.read_bytes() == doc.encode("utf-8")


def test_construct_to_file_succeeds_without_stdout(tmp_path):
    # nothing goes to stdout, so a missing stdout costs the command nothing
    target = tmp_path / "c.txt"
    done = run_cli(("construct", "--n", "8", "--k", "3", "-o", str(target)), False, fd1_closed=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert verify_sperner(parse(target.read_text(encoding="utf-8"))).valid


# Help, usage and error texts at 80 columns, as argparse words them in
# Python 3.10 to 3.12 (see pinned_text for 3.13).  The first five errors
# are unknown options after the required arguments, which the top-level
# parser reports; the rest are unknown options before them, which the
# subcommand's own parser reports with its usage.
CLI_TEXTS = {
    ("--help",): (
        0,
        (
            "usage: sperner [-h] {construct,verify,bounds,search,fixtures} ...\n"
            "\n"
            "Sperner k-partition systems toolbox\n"
            "\n"
            "positional arguments:\n"
            "  {construct,verify,bounds,search,fixtures}\n"
            "    construct           build a system for (n, k)\n"
            "    verify              verify a system document\n"
            "    bounds              best-known bounds for SP(n, k)\n"
            "    search              exhaustive maximum-system search\n"
            "    fixtures            bundled reference systems\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
    ),
    ("construct", "--help"): (
        0,
        (
            "usage: sperner construct [-h] --n N --k K\n"
            "                         [--method {auto,k2,dev-2k1,dev-2k2,dev-3k1,latin-lift,extend}]\n"
            "                         [-o OUTPUT] [--format {text,json}]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --n N\n"
            "  --k K\n"
            "  --method {auto,k2,dev-2k1,dev-2k2,dev-3k1,latin-lift,extend}\n"
            "                        force the first step of the planned route (auto: plan\n"
            "                        every step)\n"
            "  -o OUTPUT, --output OUTPUT\n"
            "                        write the document here instead of stdout\n"
            "  --format {text,json}\n"
        ),
        "",
    ),
    ("verify", "--help"): (
        0,
        (
            "usage: sperner verify [-h] [--report] file\n"
            "\n"
            "positional arguments:\n"
            "  file\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --report    list every violation\n"
        ),
        "",
    ),
    ("bounds", "--help"): (
        0,
        (
            "usage: sperner bounds [-h] [--n N] --k K [--table] [--max-n MAX_N]\n"
            "\n"
            "options:\n"
            "  -h, --help     show this help message and exit\n"
            "  --n N\n"
            "  --k K\n"
            "  --table        print a table for n = k..max-n\n"
            "  --max-n MAX_N\n"
        ),
        "",
    ),
    ("search", "--help"): (
        0,
        (
            "usage: sperner search [-h] --n N --k K [--time-limit TIME_LIMIT]\n"
            "                      [--target TARGET] [--exact] [--symmetry] [-o OUTPUT]\n"
            "                      [--format {text,json}]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --n N\n"
            "  --k K\n"
            "  --time-limit TIME_LIMIT\n"
            "  --target TARGET\n"
            "  --exact               run to a proven optimum\n"
            "  --symmetry            symmetry-reduced search; this is the default, the flag\n"
            "                        is kept for compatibility\n"
            "  -o OUTPUT, --output OUTPUT\n"
            "                        write the best system found to this file\n"
            "  --format {text,json}\n"
        ),
        "",
    ),
    ("fixtures", "--help"): (
        0,
        (
            "usage: sperner fixtures [-h] {list,emit} ...\n"
            "\n"
            "positional arguments:\n"
            "  {list,emit}\n"
            "    list       list bundled systems\n"
            "    emit       write one bundled system\n"
            "\n"
            "options:\n"
            "  -h, --help   show this help message and exit\n"
        ),
        "",
    ),
    ("fixtures", "list", "--help"): (
        0,
        (
            "usage: sperner fixtures list [-h]\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
        ),
        "",
    ),
    ("fixtures", "emit", "--help"): (
        0,
        (
            "usage: sperner fixtures emit [-h] [-o OUTPUT] [--format {text,json}] name\n"
            "\n"
            "positional arguments:\n"
            "  name\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  -o OUTPUT, --output OUTPUT\n"
            "  --format {text,json}\n"
        ),
        "",
    ),
    ("construct", "--n", "8", "--k", "3", "--bogus"): (
        64,
        "",
        (
            "usage: sperner [-h] {construct,verify,bounds,search,fixtures} ...\n"
            "error: unrecognized arguments: --bogus\n"
        ),
    ),
    ("verify", "doc.txt", "--bogus"): (
        64,
        "",
        (
            "usage: sperner [-h] {construct,verify,bounds,search,fixtures} ...\n"
            "error: unrecognized arguments: --bogus\n"
        ),
    ),
    ("bounds", "--k", "3", "--bogus"): (
        64,
        "",
        (
            "usage: sperner [-h] {construct,verify,bounds,search,fixtures} ...\n"
            "error: unrecognized arguments: --bogus\n"
        ),
    ),
    ("search", "--n", "7", "--k", "3", "--bogus"): (
        64,
        "",
        (
            "usage: sperner [-h] {construct,verify,bounds,search,fixtures} ...\n"
            "error: unrecognized arguments: --bogus\n"
        ),
    ),
    ("fixtures", "list", "--bogus"): (
        64,
        "",
        (
            "usage: sperner [-h] {construct,verify,bounds,search,fixtures} ...\n"
            "error: unrecognized arguments: --bogus\n"
        ),
    ),
    ("construct", "--bogus"): (
        64,
        "",
        (
            "usage: sperner construct [-h] --n N --k K\n"
            "                         [--method {auto,k2,dev-2k1,dev-2k2,dev-3k1,latin-lift,extend}]\n"
            "                         [-o OUTPUT] [--format {text,json}]\n"
            "error: the following arguments are required: --n, --k\n"
        ),
    ),
    ("verify", "--bogus"): (
        64,
        "",
        (
            "usage: sperner verify [-h] [--report] file\n"
            "error: the following arguments are required: file\n"
        ),
    ),
    ("bounds", "--bogus"): (
        64,
        "",
        (
            "usage: sperner bounds [-h] [--n N] --k K [--table] [--max-n MAX_N]\n"
            "error: the following arguments are required: --k\n"
        ),
    ),
    ("search", "--bogus"): (
        64,
        "",
        (
            "usage: sperner search [-h] --n N --k K [--time-limit TIME_LIMIT]\n"
            "                      [--target TARGET] [--exact] [--symmetry] [-o OUTPUT]\n"
            "                      [--format {text,json}]\n"
            "error: the following arguments are required: --n, --k\n"
        ),
    ),
    ("fixtures", "--bogus"): (
        64,
        "",
        (
            "usage: sperner fixtures [-h] {list,emit} ...\n"
            "error: the following arguments are required: fixtures_command\n"
        ),
    ),
    ("fixtures", "emit", "--bogus"): (
        64,
        "",
        (
            "usage: sperner fixtures emit [-h] [-o OUTPUT] [--format {text,json}] name\n"
            "error: the following arguments are required: name\n"
        ),
    ),
}


def run_at_80_columns(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    return run(capsys, *argv)


def pinned_text(argv):
    """CLI_TEXTS[argv] as this Python's argparse words it.

    From 3.13 argparse lists an option's metavar once, as -o, --output
    OUTPUT, and that line is then short enough to hold its help.
    """
    code, out, err = CLI_TEXTS[argv]
    if sys.version_info >= (3, 13):
        out = out.replace("-o OUTPUT, --output OUTPUT\n" + " " * 24, "-o, --output OUTPUT   ")
        out = out.replace("-o OUTPUT, --output OUTPUT", "-o, --output OUTPUT")
    return code, out, err


@pytest.mark.parametrize("argv", list(CLI_TEXTS), ids=" ".join)
def test_help_usage_and_error_texts_are_pinned(monkeypatch, capsys, argv):
    assert run_at_80_columns(monkeypatch, capsys, argv) == pinned_text(argv)


def eager_parser_texts(monkeypatch, capsys, argv):
    """The exit code, stdout and stderr of the CLI's parser run on argv by itself, without main."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(list(argv))
    out, err = capsys.readouterr()
    return exc.value.code, out, err


# main builds the parser, every subcommand's arguments with it, and passes
# its help, usage and error texts and exit code on unchanged
@pytest.mark.parametrize("argv", list(CLI_TEXTS), ids=" ".join)
def test_lazy_arguments_give_the_texts_of_an_eager_parser(monkeypatch, capsys, argv):
    texts = run_at_80_columns(monkeypatch, capsys, argv)
    assert texts == eager_parser_texts(monkeypatch, capsys, argv)
    assert texts[1:] != ("", "")


@pytest.mark.parametrize(
    "argv, error",
    [(("nope",), "argument command: invalid choice: 'nope'"), ((), "the following arguments are required: command")],
    ids=["nope", "no-arguments"],
)
def test_an_unknown_or_missing_command_is_a_usage_error(monkeypatch, capsys, argv, error):
    # the list of choices after an invalid one is worded differently across
    # Python patch releases, so the pin stops before it
    code, out, err = run_at_80_columns(monkeypatch, capsys, argv)
    assert (code, out) == (64, "")
    assert err.startswith(f"usage: sperner [-h] {{construct,verify,bounds,search,fixtures}} ...\nerror: {error}")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_construct_writes_the_serialized_system(tmp_path, fmt):
    # (19,2) is 2,056,656 characters of text: the header and 15 chunks of
    # lines, which main and -o write one at a time as they are rendered
    from sperner import construct_auto

    doc = serialize(construct_auto(19, 2), fmt=fmt).encode("utf-8")
    if fmt == "text":
        assert doc.startswith(b"# name: auto(19,2)\n19 2 43758\n") and len(doc) == 2_056_656
    argv = [sys.executable, "-m", "sperner.cli", "construct", "--n", "19", "--k", "2", "--format", fmt]
    done = subprocess.run(argv, capture_output=True, env=child_env(False), timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == doc
    target = tmp_path / f"k2.{fmt}"
    done = subprocess.run([*argv, "-o", str(target)], capture_output=True, env=child_env(False), timeout=120)
    assert (done.returncode, done.stderr, done.stdout) == (0, b"", b"")
    assert target.read_bytes() == doc


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_reader_closing_after_the_first_line_stops_construct(unbuffered):
    # the reader leaves while the document is still being rendered
    with subprocess.Popen(
        [sys.executable, "-m", "sperner.cli", "construct", "--n", "19", "--k", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(unbuffered),
    ) as child:
        assert child.stdout.readline() == b"# name: auto(19,2)\n"
        child.stdout.close()
        assert child.wait(timeout=120) == 1
        assert child.stderr.read() == b""
