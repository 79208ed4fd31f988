"""Command-line interface.

Subcommands: construct, verify, bounds, search, fixtures.  Exit codes are
stable: 0 success, 1 parse error or stdout output that could not be
delivered (the reader closed the pipe, or the process started without
stdout), 2 invalid system, 3 search budget exhausted, 64 usage error (an
-o path that cannot be written is one).  Result output goes to stdout and
is byte-stable across runs; timing diagnostics go to stderr.  Every handler
returns its exit code and its stdout text as chunks, and `main` alone
writes stdout, a chunk at a time: a document (formats._chunks) or a bounds
table is rendered as it is written, so no command holds all its output.
It prints a handler's ValueError as `error: ...` with exit 64.  But for
verify, Python's int-to-str digit limit stays lifted through the write.
Each handler imports the modules it runs, so a process loads only what
its subcommand needs: bounds loads only the bounds module, and construct
and verify never load the search.
"""

from __future__ import annotations

import argparse
import codecs
import os
import sys
from collections.abc import Iterable
from itertools import chain

EX_OK = 0
EX_PARSE = 1
EX_INVALID = 2
EX_BUDGET = 3
EX_USAGE = 64

# characters of output encoded and written at a time
_CHUNK = 1 << 16

# construct --method -> (the bounds rule it forces as the first step, what that rule requires)
_METHODS = {
    "auto": (None, None),
    "k2": ("k2", "k = 2 and odd n >= 3"),
    "dev-2k1": ("rotational-2k1", "n = 2k+1 with k even"),
    "dev-2k2": ("rotational-2k2", "n = 2k+2 with k >= 3"),
    "dev-3k1": ("rotational-3k1", "n = 3k-1 with k >= 4"),
    "latin-lift": ("latin-lift", "n >= 2k"),
    "extend": ("extend", "n >= k+1"),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that exits 64 on a usage error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sperner", description="Sperner k-partition systems toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a system for (n, k)")
    c.set_defaults(handler=_cmd_construct)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument(
        "--method",
        choices=list(_METHODS),
        default="auto",
        help="force the first step of the planned route (auto: plan every step)",
    )
    c.add_argument("-o", "--output", help="write the document here instead of stdout")
    c.add_argument("--format", choices=["text", "json"], default="text")

    v = sub.add_parser("verify", help="verify a system document")
    v.set_defaults(handler=_cmd_verify)
    v.add_argument("file")
    v.add_argument("--report", action="store_true", help="list every violation")

    b = sub.add_parser("bounds", help="best-known bounds for SP(n, k)")
    b.set_defaults(handler=_cmd_bounds)
    b.add_argument("--n", type=int)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--table", action="store_true", help="print a table for n = k..max-n")
    b.add_argument("--max-n", type=int, dest="max_n")

    s = sub.add_parser("search", help="exhaustive maximum-system search")
    s.set_defaults(handler=_cmd_search)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--time-limit", type=float, dest="time_limit")
    s.add_argument("--target", type=int)
    s.add_argument("--exact", action="store_true", help="run to a proven optimum")
    s.add_argument(
        "--symmetry",
        action="store_true",
        help="symmetry-reduced search; this is the default, the flag is kept for compatibility",
    )
    s.add_argument("-o", "--output", help="write the best system found to this file")
    s.add_argument("--format", choices=["text", "json"], default="text")

    f = sub.add_parser("fixtures", help="bundled reference systems")
    f.set_defaults(handler=_cmd_fixtures)
    fsub = f.add_subparsers(dest="fixtures_command", required=True)
    fsub.add_parser("list", help="list bundled systems")
    fe = fsub.add_parser("emit", help="write one bundled system")
    fe.add_argument("name")
    fe.add_argument("-o", "--output")
    fe.add_argument("--format", choices=["text", "json"], default="text")

    return parser


def _write(stream, chunks: Iterable[str], encoding: str, errors: str = "strict") -> None:
    """Write text chunks to a binary stream, each encoded a bounded piece at a time.

    One incremental encoder serves every piece, so an encoding with a byte
    order mark writes it once, and no encoded copy of the whole text is
    made.  A raw stream (an unbuffered stdout) may take part of a piece, so
    the rest is written again until none is left.
    """
    encode = codecs.getincrementalencoder(encoding)(errors).encode
    for text in chunks:
        for start in range(0, len(text), _CHUNK):
            _put(stream, encode(text[start : start + _CHUNK]))
    _put(stream, encode("", True))


def _put(stream, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[stream.write(view) :]


def _emit(system, output: str | None, fmt: str) -> tuple[int, Iterable[str]]:
    """The document as stdout chunks, or written to output as UTF-8; an unwritable output is a usage error."""
    from .formats import _chunks

    chunks = _chunks(system, fmt)
    if not output:
        return EX_OK, chunks
    try:
        with open(output, "wb") as fh:
            _write(fh, chunks, "utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE, ()
    return EX_OK, ()


def _cmd_construct(args) -> tuple[int, Iterable[str]]:
    from .construct import construct_auto, plan_construction

    rule, requirement = _METHODS[args.method]
    try:
        system = construct_auto(args.n, args.k, first=rule)
    except ValueError as exc:
        if requirement:  # a plan over the cap was made, so its rule applies and needs no note
            try:
                plan_construction(args.n, args.k, first=rule)
            except ValueError:
                raise ValueError(f"{exc}\nnote: --method {args.method} requires {requirement}") from None
        raise
    return _emit(system, args.output, args.format)


def _cmd_verify(args) -> tuple[int, Iterable[str]]:
    from .formats import ParseError, parse
    from .model import format_report, verify_sperner

    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_PARSE, ()
    except UnicodeDecodeError as exc:
        print(f"parse error: not UTF-8 text: {exc.reason} at byte {exc.start}", file=sys.stderr)
        return EX_PARSE, ()
    try:
        system = parse(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EX_PARSE, ()
    del text  # the document is not needed once parsed, so verification runs without it
    report = verify_sperner(system)
    if report.valid or args.report:
        out = format_report(system, report)
    else:
        out = (
            f"invalid: {len(report.violations)} violations, "
            f"{len(report.wellformed_errors)} well-formedness errors"
        )
    return (EX_OK if report.valid else EX_INVALID), [out + "\n"]


def _cmd_bounds(args) -> tuple[int, Iterable[str]]:
    from .bounds import bounds_table, sp_bounds

    k = args.k
    if args.table != (args.max_n is not None):
        raise ValueError("--table requires --max-n" if args.table else "--max-n requires --table")
    if args.table == (args.n is not None):
        raise ValueError("--table takes no --n" if args.table else "--n is required without --table")
    if args.table:
        rows = bounds_table(k, args.max_n)  # refuses k < 1 here; each row comes as main writes
        lines = chain(
            [f"{'n':>4} {'k':>4} {'lower':>12} {'upper':>12}  status"],
            (f"{n:>4} {k:>4} {lo:>12} {up:>12}  {'exact' if lo == up else 'open'}" for n, lo, up in rows),
        )
    else:
        result = sp_bounds(args.n, k)
        status = "exact" if result.exact else "open"
        lines = [f"SP({args.n},{k}): lower {result.lower}, upper {result.upper} ({status})"]
        lines += (f"  lower <- {rule}: {detail}" for rule, detail in result.lower_provenance)
        lines += (f"  upper <- {rule}: {detail}" for rule, detail in result.upper_provenance)
    return EX_OK, (f"{line}\n" for line in lines)


def _cmd_search(args) -> tuple[int, Iterable[str]]:
    from .search import solve_sp

    outcome = solve_sp(
        args.n, args.k, time_budget=args.time_limit, target=None if args.exact else args.target
    )
    print(
        f"nodes {outcome.nodes_explored}, elapsed {outcome.elapsed:.2f}s, "
        f"root bound {outcome.root_bound}",
        file=sys.stderr,
    )
    proof = "proven maximum" if outcome.proven_optimal else "not proven maximum"
    out = f"SP({args.n},{args.k}) search: size {outcome.size} ({proof})\n"
    if args.output:
        written, _ = _emit(outcome.best, args.output, args.format)
        if written != EX_OK:
            return written, [out]
    # --exact ignores the target, so only a proof ends it successfully
    target_met = not args.exact and args.target is not None and outcome.size >= args.target
    return (EX_OK if outcome.proven_optimal or target_met else EX_BUDGET), [out]


def _cmd_fixtures(args) -> tuple[int, Iterable[str]]:
    from .fixtures import fixture_names, load_fixture

    if args.fixtures_command == "list":
        systems = ((name, load_fixture(name)) for name in fixture_names())
        return EX_OK, ["".join(f"{name}: n={s.n} k={s.k} partitions={len(s)}\n" for name, s in systems)]
    try:
        system = load_fixture(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EX_USAGE, ()
    return _emit(system, args.output, args.format)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    # SP(n, 2) passes the 4300-digit int-to-str limit near n = 14,300: lift it
    # (0) but for verify, whose reader refuses a longer token, until the output
    # is written, as a table's rows are rendered during the write; then restore
    # the caller's, as main also runs in-process.  Python before 3.10.7 has none.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    if args.command != "verify":
        set_limit(0)
    try:
        code, out = args.handler(args)
    except ValueError as exc:  # a refused argument
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    else:
        out = iter(out)
        first = next(out, None)
        if first is None:  # nothing to print
            return code
        if sys.stdout is None:  # the process started without stdout, so the output goes nowhere
            return EX_PARSE
        chunks = chain([first], out)
        try:
            if not hasattr(sys.stdout, "buffer"):  # a text-only stream, such as io.StringIO
                sys.stdout.writelines(chunks)
                return code
            sys.stdout.flush()
            # bytes: the text layer drops the rest of a short write to an unbuffered stdout
            _write(sys.stdout.buffer, chunks, sys.stdout.encoding, sys.stdout.errors)
            sys.stdout.buffer.flush()
        except BrokenPipeError:
            # The reader closed stdout.  Point it at devnull, as the Python docs
            # advise, so the flush at interpreter exit cannot raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EX_PARSE
        return code
    finally:
        set_limit(limit)


if __name__ == "__main__":
    raise SystemExit(main())
