"""Command-line interface.

Subcommands: construct, verify, bounds, search, fixtures.  Exit codes are
stable: 0 success, 1 parse error or stdout output that could not be
delivered (the reader closed the pipe, or the process started without
stdout), 2 invalid system, 3 search budget exhausted, 64 usage error (an
-o path that cannot be written is one).  Result output goes to stdout and
is byte-stable across runs; timing diagnostics go to stderr.  Each handler
returns its exit code and stdout text, and `main` alone writes stdout.
Each handler imports the modules it runs, so a process loads only what
its subcommand needs: bounds loads only the bounds module, and construct
and verify never load the search.
"""

from __future__ import annotations

import argparse
import os
import sys

EX_OK = 0
EX_PARSE = 1
EX_INVALID = 2
EX_BUDGET = 3
EX_USAGE = 64

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
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sperner", description="Sperner k-partition systems toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a system for (n, k)")
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
    v.add_argument("file")
    v.add_argument("--report", action="store_true", help="list every violation")

    b = sub.add_parser("bounds", help="best-known bounds for SP(n, k)")
    b.add_argument("--n", type=int)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--table", action="store_true", help="print a table for n = k..max-n")
    b.add_argument("--max-n", type=int, dest="max_n")

    s = sub.add_parser("search", help="exhaustive maximum-system search")
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
    fsub = f.add_subparsers(dest="fixtures_command", required=True)
    fsub.add_parser("list", help="list bundled systems")
    fe = fsub.add_parser("emit", help="write one bundled system")
    fe.add_argument("name")
    fe.add_argument("-o", "--output")
    fe.add_argument("--format", choices=["text", "json"], default="text")

    return parser


def _emit(system, output: str | None, fmt: str) -> tuple[int, str]:
    """The document as stdout text, or written to output; an unwritable output is a usage error."""
    from .formats import serialize

    doc = serialize(system, fmt=fmt)
    if not output:
        return EX_OK, doc
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(doc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE, ""
    return EX_OK, ""


def _cmd_construct(args) -> tuple[int, str]:
    from .construct import construct_auto

    rule, requirement = _METHODS[args.method]
    try:
        system = construct_auto(args.n, args.k, first=rule)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if requirement:
            print(f"note: --method {args.method} requires {requirement}", file=sys.stderr)
        return EX_USAGE, ""
    return _emit(system, args.output, args.format)


def _cmd_verify(args) -> tuple[int, str]:
    from .formats import ParseError, parse
    from .model import format_report, verify_sperner

    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_PARSE, ""
    except UnicodeDecodeError as exc:
        print(f"parse error: not UTF-8 text: {exc.reason} at byte {exc.start}", file=sys.stderr)
        return EX_PARSE, ""
    try:
        system = parse(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EX_PARSE, ""
    report = verify_sperner(system)
    if report.valid or args.report:
        out = format_report(system, report)
    else:
        out = (
            f"invalid: {len(report.violations)} violations, "
            f"{len(report.wellformed_errors)} well-formedness errors"
        )
    return (EX_OK if report.valid else EX_INVALID), out + "\n"


def _format_bound_line(n: int, k: int) -> list[str]:
    from .bounds import sp_bounds

    result = sp_bounds(n, k)
    status = "exact" if result.exact else "open"
    lines = [f"SP({n},{k}): lower {result.lower}, upper {result.upper} ({status})"]
    for rule, detail in result.lower_provenance:
        lines.append(f"  lower <- {rule}: {detail}")
    for rule, detail in result.upper_provenance:
        lines.append(f"  upper <- {rule}: {detail}")
    return lines


def _cmd_bounds(args) -> tuple[int, str]:
    from .bounds import bounds_table

    k = args.k
    if args.table and args.max_n is None:
        print("error: --table requires --max-n", file=sys.stderr)
        return EX_USAGE, ""
    if not args.table and args.n is None:
        print("error: --n is required without --table", file=sys.stderr)
        return EX_USAGE, ""
    # SP(n, 2) outgrows Python's default 4300-digit int-to-str limit near
    # n = 14,300: lift the limit (0) while writing, and restore it after,
    # since main also runs in-process.  Python before 3.10.7 has none.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
    try:
        if args.table:
            lines = [f"{'n':>4} {'k':>4} {'lower':>12} {'upper':>12}  status"]
            for n, lower, upper in bounds_table(k, args.max_n):
                status = "exact" if lower == upper else "open"
                lines.append(f"{n:>4} {k:>4} {lower:>12} {upper:>12}  {status}")
        else:
            lines = _format_bound_line(args.n, k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE, ""
    finally:
        set_limit(limit)
    return EX_OK, "".join(f"{line}\n" for line in lines)


def _cmd_search(args) -> tuple[int, str]:
    from .search import solve_sp

    try:
        outcome = solve_sp(
            args.n, args.k, time_budget=args.time_limit, target=None if args.exact else args.target
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE, ""
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
            return written, out
    # --exact ignores the target, so only a proof ends it successfully
    target_met = not args.exact and args.target is not None and outcome.size >= args.target
    return (EX_OK if outcome.proven_optimal or target_met else EX_BUDGET), out


def _cmd_fixtures(args) -> tuple[int, str]:
    from .fixtures import fixture_names, load_fixture

    if args.fixtures_command == "list":
        systems = ((name, load_fixture(name)) for name in fixture_names())
        return EX_OK, "".join(f"{name}: n={s.n} k={s.k} partitions={len(s)}\n" for name, s in systems)
    try:
        system = load_fixture(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EX_USAGE, ""
    return _emit(system, args.output, args.format)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    handlers = {
        "construct": _cmd_construct,
        "verify": _cmd_verify,
        "bounds": _cmd_bounds,
        "search": _cmd_search,
        "fixtures": _cmd_fixtures,
    }
    code, out = handlers[args.command](args)
    if not out:
        return code
    if sys.stdout is None:  # the process started without stdout, so the output goes nowhere
        return EX_PARSE
    try:
        if not hasattr(sys.stdout, "buffer"):  # a text-only stream, such as io.StringIO
            sys.stdout.write(out)
            return code
        sys.stdout.flush()
        # bytes: the text layer drops the rest of a short write to an unbuffered stdout
        data = memoryview(out.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[sys.stdout.buffer.write(data) :]
        sys.stdout.buffer.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, as the Python docs
        # advise, so the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_PARSE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
