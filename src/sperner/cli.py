"""Command-line interface.

Subcommands: construct, verify, bounds, search, fixtures.  Exit codes are
stable: 0 success, 1 parse error or a closed stdout, 2 invalid system,
3 search budget exhausted, 64 usage error (an -o path that cannot be
written is one).  Result output goes to stdout and is byte-stable across
runs; timing diagnostics go to stderr.  Each handler imports the modules
it runs, so a process loads only what its subcommand needs: bounds loads
only the bounds module, and construct and verify never load the search.
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


def _emit(system, output: str | None, fmt: str) -> int:
    """Write the system's document to output, or to stdout; an unwritable output is a usage error."""
    from .formats import serialize

    doc = serialize(system, fmt=fmt)
    if not output:
        if sys.stdout is None:  # the process started with stdout closed
            return EX_PARSE
        sys.stdout.write(doc)
        return EX_OK
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(doc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    return EX_OK


def _cmd_construct(args) -> int:
    from .construct import construct_auto

    rule, requirement = _METHODS[args.method]
    try:
        system = construct_auto(args.n, args.k, first=rule)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if requirement:
            print(f"note: --method {args.method} requires {requirement}", file=sys.stderr)
        return EX_USAGE
    return _emit(system, args.output, args.format)


def _cmd_verify(args) -> int:
    from .formats import ParseError, parse
    from .model import format_report, verify_sperner

    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_PARSE
    except UnicodeDecodeError as exc:
        print(f"parse error: not UTF-8 text: {exc.reason} at byte {exc.start}", file=sys.stderr)
        return EX_PARSE
    try:
        system = parse(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EX_PARSE
    report = verify_sperner(system)
    if report.valid:
        print(format_report(system, report))
        return EX_OK
    if args.report:
        print(format_report(system, report))
    else:
        print(
            f"invalid: {len(report.violations)} violations, "
            f"{len(report.wellformed_errors)} well-formedness errors"
        )
    return EX_INVALID


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


def _cmd_bounds(args) -> int:
    from .bounds import bounds_table

    k = args.k
    if args.table and args.max_n is None:
        print("error: --table requires --max-n", file=sys.stderr)
        return EX_USAGE
    if not args.table and args.n is None:
        print("error: --n is required without --table", file=sys.stderr)
        return EX_USAGE
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
        return EX_USAGE
    for line in lines:
        print(line)
    return EX_OK


def _cmd_search(args) -> int:
    from .search import solve_sp

    try:
        outcome = solve_sp(
            args.n, args.k, time_budget=args.time_limit, target=None if args.exact else args.target
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    # stderr and the witness file first, so both go out even if stdout is closed
    print(
        f"nodes {outcome.nodes_explored}, elapsed {outcome.elapsed:.2f}s, "
        f"root bound {outcome.root_bound}",
        file=sys.stderr,
    )
    written = _emit(outcome.best, args.output, args.format) if args.output else EX_OK
    print(f"SP({args.n},{args.k}) search: size {outcome.size}", end=" ")
    print("(proven maximum)" if outcome.proven_optimal else "(not proven maximum)")
    if written != EX_OK:
        return written
    # --exact ignores the target, so only a proof ends it successfully
    target_met = not args.exact and args.target is not None and outcome.size >= args.target
    if outcome.proven_optimal or target_met:
        return EX_OK
    return EX_BUDGET


def _cmd_fixtures(args) -> int:
    from .fixtures import fixture_names, load_fixture

    if args.fixtures_command == "list":
        for name in fixture_names():
            system = load_fixture(name)
            print(f"{name}: n={system.n} k={system.k} partitions={len(system)}")
        return EX_OK
    if args.fixtures_command == "emit":
        if args.name not in fixture_names():
            print(
                f"error: unknown fixture {args.name!r}; available: {', '.join(fixture_names())}",
                file=sys.stderr,
            )
            return EX_USAGE
        return _emit(load_fixture(args.name), args.output, args.format)
    return EX_USAGE  # pragma: no cover


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
    try:
        code = handlers[args.command](args)
        if sys.stdout is not None:  # None when the process started without a stdout
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, as the Python docs
        # advise, so the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_PARSE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
