"""Command-line front end: family tables, raw series rows, the
exhaustive oracle, and the full verification suite.

Exit codes: 0 success, 1 verification mismatch, 2 usage or parse
error, 3 resource budget exceeded or census order above the limit, 4 any
other failure, such as a fork that fails, reported as one line
"error: <type>: <message>", 141 (128 + SIGPIPE) when writing the result
finds stdout's reader gone, with nothing on stderr.
"""

import argparse
import csv
import json
import os
import sys

from . import census, oracle, verify

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_CRASH = 4
EXIT_CLOSED_STDOUT = 141


def _write(args, header, rows, payload):
    """Print the rows under their header as CSV, or the payload as JSON, as
    --format asks, and flush: every command prints its result through here.

    A write that finds stdout's reader gone points stdout at devnull, so
    that the exit-time flush stays silent, and exits 141.
    """
    try:
        if args.output_format == "json":
            print(json.dumps(payload, indent=2))
        else:
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return EXIT_OK


def _print_table(args, n_max):
    """Print the row of --family, --k and --l to n_max: table and series share it."""
    table = census.census_table(args.family, n_max, k=args.k, l=args.l)
    values = {str(n): str(value) for n, value in table.entries.items()}
    return _write(args, ["family", "n", "value"],
                  ([table.family, n, value] for n, value in values.items()),
                  {"family": table.family, "provenance": "series", "values": values})


def cmd_table(args):
    """Print one family of counts up to --n-max."""
    return _print_table(args, args.n_max)


def cmd_series(args):
    """Print the row of one family to --order, as table prints it to --n-max."""
    if args.order < 0:
        raise ValueError("--order must be nonnegative")
    return _print_table(args, args.order)


def cmd_oracle(args):
    """Run the exhaustive search for one target and size."""
    query = oracle.OracleQuery(
        target=args.target,
        size=args.size,
        bound=args.bound,
        list_solutions=args.list_solutions,
        workers=args.workers,
    )
    result = oracle.solve(query)
    payload = {
        "target": str(args.target),
        "target_name": result.target_name,
        "size": result.size,
        "bound": result.bound,
        "count": str(result.count),
        "bound_touches": str(result.bound_touches),
        "exhaustive_within_bound": result.exhaustive_within_bound,
        "by_last": {str(k): str(v) for k, v in sorted(result.by_last.items())},
    }
    if args.list_solutions:
        payload["solutions"] = result.solutions  # JSON writes each tuple as a list
        return _write(args, [f"a{i}" for i in range(1, result.size + 1)],
                      result.solutions, payload)
    return _write(args, ["target", "size", "bound", "count", "bound_touches",
                         "exhaustive_within_bound"],
                  [[args.target, result.size, result.bound, result.count,
                    result.bound_touches, result.exhaustive_within_bound]], payload)


def cmd_verify(args):
    """Run every cross-check and report pass/fail per check."""
    report = verify.run_verify(max_size=args.max_size, order=args.order,
                               workers=args.workers)
    checks = [{"name": r.name, "passed": r.passed,
               "expected": repr(r.expected), "actual": repr(r.actual)}
              for r in report.results]
    code = _write(args, ["check", "status", "expected", "actual"],
                  ([c["name"], "PASS" if c["passed"] else "FAIL", c["expected"], c["actual"]]
                   for c in checks),
                  {"passed": report.passed, "checks": checks})
    if not report.passed:  # reported even when stdout's reader has gone
        first = report.first_failure
        print(f"first failure: {first.name}: expected {first.expected!r}, "
              f"actual {first.actual!r}", file=sys.stderr)
        return EXIT_MISMATCH
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quiddity",
        description="Count and enumerate positive integer solutions of "
                    "m_n(a_1..a_n) = +/-target over the modular group.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", dest="output_format",
                       choices=("csv", "json"), default="csv",
                       help="output format (default csv)")

    def add_row_command(name, handler, summary, families, size_flag, **size_options):
        """table and series: --family, the size option, --k, --l, --format."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--family", required=True, choices=families)
        p.add_argument(size_flag, type=int, **size_options)
        p.add_argument("--k", type=int, help="row index for U, V, W")
        p.add_argument("--l", type=int, help="second row index for W")
        add_format(p)

    add_row_command("table", cmd_table, "print one family of counts", census.FAMILIES,
                    "--n-max", dest="n_max", required=True, help="largest index n to print")
    add_row_command("series", cmd_series, "print raw series coefficients", census.FAMILIES,
                    "--order", default=12, help="truncation order (default 12)")

    oracle_cmd = sub.add_parser("oracle", help="exhaustive search for one target")
    oracle_cmd.set_defaults(handler=cmd_oracle)
    oracle_cmd.add_argument("--target", required=True,
                            help="Id | S | T | T^-1 | TS | ST | TSTS | STST | "
                                 "generator word | [[a,b],[c,d]]")
    oracle_cmd.add_argument("--size", type=int, required=True,
                            help="tuple length searched")
    oracle_cmd.add_argument("--bound", type=int,
                            help="largest component searched (default: size)")
    oracle_cmd.add_argument("--list", dest="list_solutions", action="store_true",
                            help="emit the solutions, not just the count")
    oracle_cmd.add_argument("--workers", type=int, default=1)
    add_format(oracle_cmd)

    verify_cmd = sub.add_parser("verify", help="run the full cross-check suite")
    verify_cmd.set_defaults(handler=cmd_verify)
    verify_cmd.add_argument("--max-size", dest="max_size", type=int,
                            default=verify.ORACLE_MAX_SIZE,
                            help="largest tuple size for the oracle checks")
    verify_cmd.add_argument("--order", type=int, default=verify.IDENTITY_ORDER,
                            help="identity-suite truncation order (default 32)")
    verify_cmd.add_argument("--workers", type=int, default=1)
    add_format(verify_cmd)
    return parser


def main(argv=None):
    """Parse arguments, dispatch, and return the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ValueError("--workers must be at least 1")
        return args.handler(args)
    except (oracle.ResourceBudgetError, census.OrderLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # any other failure, such as a fork that fails, is no mismatch
        print(f"error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_CRASH


def run():
    raise SystemExit(main())
