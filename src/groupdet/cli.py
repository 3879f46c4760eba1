"""Command-line interface: one JSON object on stdout per invocation.

Exit codes: 0 for a computed value or a passing check, 1 for a failing check
or cross-check mismatch, 2 for usage or evaluation errors. Big integers are
rendered as decimal strings. Assignments are comma-separated integers indexed
by group elements in mixed-radix order, last coordinate fastest; for a cyclic
group that is simply the values at residues 0, 1, ..., n-1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .determinant import (
    DEFAULT_BUDGET,
    POOL_BREAK_EVEN_S,
    BudgetExceededError,
    ensure_tables,
    group_determinant,
)
from .groups import format_group_spec, parse_group_spec, split_factors

# Each command imports the modules it runs when it runs, so a call compiles
# only its own path. The commands call search_values, run_divisibility_suite
# and group_determinant through this module's names, which tests and the
# benchmark tracer patch; the first two import their module on first call.


def search_values(*args, **kwargs):
    from .search import search_values

    return search_values(*args, **kwargs)


def run_divisibility_suite(*args, **kwargs):
    from .divisibility import run_divisibility_suite

    return run_divisibility_suite(*args, **kwargs)


def _parse_assignment(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"bad assignment {text!r}; expected comma-separated integers, e.g. '2,0,0,0'"
        ) from None


def _cmd_det(args) -> tuple[int, dict]:
    group = parse_group_spec(args.group)
    ensure_tables(group.orders)
    assign = _parse_assignment(args.assign)
    det = group_determinant(group, assign)
    return 0, {"status": "value", "group": format_group_spec(group), "det": str(det)}


def _cmd_dedekind(args) -> tuple[int, dict]:
    group = parse_group_spec(args.group)
    ensure_tables(group.orders)
    assign = _parse_assignment(args.assign)
    from .factorization import dedekind_product

    det = dedekind_product(group, assign)
    direct = group_determinant(group, assign)
    match = det == direct
    payload = {
        "status": "value" if match else "fail",
        "group": format_group_spec(group),
        "det": str(det),
        "direct_det": str(direct),
        "match": match,
    }
    return (0 if match else 1), payload


def _cmd_factor(args) -> tuple[int, dict]:
    group = parse_group_spec(args.group)
    ensure_tables(group.orders)
    from .factorization import direct_product_factors

    H, K = split_factors(group, args.cut)
    report = direct_product_factors(H, K, _parse_assignment(args.assign))
    payload = {"status": "value" if report.match else "fail", "group": format_group_spec(group)}
    payload.update(report.as_json_dict())
    return (0 if report.match else 1), payload


def _cmd_laquer(args) -> tuple[int, dict]:
    # refuse a huge Z/(r*s) at once; r, s < 1 are left to laquer_factors
    ensure_tables((max(args.r * args.s, 1),))
    from .factorization import laquer_factors

    report = laquer_factors(args.r, args.s, _parse_assignment(args.assign))
    payload = {"status": "value" if report.match else "fail"}
    payload.update(report.as_json_dict())
    return (0 if report.match else 1), payload


def _cmd_verify(args) -> tuple[int, dict]:
    if args.suite != "theorem2":
        raise ValueError(f"unknown suite {args.suite!r}; available: theorem2")
    H = parse_group_spec(args.H)
    summary = run_divisibility_suite(
        H,
        args.l,
        args.box,
        budget=args.budget,
        force=args.force,
        jobs=args.jobs,
    )
    return (0 if summary["status"] == "pass" else 1), summary


def _cmd_search(args) -> tuple[int, dict]:
    group = parse_group_spec(args.group)
    report = search_values(
        group,
        args.box,
        value_cap=args.cap,
        budget=args.budget,
        force=args.force,
        jobs=args.jobs,
        prune=args.prune,
    )
    report.save(args.out)
    return 0, {
        "status": "value",
        "group": format_group_spec(group),
        "box": args.box,
        "counts": {"evaluated": report.evaluated, "distinct": report.distinct},
        "min_even_valuation": report.min_even_valuation,
        "out": args.out,
    }


def _cmd_check(args) -> tuple[int, dict]:
    from .search import (
        SearchReport,
        check_even_divisibility,
        check_membership,
        membership_spec,
        revalidate,
    )

    report = SearchReport.load(args.report)
    if args.revalidate:
        revalidate(report)
    if args.spec is not None:
        result = check_membership(report, membership_spec(args.spec))
    else:
        result = check_even_divisibility(report, args.exponent)
    payload = {
        "status": result.status,
        "group": format_group_spec(report.group),
        "box": report.box,
        "value_cap": None if report.value_cap is None else str(report.value_cap),
    }
    payload.update(result.as_json_dict())
    return (0 if result.status == "pass" else 1), payload


def _cmd_witness(args) -> tuple[int, dict]:
    from .search import find_witness

    group = parse_group_spec(args.group)
    witness = find_witness(group, args.box, args.target, budget=args.budget, force=args.force)
    return 0 if witness is not None else 1, {
        "status": "value" if witness is not None else "fail",
        "group": format_group_spec(group),
        "target": str(args.target),
        "box": args.box,
        "witness": None if witness is None else list(witness),
        "det": None if witness is None else str(args.target),
    }


JOBS_HELP = (
    "worker processes, at least 1, at most the CPU count (default: the CPU count when the "
    f"scan is estimated to take more than {POOL_BREAK_EVEN_S:g} s in one process, else 1; "
    "the estimate counts the points kept under the pruning maps of search --prune and "
    "verify, at a cost per point for the kind of kernel, orbit norms or the split table, "
    "plus one per map)"
)


def _add_common_box_flags(sub) -> None:
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="bound on the box size, on the |G|^2 tables and the steps of the split "
                          "re-check of one point, and on the pruning tables "
                          f"(default {DEFAULT_BUDGET})")
    sub.add_argument("--force", action="store_true",
                     help="run even when the box exceeds the budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupdet",
        description="Integer group determinants of finite abelian groups.",
        epilog=(
            "Groups are cyclic factor lists like '4x2' (Z/4Z x Z/2Z). Assignments list "
            "one integer per group element in mixed-radix order, last coordinate "
            "fastest: for '4x2' that is (0,0),(0,1),(1,0),(1,1),(2,0),(2,1),(3,0),(3,1)."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    det = subs.add_parser("det", help="determinant of one assignment")
    det.add_argument("--group", required=True)
    det.add_argument("--assign", required=True)
    det.set_defaults(func=_cmd_det)

    ded = subs.add_parser("dedekind", help="determinant as the product of all character sums")
    ded.add_argument("--group", required=True)
    ded.add_argument("--assign", required=True)
    ded.set_defaults(func=_cmd_dedekind)

    fac = subs.add_parser("factor", help="factor along a positional split of the factor list")
    fac.add_argument("--group", required=True)
    fac.add_argument("--cut", type=int, required=True,
                     help="split the factor list before this position (1 <= cut < #factors)")
    fac.add_argument("--assign", required=True)
    fac.set_defaults(func=_cmd_factor)

    laq = subs.add_parser("laquer", help="coprime circulant split C_(r*s) = prod of C_r factors")
    laq.add_argument("--r", type=int, required=True)
    laq.add_argument("--s", type=int, required=True)
    laq.add_argument("--assign", required=True,
                     help="x_1,...,x_n with x_(t+1) the value at residue t")
    laq.set_defaults(func=_cmd_laquer)

    ver = subs.add_parser("verify", help="exhaustive divisibility/congruence suite")
    ver.add_argument("--suite", required=True, help="suite name (theorem2)")
    ver.add_argument("--H", required=True, help="base group spec, e.g. '2' or '4'")
    ver.add_argument("--l", type=int, required=True, help="number of Z/2Z factors to append")
    ver.add_argument("--box", type=int, required=True)
    ver.add_argument("--jobs", type=int, default=None, help=JOBS_HELP)
    _add_common_box_flags(ver)
    ver.set_defaults(func=_cmd_verify)

    sea = subs.add_parser("search", help="exhaustive value search over a box")
    sea.add_argument("--group", required=True)
    sea.add_argument("--box", type=int, required=True)
    sea.add_argument("--cap", type=int, default=None, help="drop values with |v| above this")
    sea.add_argument("--jobs", type=int, default=None, help=JOBS_HELP)
    sea.add_argument("--prune", action="store_true",
                     help="evaluate only assignments minimal under the group's automorphisms "
                          "and even translations")
    sea.add_argument("--out", required=True, help="write the full report JSON here")
    _add_common_box_flags(sea)
    sea.set_defaults(func=_cmd_search)

    chk = subs.add_parser("check", help="check a saved report against a known value set")
    chk.add_argument("--report", required=True)
    group_mode = chk.add_mutually_exclusive_group(required=True)
    group_mode.add_argument("--spec", help="membership spec: Z2Z2, Z2Z2Z2, Z4Z2, S2p(<p>)")
    group_mode.add_argument("--exponent", type=int,
                            help="instead: require 2^exponent to divide every even value")
    chk.add_argument("--revalidate", action="store_true",
                     help="first evaluate every witness again by Bareiss elimination; a witness "
                          "outside the box or of another value exits 2")
    chk.set_defaults(func=_cmd_check)

    wit = subs.add_parser("witness", help="first assignment achieving a target value")
    wit.add_argument("--group", required=True)
    wit.add_argument("--box", type=int, required=True)
    wit.add_argument("--target", type=int, required=True)
    _add_common_box_flags(wit)
    wit.set_defaults(func=_cmd_witness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload = args.func(args)
    except (
        ValueError, ArithmeticError, BudgetExceededError, OSError, json.JSONDecodeError,
        RecursionError,
    ) as exc:
        code, payload = 2, {"status": "error", "message": str(exc)}
    try:
        print(json.dumps(payload, indent=1), flush=True)
    except BrokenPipeError as exc:
        # the reader has gone: say so on stderr, and send the flush at exit to
        # devnull so that it does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        message = f"stdout closed before the result was written: {exc}"
        print(json.dumps({"status": "error", "message": message}, indent=1), file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
