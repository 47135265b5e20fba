"""Command-line interface.

Subcommands fall into three groups: single evaluations (char, degree),
partition surgery (decompose, compose, core, quotient, padic), and sweeps
(vanishing, verify).  Exit codes: 0 means every requested check passed,
1 means a checked identity or classification failed and the output carries
a witness, 2 means the invocation itself was malformed, 3 means the
evaluation itself crashed (recursion depth or memory), which says nothing
about the mathematics.

All JSON payloads carry "schema_version": 1 at top level.  Text and JSON
render the same data in the same deterministic order (labels descending
lexicographically), so either stream can be diffed across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import verify as verify_mod
from .characters import character_value, degree
from .padic import p_adic_context, p_power_partition
from .partitions import (
    MAX_PARTITION_SIZE,
    format_partition,
    from_core_and_quotient,
    parse_partition,
    r_decompose,
)
from .vanishing import summary, sweep

# Largest n a vanishing sweep runs without --limit; the library sweeps take no limit.
DEFAULT_SWEEP_LIMIT = 30


def _parse_range(text: str) -> range:
    """Accept a single value ("8") or an inclusive range ("0..7")."""
    lo_text, dots, hi_text = text.partition("..")
    lo, hi = int(lo_text), int(hi_text if dots else lo_text)
    if lo > hi or lo < 0:
        raise ValueError(f"bad range {text!r}")
    return range(lo, hi + 1)


def _capped(text: str) -> int:
    """A prime, modulus or size no larger than MAX_PARTITION_SIZE, checked while parsing.

    Trial division, r-hook displays and the digits of n grow with it; past
    every partition size it changes nothing.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value > MAX_PARTITION_SIZE:
        raise argparse.ArgumentTypeError(f"values are capped at {MAX_PARTITION_SIZE}, got {value}")
    return value


def _parse_primes(text: str) -> tuple[int, ...]:
    primes = tuple(_capped(part) for part in text.split(",") if part.strip())
    if not primes:
        raise argparse.ArgumentTypeError(f"no prime in {text!r}")
    if len(set(primes)) < len(primes):
        raise argparse.ArgumentTypeError(f"a prime is repeated in {text!r}")
    return primes


def _emit(payload: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))


# ---------------------------------------------------------------------------
# single evaluations
# ---------------------------------------------------------------------------


def _cmd_char(args: argparse.Namespace) -> int:
    alpha = parse_partition(args.alpha)
    beta = parse_partition(args.beta)
    value = character_value(alpha, beta)
    payload = {
        "schema_version": 1,
        "alpha": list(alpha),
        "beta": list(beta),
        "value": value,
    }
    _emit(payload, [str(value)], args.json)
    return 0


def _cmd_degree(args: argparse.Namespace) -> int:
    alpha = parse_partition(args.alpha)
    value = degree(alpha)
    payload = {"schema_version": 1, "alpha": list(alpha), "degree": value}
    _emit(payload, [str(value)], args.json)
    return 0


# ---------------------------------------------------------------------------
# partition surgery
# ---------------------------------------------------------------------------


def _quotient_text(quotient: tuple) -> str:
    return ";".join(format_partition(q) for q in quotient)


def _cmd_decompose(args: argparse.Namespace) -> int:
    alpha = parse_partition(args.alpha)
    dec = r_decompose(alpha, args.r)
    payload = {
        "schema_version": 1,
        "alpha": list(alpha),
        "r": args.r,
        "core": list(dec.core),
        "quotient": [list(q) for q in dec.quotient],
        "weight": dec.weight,
        "sign": dec.sign,
    }
    lines = [
        f"alpha={format_partition(alpha)} r={args.r}",
        f"core: {format_partition(dec.core)}",
        f"quotient: {_quotient_text(dec.quotient)}",
        f"weight: {dec.weight}",
        f"sign: {dec.sign:+d}",
    ]
    _emit(payload, lines, args.json)
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    core = parse_partition(args.core)
    quotient = tuple(parse_partition(part) for part in args.quotient.split(";"))
    size = sum(core) + args.r * sum(map(sum, quotient))
    if size > MAX_PARTITION_SIZE:
        raise ValueError(
            f"composed partition of size {size} is larger than the cap of {MAX_PARTITION_SIZE}"
        )
    alpha = from_core_and_quotient(core, quotient, args.r)
    payload = {
        "schema_version": 1,
        "core": list(core),
        "quotient": [list(q) for q in quotient],
        "r": args.r,
        "alpha": list(alpha),
    }
    _emit(payload, [format_partition(alpha)], args.json)
    return 0


def _cmd_core(args: argparse.Namespace) -> int:
    dec = r_decompose(parse_partition(args.alpha), args.r)
    payload = {"schema_version": 1, "r": args.r, "core": list(dec.core)}
    _emit(payload, [format_partition(dec.core)], args.json)
    return 0


def _cmd_quotient(args: argparse.Namespace) -> int:
    dec = r_decompose(parse_partition(args.alpha), args.r)
    payload = {
        "schema_version": 1,
        "r": args.r,
        "quotient": [list(q) for q in dec.quotient],
    }
    _emit(payload, [_quotient_text(dec.quotient)], args.json)
    return 0


def _cmd_padic(args: argparse.Namespace) -> int:
    ctx = p_adic_context(args.n, args.p)
    divs = {t: ctx.div(t) for t in range(ctx.k + 2)}
    rems = {t: ctx.rem(t) for t in range(ctx.k + 2)}
    payload = {
        "schema_version": 1,
        "n": ctx.n,
        "p": ctx.p,
        "digits": list(ctx.digits),
        "p_power_partition": list(p_power_partition(ctx)),
        "div": divs,
        "rem": rems,
    }
    lines = [
        f"n={ctx.n} p={ctx.p}",
        "digits (low to high): " + ",".join(str(d) for d in ctx.digits),
        f"p-power partition: {format_partition(p_power_partition(ctx))}",
        "div: " + " ".join(f"t={t}:{v}" for t, v in divs.items()),
        "rem: " + " ".join(f"t={t}:{v}" for t, v in rems.items()),
    ]
    _emit(payload, lines, args.json)
    return 0


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _cmd_vanishing(args: argparse.Namespace) -> int:
    if len(args.p) != 1:
        raise ValueError("vanishing takes exactly one prime")
    (p,) = args.p
    if args.check_conjecture and p < 5:
        raise ValueError(
            "--check-conjecture applies to p >= 5; "
            "for p in {2, 3} the classifier cross-check always runs"
        )

    ns = _parse_range(args.n)
    if ns[-1] > args.limit:
        raise ValueError(f"n={ns[-1]} is past the sweep limit; raise --limit ({args.limit})")
    reports = list(sweep(p, ns, audit=args.audit, conjecture=args.check_conjecture))

    total = sum(len(r.vanishing) for r in reports)
    bad = sum(len(r.counterexamples) for r in reports)
    lines = [f"p={p} vanishing cycle types, n={args.n} ({total} classes)"]
    marked = False
    for report in reports:
        for entry in report.vanishing:
            mark = ""
            if not entry.p_adic_type:
                mark = " *"
                marked = True
            lines.append(f"  n={report.n:<3d} {format_partition(entry.parts)}{mark}")
        for item in report.counterexamples:
            lines.append(f"  COUNTEREXAMPLE n={report.n}: {json.dumps(item)}")
        for name, status in report.audits.items():
            if name == "structure":
                status = "pass" if status.get("passed") else "FAIL"
            elif status is True:
                continue  # agreement is the expected state; only failures are news
            lines.append(f"  audit n={report.n} {name}: {status}")
    if marked:
        lines.append("(* marks classes that are not of p-adic type)")
    if args.check_conjecture:
        lines.extend(summary(p, f"n={r.n}", [r]) for r in reports)

    payload = {
        "schema_version": 1,
        "p": p,
        "reports": [r.to_json_dict() for r in reports],
        "total_vanishing": total,
        "counterexample_count": bad,
    }
    _emit(payload, lines, args.json)
    return 1 if bad else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    names = list(verify_mod.SUITES) if args.suite == "all" else [args.suite]
    if args.p and args.suite != "all" and not verify_mod.SUITES[args.suite][0]:
        raise ValueError(f"suite {args.suite!r} takes no primes; drop --p")
    bounds = {
        name: verify_mod.SUITES[name][1] if args.max_n is None else args.max_n for name in names
    }
    for name, bound in bounds.items():  # every bound, before the first suite runs
        verify_mod.check_table_guard(name, bound)
    # under "all", a suite with 0 checks (none of its primes given) is only
    # named as skipped; it is an error when no suite ran a check
    results, skipped = [], []
    for name, bound in bounds.items():
        default_primes, _, runner = verify_mod.SUITES[name]
        result = runner(list(args.p or default_primes), bound)
        (results if result.checks else skipped).append(result)
    if not results:
        raise ValueError(
            f"suite {args.suite!r} ran 0 checks with these options; nothing was verified"
        )

    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<{width}}  {r.checks:>9d} checks  "
            f"{len(r.violations):>3d} violations  {r.elapsed:7.2f}s  {status}"
        )
        for item in r.violations[:10]:
            lines.append(f"  witness: {json.dumps(item)}")
        if len(r.violations) > 10:
            lines.append(f"  ... and {len(r.violations) - 10} more")
    if skipped:
        lines.append("skipped, 0 checks with these options: " + ", ".join(r.name for r in skipped))
    failed = [r for r in results if not r.passed]
    lines.append(
        f"{len(results)} suite(s), {sum(r.checks for r in results)} checks, "
        f"{len(failed)} failed"
    )

    payload = {
        "schema_version": 1,
        "suites": [r.to_json_dict() for r in results],
        "failed": len(failed),
    }
    _emit(payload, lines, args.json)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_json(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvanish",
        description="Exact symmetric-group character values and p-vanishing classification.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("char", help="one character value, exactly")
    sub.add_argument("--alpha", required=True, help='label, e.g. "3,3,2" or "(4,2,1^3)"')
    sub.add_argument("--beta", required=True, help="cycle type of the class")
    _add_json(sub)
    sub.set_defaults(handler=_cmd_char)

    sub = commands.add_parser("degree", help="dimension of one representation")
    sub.add_argument("--alpha", required=True)
    _add_json(sub)
    sub.set_defaults(handler=_cmd_degree)

    sub = commands.add_parser("decompose", help="r-core, r-quotient, weight, sign")
    sub.add_argument("--alpha", required=True)
    sub.add_argument("--r", type=_capped, required=True)
    _add_json(sub)
    sub.set_defaults(handler=_cmd_decompose)

    sub = commands.add_parser("compose", help="rebuild a partition from core and quotient")
    sub.add_argument("--core", required=True)
    sub.add_argument(
        "--quotient",
        required=True,
        help='r components separated by ";", e.g. "(2);(0)"',
    )
    sub.add_argument("--r", type=_capped, required=True)
    _add_json(sub)
    sub.set_defaults(handler=_cmd_compose)

    sub = commands.add_parser("core", help="just the r-core")
    sub.add_argument("--alpha", required=True)
    sub.add_argument("--r", type=_capped, required=True)
    _add_json(sub)
    sub.set_defaults(handler=_cmd_core)

    sub = commands.add_parser("quotient", help="just the r-quotient")
    sub.add_argument("--alpha", required=True)
    sub.add_argument("--r", type=_capped, required=True)
    _add_json(sub)
    sub.set_defaults(handler=_cmd_quotient)

    sub = commands.add_parser("padic", help="base-p digits and derived data for n")
    sub.add_argument("--n", type=_capped, required=True)
    sub.add_argument("--p", type=_capped, required=True)
    _add_json(sub)
    sub.set_defaults(handler=_cmd_padic)

    sub = commands.add_parser("vanishing", help="classify p-vanishing cycle types")
    sub.add_argument("--p", type=_parse_primes, required=True, help="one prime")
    sub.add_argument("--n", required=True, help='a value or an inclusive range "0..7"')
    sub.add_argument(
        "--limit", type=int, default=DEFAULT_SWEEP_LIMIT, help="opt-in cap for large sweeps"
    )
    sub.add_argument("--audit", action="store_true", help="run the structure audits too")
    sub.add_argument(
        "--check-conjecture",
        action="store_true",
        help="for p >= 5, hunt for conjecture counterexamples",
    )
    _add_json(sub)
    sub.set_defaults(handler=_cmd_vanishing)

    sub = commands.add_parser("verify", help="batch self-verification sweeps")
    sub.add_argument("--suite", choices=(*verify_mod.SUITES, "all"), required=True)
    sub.add_argument(
        "--p", type=_parse_primes, default=None, help='comma list, e.g. "2,3,5"'
    )
    sub.add_argument("--max-n", type=int, default=None, help="inclusive size bound")
    _add_json(sub)
    sub.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        # a crash of the evaluator, not a failed check: RecursionError is a
        # RuntimeError, so it has to be caught before the violation branch
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
