"""Command-line front end.

    fpselberg eval s --p 7 --k 2,1 --a 2 --b 4,2 --c 1
    fpselberg eval r --p 7 --k 2,1 --a 2 --b 4,2 --c 1
    fpselberg check main --p 7 --k 2,1 --json
    fpselberg check main --p 13 --k 2,1 --samples 200 --seed 7
    fpselberg enumerate --p 5 --k 1 --count-only
    fpselberg bench --p 13 --k 3,2

Exit status: 0 on success / all checks passing, 1 when a check campaign
reports failures, 2 on usage or parameter errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import harness
from .errors import FpSelbergError
from .formulas import r_value
from .gf import FpContext
from .integrals import KComposition, ParamPoint, selberg_integral


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _at_least(flag: str, least: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < least:
        raise argparse.ArgumentTypeError(f"{flag} must be at least {least}, got {value}")
    return value


def _jobs(text: str) -> int:
    """Worker count: at least 1, at most the number of CPUs."""
    return min(_at_least("--jobs", 1, text), os.cpu_count() or 1)


def _samples(text: str) -> int:
    """Sample count: at least 0, where 0 sweeps every in-scope point."""
    return _at_least("--samples", 0, text)


def _limit(text: str) -> int:
    """Point limit: at least 0."""
    return _at_least("--limit", 0, text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fpselberg")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate one integral or closed form")
    ev.add_argument("what", choices=("s", "r"),
                    help="s: integral by coefficient extraction; r: closed form")
    ev.add_argument("--p", type=int, required=True)
    ev.add_argument("--k", type=_parse_ints, required=True)
    ev.add_argument("--a", type=int, required=True)
    ev.add_argument("--b", type=_parse_ints, required=True)
    ev.add_argument("--c", type=int, required=True)
    ev.add_argument("--json", action="store_true")

    ck = sub.add_parser("check", help="run a verification campaign")
    ck.add_argument("campaign", choices=harness.CAMPAIGNS)
    ck.add_argument("--p", type=int, required=True)
    ck.add_argument("--k", type=_parse_ints)
    mode = ck.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true",
                      help="sweep every in-scope point (the default)")
    mode.add_argument("--samples", type=_samples, default=0,
                      help="draw this many seeded samples instead")
    ck.add_argument("--seed", type=int, default=0)
    ck.add_argument("--jobs", type=_jobs, default=1,
                    help="worker processes (clamped to the number of CPUs)")
    ck.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH",
                    help="emit the JSON report to PATH (or stdout if omitted)")

    en = sub.add_parser("enumerate", help="list admissible parameter points")
    en.add_argument("--p", type=int, required=True)
    en.add_argument("--k", type=_parse_ints, required=True)
    en.add_argument("--limit", type=_limit)
    en.add_argument("--count-only", action="store_true")
    en.add_argument("--json", action="store_true")

    be = sub.add_parser("bench", help="block chain vs sparse oracle")
    be.add_argument("--p", type=int, required=True)
    be.add_argument("--k", type=_parse_ints, required=True)
    be.add_argument("--a", type=int, default=1)
    be.add_argument("--c", type=int, default=1)
    return parser


def _cmd_eval(args) -> int:
    ctx = FpContext(args.p)
    k = KComposition(args.k)
    pt = ParamPoint(args.a, args.b, args.c)
    if args.what == "s":
        value = selberg_integral(k, pt, ctx)
        payload = {"kind": "s", "p": args.p, "k": list(args.k),
                   "point": {"a": pt.a, "b": list(pt.b), "c": pt.c},
                   "value": value.residue}
    else:
        result = r_value(k, pt, ctx)
        payload = {"kind": "r", "p": args.p, "k": list(args.k),
                   "point": {"a": pt.a, "b": list(pt.b), "c": pt.c},
                   "value": result.value.residue if result.ok else None,
                   "classifier": result.error}
    if args.json:
        print(json.dumps(payload))
    elif payload["value"] is None:
        print(f"undefined: {payload['classifier']}")
    else:
        print(payload["value"])
    return 0


def _cmd_check(args) -> int:
    spec = harness.CampaignSpec(
        campaign=args.campaign, p=args.p, k=args.k,
        exhaustive=args.samples == 0, samples=args.samples,
        seed=args.seed, jobs=args.jobs)
    report = harness.run_campaign(spec)
    if args.json == "-":
        print(json.dumps(report.as_dict()))
    elif args.json:
        with open(args.json, "w") as fh:
            json.dump(report.as_dict(), fh)
            fh.write("\n")
    else:
        status = "PASS" if report.all_passed else "FAIL"
        head = f"[{status}] {report.campaign} p={report.p}"
        if report.k is not None:
            head += f" k={','.join(map(str, report.k))}"
        print(f"{head}: {report.passed}/{report.checked} passed, "
              f"{report.skipped} skipped, {report.elapsed_ms} ms")
        for f in report.failures[:20]:
            print(f"  FAIL {f['point']}: lhs={f['lhs']} rhs={f['rhs']} ({f['classifier']})")
        if len(report.failures) > 20:
            print(f"  ... {len(report.failures) - 20} more")
    return 0 if report.all_passed else 1


def _cmd_enumerate(args) -> int:
    from .admissible import enumerate_admissible
    ctx = FpContext(args.p)
    k = KComposition(args.k)
    points = enumerate_admissible(k, ctx)[:args.limit]
    if args.count_only:
        print(len(points))
    elif args.json:
        print(json.dumps([{"a": pt.a, "b": list(pt.b), "c": pt.c} for pt in points]))
    else:
        for pt in points:
            print(f"a={pt.a} b={','.join(map(str, pt.b))} c={pt.c}")
    return 0


def _cmd_bench(args) -> int:
    print(json.dumps(harness.bench(args.p, args.k, a=args.a, c=args.c)))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"eval": _cmd_eval, "check": _cmd_check,
                "enumerate": _cmd_enumerate, "bench": _cmd_bench}
    try:
        return handlers[args.command](args)
    except (FpSelbergError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
