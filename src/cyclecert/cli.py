"""Command-line interface.

Every command reads the line-oriented text formats, prints exactly one
JSON document on stdout, and keeps diagnostics on stderr.  Exit codes:
0 success, 1 counterexample or invalid certificate, 2 bad input or
usage, 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .certificates import validate_cycle, validate_rainbow_cycle
from .errors import BoundViolation, CounterexampleFound, GraphInputError, LimitExceeded
from .formats import (
    cycle_cert_json,
    girth_json,
    parse_digraph,
    parse_rainbow,
    rainbow_cert_json,
)
from .harness import _POPULATIONS, SuiteConfig, extremal_ratio_search, run_suite
from .oracles import (
    girth_exact,
    shortest_rainbow_cycle_exact,
    two_cycles_min_intersection,
)
from .peeling import peel
from .rainbow import find_rainbow_cycle

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _require_valid(ok: bool, what: str) -> None:
    """Re-validation gate: nothing invalid ever reaches stdout."""
    if not ok:
        raise BoundViolation(f"{what} failed re-validation before output")


def _cmd_girth(args: argparse.Namespace) -> dict[str, Any]:
    d = parse_digraph(_read_text(args.file))
    g, cert = girth_exact(d)
    doc: dict[str, Any] = {"girth": girth_json(g)}
    if cert is not None:
        _require_valid(validate_cycle(d, cert), "girth certificate")
        doc["certificate"] = cycle_cert_json(cert)
    return doc


def _cmd_peel(args: argparse.Namespace) -> dict[str, Any]:
    d = parse_digraph(_read_text(args.file))
    trace = peel(d)
    _require_valid(validate_cycle(d, trace.certificate), "peeling certificate")
    return {"trace": trace.to_json_dict(), "certificate": cycle_cert_json(trace.certificate)}


def _cmd_rainbow(args: argparse.Namespace) -> dict[str, Any]:
    inst = parse_rainbow(_read_text(args.file))
    if args.oracle:
        rg, cert = shortest_rainbow_cycle_exact(inst)
        doc: dict[str, Any] = {"rg": girth_json(rg)}
        if cert is not None:
            _require_valid(validate_rainbow_cycle(inst, cert), "rainbow certificate")
            doc["certificate"] = rainbow_cert_json(cert)
        return doc
    cert = find_rainbow_cycle(inst)
    _require_valid(validate_rainbow_cycle(inst, cert), "rainbow certificate")
    return {
        "bound": (inst.n + inst.p + 1) // 2,
        "certificate": rainbow_cert_json(cert),
    }


def _cmd_two_cycles(args: argparse.Namespace) -> dict[str, Any]:
    d = parse_digraph(_read_text(args.file))
    pair = two_cycles_min_intersection(d)
    _require_valid(validate_cycle(d, pair.c1), "first cycle")
    _require_valid(validate_cycle(d, pair.c2), "second cycle")
    return {
        "c1": cycle_cert_json(pair.c1),
        "c2": cycle_cert_json(pair.c2),
        "intersection": sorted(pair.intersection),
        "p": pair.p,
        "degenerate": pair.degenerate,
    }


def _parse_n_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("-")
    try:
        if sep:
            return int(lo), int(hi)
        return int(text), int(text)
    except ValueError:
        raise GraphInputError(f"bad --n value {text!r}; use N or LO-HI") from None


_SPELLINGS = ", ".join(p.spelling for p in _POPULATIONS.values())


def _parse_generator(text: str) -> dict[str, Any]:
    head, _, rest = text.partition(":")
    pop = _POPULATIONS.get(head)
    if pop is None:
        raise GraphInputError(f"unknown generator {head!r}; use {_SPELLINGS}")
    try:
        return {"generator": head, **pop.parse(rest)}
    except ValueError:
        raise GraphInputError(f"bad generator {text!r}; use {pop.spelling}") from None


def _cmd_verify(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    n_lo, n_hi = _parse_n_range(args.n)
    kw = _parse_generator(args.generator)
    if args.checks:
        checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    else:
        checks = _POPULATIONS[kw["generator"]].checks
    cfg = SuiteConfig(
        n_lo=n_lo,
        n_hi=n_hi,
        checks=checks,
        workers=args.jobs,
        seed=args.seed,
        **kw,
    )
    report = run_suite(cfg)
    code = EXIT_COUNTEREXAMPLE if report.has_violations else EXIT_OK
    return report.to_json_dict(), code


def _cmd_search_ratio(args: argparse.Namespace) -> dict[str, Any]:
    report = extremal_ratio_search(args.n, args.budget, args.seed)
    return report.to_json_dict()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclecert",
        description="Short-cycle certificates: peeling bounds, rainbow cycles, "
        "brute-force oracles, and exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("girth", help="exact girth of a digraph file, with witness")
    p.add_argument("file")

    p = sub.add_parser("peel", help="peeling trace and a cycle of length <= 2 phi")
    p.add_argument("file")

    p = sub.add_parser("rainbow", help="rainbow cycle of length <= ceil((n+p)/2)")
    p.add_argument("file")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="exact shortest rainbow cycle instead of the constructive bound",
    )

    p = sub.add_parser("two-cycles", help="two cycles with minimum vertex intersection")
    p.add_argument("file")

    p = sub.add_parser("verify", help="run a checking suite over an instance population")
    p.add_argument("--n", required=True, help="size N or range LO-HI")
    p.add_argument("--generator", required=True, help=_SPELLINGS)
    p.add_argument("--checks", default="", help="comma-separated check names")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("search-ratio", help="explore for large girth/psi ratios")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "girth": _cmd_girth,
        "peel": _cmd_peel,
        "rainbow": _cmd_rainbow,
        "two-cycles": _cmd_two_cycles,
        "search-ratio": _cmd_search_ratio,
    }
    try:
        if args.command == "verify":
            doc, code = _cmd_verify(args)
        else:
            doc = handlers[args.command](args)
            code = EXIT_OK
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except CounterexampleFound as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(doc, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
