"""Command-line surface: validate, combine, weights, decide, laws.

Exit codes: 0 on success, 1 for validation or law failures, 2 for usage
errors.  Diagnostics go to stderr; all payload output is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .aggregation import weights_from_importances
from .decision import (
    _COMBINE,
    Aggregator,
    CombineRule,
    DecisionConfig,
    DecisionReport,
    decide,
)
from .errors import PhiSoftError
from .io import emit_csv, emit_json, parse_csv, parse_json
from .pfn import OrderKind
from .softset import PhiSoftSet

_RULES = sorted(rule.value for rule in CombineRule)


def _load(path: str) -> PhiSoftSet:
    data = Path(path).read_bytes()
    if path.endswith(".json"):
        return parse_json(data)
    return parse_csv(data)


def _write(path: str, softset: PhiSoftSet) -> None:
    data = emit_json(softset) if path.endswith(".json") else emit_csv(softset)
    Path(path).write_bytes(data)


def _cmd_validate(args) -> int:
    softset = _load(args.file)
    print(
        f"ok: {len(softset.universe)} alternatives, "
        f"{len(softset.parameter_names)} parameters"
    )
    return 0


def _cmd_combine(args) -> int:
    combined = _COMBINE[CombineRule(args.op)](_load(args.a), _load(args.b))
    _write(args.output, combined)
    return 0


def _cmd_weights(args) -> int:
    softset = _load(args.file)
    for w in weights_from_importances(softset.parameters):
        print(f"{w:.8f}")
    return 0


def _render_measures(report: DecisionReport) -> str:
    width = max(2, *(len(r.alternative) for r in report.rows))
    header = (
        f"{'id':<{width}}  {'apfdv_m':>9}  {'apfdv_n':>9}  "
        f"{'es':>9}  {'sf':>9}  {'af':>9}  {'rank':>4}"
    )
    lines = [header]
    for r in report.rows:
        lines.append(
            f"{r.alternative:<{width}}  {r.apfdv.m:>9.4f}  {r.apfdv.n:>9.4f}  "
            f"{r.es:>9.4f}  {r.sf:>9.4f}  {r.af:>9.4f}  {r.rank:>4}"
        )
    return "\n".join(lines)


def _cmd_decide(args) -> int:
    config = DecisionConfig(
        combine=CombineRule(args.op),
        aggregator=Aggregator(args.agg),
        ranking_order=OrderKind(args.order),
    )
    report = decide(_load(args.a), _load(args.b), config)
    print(_render_measures(report))
    print()
    print("ranking:", " > ".join(report.ranking()))
    print("optimal:", report.optimal())
    if args.json:
        Path(args.json).write_bytes(emit_json(report))
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_laws(args) -> int:
    from . import laws  # the other subcommands never load the suites

    seed = laws.DEFAULT_SEED if args.seed is None else args.seed
    results = laws.run_all(cases=args.cases or laws.DEFAULT_CASES, seed=seed)
    sys.stdout.write(laws.render_report(results, seed))
    return 0 if all(r.ok for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phisoft",
        description="Pythagorean fuzzy parameterized soft-set toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a table and check its invariants")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("combine", help="combine two tables into one")
    p.add_argument("--op", choices=_RULES, required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_combine)

    p = sub.add_parser("weights", help="print the normalized parameter weights")
    p.add_argument("file")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("decide", help="run the full decision procedure")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--op", choices=_RULES, default="eintersect")
    p.add_argument("--agg", choices=[a.value for a in Aggregator], default="geometric")
    orders = sorted(o.value for o in OrderKind if o is not OrderKind.LATTICE)
    p.add_argument("--order", choices=orders, default="es")
    p.add_argument("--json", metavar="OUT", help="also write the report as JSON")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("laws", help="run the randomized law suites")
    # no defaults here: laws.DEFAULT_CASES and DEFAULT_SEED, read when the suites load
    p.add_argument("--cases", type=positive_int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_laws)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PhiSoftError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
