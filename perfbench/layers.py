"""The program's public calls, composed in the order the program composes them.

`decide` is combine -> `decide_single`; a traced run makes those two calls
itself so each gets its own span.  The aggregation layer is timed by
replaying the same public `weights_from_importances` / `pfwa_*` calls on the
same rows right after `decide_single`, inside a `probe` span that traced
wall times leave out; `decision.rank_s` is `decide_single` minus the two.
"""

from __future__ import annotations

from phisoft import (
    Aggregator,
    CombineRule,
    DecisionConfig,
    OrderKind,
    build,
    decide_single,
    extended_intersection,
    extended_union,
    pfwa_geometric,
    pfwa_linear,
    restricted_intersection,
    restricted_union,
    weights_from_importances,
)

from gen import Table

COMBINE = {
    "eunion": extended_union,
    "eintersect": extended_intersection,
    "runion": restricted_union,
    "rintersect": restricted_intersection,
}
ORDER_KIND = {
    "es": OrderKind.ES_THEN_MEMBERSHIP,
    "m": OrderKind.MEMBERSHIP_THEN_ES,
    "sfaf": OrderKind.SCORE_ACCURACY,
}
PROBE = "probe"


def config(rule: str, aggregator: str, order: str) -> DecisionConfig:
    return DecisionConfig(CombineRule(rule), Aggregator(aggregator), ORDER_KIND[order])


def to_softset(table: Table):
    """`build` from plain (m, n) pairs: phisoft does all PFN construction."""
    params = list(zip(table.names, zip(table.imp_m.tolist(), table.imp_n.tolist())))
    cells = {}
    for alt, ms, ns in zip(table.alts, table.m.tolist(), table.n.tolist()):
        for name, m, n in zip(table.names, ms, ns):
            cells[(alt, name)] = (m, n)
    return build(table.alts, params, cells)


def rows_of(report) -> list[tuple]:
    return [(r.alternative, r.apfdv.m, r.apfdv.n, r.es, r.rank) for r in report.rows]


def traced_decide_single(tracer, softset, cfg: DecisionConfig):
    with tracer.span("decision.decide_single"):
        report = decide_single(softset, cfg)
    with tracer.span(PROBE):
        with tracer.span("aggregation.weights"):
            w = weights_from_importances(softset.parameters)
        rows = [softset.row(alt) for alt in softset.universe]
        pfwa = pfwa_geometric if cfg.aggregator is Aggregator.GEOMETRIC else pfwa_linear
        with tracer.span("aggregation.pfwa"):
            for row in rows:
                pfwa(row, w)
    return report


def traced_decide(tracer, a, b, cfg: DecisionConfig):
    with tracer.span("softset.combine"):
        combined = COMBINE[cfg.combine.value](a, b)
    tracer.count("softset.cells_out", len(combined.cells))
    return traced_decide_single(tracer, combined, cfg)
