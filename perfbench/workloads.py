"""The four workloads, the correctness preflight, and the CLI runner.

Every workload is a single-process closed loop: one call into the program
at a time, the next only after the previous returned and its output was
checked.  A pass is a fixed amount of work; checks run after each timed
call, outside the timing.  With a tracer the same work goes through the
composition in layers.py, one span per layer call.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from phisoft import decide, decide_single, emit_json, laws, parse_csv, parse_json

import gen
import layers
import reference
import speed
import tracing

BENCH_DIR = Path(__file__).resolve().parent

SCALES = {
    # cli-large: 2000 x 50 per table, 40 shared -> 60 combined parameters.
    # small-batch: one pair per shape in the grid; 1000 decide calls per pass.
    # rank-tall: 20 000 x 8; laws: run_all(5000).
    "full": {"cli": (2000, 50, 40), "alts": (3, 12), "params": (3, 8),
             "batch": 1000, "tall": (20_000, 8), "law_cases": 5000},
    "smoke": {"cli": (12, 6, 4), "alts": (3, 5), "params": (3, 4),
              "batch": 30, "tall": (50, 4), "law_cases": 10},
}
CONFIGS = [(rule, agg, order) for rule in reference.RULES
           for agg in reference.AGGREGATORS for order in reference.ORDERS]
PREFLIGHT_LAW_CASES = 20
DEMO = Path("demos/data")


@dataclass
class Context:
    root: Path
    out: Path
    env: dict
    seed: int
    scale: dict
    deadline: float

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())


@dataclass
class PassResult:
    raw: list[float] = field(default_factory=list)  # seconds per program call
    times: list[float] = field(default_factory=list)  # the same, in reference seconds
    items: float = 0.0
    attempted: int = 0
    failed: int = 0
    faults: list[str] = field(default_factory=list)
    probe_s: float = 0.0  # traced-only replay time, not the program's work
    max_rss_kb: int = 0  # peak RSS of a child process that did the work
    speeds: list[float] = field(default_factory=lambda: [speed.sample()], repr=False)

    def calibrate(self) -> None:
        """Convert the calls timed since the last speed sample (see speed.py)."""
        self.speeds.append(speed.sample())
        factor = speed.scale(*self.speeds[-2:])
        self.times += [t * factor for t in self.raw[len(self.times):]]

    @property
    def factor(self) -> float:
        return sum(self.times) / sum(self.raw)

    def op(self, faults: list[str]) -> None:
        self.attempted += 1
        if faults:
            self.failed += 1
            self.faults.extend(faults)


def describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def maybe_span(tracer, name):
    return tracer.span(name) if tracer else nullcontext()


def _probe_total(tracer) -> float:
    return tracer.elapsed.get(layers.PROBE, 0.0) if tracer else 0.0


def _report_rows(doc: dict) -> list[tuple]:
    return [(x["alt"], x["apfdv"]["m"], x["apfdv"]["n"], x["es"], x["rank"])
            for x in doc["measures"]]


def _cells_of(softset):
    names = softset.parameter_names
    m = np.array([[softset.cell(alt, p).m for p in names] for alt in softset.universe])
    n = np.array([[softset.cell(alt, p).n for p in names] for alt in softset.universe])
    return names, m, n


def _decision_faults(report, ref_combined, aggregator, order) -> list[str]:
    faults = reference.combined_faults(*_cells_of(report.combined), ref_combined)
    return faults + reference.report_faults(
        layers.rows_of(report), report.ranking(), ref_combined, aggregator, order)


@dataclass
class CliRun:
    wall: float
    code: int
    max_rss_kb: int
    stdout: bytes
    stderr: str
    probe_s: float  # the traced child's replay time


def run_cli(ctx: Context, argv: list[str], tracer) -> CliRun:
    """One `phisoft` CLI process, killed if it outlives the run's deadline.

    Untraced it is `python -m phisoft.cli`; traced, cli_traced.py runs the
    same `main` with its layer calls wrapped, and its spans are grafted under
    a `cli.process` span whose self time is the CLI layer's own time.
    """
    out, err, spans = ctx.out / "cli.stdout", ctx.out / "cli.stderr", ctx.out / "cli.spans"
    if tracer:
        cmd = [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(spans), *argv]
    else:
        cmd = [sys.executable, "-m", "phisoft.cli", *argv]
    with open(out, "wb") as so, open(err, "wb") as se, maybe_span(tracer, "cli.process") as index:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ctx.root, env=ctx.env, stdin=subprocess.DEVNULL,
                                stdout=so, stderr=se)
        # A blocking wait4 notices the exit at once (Popen.wait polls) and
        # gives this child's own peak RSS; the timer only kills a hung child.
        watchdog = threading.Timer(ctx.remaining(), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    probe = 0.0
    if tracer and proc.returncode == 0:
        child_spans, counts = tracing.load(spans)
        tracer.adopt(child_spans, counts, parent=index)
        probe = sum(s["end"] - s["start"] for s in child_spans if s["name"] == layers.PROBE)
    return CliRun(wall, proc.returncode, usage.ru_maxrss, out.read_bytes(),
                  err.read_text(errors="replace"), probe)


def _ranking_line(stdout: bytes) -> list[str] | None:
    for line in stdout.decode("utf-8", "replace").splitlines():
        if line.startswith("ranking: "):
            return line[len("ranking: "):].split(" > ")
    return None


# --- preflight -------------------------------------------------------------


def preflight(ctx: Context, tracer) -> PassResult:
    """Check the program on the paper's tables before anything is timed.

    The tables are read by the benchmark's own CSV reader and by
    `parse_csv`, which must agree; the decision must rank p4 > p3 > p1 > p2
    with p1 over p2 by about 0.001 of ES, both in-process and through the
    CLI; and the law suites must pass on a few cases.
    """
    result = PassResult()
    paths = [ctx.root / DEMO / "table1.csv", ctx.root / DEMO / "table2.csv"]
    tables = [gen.read_csv(p) for p in paths]

    def step(check):
        try:
            result.op(check())
        except Exception as exc:  # a crash in the program is a failed check
            result.op([f"preflight: {describe(exc)}"])

    def parsers():
        faults = []
        for path, table in zip(paths, tables):
            with maybe_span(tracer, "softset.build"):
                built = layers.to_softset(table)
            data = path.read_bytes()
            with maybe_span(tracer, "io.parse_csv"):
                parsed = parse_csv(data)
            with maybe_span(tracer, "io.emit_json"):
                doc = emit_json(parsed)
            with maybe_span(tracer, "io.parse_json"):
                back = parse_json(doc)
            if tracer:
                tracer.count("io.bytes_in", len(data) + len(doc))
                tracer.count("io.bytes_out", len(doc))
            for got, how in ((parsed, "parse_csv"), (back, "parse_json(emit_json)")):
                if (got.universe, got.parameters, got.cells) != (
                        built.universe, built.parameters, built.cells):
                    faults.append(f"{how} of {path.name} differs from the table")
        return faults

    def in_process():
        a, b = (layers.to_softset(t) for t in tables)
        cfg = layers.config("eintersect", "geometric", "es")
        report = layers.traced_decide(tracer, a, b, cfg) if tracer else decide(a, b, cfg)
        faults = _decision_faults(report, reference.combine(*tables, "eintersect"),
                                  "geometric", "es")
        faults += reference.paper_faults(report.ranking(),
                                         {r.alternative: r.es for r in report.rows})
        doc = json.loads(emit_json(report))
        if tuple(doc["ranking"]) != report.ranking():
            faults.append("report JSON ranking differs from the in-memory ranking")
        return faults

    def through_cli():
        run = run_cli(ctx, ["decide", *map(str, paths)], tracer)
        if run.code != 0:
            return [f"paper CLI run exited {run.code}: {run.stderr.strip()[-200:]}"]
        ranking = _ranking_line(run.stdout)
        if ranking != list(reference.PAPER_RANKING):
            return [f"paper CLI ranking {ranking}, expected p4 > p3 > p1 > p2"]
        return []

    def law_suites():
        results = _run_laws(PREFLIGHT_LAW_CASES, ctx.seed, tracer)
        return [f"law {r.name}: {r.counterexample}" for r in results if not r.ok]

    for check in (parsers, in_process, through_cli, law_suites):
        step(check)
    return result


def _run_laws(cases: int, seed: int, tracer):
    if not tracer:
        return laws.run_all(cases=cases, seed=seed)
    rng = np.random.default_rng(seed)  # one generator, suites in order, as run_all
    results = []
    for law in laws.ALL_LAWS:
        with tracer.span("laws." + law.__name__.replace("_", "-")):
            results.append(law(rng, cases))
    return results


# --- workloads -------------------------------------------------------------


class CliLarge:
    """`phisoft decide A.csv B.json --json report.json` on two large tables."""

    name = "cli-large"
    loads_inputs = False

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.verdicts = {}  # (stdout sha256, report sha256) -> faults
        self.digests = None

    def generate(self):
        alts, params, shared = self.ctx.scale["cli"]
        a, b = gen.make_pair(np.random.default_rng(self.ctx.seed), alts, params, params, shared)
        self.paths = [self.ctx.out / "A.csv", self.ctx.out / "B.json", self.ctx.out / "report.json"]
        gen.write_csv(a, self.paths[0])
        gen.write_json(b, self.paths[1])
        self.ref = reference.combine(a, b, "eintersect")
        self.cells = a.cells + b.cells

    def load(self):
        return None

    def run_pass(self, state, tracer) -> PassResult:
        result = PassResult(items=self.cells)
        argv = ["decide", *map(str, self.paths[:2]), "--json", str(self.paths[2])]
        run = run_cli(self.ctx, argv, tracer)
        result.raw.append(run.wall)
        result.calibrate()
        result.probe_s, result.max_rss_kb = run.probe_s, run.max_rss_kb
        if run.code != 0:
            result.op([f"cli exited {run.code}: {run.stderr.strip()[-300:]}"])
            return result
        report = self.paths[2].read_bytes()
        key = (hashlib.sha256(run.stdout).hexdigest(), hashlib.sha256(report).hexdigest())
        if key not in self.verdicts:  # the same bytes get the same verdict
            try:
                self.verdicts[key] = self._faults(run.stdout, report)
            except (KeyError, TypeError, ValueError) as exc:
                self.verdicts[key] = [f"unreadable report: {describe(exc)}"]
        self.digests = self.digests or {"stdout_sha256": key[0], "report_sha256": key[1]}
        faults = list(self.verdicts[key])
        if len(self.verdicts) > 1:
            faults.append("output bytes differ between passes")
        result.op(faults)
        return result

    def _faults(self, stdout: bytes, report: bytes) -> list[str]:
        doc = json.loads(report)
        faults = []
        if _ranking_line(stdout) != doc["ranking"]:
            faults.append("stdout ranking line differs from the report's ranking")
        names = [p["name"] for p in doc["parameters"]]
        m = np.array([c["m"] for c in doc["cells"]]).reshape(len(doc["universe"]), len(names))
        n = np.array([c["n"] for c in doc["cells"]]).reshape(m.shape)
        faults += reference.combined_faults(names, m, n, self.ref)
        return faults + reference.report_faults(_report_rows(doc), doc["ranking"], self.ref,
                                                "geometric", "es")


class SmallBatch:
    """Many in-memory `decide` calls on paper-sized pairs, all 24 configs."""

    name = "small-batch"
    loads_inputs = True

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.next = 0
        self.refs = {}

    def generate(self):
        # Every shape in the grid once, so only cell values and parameter
        # order change with the seed, not the mix of table sizes.
        s = self.ctx.scale
        rng = np.random.default_rng(self.ctx.seed)
        self.pool = []
        for alts in range(s["alts"][0], s["alts"][1] + 1):
            for pa in range(s["params"][0], s["params"][1] + 1):
                for pb in range(s["params"][0], s["params"][1] + 1):
                    shared = 1 + len(self.pool) % min(pa, pb)
                    self.pool.append(gen.make_pair(rng, alts, pa, pb, shared))

    def load(self):
        return [(layers.to_softset(a), layers.to_softset(b)) for a, b in self.pool]

    def run_pass(self, sets, tracer) -> PassResult:
        result = PassResult()
        probe_before = _probe_total(tracer)
        for _ in range(self.ctx.scale["batch"]):
            # Each sweep of the pool shifts the configs by one, so every pair
            # meets every config.
            k, sweep = self.next % len(sets), self.next // len(sets)
            rule, agg, order = CONFIGS[(self.next + sweep) % len(CONFIGS)]
            self.next += 1
            a, b = sets[k]
            cfg = layers.config(rule, agg, order)
            try:
                start = time.perf_counter()
                report = layers.traced_decide(tracer, a, b, cfg) if tracer else decide(a, b, cfg)
                result.raw.append(time.perf_counter() - start)
            except Exception as exc:
                result.op([f"decide({rule}, {agg}, {order}) on pair {k}: {describe(exc)}"])
                continue
            ta, tb = self.pool[k]
            result.items += ta.cells + tb.cells
            if (k, rule) not in self.refs:
                self.refs[(k, rule)] = reference.combine(ta, tb, rule)
            result.op(_decision_faults(report, self.refs[(k, rule)], agg, order))
        result.calibrate()  # calls are too short to bracket one by one
        result.probe_s = _probe_total(tracer) - probe_before
        return result


class RankTall:
    """`decide_single` on one pre-built 20 000 x 8 set, both aggregators."""

    name = "rank-tall"
    loads_inputs = True

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def generate(self):
        alts, params = self.ctx.scale["tall"]
        self.table = gen.make_single(np.random.default_rng(self.ctx.seed), alts, params)

    def load(self):
        return layers.to_softset(self.table)

    def run_pass(self, softset, tracer) -> PassResult:
        result = PassResult()
        probe_before = _probe_total(tracer)
        for agg in reference.AGGREGATORS:
            cfg = layers.config("eintersect", agg, "es")
            try:
                start = time.perf_counter()
                if tracer:
                    report = layers.traced_decide_single(tracer, softset, cfg)
                else:
                    report = decide_single(softset, cfg)
                result.raw.append(time.perf_counter() - start)
                result.calibrate()
            except Exception as exc:
                result.op([f"decide_single({agg}): {describe(exc)}"])
                continue
            result.items += self.table.cells
            result.op(reference.report_faults(layers.rows_of(report), report.ranking(),
                                              self.table, agg, "es"))
        result.probe_s = _probe_total(tracer) - probe_before
        return result


class Laws:
    """`laws.run_all(cases=5000, seed=<benchmark seed>)`: all 14 suites.

    The suites are called one by one off one generator, exactly as
    `run_all` does, so each call can be bracketed by speed samples.
    """

    name = "laws"
    loads_inputs = False

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def generate(self):
        pass

    def load(self):
        return None

    def run_pass(self, state, tracer) -> PassResult:
        cases = self.ctx.scale["law_cases"]
        result = PassResult()
        rng = np.random.default_rng(self.ctx.seed)
        for law in laws.ALL_LAWS:
            name = law.__name__.replace("_", "-")
            try:
                with maybe_span(tracer, f"laws.{name}"):
                    start = time.perf_counter()
                    verdict = law(rng, cases)
                    result.raw.append(time.perf_counter() - start)
            except Exception as exc:
                result.op([f"law {name}: {describe(exc)}"])
                return result
            result.calibrate()
            result.items += cases
            result.op([] if verdict.ok else [f"law {name}: {verdict.counterexample}"])
        return result


WORKLOADS = {w.name: w for w in (CliLarge, SmallBatch, RankTall, Laws)}
