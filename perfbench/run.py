"""phisoft benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-large --seed 1 --seconds 20 --trace 0

The program is imported from this tree's `src/` (and run as
`python -m phisoft.cli` with that on PYTHONPATH), never from an installed
copy.  The last stdout line is one JSON object: `correct`, `attempted`,
`failed` and `metrics` -- the end-to-end metrics with `--trace 0`, the
per-layer ones with `--trace 1`.  Lines before it give every metric with its
unit and sample count, the failure ratio, and the environment.

Workloads (see workloads.py): cli-large, small-batch, rank-tall, laws.
Before timing, every run checks the program on the paper's tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: A run ends well inside the 180 s every run is allowed.
HARD_LIMIT_S = 165.0
SETUP_PROBES = 5
MIN_PASSES = 3
NPROC = len(os.sched_getaffinity(0))  # before the run pins itself to one CPU

END_TO_END = {
    "wall_s": "s",          # median wall time of one pass of the workload's fixed work
    "setup_s": "s",         # fresh interpreter + import phisoft + build of in-memory inputs
    "items_per_s": "1/s",   # median per pass of input cells (law cases on `laws`) per second
    "op_p50_ms": "ms",      # per-call latency: decide / decide_single / CLI process / law suite
    "peak_rss_mb": "MB",    # of the process doing the work
}
LAW_SUITES = (
    "closure-of-pfn-operations", "addition-and-multiplication-commute",
    "scalar-distributes-over-addition", "scalar-multiples-add",
    "power-distributes-over-product", "powers-multiply",
    "membership-then-es-is-partial-order", "score-accuracy-agrees-with-es-then-membership",
    "equal-score-tiebreaks-agree", "addition-preserves-order", "scaling-preserves-order",
    "geometric-closed-form-matches-fold", "combination-identities",
    "subset-is-transitive-and-antisymmetric",
)
# Raw self time per traced pass (the preflight's few calls included), except
# softset.build_s (per run: inputs are built once) and cli.overhead_s (median
# per CLI process of the workload, or of the preflight when the workload runs
# none).  decision.rank_s and cli.overhead_s are derived.
PER_LAYER = {
    "io.parse_csv_s": "s", "io.parse_json_s": "s", "io.emit_json_s": "s",
    "io.bytes_in": "B", "io.bytes_out": "B",
    "softset.combine_s": "s", "softset.cells_out": "count", "softset.build_s": "s",
    "decision.decide_single_s": "s", "aggregation.weights_s": "s",
    "aggregation.pfwa_s": "s", "decision.rank_s": "s",
    **{f"laws.{suite}_s": "s" for suite in LAW_SUITES},
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",  # traced pass wall (replay left out) - untraced pass wall
}


def _git(*args) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(phisoft, numpy) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = _git("rev-parse", "HEAD")
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "git_dirty": None if sha is None else bool(_git("status", "--porcelain",
                                                        "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "cpu": cpu,
        "phisoft": str(Path(phisoft.__file__).resolve().parent),
    }


def _setup_sample(ctx, name: str, scale: str) -> float:
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), name, str(ctx.seed), scale, str(ctx.out)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=ctx.env, capture_output=True, text=True,
                          timeout=ctx.remaining())
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-300:]}")
    t = json.loads(done.stdout.splitlines()[-1])
    return (t["imported"] - start) + (t["loaded"] - t["generated"])


def _end_to_end(passes, setups, workload) -> dict[str, tuple[float, int]]:
    ops = [t for p in passes for t in p.times]
    if any(p.max_rss_kb for p in passes):  # the work ran in child processes
        rss = (statistics.median(p.max_rss_kb for p in passes), len(passes))
    else:
        rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, 1)
    return {
        "wall_s": (statistics.median(sum(p.times) for p in passes), len(passes)),
        "setup_s": (statistics.median(setups), len(setups)),
        "items_per_s": (statistics.median(p.items / sum(p.times) for p in passes), len(passes)),
        "op_p50_ms": (statistics.median(ops) * 1e3, len(ops)),
        "peak_rss_mb": (rss[0] / 1024.0, rss[1]),
    }


def _per_layer(tracer, traced, untraced, first_pass_span) -> dict[str, tuple[float, int]]:
    n = len(traced)
    own = tracer.self_times()
    out = {}
    for name in PER_LAYER:
        key = name[:-2] if name.endswith("_s") else name
        if name.endswith("_s"):
            out[name] = (own.get(key, 0.0) / n, n)
        else:
            out[name] = (tracer.counts.get(key, 0) / n, n)
    out["softset.build_s"] = (own.get("softset.build", 0.0), 1)
    out["decision.rank_s"] = (
        out["decision.decide_single_s"][0] - out["aggregation.weights_s"][0]
        - out["aggregation.pfwa_s"][0], n)
    # The workload's own CLI processes if it ran any, else the preflight's.
    cli = (tracer.span_self_times("cli.process", first_pass_span)
           or tracer.span_self_times("cli.process"))
    out["cli.overhead_s"] = (statistics.median(cli), len(cli))
    traced_wall = statistics.median((sum(p.raw) - p.probe_s) * p.factor for p in traced)
    untraced_wall = statistics.median(sum(p.times) for p in untraced)
    out["trace.overhead_s"] = (traced_wall - untraced_wall, n)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke is for the benchmark's own test")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # One CPU for this process and its children: the speed samples must see
    # the CPU the work runs on (on a shared host each CPU has its own
    # neighbours, and their slow spells do not line up).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "phisoft" / "__init__.py").is_file():
        print(f"error: no phisoft sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import phisoft

    if Path(phisoft.__file__).resolve().parent != (SRC / "phisoft").resolve():
        print(f"error: imported phisoft from {phisoft.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    ctx = workloads.Context(ROOT, out, env, args.seed, workloads.SCALES[args.scale],
                            started + HARD_LIMIT_S)
    env_record = environment(phisoft, numpy)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale}")
    print("env", json.dumps(env_record))

    tracer = tracing.Tracer(f"{args.workload}-{args.seed}") if args.trace else None
    checks = workloads.preflight(ctx, tracer)
    print(f"preflight: {checks.attempted} checks on the paper's tables, {checks.failed} failed")

    workload = workloads.WORKLOADS[args.workload](ctx)
    setups, speed_before = [], speed.sample()
    for _ in range(SETUP_PROBES):
        raw = _setup_sample(ctx, args.workload, args.scale)
        speed_after = speed.sample()
        setups.append(raw * speed.scale(speed_before, speed_after))
        speed_before = speed_after
    workload.generate()
    with workloads.maybe_span(tracer, "softset.build"):
        state = workload.load()

    # Closed loop: passes back to back until the next one would overrun
    # --seconds (at least MIN_PASSES).  Traced runs alternate untraced and
    # traced passes so both walls come from the same conditions.
    untraced, traced, faults = [], [], list(checks.faults)
    first_pass_span = len(tracer.spans) if tracer else 0
    loop_start = time.perf_counter()
    last = 0.0
    while True:
        now = time.perf_counter()
        done = len(untraced) + len(traced)
        if done >= MIN_PASSES and now - loop_start + last > args.seconds:
            break
        if done and now + 2 * last > ctx.deadline:
            break
        use = tracer if tracer and len(untraced) > len(traced) else None
        try:
            result = workload.run_pass(state, use)
        except Exception as exc:  # e.g. a CLI process that never finished
            checks.op([f"pass aborted: {workloads.describe(exc)}"])
            faults += checks.faults[-1:]
            break
        (traced if use else untraced).append(result)
        faults += result.faults
        last = time.perf_counter() - now

    every = [checks, *untraced, *traced]
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    ok_passes = untraced and (traced or not tracer) and all(
        p.raw for p in untraced + traced)
    if ok_passes:
        metrics = (_per_layer(tracer, traced, untraced, first_pass_span) if tracer
                   else _end_to_end(untraced, setups, workload))
        units = PER_LAYER if tracer else END_TO_END
    else:
        failed, metrics, units = max(failed, 1), {}, {}

    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"{time.perf_counter() - loop_start:.1f} s measured")
    if untraced:
        print(f"raw median pass wall {statistics.median(sum(p.raw) for p in untraced):.6g} s; "
              f"end-to-end times are scaled by the median speed factor "
              f"{statistics.median(p.factor for p in untraced):.4g} (speed.py), "
              "per-layer times are raw")
    print(f"{'metric':<58} {'value':>14} {'unit':<6} samples")
    for name, (value, samples) in metrics.items():
        print(f"{name:<58} {value:>14.6g} {units[name]:<6} {samples}")
    ops = [t for p in untraced for t in p.times]
    if not tracer and len(ops) >= 1000:  # p99 only with >= 10 samples beyond it
        p99 = statistics.quantiles(ops, n=100)[98] * 1e3
        print(f"{'op_p99_ms (reported, not gated)':<58} {p99:>14.6g} {'ms':<6} {len(ops)}")
    print(f"fail_ratio {failed}/{attempted} = {failed / max(attempted, 1):.6g}")
    if tracer and ok_passes:
        program = statistics.median(sum(p.raw) - p.probe_s for p in traced)
        # decide_single is left out: rank, weights and pfwa split it.
        skip = ("trace.", "softset.build", "decision.decide_single") + (
            () if args.workload == "cli-large" else ("cli.",))
        shares = {k: v for k, (v, _) in metrics.items()
                  if k.endswith("_s") and not k.startswith(skip)}
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:6]
        print("largest layers, share of a traced pass's program time: " + ", ".join(
            f"{k} {v / program:.1%}" for k, v in top))
    if getattr(workload, "digests", None):
        print("cli-large output", json.dumps(workload.digests))
    for fault in faults[:20]:
        print("FAULT", fault, file=sys.stderr)
    if tracer:
        tracer.dump(out / "spans.json", env=env_record)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
