"""orbit-betti benchmark: one workload per process, run from the repository root.

    python3 bench/run.py --workload quotient-d2 --seed 1 --seconds 50 --trace 0

Set-up (import, input generation, parsing) is timed five times: once in this
process and four times in fresh child processes, one after another; the
median is ``setup_s``.  Then the workload runs as passes of identical calls
for about ``--seconds``: the first pass is timed and the count of passes
rounded to fill the window, at least one.  Each answer is checked against
its golden value after its pass.

``--trace 0`` installs no wrappers and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes (at least one of each),
reports the per-layer metrics from the traced passes, and writes the spans
to ``.bench_out/trace-<workload>-seed<seed>.json``.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# one thread for numpy's BLAS / OpenMP pools, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_CHILDREN = 4

import spans  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "query_s.p50": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "pipeline.oracle_s": "s",
    "pipeline.oracle_points": "count",
    "pipeline.filter_pass_ratio": "ratio",
    "pipeline.self_s": "s",
    "powersums.rewrite_s": "s",
    "powersums.rewrite_calls": "count",
    "polys.parse_s": "s",
    "compositions.comp_kd_s": "s",
    "compositions.comp_kd_calls": "count",
    "fibres.membership_calls.inside": "count",
    "fibres.membership_calls.outside": "count",
    "fibres.membership_calls.undecided": "count",
    "fibres.membership_s.inside": "s",
    "fibres.membership_s.outside": "s",
    "fibres.membership_s.undecided": "s",
    "fibres.probe_s": "s",
    "fibres.subdivision_s": "s",
    "fibres.solve_fibre_calls": "count",
    "fibres.solve_fibre_hit_ratio": "ratio",
    "fibres.undecided_boxes": "count",
    "fibres.section_s": "s",
    "fibres.section_candidates": "count",
    "cubical.build_s": "s",
    "cubical.grid_points": "count",
    "cubical.cells_built": "count",
    "cubical.collapse_s": "s",
    "cubical.cells_after_collapse": "count",
    "cubical.collapse_ratio": "ratio",
    "cubical.rank_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_s": "s",
    "setup.build_s": "s",
    "setup.parse_s": "s",
    "result.fail_ratio": "ratio",
    "result.undecided_cells": "count",
    "result.unstable_problems": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def setup(name: str, seed: int, workdir: Path):
    """Import the package and build the workload's inputs; returns (seconds, prepared)."""
    start = perf_counter()
    import orbit_betti

    prepared = WORKLOADS[name].prepare(seed, workdir)
    seconds = perf_counter() - start
    where = Path(orbit_betti.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"orbit_betti was imported from {where}, not from {SRC}")
    return seconds, prepared


def child_setup(name: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter."""
    workdir = OUT / f"setup-{name}-{seed}-{os.getpid()}"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, prepared, seconds: float, trace: bool, run_prefix: str):
    """Passes for about `seconds`; with tracing, untraced and traced alternate."""
    untraced, traced = [], []  # (wall, PassResult)
    tracers = []
    count = None
    index = 0
    while count is None or index < count:
        use_trace = trace and index % 2 == 1
        if use_trace:
            tracer = spans.Tracer(f"{run_prefix}-pass{index}")
            with tracer, tracer.root():
                result = workload.run(prepared)
            tracers.append(tracer)
            wall = tracer.spans[0].end - tracer.spans[0].start
            traced.append((wall, result))
        else:
            start = perf_counter()
            result = workload.run(prepared)
            untraced.append((perf_counter() - start, result))
        if count is None:
            count = max(2 if trace else 1, round(seconds / untraced[0][0]))
            # later passes reuse the first one's freed memory, so the peak
            # is taken here and does not depend on how many passes fit
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        index += 1
    return untraced, traced, tracers, peak_rss_mb


def traced_setup(workload, seed: int, workdir: Path, run_id: str):
    """Rebuild the inputs once under the tracer (imports are already done)."""
    tracer = spans.Tracer(run_id)
    with tracer, tracer.root(spans.SETUP_SPAN):
        workload.prepare(seed, workdir)
    return tracer


def summarize_outcomes(outcomes: list[Outcome], passes: int) -> dict:
    failed = sum(not o.ok for o in outcomes)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "fail_ratio": _ratio(failed, len(outcomes)),
        "undecided_cells": sum(o.undecided_cells for o in outcomes) / max(passes, 1),
        "unstable_problems": sum(o.unstable for o in outcomes) / max(passes, 1),
    }


def layer_metrics(tracers, setup_tracer, untraced_walls, traced_walls, results):
    """The per-layer metrics (medians over traced passes) and the per-pass tables."""
    tables = [spans.layer_table(t.spans, t.counters) for t in tracers]
    table = spans.median_table(tables)
    setup_table = spans.layer_table(setup_tracer.spans, setup_tracer.counters)
    out = {key: table.get(key, 0.0) for key in PER_LAYER_UNITS}
    out["pipeline.filter_pass_ratio"] = _ratio(
        table.get("pipeline.filter_passed", 0.0), table.get("pipeline.filter_points", 0.0))
    out["fibres.solve_fibre_hit_ratio"] = _ratio(
        table.get("fibres.solve_fibre_hits", 0.0), table.get("fibres.solve_fibre_calls", 0.0))
    out["cubical.collapse_ratio"] = _ratio(
        table.get("cubical.cells_after_collapse", 0.0),
        table.get("cubical.cells_before_collapse", 0.0))
    out["trace.unattributed_share"] = _ratio(out["trace.unattributed_s"], out["trace.wall_s"])
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    out["setup.build_s"] = setup_table["trace.wall_s"]
    out["setup.parse_s"] = setup_table.get("polys.parse_s", 0.0)
    out["result.fail_ratio"] = results["fail_ratio"]
    out["result.undecided_cells"] = results["undecided_cells"]
    out["result.unstable_problems"] = results["unstable_problems"]
    return out, tables


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "orbit_betti" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        workdir = Path(args.setup_only)
        try:
            seconds, _ = setup(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(repr(seconds))
        return 0

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        return measure(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, args, workdir: Path) -> int:
    setup_seconds, prepared = setup(args.workload, args.seed, workdir)
    setup_samples = [setup_seconds]
    if not args.trace:
        setup_samples += [child_setup(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]

    run_prefix = f"{args.workload}-seed{args.seed}"
    untraced, traced, tracers, peak_rss_mb = run_passes(
        workload, prepared, args.seconds, bool(args.trace), run_prefix)
    if not args.trace and spans.installed_wrappers():
        raise SystemExit("untraced run found wrappers installed")

    outcomes: list[Outcome] = []
    call_seconds: list[float] = []
    for _wall, result in untraced + traced:
        outcomes += workload.check(prepared, result.answers)
    for _wall, result in untraced:
        call_seconds += result.call_seconds
    results = summarize_outcomes(outcomes, len(untraced) + len(traced))
    walls = [wall for wall, _ in untraced]

    env = environment()
    print(f"workload {args.workload} seed {args.seed} inputs_sha256 {prepared.digest()}")
    print("environment " + " ".join(f"{k} {v}" for k, v in env.items()))
    print(f"passes {len(untraced)} untraced, {len(traced)} traced; "
          f"{len(call_seconds)} timed calls; answers {results['attempted']} "
          f"failed {results['failed']}")
    for o in outcomes:
        if not o.ok:
            print(f"FAILED {o.detail}")

    if args.trace:
        setup_tracer = traced_setup(workload, args.seed, workdir, f"{run_prefix}-setup")
        metrics, tables = layer_metrics(
            tracers, setup_tracer, walls, [w for w, _ in traced], results)
        units = PER_LAYER_UNITS
        OUT.mkdir(exist_ok=True)
        artifact = OUT / f"trace-{run_prefix}.json"
        artifact.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "inputs_sha256": prepared.digest(),
            "environment": env,
            "untraced_walls": walls,
            "traced_walls": [w for w, _ in traced],
            "per_pass_layers": tables,
            "layers": metrics,
            "counters": [dict(t.counters) for t in tracers + [setup_tracer]],
            "spans": [s.to_json() for t in tracers + [setup_tracer] for s in t.spans],
        }, indent=1, sort_keys=True))
        layers = sum(metrics[key] for key in spans.LAYER_SELF_METRICS)
        share = metrics["trace.unattributed_share"]
        print(f"trace written to {artifact.relative_to(ROOT)}")
        print(f"coverage: layer self times {layers:.6f} s + unattributed "
              f"{metrics['trace.unattributed_s']:.6f} s = {layers + metrics['trace.unattributed_s']:.6f} s"
              f" of traced wall {metrics['trace.wall_s']:.6f} s; unattributed {share:.3%} "
              f"({'within' if share < 0.05 else 'OVER'} the 5% bar)")
        print(f"overhead: traced {statistics.median(w for w, _ in traced):.4f} s - untraced "
              f"{statistics.median(walls):.4f} s = {metrics['trace.overhead_s']:+.4f} s")
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(walls),
            "query_s.p50": statistics.median(call_seconds),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        print(f"setup samples {', '.join(f'{s:.4f}' for s in setup_samples)} s")
        print(f"pass walls {', '.join(f'{w:.4f}' for w in walls)} s")
        # a tail percentile is steady only with ten calls beyond it; the grid
        # workloads make one to four calls a pass, so it stays out of the JSON
        print(f"query_s.p50 over {len(call_seconds)} calls")
        if len(call_seconds) >= 20:
            pct = int(100 * (1 - 10 / len(call_seconds)))
            tail = statistics.quantiles(call_seconds, n=100, method="inclusive")[pct - 1]
            print(f"query_s.p{pct} {tail:.6g} s (ten of {len(call_seconds)} calls beyond it)")
        for key in ("fail_ratio", "undecided_cells", "unstable_problems"):
            unit = "ratio" if key == "fail_ratio" else "count"
            print(f"{key} {results[key]:g} {unit}")

    for key, unit in units.items():
        print(f"{key} {metrics[key]:.6g} {unit}")
    print(json.dumps({
        "correct": results["failed"] == 0,
        "attempted": results["attempted"],
        "failed": results["failed"],
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
