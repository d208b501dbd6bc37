"""Benchmark of the sianms command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload compare-noisy --seed 1 --seconds 40 --trace 0

The run builds its inputs from --seed, then repeats cycles for about
--seconds seconds: timed set-ups of those inputs, then one timed pass through
``sianms.cli.main`` whose output is checked.  Each cycle also times a fixed
reference computation that does not touch sianms; the run's median times
are divided by the reference's median and reported in seconds at the
reference's nominal speed, so that the machine's own speed swings cancel.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A fuller record, including the environment, goes to
perfbench/results/.  Exit status is 0 when every check passed, 1 when one
failed, and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_PASSES = 2
# set-up time gathered per cycle; compare set-ups are short, so a cycle
# times several of them and a run's median rests on dozens
SETUP_S_PER_CYCLE = 0.4
# the reference computation's median time on the baseline machine
# (perfbench/baseline/README.md); end-to-end times are scaled to it
REFERENCE_NOMINAL_S = 0.2
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(args, gen) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "spec_seed": gen.seed,
        "frames": gen.n_frames,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared_metrics() -> dict:
    """Metric names and units declared in BENCHMARK.json, by section."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        section: {m["name"]: m["unit"] for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


class Reference:
    """A fixed computation in the interpreter and NumPy, of the kind the
    estimator does (quantiles, covariances and Python arithmetic on small
    arrays), that uses no sianms code.  Its time says how fast the machine
    runs at the moment: on a shared 2-core VM the same work swings by up to
    1.7 times, over stretches from a fraction of a second to minutes, and a
    run's median time divided by the median reference time of the same run
    keeps a change in the program and drops the swing."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.points = np.random.default_rng(0).normal(size=(90, 3))

    def work(self) -> float:
        np, points = self.np, self.points
        acc = 0.0
        for i in range(1300):
            window = points[i % 7:]
            acc += float(np.quantile(window[:, 0], 0.95) - np.quantile(window[:, 1], 0.05))
            acc += float(np.cov(window[:, :2].T)[0, 1])
            acc += sum(x * 0.5 for x in range(40))
        return acc

    def time(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0


def at_reference(seconds: float, reference_s: float) -> float:
    """A time measured while the reference took ``reference_s``, in seconds
    at the reference's nominal speed."""
    return seconds / reference_s * REFERENCE_NOMINAL_S


def timed_setup(bench) -> float:
    gc.collect()
    t0 = time.perf_counter()
    bench.setup()
    return time.perf_counter() - t0


def measure(bench, tracer, reference: Reference, deadline: float):
    """Cycles until the next one would end after ``deadline``.

    A cycle times the reference, set-ups of the inputs until
    SETUP_S_PER_CYCLE seconds of them have run (at least one; each rewrites
    the same inputs), the reference again, and one pass.  With a tracer,
    passes alternate untraced and traced, starting untraced.  Returns (cycle
    records, per-pass outcomes, traced-pass span lists).
    """
    import spans
    import workloads

    records, outcomes, traced_spans = [], [], []
    while True:
        cycle_start = time.perf_counter()
        index = len(records)
        traced = tracer is not None and index % 2 == 1
        before = reference.time()
        setups = []
        while not setups or sum(setups) < SETUP_S_PER_CYCLE:
            setups.append(timed_setup(bench))
        after = reference.time()
        out = bench.pass_dir(index)
        gc.collect()
        with tracer.installed() if traced else contextlib.nullcontext(), \
                workloads.capture_comparison() as captured:
            t0 = time.perf_counter()
            bench.run_pass(out)
            wall = time.perf_counter() - t0
        outcome = bench.check_pass(out, captured)
        record = {
            "pass": index,
            "traced": traced,
            "wall_s": wall,
            "reference_s": [before, after],
            "setup_s": setups,
            "failures": outcome.failures,
        }
        if traced:
            pass_spans, counters = tracer.take_pass()
            traced_spans.append((index, pass_spans))
            record["layers"] = spans.summarize_pass(pass_spans, counters, wall)
            record["failures"] += reconcile(record["layers"]["calls"], outcome)
        outcome.comparison = None  # release the boxes before the next pass
        shutil.rmtree(out, ignore_errors=True)
        record["cycle_s"] = time.perf_counter() - cycle_start
        records.append(record)
        outcomes.append(outcome)
        longest = max(r["cycle_s"] for r in records[-2:])
        if len(records) >= MIN_PASSES and time.perf_counter() + longest > deadline:
            return records, outcomes, traced_spans


def reconcile(calls: dict, outcome) -> list[str]:
    """On a compare pass without frame errors, the traced call counts must
    match the report: one estimate per box or too-few-points drop, and one
    frustum filter per working detection."""
    comparison = outcome.comparison
    if comparison is None or any(r.errors for r in comparison.reports.values()):
        return []
    counts = [r.counts for r in comparison.reports.values()]
    expected = {
        "estimator.estimate_box": sum(c["boxes_3d"] + c["dropped_too_few_points"] for c in counts),
        "frustum.filter_frustum": sum(c["detections_2d"] for c in counts),
    }
    return [
        f"{name}: traced {calls[name]} calls, report implies {want}"
        for name, want in expected.items()
        if calls[name] != want
    ]


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "sianms" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'sianms'}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sianms

    if Path(sianms.__file__).resolve().parent != (SRC / "sianms").resolve():
        print(f"error: imported sianms from {sianms.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    gen = workload.spec_for(args.seed)
    declared = declared_metrics()
    env = environment(args, gen)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work_dir = BENCH_DIR / "work" / f"{tag}_{os.getpid()}"
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        bench = workloads.Bench(workload, gen, work_dir)
        tracer = spans.Tracer() if args.trace else None
        records, outcomes, traced_spans = measure(
            bench, tracer, Reference(), started + args.seconds
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result, reported, shown = summarize(
        workload, args, env, peak_rss_mb, records, outcomes, declared
    )
    (results_dir / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        spans.write_spans(results_dir / f"{tag}_spans.jsonl", traced_spans)
    print_report(result, records, shown)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": len(records),
        "failed": result["failed"],
        "metrics": reported,
    }))
    return 0 if result["correct"] else 1


def summarize(workload, args, env, peak_rss_mb, records, outcomes, declared):
    """Compute the run's metrics and run-level checks.

    Returns (full record for the results file, the metrics of the final
    line, the (value, unit) pairs to print).
    """
    import spans
    import workloads

    run_failures = workloads.check_digests(outcomes)
    raw = {
        "setup_s": statistics.median(t for r in records for t in r["setup_s"]),
        "wall_s": statistics.median(r["wall_s"] for r in records if not r["traced"]),
        "reference_s": statistics.median(t for r in records for t in r["reference_s"]),
    }
    end_to_end = {
        "setup_s": (at_reference(raw["setup_s"], raw["reference_s"]), "s"),
        "wall_s": (at_reference(raw["wall_s"], raw["reference_s"]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    quality_values = outcomes[0].quality or dict.fromkeys(workloads.QUALITY_UNITS, 0.0)
    quality = {name: (v, workloads.QUALITY_UNITS[name]) for name, v in quality_values.items()}
    shown = dict(end_to_end)
    if workload.kind == "compare":
        shown.update(quality)
    per_layer = None
    reported = end_to_end
    if args.trace:
        traced = [r for r in records if r["traced"]]
        # each traced pass against the untraced pass just before it, so
        # that the machine's drift between passes far apart does not enter
        overheads = [r["wall_s"] - records[r["pass"] - 1]["wall_s"] for r in traced]
        per_layer = spans.layer_metrics(
            [r["layers"] for r in traced], [r["wall_s"] for r in traced], overheads
        )
        per_layer["sceneio.bytes_written"] = (outcomes[0].bytes_written, "bytes")
        per_layer.update(quality)
        if any(r["layers"]["calls"] != traced[0]["layers"]["calls"] for r in traced):
            run_failures.append("traced call counts differ between passes")
        shown.update(per_layer)
        reported = per_layer
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    if {n: u for n, (_, u) in reported.items()} != wanted:
        run_failures.append("reported metrics do not match BENCHMARK.json")
    failed = sum(1 for r in records if r["failures"]) + len(run_failures)

    def as_json(metrics):
        return {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}

    result = {
        "environment": env,
        "passes": len(records),
        "setups": sum(len(r["setup_s"]) for r in records),
        "raw": raw,
        "end_to_end": as_json(end_to_end),
        "quality": as_json(quality),
        "per_layer": as_json(per_layer) if per_layer else None,
        "digests": outcomes[0].digests,
        "pass_records": [{k: v for k, v in r.items() if k != "layers"} for r in records],
        "run_failures": run_failures,
        "failed": failed,
        "correct": failed == 0,
    }
    return result, as_json(reported), shown


def print_report(result, records, shown) -> None:
    print("environment: " + ", ".join(f"{k}={v}" for k, v in result["environment"].items()))
    for r in records:
        status = "ok" if not r["failures"] else "FAILED: " + "; ".join(r["failures"])
        print(f"pass {r['pass']} ({'traced' if r['traced'] else 'untraced'}): "
              f"{r['wall_s']:.4f} s, reference {statistics.mean(r['reference_s']):.4f} s, "
              f"{len(r['setup_s'])} set-ups  {status}")
    for failure in result["run_failures"]:
        print(f"run check FAILED: {failure}")
    for name, digest in sorted(result["digests"].items()):
        print(f"sha256 {name}: {digest}")
    n_untraced = sum(1 for r in records if not r["traced"])
    raw = result["raw"]
    print(f"setup_s over {result['setups']} set-ups, wall_s over {n_untraced} untraced "
          f"passes; measured medians: setup {raw['setup_s']:.4f} s, pass {raw['wall_s']:.4f} s, "
          f"reference {raw['reference_s']:.4f} s (nominal {REFERENCE_NOMINAL_S} s)")
    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")


if __name__ == "__main__":
    # one single-threaded process: pin native thread pools before numpy loads
    for _var in THREAD_VARS:
        os.environ[_var] = "1"
    sys.exit(main())
