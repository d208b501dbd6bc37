"""Run the benchmark over several seeds and summarize each metric.

From the repository root:

    python3 perfbench/sweep.py --workloads compare-noisy generate-io \
        --seeds 1-10 --trace 0 --out perfbench/results/sweep.json

Runs are sequential, one process at a time.  For every workload and metric
the summary gives the median, the quartiles (``statistics.quantiles`` with
n=4) and the spread, the quartile distance as a share of the median, next to
the bound BENCHMARK.json declares.  Each run's full record from
perfbench/results/ is kept in the summary as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"trace": args.trace, "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    all_correct = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            elapsed = time.perf_counter() - started
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(proc.stdout + proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, no result")
            line = json.loads(lines[-1])
            record = json.loads(
                (BENCH_DIR / "results" / f"{workload}_seed{seed}_trace{args.trace}.json").read_text()
            )
            all_correct &= line["correct"] and proc.returncode == 0
            runs.append({"seed": seed, "exit": proc.returncode, "run_s": elapsed,
                         "result": line, "record": record})
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={line['correct']}, "
                  + ", ".join(f"{n}={m['value']:.5g}" for n, m in line["metrics"].items()
                              if n in bounds or not args.trace),
                  flush=True)
        metrics = {
            name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
            for name in runs[0]["result"]["metrics"]
        }
        for name, stats in metrics.items():
            stats["bound"] = bounds.get(name)
            if name in bounds:
                print(f"  {workload} {name}: median {stats['median']:.5g}, "
                      f"spread {stats['spread']:.4f} (bound {bounds[name]})", flush=True)
        summary["workloads"][workload] = {"metrics": metrics, "runs": runs}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
