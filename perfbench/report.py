"""Run workloads over seeds and print every metric by name with its unit.

    python3 perfbench/report.py                       # all workloads, seed 1
    python3 perfbench/report.py --seeds 1-10          # steadiness check
    python3 perfbench/report.py --workloads oracle --trace 1

Each run is ``run.py`` in its own process, as the benchmark is meant to be
run.  Per metric the table gives the median over seeds and, with two or more
seeds, the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  ``failed_frac`` is failed items over
attempted items, summed over the runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1", help="list such as 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} run(s), seeds {args.seeds}, "
              f"correct={all(r['correct'] for r in results)}, failed_frac={failed / attempted:.6g}")
        print(f"  {'metric':40s} {'unit':>10s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
        rows = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            spread = None
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(median)
            bound = bounds.get(name)
            rows[name] = {"unit": first["unit"], "median": median, "spread": spread,
                          "bound": bound, "values": values}
            print(f"  {name:40s} {first['unit']:>10s} {median:14.6g} "
                  f"{'' if spread is None else f'{spread:8.4f}':>8s} {'' if bound is None else bound:>6}")
        summary[workload] = {"failed_frac": failed / attempted, "metrics": rows}
    out = ROOT / ".perfbench_work" / "results" / f"report-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seeds": seeds, "seconds": args.seconds, "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
