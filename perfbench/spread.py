"""Run the benchmark once per seed and report how far each metric spreads.

    python3 perfbench/spread.py --label a --seeds 1-10
    python3 perfbench/spread.py --label b --seeds 1-10 --workloads reach_pwa
    python3 perfbench/spread.py --compare a b

A set of runs prints, per workload and end-to-end metric, the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json, and the share of failed
operations.  --compare reads two saved sets and prints each median's shift.
Sets are saved as perfbench-out/spread-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench-out"


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar="LABEL")
    args = p.parse_args(argv)

    if args.compare:
        a, b = (json.loads((OUT / f"spread-{x}.json").read_text()) for x in args.compare)
        for workload in a.keys() & b.keys():
            for metric, sa in a[workload]["metrics"].items():
                sb = b[workload]["metrics"][metric]
                shift = (sb["median"] - sa["median"]) / sa["median"]
                print(f"{workload:14s} {metric:14s} {sa['median']:12.6g} -> "
                      f"{sb['median']:12.6g}  shift {shift:+7.2%}  bound {bounds[metric]:.0%}")
        return 0

    OUT.mkdir(exist_ok=True)
    report = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in seed_list(args.seeds):
            results.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: {json.dumps(results[-1]['metrics'])}",
                  file=sys.stderr, flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in results])
                   for name in results[0]["metrics"]}
        report[workload] = {
            "seeds": seed_list(args.seeds),
            "runs": results,
            "metrics": metrics,
            "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
            "correct": all(r["correct"] for r in results),
        }
        for name, s in metrics.items():
            print(f"{workload:14s} {name:14s} median {s['median']:12.6g}  "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:7.2%}"
                  + (f"  bound {bounds[name]:.0%}" if name in bounds else ""))
        print(f"{workload:14s} correct {report[workload]['correct']}  "
              f"failed share {report[workload]['failed_share']}")
    if args.label:
        path = OUT / f"spread-{args.label}.json"
        saved = json.loads(path.read_text()) if path.exists() else {}
        saved.update(report)
        path.write_text(json.dumps(saved, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
