"""Run the benchmark over several seeds and summarise it as one BENCH file.

Run from the repository root:

    python3 bench/collect.py --label seed --seeds 1-10 --out bench/results

For each workload it runs ``bench/run.py`` once per seed, untraced, one
run at a time, and reports every end-to-end metric's median, quartiles
and spread (interquartile distance over the median, the figure that is
held against the metric's bound in ``BENCHMARK.json``).  With
``--traced`` it adds one traced run per workload on the first seed.  The
summary goes to ``<out>/BENCH_<label>.json`` with the environment and
the output digests of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 180


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    record_path = (BENCH_DIR / "out"
                   / f"{workload}-seed{seed}-trace{trace}.json")
    with open(record_path, encoding="utf-8") as fh:
        return json.load(fh)


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    p.add_argument("--traced", action="store_true",
                   help="add one traced run per workload")
    p.add_argument("--out", default=str(BENCH_DIR / "out"))
    args = p.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    summary = {"label": args.label, "run_seconds": seconds, "seeds": seeds,
               "workloads": {}}
    for name in names:
        records = []
        for seed in seeds:
            rec = run_once(name, seed, seconds, 0)
            records.append(rec)
            m = rec["result"]["metrics"]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)
        summary["environment"] = records[-1]["environment"]
        metrics = {}
        for metric in records[0]["result"]["metrics"]:
            metrics[metric] = spread(
                [r["result"]["metrics"][metric]["value"] for r in records])
            metrics[metric]["bound"] = bounds.get(metric)
        entry = {
            "metrics": metrics,
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "tail_percentiles": [r["tail_percentile"] for r in records],
            "digests": {str(r["seed"]): [op["digest"] for op in r["operations"]]
                        for r in records},
        }
        if args.traced:
            rec = run_once(name, seeds[0], seconds, 1)
            entry["traced"] = {
                "seed": seeds[0],
                "metrics": {k: v["value"]
                            for k, v in rec["result"]["metrics"].items()},
                "split": rec["split"],
                "traced_op_s.p50": rec["traced_op_s.p50"],
                "untraced_op_s.p50": rec["untraced_op_s.p50"],
            }
        summary["workloads"][name] = entry
        for metric, s in metrics.items():
            flag = ""
            if s["bound"] is not None and s["spread"] > s["bound"] / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {metric:14s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}){flag}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{args.label}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
