"""Self-test of the benchmark's output checks and failure accounting.

Run from the repository root:

    python3 bench/selftest.py

For every workload, at the small warm-up size and on two seeds, it runs
one operation and requires its checks to pass, then runs it again with
a deliberately corrupted output and requires the operation to be
counted as failed.  The corruptions are a perturbed sample file
(relative 1e-6 on one entry), a non-monotone objective trace, and a
wrong Wilson half-width; a missing input file checks that a nonzero
exit code is counted too.  It also checks that the metrics and workloads
a run reports are the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # pins BLAS threads before NumPy loads
import tracing
import workloads
from nimatrix import oracles

SEEDS = (1, 2)


def perturb_samples(wl, outcome):
    path = wl.path("out.bin")
    atoms = oracles.load_dataset(path).atoms
    atoms[0, 0] *= 1.0 + 1e-6
    oracles.save_dataset(oracles.Dataset(atoms=atoms), path)


def break_monotone_trace(wl, outcome):
    lines = outcome.stdout.strip().splitlines()
    first = float(lines[1].split(",")[1])
    lines[-1] = f"{len(lines) - 2},{first + 1.0!r}"
    outcome.stdout = "\n".join(lines) + "\n"


def wrong_wilson(wl, outcome):
    lines = outcome.stdout.strip().splitlines()
    row = lines[1].split(",")
    row[5] = repr(float(row[5]) * 1.01)
    lines[1] = ",".join(row)
    outcome.stdout = "\n".join(lines) + "\n"


CORRUPTIONS = {"sample-dataset": perturb_samples,
               "sample-long": perturb_samples,
               "search-ring": break_monotone_trace,
               "degrade": wrong_wilson}


def corrupted(wl, corrupt):
    """The workload's check, applied after ``corrupt`` edits the output."""
    check = wl.check

    def check_corrupted(k, outcome, full):
        corrupt(wl, outcome)
        return check(k, outcome, full)

    return check_corrupted


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


def check_metric_lists() -> None:
    """The metrics a run reports are the ones BENCHMARK.json declares."""
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, reported in (("end_to_end", run.END_TO_END),
                          ("per_layer", tracing.METRICS)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        expect(declared == list(reported),
               f"{key} in BENCHMARK.json differs from what a run reports")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "workloads in BENCHMARK.json differ from bench/workloads.py")


def main() -> int:
    check_metric_lists()
    root = run.BENCH_DIR / ".work" / f"selftest-p{os.getpid()}"
    try:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                workdir = root / f"{name}-s{seed}"
                workdir.mkdir(parents=True)
                wl = workloads.make(name, seed, str(workdir), size="small")
                wl.setup()
                good = run.attempt(wl, 0, full=True)
                expect(good.error is None,
                       f"{name} seed {seed}: clean output failed: {good.error}")
                wl.check = corrupted(wl, CORRUPTIONS[name])
                bad = run.attempt(wl, 0, full=True)
                expect(bad.error is not None,
                       f"{name} seed {seed}: corrupted output passed")
                metrics, info = run.end_to_end(wl, [good, bad], [1.0])
                expect(metrics["success_rate"] == 0.5
                       and info["error_rate"] == 0.5,
                       f"{name} seed {seed}: failure not counted")
                print(f"{name} seed {seed}: clean output passes; corrupted "
                      f"output fails with: {bad.error}")
        wl = workloads.make("sample-dataset", 1, str(root / "sample-dataset-s1"),
                            size="small")
        os.remove(wl.path("data.bin"))
        missing = run.attempt(wl, 1, full=False)
        expect(missing.error is not None and "exit codes" in missing.error,
               "a nonzero exit code was not counted as a failure")
        print(f"missing input: {missing.error.splitlines()[0]}")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
