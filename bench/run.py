"""Benchmark of the nimatrix command-line paths.

Run from the repository root:

    python3 bench/run.py --workload sample-dataset --seed 1 --seconds 22 --trace 0

One process, one closed-loop client: operation k+1 starts when operation
k and its output check have finished.  Each operation is one or two
``nimatrix`` commands, called in-process through ``nimatrix.cli.main``
on input files generated from ``--seed``.  Operations run until their
summed wall time reaches ``--seconds``; output checks run outside the
timed interval.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced operations and reports the per-layer metrics of the
traced ones, plus the tracing overhead (traced minus untraced median
operation time).  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a full
record of the run, with its environment, per-operation times, output
digests and, when traced, every span, goes to ``bench/out/``.
"""

import os

# BLAS and OpenMP size their thread pools when NumPy loads, so the pin
# must precede every import that pulls NumPy in.  One thread per process
# keeps a shared two-core machine from adding thread contention to the
# timings.
PINNED_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = PINNED_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np
    import scipy
    from nimatrix import cli

    import tracing
    import workloads
except ImportError as exc:
    sys.exit(f"bench: cannot import the program under test from "
             f"{ROOT / 'src'}: {exc}")

#: End-to-end metrics with their units, in report order.
END_TO_END = (("work_per_s", "1/s"), ("op_s.p50", "s"), ("op_s.tail", "s"),
              ("success_rate", "ratio"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120
TAIL_BEYOND = 10    # operations slower than the reported tail time


@dataclass
class Op:
    k: int
    seconds: float
    traced: bool
    rss_mb: float
    error: str | None = None
    digest: str | None = None


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


# ---------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------

def prepare(name: str, seed: int, workdir: Path):
    """Write the workload's inputs and run one small warm-up operation."""
    workdir.mkdir(parents=True)
    wl = workloads.make(name, seed, str(workdir))
    wl.setup()
    warm = workloads.make(name, seed, str(workdir), size="small")
    op = attempt(warm, 0, full=True)
    if op.error:
        raise RuntimeError(f"warm-up operation failed: {op.error}")
    return wl


def measure_setup(args) -> list:
    """Process start to first-operation readiness, in fresh processes.

    Each child imports, writes its inputs and warms up exactly as this
    process does, then prints the monotonic clock, which is shared by
    all processes on the machine.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


# ---------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------

def execute(wl, k: int, tracer=None) -> workloads.Outcome:
    """Run operation k's commands in-process, capturing their output."""
    out, err = io.StringIO(), io.StringIO()
    codes = []
    if tracer is not None:
        tracer.install()
        tracer.op = k
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in wl.commands(k):
                if tracer is not None:
                    codes.append(tracer.call("cli.main", cli.main, argv))
                else:
                    codes.append(cli.main(argv))
                if codes[-1] != 0:
                    break
    finally:
        if tracer is not None:
            tracer.op = None
            tracer.uninstall()
    if any(codes):
        raise workloads.CheckFailed(
            f"exit codes {codes}: {err.getvalue().strip()[-500:]}")
    return workloads.Outcome(stdout=out.getvalue())


def attempt(wl, k: int, full: bool, tracer=None) -> Op:
    """Time operation k, then check its output outside the timed interval.

    An exception, a nonzero exit code or a failed check all count as a
    failed operation; the run goes on.
    """
    start = time.perf_counter()
    try:
        outcome = execute(wl, k, tracer)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 -- counted below
        return Op(k, time.perf_counter() - start, tracer is not None,
                  peak_rss_mb(), error=_describe(exc))
    op = Op(k, time.perf_counter() - start, tracer is not None, peak_rss_mb())
    try:
        op.digest = wl.check(k, outcome, full)
    except Exception as exc:  # noqa: BLE001 -- any check error is a failure
        op.error = _describe(exc)
    return op


def peak_rss_mb() -> float:
    """This process's resident-memory high-water mark so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _describe(exc: BaseException) -> str:
    if isinstance(exc, workloads.CheckFailed):
        return str(exc)
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def run_ops(wl, seconds: float, tracer=None) -> list:
    """Closed loop until the operations' summed time reaches ``seconds``.

    With a tracer, even-numbered operations are traced and odd ones are
    not.  Only the first operation gets the costly full output check.
    """
    ops, busy, k = [], 0.0, 0
    while busy < seconds:
        traced = tracer is not None and k % 2 == 0
        op = attempt(wl, k, full=k == 0, tracer=tracer if traced else None)
        ops.append(op)
        busy += op.seconds
        k += 1
    return ops


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------

def tail(times: list) -> tuple:
    """(time, percentile): the highest percentile with ten operations
    beyond it, or the maximum when a run holds too few operations."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(wl, ops: list, setup_times: list) -> tuple:
    times = [op.seconds for op in ops]
    ok = [op for op in ops if op.error is None]
    tail_s, tail_pct = tail(times)
    metrics = {
        "work_per_s": wl.work() * len(ok) / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "success_rate": len(ok) / len(ops),
        # Read when operation 0 has run and before its check, whose
        # reference runs would otherwise set the high-water mark.
        "peak_rss_mb": ops[0].rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    info = {"tail_percentile": tail_pct, "operation_count": len(ops),
            "error_rate": (len(ops) - len(ok)) / len(ops),
            "work_unit": wl.work_unit, "work_per_op": wl.work(),
            "setup_times_s": setup_times}
    return metrics, info


def per_layer(tracer, ops: list) -> tuple:
    traced = [op for op in ops if op.traced and op.error is None]
    plain = [op for op in ops if not op.traced]
    if not traced or not plain:
        raise RuntimeError("a traced run needs a traced and an untraced "
                           "operation that succeeded")
    per_op = [tracer.op_metrics(op.k) for op in traced]
    metrics = {name: statistics.median(m[name] for m in per_op)
               for name, _ in tracing.METRICS if name != "trace.overhead_s"}
    traced_p50 = statistics.median(op.seconds for op in traced)
    plain_p50 = statistics.median(op.seconds for op in plain)
    metrics["trace.overhead_s"] = traced_p50 - plain_p50
    info = {"traced_op_s.p50": traced_p50, "untraced_op_s.p50": plain_p50,
            "split": tracer.split([op.k for op in traced]),
            "spans": tracer.spans}
    return metrics, info


def report(args, wl, ops, metrics, units, info) -> dict:
    failed = sum(op.error is not None for op in ops)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations, {failed} failed")
    for op in ops:
        if op.error:
            print(f"  operation {op.k} failed: {op.error}")
    for name, value in metrics.items():
        unit = units[name]
        if name == "work_per_s":
            unit = f"{wl.work_unit}/s"
        print(f"  {name:28s} {value:.6g} {unit}")
    if not args.trace:
        print(f"  {'error_rate':28s} {info['error_rate']:.6g} ratio")
        print(f"  op_s.tail is p{info['tail_percentile']:.1f} over "
              f"{info['operation_count']} operations")
    else:
        print(f"  traced op_s.p50 {info['traced_op_s.p50']:.6g} s, "
              f"untraced {info['untraced_op_s.p50']:.6g} s")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    workdir = BENCH_DIR / ".work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        if args.setup_only:
            prepare(args.workload, args.seed, workdir)
            print(time.monotonic())
            return 0
        setup_times = [] if args.trace else measure_setup(args)
        wl = prepare(args.workload, args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        ops = run_ops(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, info = per_layer(tracer, ops)
        units = dict(tracing.METRICS)
    else:
        metrics, info = end_to_end(wl, ops, setup_times)
        units = dict(END_TO_END)
    result = report(args, wl, ops, metrics, units, info)

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "result": result,
              "operations": [asdict(op) for op in ops], **info}
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
