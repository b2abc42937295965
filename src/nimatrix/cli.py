"""Command-line interface.

One binary with subcommands covering every pipeline: trace a sampler to
a matrix file, check marginal deviations, execute a matrix with an
analytic predictor, run concentration statistics, classify rows as
guidance stages, search for improved matrices, compute spectral SNR
profiles, and export embedded presets.

Results go to stdout as CSV; diagnostics go to stderr.  Exit codes:
0 success, 2 usage/parameter error, 3 numeric failure, 4 I/O or file
format error.
"""

from __future__ import annotations

import argparse
import sys
from tokenize import TokenError

import numpy as np

from . import analysis, coeffmatrix, engine, guidance, oracles, presets
from . import schedule as sched
from . import search as searchmod
from .errors import (DomainError, FormatError, NumericError, ParameterError,
                     ProtocolError, ValidationError)
from .samplers import KINDS, SamplerSpec, default_grid, default_schedule

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

DEFAULT_STEPS = 18  # trace evaluations on the trailing and quadratic grids


#: ``--schedule`` name -> (constructor, defaults of its numeric fields).
_SCHEDULES = {"flow": (sched.make_flow, ()),
              "vp-linear": (sched.make_vp_linear, (1e-4, 0.02, 1000)),
              "vp-continuous": (sched.make_vp_continuous, (0.1, 20.0))}

#: ``--family`` name -> its default schedule (degrade, spectrum).
_FAMILIES = {"vp": sched.make_vp_linear, "flow": sched.make_flow}


def _numbers(parts, text: str) -> list:
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ParameterError(f"not a number in {text!r}") from None


def _parse_schedule(text: str | None, spec: SamplerSpec | None = None):
    if text is None:
        if spec is None:
            raise ParameterError("a schedule is required")
        return default_schedule(spec)
    kind, *fields = text.split(":")
    if kind not in _SCHEDULES:
        raise ParameterError(f"unknown schedule {text!r}")
    make, defaults = _SCHEDULES[kind]
    if len(fields) > len(defaults):
        raise ParameterError(f"schedule {kind} takes at most "
                             f"{len(defaults)} fields, got {text!r}")
    args = _numbers(fields, text) + list(defaults[len(fields):])
    if kind == "vp-linear":
        if not float(args[2]).is_integer():
            raise ParameterError(f"vp-linear T must be an integer, "
                                 f"got {args[2]!r}")
        args[2] = int(args[2])
    return make(*args)


def _load_dataset(path: str):
    """A dataset from a .csv file or the binary format."""
    if path.endswith(".csv"):
        return oracles.load_dataset_csv(path)
    return oracles.load_dataset(path)


def _parse_predictor(text: str, s, label=None):
    if ":" not in text:
        raise ParameterError("predictor must be dataset:FILE or gmm:FILE")
    kind, path = text.split(":", 1)
    if kind == "dataset":
        return oracles.make_predictor(_load_dataset(path), s, label=label)
    if kind == "gmm":
        return oracles.make_predictor(oracles.load_mixture(path), s)
    raise ParameterError(f"unknown predictor kind {kind!r}")


def _marginal_csv(report) -> str:
    lines = ["time,equivalent_signal,equivalent_noise,ideal_signal,"
             "ideal_noise,signal_deviation,noise_deviation"]
    for i, t in enumerate(report.row_times):
        lines.append(",".join(repr(float(v)) for v in (
            t, report.equivalent_signal[i], report.equivalent_noise[i],
            report.ideal_signal[i], report.ideal_noise[i],
            report.signal_deviation[i], report.noise_deviation[i])))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------

def cmd_trace(args):
    spec = SamplerSpec(kind=args.sampler)
    s = _parse_schedule(args.schedule, spec)
    steps = DEFAULT_STEPS if args.steps is None else args.steps
    grid = None  # the sampler's own trailing grid
    if args.grid.startswith("explicit:"):
        path = args.grid.split(":", 1)[1]
        times = oracles._read_table(path, 1)
        if times.ndim != 1:
            raise FormatError(f"{path}: want one time per line, got a "
                              f"{times.shape[0]} x {times.shape[1]} table")
        grid = sched.make_grid(s, len(times), "explicit", explicit=times)
    elif args.grid == "quadratic":
        grid = default_grid(spec, s, steps, "quadratic")
    elif args.grid != "trailing":
        raise ParameterError(f"unknown grid {args.grid!r}: want trailing, "
                             "quadratic or explicit:FILE")
    m = coeffmatrix.trace_sampler(spec, s=s, grid=grid, n_evals=steps)
    if (grid is not None and grid.rule == "explicit"
            and args.steps not in (None, m.n_evals)):
        raise ParameterError(f"--steps {args.steps} but the grid in "
                             f"{args.grid} gives {m.n_evals} evaluations")
    if args.out:
        coeffmatrix.save(m, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    report = coeffmatrix.equivalent_marginals(m, s)
    sys.stdout.write(_marginal_csv(report))
    print(f"max deviation (excluding start row): "
          f"{report.max_deviation(skip_initial_row=True):.6g}",
          file=sys.stderr)
    return EXIT_OK


def _load_matrix(name_or_path: str):
    if name_or_path in presets.list_presets():
        return presets.load_preset(name_or_path)
    return coeffmatrix.load(name_or_path)


def cmd_check(args):
    m = _load_matrix(args.matrix)
    report = coeffmatrix.equivalent_marginals(m)
    sys.stdout.write(_marginal_csv(report))
    return EXIT_OK


def cmd_sample(args):
    m = _load_matrix(args.matrix)
    pred = _parse_predictor(args.predictor, m.schedule(), label=args.label)
    res = engine.run_matrix(engine.RunConfig(
        matrix=m, predictor=pred, n=args.n, seed=args.seed))
    if args.out:
        oracles.save_dataset(oracles.Dataset(atoms=res.samples), args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        for row in res.samples:
            sys.stdout.write(",".join(repr(float(v)) for v in row) + "\n")
    return EXIT_OK


def cmd_degrade(args):
    ds = _load_dataset(args.data)
    s = _FAMILIES[args.family]()
    times = _numbers(args.times.split(","), args.times)
    report = analysis.degradation_table(
        ds, [s], [times], trials=args.trials, seed=args.seed,
        threshold=args.threshold)
    sys.stdout.write(report.to_csv())
    return EXIT_OK


def cmd_guidance(args):
    m = _load_matrix(args.matrix)
    lines = ["time,summary"]
    for t, summary in guidance.classify_matrix(m):
        lines.append(f"{float(t)!r},{summary}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_search(args):
    if args.init == "ddim":
        spec = SamplerSpec(kind="ddim")
        base = coeffmatrix.trace_sampler(spec, n_evals=args.steps)
    else:
        base = _load_matrix(args.init)
    pred = _parse_predictor(args.predictor, base.schedule())
    rng = np.random.default_rng(args.seed)
    if args.reference:
        ref = _load_dataset(args.reference).atoms
    else:
        # sample the predictor's own source distribution
        src = pred.source
        if isinstance(src, oracles.GaussianMixture):
            comp = rng.choice(len(src.weights), size=2048, p=src.weights)
            ref = (src.means[comp] + np.sqrt(src.variances[comp])[:, None]
                   * rng.standard_normal((2048, src.d)))
        else:
            ref = src.atoms[rng.integers(src.n, size=2048)]
    space = searchmod.SearchSpace(base=base, band=args.band)
    result = searchmod.optimize_matrix(space, pred, ref, budget=args.budget,
                                       seed=args.seed,
                                       log=lambda msg: print(msg, file=sys.stderr))
    if args.out:
        coeffmatrix.save(result.best, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    lines = ["evaluation,best_objective"]
    lines += [f"{i},{v!r}" for i, v in enumerate(result.objective_trace)]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _load_image(path: str) -> np.ndarray:
    """A real image from a .npy file or a CSV file."""
    if not path.endswith(".npy"):
        return oracles._read_table(path, 2, ",")
    try:
        with open(path, "rb") as fh:
            img = np.load(fh)
    except (ValueError, TypeError, SyntaxError, TokenError, EOFError) as exc:
        # np.load raises each of these on an empty file or a bad .npy header
        raise FormatError(f"{path}: not a numeric image: {exc}") from exc
    if not isinstance(img, np.ndarray) or img.dtype.kind not in "biuf":
        raise FormatError(f"{path}: not a real numeric array")
    return img


def cmd_spectrum(args):
    img = _load_image(args.image)
    s = _FAMILIES[args.family]()
    profile = analysis.snr_profile(img, s, args.t)
    lines = ["band,snr"]
    lines += [f"{b},{float(v)!r}" for b, v in enumerate(profile)]
    sys.stdout.write("\n".join(lines) + "\n")
    frac = analysis.submerged_fraction(profile)
    print(f"submerged fraction: {frac:.4f}", file=sys.stderr)
    return EXIT_OK


def cmd_presets(args):
    if args.action == "list":
        for name in presets.list_presets():
            print(f"{name},{presets.preset_description(name)}")
        return EXIT_OK
    if not args.name:
        raise ParameterError("export requires a preset name")
    payload = presets.preset_payload(args.name)
    import json
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        json.dump(payload, sys.stdout, indent=1)
        sys.stdout.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nimatrix", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("trace", help="trace a sampler into a matrix file")
    t.add_argument("--sampler", required=True, choices=KINDS)
    t.add_argument("--steps", type=int, default=None,
                   help=f"number of model evaluations (default "
                   f"{DEFAULT_STEPS}; with explicit:FILE, the file's)")
    t.add_argument("--schedule", default=None,
                   help="vp-linear[:BMIN:BMAX:T] | flow | vp-continuous[:BMIN:BMAX]")
    t.add_argument("--grid", default="trailing",
                   help="trailing (default) | quadratic | explicit:FILE")
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_trace)

    c = sub.add_parser("check", help="marginal-coefficient report for a matrix")
    c.add_argument("matrix", help="matrix file or preset name")
    c.set_defaults(func=cmd_check)

    sm = sub.add_parser("sample", help="execute a matrix with a predictor")
    sm.add_argument("--matrix", required=True)
    sm.add_argument("--predictor", required=True,
                    help="dataset:FILE | gmm:FILE")
    sm.add_argument("--label", type=int, default=None)
    sm.add_argument("--n", type=int, default=16)
    sm.add_argument("--seed", type=int, default=0)
    sm.add_argument("--out", default=None)
    sm.set_defaults(func=cmd_sample)

    d = sub.add_parser("degrade", help="posterior-concentration statistics")
    d.add_argument("--data", required=True)
    d.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    d.add_argument("--times", required=True, help="comma-separated times")
    d.add_argument("--trials", type=int, default=1000)
    d.add_argument("--threshold", type=float, default=0.9)
    d.add_argument("--seed", type=int, default=0)
    d.set_defaults(func=cmd_degrade)

    g = sub.add_parser("guidance", help="per-row guidance classification")
    g.add_argument("matrix", help="matrix file or preset name")
    g.set_defaults(func=cmd_guidance)

    se = sub.add_parser("search", help="optimize matrix entries")
    se.add_argument("--steps", type=int, default=5)
    se.add_argument("--predictor", required=True)
    se.add_argument("--reference", default=None,
                    help="dataset file of target samples (default: drawn "
                    "from the predictor's source)")
    se.add_argument("--budget", type=int, default=2000)
    se.add_argument("--init", default="ddim", help="ddim | matrix file")
    se.add_argument("--band", type=int, default=3)
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--out", default=None)
    se.set_defaults(func=cmd_search)

    sp = sub.add_parser("spectrum", help="per-band SNR profile of an image")
    sp.add_argument("--image", required=True, help=".npy or CSV matrix")
    sp.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.set_defaults(func=cmd_spectrum)

    pr = sub.add_parser("presets", help="list or export embedded matrices")
    pr.add_argument("action", choices=("list", "export"))
    pr.add_argument("name", nargs="?", default=None)
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_presets)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, ValidationError, DomainError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
