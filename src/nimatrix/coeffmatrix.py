"""Assembly, validation, normalization, and serialization of coefficient
matrices.

A coefficient matrix describes an entire sampling run: row ``i`` gives
the model input at evaluation ``i`` as a linear combination of previous
model outputs (``signal``) and Gaussian draws (``noise``); the final row
gives the returned sample.  The signal block is strictly lower
triangular in evaluation order — each input depends only on earlier
outputs.

For every row, the *equivalent marginal coefficients* are the signal row
sum and the noise row norm; a well-behaved matrix keeps them close to
the schedule's ideal amplitudes ``(c0, c1)`` at the row's time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import schedule as sched
from .affine import RunContext, TRACE
from .errors import FormatError, NumericError, ValidationError
from .samplers import SamplerSpec, default_grid, default_schedule, run_native
from .schedule import (Schedule, TimeGrid, make_schedule, mixing_coeffs,
                       validate_decreasing)

FORMAT_NAME = "nimatrix/1"

#: How ``run_matrix`` forms the noise of each row (see ``engine``);
#: files that say ``custom`` load as ``traced``.
NOISE_MODES = ("traced", "single-terminal")

#: Terminal-row label for matrices whose sample is the final prediction
#: itself (discrete-chain convention): not a real time point.
TERMINAL_OUTPUT = -1.0


@dataclass(frozen=True)
class CoefficientMatrix:
    schedule_info: dict
    row_times: tuple
    col_times: tuple
    signal: np.ndarray = field(repr=False)
    noise: np.ndarray = field(repr=False)
    noise_times: tuple = ()
    noise_mode: str = "single-terminal"

    def __post_init__(self):
        for name in ("signal", "noise"):
            block = np.array(getattr(self, name), dtype=np.float64)
            block.setflags(write=False)
            object.__setattr__(self, name, block)
        self.validate()

    # ----- structure -------------------------------------------------
    @property
    def n_evals(self) -> int:
        return len(self.col_times)

    @property
    def n_rows(self) -> int:
        return len(self.row_times)

    def validate(self) -> None:
        if self.signal.ndim != 2 or self.noise.ndim != 2:
            raise ValidationError("signal and noise blocks must be 2-D")
        if self.n_rows != self.n_evals + 1:
            raise ValidationError(
                f"{self.n_rows} rows for {self.n_evals} evaluations: need "
                "one input row per evaluation plus the terminal row")
        if self.signal.shape != (self.n_rows, self.n_evals):
            raise ValidationError(
                f"signal shape {self.signal.shape} does not match "
                f"{self.n_rows} rows x {self.n_evals} columns")
        if self.noise.shape != (self.n_rows, len(self.noise_times)):
            raise ValidationError(
                f"noise shape {self.noise.shape} does not match {self.n_rows} "
                f"rows x {len(self.noise_times)} noise times")
        if self.noise_mode not in NOISE_MODES:
            raise ValidationError(f"unknown noise mode {self.noise_mode!r}")
        if (self.noise_mode == "traced" and self.n_evals
                and not self.noise_times):
            raise ValidationError("traced matrix has no noise columns")
        if not (np.all(np.isfinite(self.signal))
                and np.all(np.isfinite(self.noise))):
            raise ValidationError("non-finite signal or noise entry")
        validate_decreasing(self.col_times, "col_times")
        # Rows before the terminal one are inputs of the evaluations in
        # order: at the evaluation's own time, strictly lower triangular.
        for i, t in enumerate(self.col_times):
            if self.row_times[i] != t:
                raise ValidationError(
                    f"input row {i} has time {self.row_times[i]}, but "
                    f"evaluation {i} is at time {t}")
            if np.any(self.signal[i, i:]):
                raise ValidationError(f"row {i} (time {t}) weights evaluation "
                                      f"{i} or later: not lower triangular")

    def schedule(self) -> Schedule:
        return make_schedule(self.schedule_info)


@dataclass(frozen=True)
class MarginalReport:
    row_times: tuple
    equivalent_signal: np.ndarray
    equivalent_noise: np.ndarray
    ideal_signal: np.ndarray
    ideal_noise: np.ndarray

    @property
    def signal_deviation(self) -> np.ndarray:
        return np.abs(self.equivalent_signal - self.ideal_signal)

    @property
    def noise_deviation(self) -> np.ndarray:
        return np.abs(self.equivalent_noise - self.ideal_noise)

    def max_deviation(self, skip_initial_row: bool = False) -> float:
        lo = 1 if skip_initial_row else 0
        return float(max(self.signal_deviation[lo:].max(initial=0.0),
                         self.noise_deviation[lo:].max(initial=0.0)))


# ---------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------

def _terminal_row_time(s: Schedule, grid: TimeGrid) -> float:
    if s.family == sched.VP_DISCRETE:
        return TERMINAL_OUTPUT
    return float(grid[-1])


def trace_sampler(spec: SamplerSpec, s: Schedule | None = None,
                  grid: TimeGrid | None = None,
                  n_evals: int = 18) -> CoefficientMatrix:
    """Run the sampler symbolically and assemble its coefficient matrix."""
    if s is None:
        s = default_schedule(spec)
    if grid is None:
        grid = default_grid(spec, s, n_evals)
    ctx = RunContext(mode=TRACE)
    final = run_native(spec, s, grid, ctx)
    n = len(ctx.records)
    m = len(ctx.noise_ids)
    col_times = tuple(t for t, _ in ctx.records)
    noise_index = {nid: j for j, nid in enumerate(ctx.noise_ids)}
    signal = np.zeros((n + 1, n))
    noise = np.zeros((n + 1, m))
    states = [state for _, state in ctx.records] + [final]
    for i, state in enumerate(states):
        for k, v in state.signal.items():
            signal[i, k] = v
        for k, v in state.noise.items():
            noise[i, noise_index[k]] = v
    row_times = col_times + (_terminal_row_time(s, grid),)
    return CoefficientMatrix(
        schedule_info=s.descriptor(), row_times=row_times,
        col_times=col_times, signal=signal, noise=noise,
        noise_times=tuple(nid[0] for nid in ctx.noise_ids),
        noise_mode="traced")


# ---------------------------------------------------------------------
# Marginals
# ---------------------------------------------------------------------

def ideal_coeffs(s: Schedule, t: float) -> tuple[float, float]:
    """The schedule's (c0, c1) at a row time; (1, 0) at TERMINAL_OUTPUT."""
    if t == TERMINAL_OUTPUT:
        return 1.0, 0.0
    return mixing_coeffs(s, t)


def row_sums(signal) -> np.ndarray:
    """Correctly rounded (fsum) row sums of a signal block."""
    return np.array([math.fsum(row) for row in signal])


def equivalent_marginals(m: CoefficientMatrix,
                         s: Schedule | None = None) -> MarginalReport:
    """Row sums, row noise norms, and their ideal values per row."""
    if s is None:
        s = m.schedule()
    ideals = [ideal_coeffs(s, t) for t in m.row_times]
    return MarginalReport(
        row_times=m.row_times,
        equivalent_signal=row_sums(m.signal),
        equivalent_noise=np.sqrt(np.sum(m.noise ** 2, axis=1)),
        ideal_signal=np.array([c0 for c0, _ in ideals]),
        ideal_noise=np.array([c1 for _, c1 in ideals]))


def deviation_trend(spec: SamplerSpec, s: Schedule | None = None,
                    step_counts=(18, 100, 500),
                    skip_initial_row: bool = True):
    """Max marginal deviation of the traced matrix per evaluation count.

    The first row is the pure-noise starting state shared by every
    sampler; its deviation is a property of the initialization, not of
    the iteration rule, so it is skipped by default.
    """
    if len(step_counts) < 2:
        raise ValidationError("need at least two step counts")
    out = []
    for n in step_counts:
        m = trace_sampler(spec, s=s, n_evals=n)
        rep = equivalent_marginals(m)
        out.append(rep.max_deviation(skip_initial_row=skip_initial_row))
    return out


# ---------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------

def normalize_rows(m: CoefficientMatrix, s: Schedule | None = None,
                   targets=None):
    """Rescale each signal row so its sum hits the target marginal.

    Targets default to the schedule's ideal signal coefficient at each
    row time.  Returns ``(matrix, scales)`` where ``scales`` holds the
    per-row factors applied.
    """
    if targets is None:
        if s is None:
            s = m.schedule()
        targets = [ideal_coeffs(s, t)[0] for t in m.row_times]
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (m.n_rows,):
        raise ValidationError(
            f"need {m.n_rows} targets, got shape {targets.shape}")
    sums = row_sums(m.signal)
    scales = np.ones(m.n_rows)
    signal = m.signal.copy()
    for i in range(m.n_rows):
        if targets[i] == 0.0 and sums[i] == 0.0:
            continue
        if sums[i] == 0.0:
            raise NumericError(f"row {i} sums to zero; cannot normalize")
        scales[i] = targets[i] / sums[i]
        signal[i] *= scales[i]
    return replace(m, signal=signal), scales


# ---------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------

def save(m: CoefficientMatrix, path) -> None:
    """Write the matrix as JSON, one line per header key and block row.

    Each line goes through ``json.dumps`` without indentation, which uses
    the C encoder; the rows are streamed, so no whole-file string is
    built.  Floats are written as their ``repr`` and load back bitwise.
    """
    header = {
        "format": FORMAT_NAME,
        "schedule": m.schedule_info,
        "row_times": list(m.row_times),
        "col_times": list(m.col_times),
        "noise_mode": m.noise_mode,
        "noise_times": list(m.noise_times),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for key, value in header.items():
            fh.write(f"{json.dumps(key)}: {json.dumps(value)},\n")
        for key, block, end in (("signal", m.signal, ","),
                                ("noise", m.noise, "")):
            fh.write(f"{json.dumps(key)}: [")
            for i, row in enumerate(block):
                fh.write((",\n" if i else "\n") + json.dumps(row.tolist()))
            fh.write(f"\n]{end}\n")
        fh.write("}\n")


def from_payload(payload: dict) -> CoefficientMatrix:
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise FormatError(f"not a {FORMAT_NAME} payload")
    mode = payload.get("noise_mode", "single-terminal")
    try:
        noise = payload.get("noise") or []
        row_times = tuple(float(t) for t in payload["row_times"])
        return CoefficientMatrix(
            schedule_info=dict(payload["schedule"]),
            row_times=row_times,
            col_times=tuple(float(t) for t in payload["col_times"]),
            signal=payload["signal"],
            noise=noise if len(noise) else np.zeros((len(row_times), 0)),
            noise_times=tuple(float(t) for t in payload.get("noise_times", ())),
            noise_mode="traced" if mode == "custom" else mode,
        )
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed matrix payload: {exc}") from exc


def load(path) -> CoefficientMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(
                f"invalid matrix file: {exc.msg}", row=exc.lineno,
                column=exc.colno) from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"invalid matrix file: {exc}") from exc
    return from_payload(payload)


def to_csv(m: CoefficientMatrix, which: str = "signal") -> str:
    """Flat CSV: first row = column times, first column = row times."""
    if which == "signal":
        block, heads = m.signal, m.col_times
    elif which == "noise":
        block, heads = m.noise, m.noise_times
    else:
        raise ValidationError(f"unknown block {which!r}")
    lines = ["time," + ",".join(repr(float(t)) for t in heads)]
    for t, row in zip(m.row_times, block):
        lines.append(repr(float(t)) + "," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
