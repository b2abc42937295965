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

Matrix files are JSON.  ``save`` writes ``nimatrix/2``, where each block
is one base64 string of its row-major little-endian float64 bytes and
its shape comes from the header's time lists.  ``load`` also reads
``nimatrix/1``, where each block is a list of rows: the embedded
presets and older files use it.  A matrix is exactly its two blocks: a
file's noise mode is read only at load (``from_payload``).
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import schedule as sched
from .affine import RunContext, TRACE
from .errors import FormatError, NimatrixError, NumericError, ValidationError
from .samplers import SamplerSpec, default_grid, default_schedule, run_native
from .schedule import (Schedule, TimeGrid, make_schedule, mixing_coeffs,
                       validate_decreasing)

#: The format ``save`` writes: each block a base64 string of ``<f8`` bytes.
FORMAT_NAME = "nimatrix/2"
#: The list form of the presets and older files: each block a list of rows.
LIST_FORMAT = "nimatrix/1"

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
    # built from schedule_info once, when the matrix is constructed
    _schedule: Schedule = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("signal", "noise"):
            block = np.array(getattr(self, name), dtype=np.float64)
            block.setflags(write=False)
            object.__setattr__(self, name, block)
        self.validate()
        s = make_schedule(self.schedule_info)
        # every row time lies in the schedule's domain; only the terminal
        # row may be TERMINAL_OUTPUT
        for i, t in enumerate(self.row_times):
            if not (i == self.n_evals and t == TERMINAL_OUTPUT):
                mixing_coeffs(s, t)
        object.__setattr__(self, "_schedule", s)

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
        if self.n_evals and not self.noise_times:
            raise ValidationError("matrix with evaluations has no noise "
                                  "columns")
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
        return self._schedule


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
        noise_times=tuple(nid[0] for nid in ctx.noise_ids))


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
    """Write the matrix as ``nimatrix/2`` JSON, one line per key.

    The header keys are written through ``json.dumps``; each block is
    one base64 string of its row-major little-endian float64 bytes, so
    every entry, ``-0.0`` included, loads back bitwise.  The lines are
    streamed, so no whole-file string is built.
    """
    header = {
        "format": FORMAT_NAME,
        "schedule": m.schedule_info,
        "row_times": list(m.row_times),
        "col_times": list(m.col_times),
        "noise_mode": "traced",  # older readers default to single-terminal
        "noise_times": list(m.noise_times),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for key, value in header.items():
            fh.write(f"{json.dumps(key)}: {json.dumps(value)},\n")
        for key, block, end in (("signal", m.signal, ","),
                                ("noise", m.noise, "")):
            raw = block.astype("<f8", copy=False).tobytes()
            fh.write(f'{json.dumps(key)}: "'
                     f'{base64.b64encode(raw).decode("ascii")}"{end}\n')
        fh.write("}\n")


def _block(value, rows: int, cols: int, fmt: str):
    """A payload's signal or noise block, to be read as (rows, cols).

    Under ``nimatrix/1`` the block is a list of rows, and ``[]`` is an
    empty block.  Under ``nimatrix/2`` it is the base64 of exactly
    ``8 * rows * cols`` little-endian float64 bytes.  Shape and
    finiteness are checked when the matrix is built.
    """
    if fmt == LIST_FORMAT:
        if not isinstance(value, list):
            raise FormatError(f"a {fmt} block must be a list of rows")
        return value if value else np.zeros((rows, 0))
    if not isinstance(value, str):
        raise FormatError(f"a {fmt} block must be a base64 string")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise FormatError(f"bad base64 block: {exc}") from exc
    need = 8 * rows * cols
    if len(raw) != need:
        raise FormatError(f"block holds {len(raw)} bytes, want {need} for "
                          f"{rows} x {cols} float64 entries")
    return np.frombuffer(raw, "<f8").reshape(rows, cols)


def from_payload(payload: dict) -> CoefficientMatrix:
    """The matrix a payload describes.  ``traced`` or ``custom`` keeps the
    stored noise block; ``single-terminal`` (also no ``noise_mode`` key)
    stores none and loads as one draw at ``c1`` per row time, 0 at
    ``TERMINAL_OUTPUT``."""
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt not in (FORMAT_NAME, LIST_FORMAT):
        raise FormatError(f"not a {FORMAT_NAME} or {LIST_FORMAT} payload")
    mode = payload.get("noise_mode", "single-terminal")
    if mode not in ("traced", "custom", "single-terminal"):
        raise ValidationError(f"unknown noise mode {mode!r}")
    try:
        schedule_info = dict(payload["schedule"])
        row_times = tuple(float(t) for t in payload["row_times"])
        col_times = tuple(float(t) for t in payload["col_times"])
        noise_times = tuple(float(t) for t in payload.get("noise_times", ()))
        rows = len(row_times)
        noise = _block(payload.get("noise", []), rows, len(noise_times), fmt)
        if mode == "single-terminal":
            if noise_times or np.shape(noise) != (rows, 0):
                raise FormatError("a single-terminal matrix stores no noise "
                                  "block and no noise times")
            s = make_schedule(schedule_info)
            noise = [[ideal_coeffs(s, t)[1]] for t in row_times]
            noise_times = row_times[:1]
        return CoefficientMatrix(
            schedule_info=schedule_info,
            row_times=row_times,
            col_times=col_times,
            signal=_block(payload["signal"], rows, len(col_times), fmt),
            noise=noise,
            noise_times=noise_times,
        )
    except NimatrixError:
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
