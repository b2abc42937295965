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

A matrix stores its blocks read-only.  A block given as an array is
copied, so the caller's array can change later without changing the
matrix; a loaded ``nimatrix/2`` block is not copied, because its memory
is the ``bytes`` the base64 decoded into, which nothing can write.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import schedule as sched
from .affine import RunContext, TRACE
from .errors import (DomainError, FormatError, NimatrixError, NumericError,
                     ValidationError, check_array, check_json_array,
                     check_real)
from .samplers import (SamplerSpec, _kind, default_grid, default_schedule,
                       run_native)
from .schedule import (Schedule, make_schedule, mixing_coeffs,
                       validate_decreasing)

#: The format ``save`` writes: each block a base64 string of ``<f8`` bytes.
FORMAT_NAME = "nimatrix/2"
#: The list form of the presets and older files: each block a list of rows.
LIST_FORMAT = "nimatrix/1"

#: Terminal-row label for matrices whose sample is the final prediction
#: itself (discrete-chain convention): not a real time point.
TERMINAL_OUTPUT = -1.0


def _in_bytes(a: np.ndarray) -> bool:
    """Whether ``a``'s memory is a ``bytes`` object: NumPy keeps such an
    array read-only, and no one can write its memory."""
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(a, bytes)


@dataclass(frozen=True)
class CoefficientMatrix:
    schedule_info: dict
    row_times: tuple
    col_times: tuple
    signal: np.ndarray = field(repr=False)
    noise: np.ndarray = field(repr=False)
    noise_times: tuple = ()
    # built from schedule_info once, when the matrix is constructed;
    # schedule_info is then replaced by the schedule's own descriptor
    _schedule: Schedule = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        """Check the matrix: finite 2-D blocks, stored read-only (copied
        unless their memory is ``bytes``); times that are finite floats;
        the blocks' shapes; input rows at their evaluations' times;
        triangularity; a schedule header that builds; and every row time
        in the schedule's domain."""
        for name in ("signal", "noise"):
            block = check_array(name, getattr(self, name), 2)
            if not _in_bytes(block):
                block = np.array(block)
            block.setflags(write=False)
            object.__setattr__(self, name, block)
        for name, what in (("row_times", "row time"),
                           ("col_times", "column time"),
                           ("noise_times", "noise time")):
            object.__setattr__(self, name, tuple(
                check_real(what, t, DomainError) for t in getattr(self, name)))
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
        validate_decreasing(self.col_times, "col_times")
        # Rows before the terminal one are inputs of the evaluations in
        # order: at the evaluation's own time, strictly lower triangular.
        upper = np.triu(self.signal[:self.n_evals]).any(axis=1).tolist()
        for i, t in enumerate(self.col_times):
            if self.row_times[i] != t:
                raise ValidationError(
                    f"input row {i} has time {self.row_times[i]}, but "
                    f"evaluation {i} is at time {t}")
            if upper[i]:
                raise ValidationError(f"row {i} (time {t}) weights evaluation "
                                      f"{i} or later: not lower triangular")
        s = make_schedule(self.schedule_info)
        # every row time lies in the schedule's domain; only the terminal
        # row may be TERMINAL_OUTPUT
        for i, t in enumerate(self.row_times):
            if not (i == self.n_evals and t == TERMINAL_OUTPUT):
                mixing_coeffs(s, t)
        object.__setattr__(self, "_schedule", s)
        object.__setattr__(self, "schedule_info", s.descriptor())

    # ----- structure -------------------------------------------------
    @property
    def n_evals(self) -> int:
        return len(self.col_times)

    @property
    def n_rows(self) -> int:
        return len(self.row_times)

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

    def max_deviation(self) -> float:
        """Largest signal or noise deviation over every row but the first.

        The first row is the pure-noise starting state shared by every
        sampler; its deviation is a property of the initialization, not
        of the iteration rule.
        """
        return float(max(self.signal_deviation[1:].max(initial=0.0),
                         self.noise_deviation[1:].max(initial=0.0)))


# ---------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------

def trace_sampler(spec: SamplerSpec, s: Schedule | None = None,
                  grid: tuple | None = None,
                  n_evals: int = 18) -> CoefficientMatrix:
    """Run the sampler symbolically and assemble its coefficient matrix."""
    if s is None:
        s = default_schedule(spec)
    if grid is None:
        grid = default_grid(spec, s, n_evals)
    else:  # the kind's family is checked before the grid's times
        _kind(spec, s)
        grid = sched.make_grid(s, None, "explicit", grid)
    ctx = RunContext(mode=TRACE)
    final = run_native(spec, s, grid, ctx)
    n = len(ctx.records)
    m = len(ctx.noise_ids)
    col_times = tuple(t for t, _ in ctx.records)
    signal = np.zeros((n + 1, n))
    noise = np.zeros((n + 1, m))
    states = [state for _, state in ctx.records] + [final]
    for i, state in enumerate(states):
        signal[i, :len(state.signal)] = state.signal
        noise[i, :len(state.noise)] = state.noise
    terminal = (TERMINAL_OUTPUT if s.family == sched.VP_DISCRETE
                else float(grid[-1]))
    row_times = col_times + (terminal,)
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
    """Correctly rounded (fsum) row sums of a signal block.

    Each row is summed only through its last nonzero entry, found for
    every row in one pass: ``fsum`` skips zeros of either sign, so the
    sums are bitwise those of the whole rows.
    """
    block = np.asarray(signal, dtype=np.float64)
    ends = np.max((block != 0) * np.arange(1, block.shape[1] + 1), axis=1,
                  initial=0)
    return np.array([math.fsum(row[:end].tolist())
                     for row, end in zip(block, ends.tolist())])


def equivalent_marginals(m: CoefficientMatrix) -> MarginalReport:
    """Row sums, row noise norms, and their ideal values per row under
    the matrix's own schedule."""
    s = m.schedule()
    ideals = [ideal_coeffs(s, t) for t in m.row_times]
    return MarginalReport(
        row_times=m.row_times,
        equivalent_signal=row_sums(m.signal),
        equivalent_noise=np.sqrt(np.sum(m.noise ** 2, axis=1)),
        ideal_signal=np.array([c0 for c0, _ in ideals]),
        ideal_noise=np.array([c1 for _, c1 in ideals]))


def deviation_trend(spec: SamplerSpec, s: Schedule | None = None,
                    step_counts=(18, 100, 500)):
    """Max marginal deviation of the traced matrix per evaluation count,
    the first row skipped (``MarginalReport.max_deviation``)."""
    if len(step_counts) < 2:
        raise ValidationError("need at least two step counts")
    out = []
    for n in step_counts:
        m = trace_sampler(spec, s=s, n_evals=n)
        rep = equivalent_marginals(m)
        out.append(rep.max_deviation())
    return out


# ---------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------

def rescale_row(row: np.ndarray, target: float):
    """Scale ``row`` in place by ``target / fsum(row)`` and return that
    factor.  A row that sums to zero is left as it is: its factor is 1.0
    when ``target`` is zero too, and None otherwise."""
    total = math.fsum(row)
    if total == 0.0:
        return 1.0 if target == 0.0 else None
    scale = target / total
    row *= scale
    return scale


def normalize_rows(m: CoefficientMatrix, targets=None):
    """Rescale each signal row so its sum hits the target marginal.

    Targets default to the matrix schedule's ideal signal coefficient at
    each row time.  Returns ``(matrix, scales)`` where ``scales`` holds
    the per-row factors applied.
    """
    if targets is None:
        s = m.schedule()
        targets = [ideal_coeffs(s, t)[0] for t in m.row_times]
    targets = check_array("targets", targets, 1)
    if targets.shape != (m.n_rows,):
        raise ValidationError(
            f"need {m.n_rows} targets, got shape {targets.shape}")
    signal = m.signal.copy()
    scales = [rescale_row(row, t) for row, t in zip(signal, targets)]
    if None in scales:
        raise NumericError(
            f"row {scales.index(None)} sums to zero; cannot normalize")
    return replace(m, signal=signal), np.array(scales)


# ---------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------

def save(m: CoefficientMatrix, path) -> None:
    """Write the matrix as ``nimatrix/2`` JSON, one line per key.

    The header keys are written through ``json.dumps``; each block is
    one base64 string of its row-major little-endian float64 bytes, so
    every entry, ``-0.0`` included, loads back bitwise.  The file is
    written in binary mode, each block's base64 bytes as ``b64encode``
    returns them, never decoded into a string; on POSIX these are the
    bytes a text-mode writer gives.
    """
    header = {
        "format": FORMAT_NAME,
        "schedule": m.schedule_info,
        "row_times": list(m.row_times),
        "col_times": list(m.col_times),
        "noise_mode": "traced",  # older readers default to single-terminal
        "noise_times": list(m.noise_times),
    }
    lines = "".join(f"{json.dumps(key)}: {json.dumps(value)},\n"
                    for key, value in header.items())
    with open(path, "wb") as fh:
        fh.write(f"{{\n{lines}".encode())
        for key, block, end in (("signal", m.signal, ","),
                                ("noise", m.noise, "")):
            fh.write(f'{json.dumps(key)}: "'.encode())
            fh.write(base64.b64encode(np.ascontiguousarray(block, "<f8")))
            fh.write(f'"{end}\n'.encode())
        fh.write(b"}\n")


def _block(name: str, value, rows: int, cols: int, fmt: str):
    """A payload's ``name`` block, signal or noise, read as (rows, cols).

    Under ``nimatrix/1`` the block is a list of rows, and ``[]`` is an
    empty block; its entries must be JSON numbers (``check_json_array``).
    Under ``nimatrix/2`` it is the base64 of exactly
    ``8 * rows * cols`` little-endian float64 bytes.  Shape and
    finiteness are checked when the matrix is built.
    """
    if fmt == LIST_FORMAT:
        if not isinstance(value, list):
            raise FormatError(f"a {fmt} block must be a list of rows")
        return (check_json_array(name, value) if value
                else np.zeros((rows, 0)))
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


def _times(name: str, value) -> tuple:
    """A payload's list of times: JSON numbers, each a finite float."""
    times = check_json_array(name, value, DomainError)
    if times.ndim != 1:
        raise FormatError(f"{name} must be a list of numbers")
    return tuple(times.tolist())


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
        schedule_info = payload["schedule"]
        if not isinstance(schedule_info, dict):
            raise FormatError("schedule must be a JSON object")
        row_times = _times("row_times", payload["row_times"])
        col_times = _times("col_times", payload["col_times"])
        noise_times = _times("noise_times", payload.get("noise_times", []))
        rows = len(row_times)
        noise = _block("noise", payload.get("noise", []), rows,
                       len(noise_times), fmt)
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
            signal=_block("signal", payload["signal"], rows, len(col_times),
                          fmt),
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
        except ValueError as exc:  # bad JSON (at line L column C), bad
            # UTF-8, or an integer too long
            raise FormatError(f"invalid matrix file: {exc}") from exc
    return from_payload(payload)
