"""The CLI exit-code contract on mutated input files.

``nimatrix check``, ``guidance`` and ``sample`` read a matrix file and a
dataset file.  Whatever those files hold, ``cli.main`` returns 0, 2, 3
or 4 and never raises, and ``guidance`` rejects exactly the matrix files
that ``check`` rejects, with the same code.  The mutations start from
preset payloads and a small binary dataset: rows dropped or duplicated,
a time changed, NaN or a string put in a cell, a key deleted, bytes
truncated or flipped.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nimatrix.cli import main
from nimatrix.oracles import Dataset, save_dataset
from nimatrix.presets import preset_payload

EXIT_CODES = {0, 2, 3, 4}
BASES = ("ddim-18", "ddpm-18", "flow-euler-18", "dpmpp-2s-18")
ROW_KEYS = ("row_times", "signal", "noise")
CELL_VALUES = (float("nan"), float("inf"), "x", None, [1.0])


def _dataset_bytes() -> bytes:
    atoms = np.random.default_rng(0).standard_normal((8, 2))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.bin")
        save_dataset(Dataset(atoms=atoms), path)
        with open(path, "rb") as fh:
            return fh.read()


DATASET = _dataset_bytes()


def _corrupt(draw, blob: bytes, how: str) -> bytes:
    if how == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if how == "flip":
        out = bytearray(blob)
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(out) - 1))
            out[i] ^= draw(st.integers(1, 255))
        return bytes(out)
    return blob


@st.composite
def matrix_files(draw):
    payload = preset_payload(draw(st.sampled_from(BASES)))
    how = draw(st.sampled_from(("drop", "duplicate", "time", "cell", "key",
                                "truncate", "flip")))
    if how in ("drop", "duplicate"):
        keys = draw(st.sampled_from([ROW_KEYS] + [(k,) for k in ROW_KEYS]))
        k = draw(st.integers(0, len(payload["row_times"]) - 1))
        count = draw(st.integers(1, 2))
        for key in keys:
            rows = payload[key]
            if how == "drop":
                del rows[k:k + count]
            elif k < len(rows):
                rows.insert(k, rows[k])
    elif how == "time":
        times = payload[draw(st.sampled_from(("row_times", "col_times")))]
        i = draw(st.integers(0, len(times) - 1))
        times[i] = draw(st.one_of(st.floats(), st.integers(-5, 1005)))
    elif how == "cell":
        rows = payload[draw(st.sampled_from(ROW_KEYS + ("col_times",)))]
        if rows:
            i = draw(st.integers(0, len(rows) - 1))
            value = draw(st.sampled_from(CELL_VALUES))
            if isinstance(rows[i], list) and rows[i]:
                rows[i][draw(st.integers(0, len(rows[i]) - 1))] = value
            else:
                rows[i] = value
    elif how == "key":
        where = draw(st.sampled_from((payload, payload["schedule"])))
        del where[draw(st.sampled_from(sorted(where)))]
    return _corrupt(draw, json.dumps(payload).encode(), how)


@st.composite
def dataset_files(draw):
    how = draw(st.sampled_from(("keep", "truncate", "flip")))
    return _corrupt(draw, DATASET, how)


def _dropped_last_two_rows() -> bytes:
    payload = preset_payload("ddim-18")
    for key in ("row_times", "signal"):
        del payload[key][-2:]
    return json.dumps(payload).encode()


def _without_beta_min() -> bytes:
    payload = preset_payload("ddim-18")
    del payload["schedule"]["beta_min"]
    return json.dumps(payload).encode()


def _evaluation_at(i: int, t: float) -> bytes:
    """ddim-18 with evaluation ``i`` (its input row and column) moved to t."""
    payload = preset_payload("ddim-18")
    payload["row_times"][i] = payload["col_times"][i] = t
    return json.dumps(payload).encode()


# Files that loaded fine for ``guidance`` while ``check`` rejected them:
# a schedule header that cannot be built, a time outside [0, T - 1] and a
# non-integer time on the vp-discrete schedule.
SCHEDULE_DOMAIN_FILES = [(_without_beta_min(), 4),
                         (_evaluation_at(0, 5000.0), 2),
                         (_evaluation_at(1, 981.5), 2)]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("exit-codes")
    return workdir / "m.json", workdir / "d.bin"


def _exit_code(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrix=matrix_files(), dataset=dataset_files())
@example(matrix=_dropped_last_two_rows(), dataset=DATASET)
@example(matrix=SCHEDULE_DOMAIN_FILES[0][0], dataset=DATASET)
@example(matrix=SCHEDULE_DOMAIN_FILES[1][0], dataset=DATASET)
@example(matrix=SCHEDULE_DOMAIN_FILES[2][0], dataset=DATASET)
def test_check_and_sample_exit_codes(files, matrix, dataset):
    mpath, dpath = files
    mpath.write_bytes(matrix)
    dpath.write_bytes(dataset)
    code = _exit_code("check", str(mpath))
    assert code in EXIT_CODES
    assert _exit_code("guidance", str(mpath)) == code
    assert _exit_code("sample", "--matrix", str(mpath), "--predictor",
                      f"dataset:{dpath}", "--n", "2") in EXIT_CODES


@pytest.mark.parametrize("matrix,code", SCHEDULE_DOMAIN_FILES,
                         ids=["no-beta-min", "time-5000", "time-981.5"])
def test_guidance_rejects_what_check_rejects(files, matrix, code):
    mpath, _ = files
    mpath.write_bytes(matrix)
    assert _exit_code("check", str(mpath)) == code
    assert _exit_code("guidance", str(mpath)) == code
