"""The CLI exit-code contract on mutated input files.

Every subcommand that reads a file is driven with mutated files:
matrices (``check``, ``guidance``, ``sample``, ``search --init``),
datasets (``sample``, ``degrade --data``, ``search --reference``),
mixtures (``--predictor gmm:FILE``), time grids (``trace --grid
explicit:FILE``) and images (``spectrum --image``).  Whatever those
files hold, ``cli.main`` returns 0, 2, 3 or 4 and never raises, and
``guidance`` rejects exactly the matrix files that ``check`` rejects,
with the same code.  The mutations start from preset payloads, files
written by ``save`` or by the first ``nimatrix/2`` writer, and small valid
files: rows dropped or duplicated, a time changed, NaN, a string, a bool
or an integer past a float's range put in a cell, a key deleted, a
base64 block cut or spoiled, the format tag or the noise mode swapped,
bytes truncated or flipped.
"""

import base64
import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nimatrix.cli import main
from nimatrix.coeffmatrix import save, trace_sampler
from nimatrix.oracles import Dataset, save_dataset
from nimatrix.presets import load_preset, preset_payload
from nimatrix.samplers import SamplerSpec
from test_coeffmatrix import _base64_mode_save, _held

EXIT_CODES = {0, 2, 3, 4}
BASES = ("ddim-18", "ddpm-18", "flow-euler-18", "dpmpp-2s-18")
ROW_KEYS = ("row_times", "signal", "noise")
#: Numbers a JSON file may not hold: a string that reads as one, a bool
#: and an integer past a float's range.
NOT_FLOATS = ("0.944", True, 10 ** 400)
CELL_VALUES = (float("nan"), float("inf"), "x", None, [1.0]) + NOT_FLOATS
FORMATS = ("nimatrix/1", "nimatrix/2")
NOT_BASE64 = ("*", "-", "_", " ", "\n", "é", "=")
#: ``noise_mode`` values put in a file; None deletes the key.
NOISE_MODES = ("traced", "custom", "single-terminal", "Traced", None)


def _written(write, name: str) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        write(path)
        with open(path, "rb") as fh:
            return fh.read()


ATOMS = np.random.default_rng(0).standard_normal((8, 2))
DATASET = _written(lambda p: save_dataset(Dataset(atoms=ATOMS), p), "d.bin")
MIXTURE = {"weights": [0.25, 0.75], "means": [[2.0, 0.0], [-1.0, 1.0]],
           "variances": [0.1, 0.3]}
#: Explicit grids per traced sampler, one time per line.
GRIDS = {"ddim": (999.0, 700.0, 400.0, 100.0, 0.0),
         "flow-euler": (1.0, 0.75, 0.5, 0.25, 0.0)}
IMAGE = np.random.default_rng(2).standard_normal((6, 6))
IMAGE_NPY = _written(lambda p: np.save(p, IMAGE), "i.npy")

# ``nimatrix/2`` files as ``save`` writes them: the bases, and a traced
# ddpm at four evaluations, whose blocks end in base64 padding.
SAVED = tuple(_written(lambda p, m=m: save(m, p), "m.json").decode("utf-8")
              for m in [load_preset(name) for name in BASES]
              + [trace_sampler(SamplerSpec(kind="ddpm"), n_evals=4)])
# The single-terminal bases as the first ``nimatrix/2`` writer wrote them:
# an empty noise block under ``"noise_mode": "single-terminal"``.
MODE_SAVED = tuple(
    _written(lambda p, m=m: _base64_mode_save(m, p), "m.json").decode("utf-8")
    for m in [_held(load_preset(name), "single-terminal")
              for name in BASES if name != "ddpm-18"])


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


def _spoil_base64(draw, text: str, rows: int):
    """One way to break a base64 block: cut, a character inserted from
    outside the alphabet, no padding, or the rows as a list."""
    how = draw(st.sampled_from(("truncate", "cut4", "alphabet", "padding",
                                "list")))
    if how == "truncate":
        return text[:draw(st.integers(0, max(len(text) - 1, 0)))]
    if how == "cut4":
        return text[:4 * draw(st.integers(0, max(len(text) // 4 - 1, 0)))]
    if how == "alphabet":
        i = draw(st.integers(0, len(text)))
        return text[:i] + draw(st.sampled_from(NOT_BASE64)) + text[i:]
    if how == "padding":
        return text.rstrip("=")
    raw = base64.b64decode(text)
    return np.frombuffer(raw, "<f8").reshape(rows, -1).tolist()


@st.composite
def matrix_files(draw):
    fmt = draw(st.sampled_from(FORMATS))
    if fmt == "nimatrix/1":
        payload = preset_payload(draw(st.sampled_from(BASES)))
    else:
        payload = json.loads(draw(st.sampled_from(SAVED + MODE_SAVED)))
    lists = [k for k in ROW_KEYS if isinstance(payload[k], list)]
    how = draw(st.sampled_from(("drop", "duplicate", "time", "cell", "key",
                                "block", "tag", "mode", "truncate", "flip")))
    if how in ("drop", "duplicate"):
        keys = draw(st.sampled_from([tuple(lists)] + [(k,) for k in lists]))
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
        times[i] = draw(st.one_of(st.floats(), st.integers(-5, 1005),
                                  st.sampled_from(NOT_FLOATS)))
    elif how == "cell":
        rows = payload[draw(st.sampled_from(lists + ["col_times"]))]
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
    elif how == "block":
        key = draw(st.sampled_from(("signal", "noise")))
        block = payload[key]
        if isinstance(block, list):  # a string block under nimatrix/1
            raw = np.asarray(block, dtype=np.float64).astype("<f8").tobytes()
            payload[key] = base64.b64encode(raw).decode("ascii")
        else:
            payload[key] = _spoil_base64(draw, block,
                                         len(payload["row_times"]))
    elif how == "tag":
        payload["format"] = FORMATS[1 - FORMATS.index(fmt)]
    elif how == "mode":
        mode = draw(st.sampled_from(NOISE_MODES))
        if mode is None:
            payload.pop("noise_mode", None)
        else:
            payload["noise_mode"] = mode
    return _corrupt(draw, json.dumps(payload).encode(), how)


@st.composite
def dataset_files(draw):
    how = draw(st.sampled_from(("keep", "truncate", "flip")))
    return _corrupt(draw, DATASET, how)


def _csv_text(draw, rows: list, how: str) -> bytes:
    """Comma-separated rows with a cell, a row or the bytes spoiled."""
    if how == "cell":
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(st.sampled_from(("x", "", "nan", "inf", "1 2")))
    elif how == "drop":
        i = draw(st.integers(0, len(rows) - 1))
        del rows[i][draw(st.integers(0, len(rows[i]) - 1))]
    text = "\n".join(",".join(row) for row in rows) + "\n"
    return _corrupt(draw, text.encode(), how)


@st.composite
def any_dataset_files(draw):
    """(suffix, bytes): a binary or a CSV dataset, maybe spoiled."""
    if draw(st.booleans()):
        return ".bin", draw(dataset_files())
    rows = [[repr(v) for v in row] for row in ATOMS.tolist()]
    how = draw(st.sampled_from(("keep", "cell", "drop", "truncate", "flip")))
    return ".csv", _csv_text(draw, rows, how)


@st.composite
def mixture_files(draw):
    payload = json.loads(json.dumps(MIXTURE))
    how = draw(st.sampled_from(("keep", "drop", "cell", "key", "truncate",
                                "flip")))
    if how in ("drop", "cell"):
        rows = payload[draw(st.sampled_from(sorted(payload)))]
        i = draw(st.integers(0, len(rows) - 1))
        if how == "drop":
            del rows[i]
        else:
            value = draw(st.sampled_from(CELL_VALUES + (-1.0, 0.0)))
            if isinstance(rows[i], list):
                rows[i][draw(st.integers(0, len(rows[i]) - 1))] = value
            else:
                rows[i] = value
    elif how == "key":
        del payload[draw(st.sampled_from(sorted(payload)))]
    return _corrupt(draw, json.dumps(payload).encode(), how)


@st.composite
def grid_files(draw):
    """(sampler, bytes): an explicit grid file, maybe spoiled."""
    sampler = draw(st.sampled_from(sorted(GRIDS)))
    lines = [repr(t) for t in GRIDS[sampler]]
    how = draw(st.sampled_from(("keep", "drop", "duplicate", "time", "cell",
                                "columns", "truncate", "flip")))
    i = draw(st.integers(0, len(lines) - 1))
    if how == "drop":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "time":
        lines[i] = repr(draw(st.one_of(st.floats(), st.integers(-5, 1005))))
    elif how == "cell":
        lines[i] = draw(st.sampled_from(("x", "", "nan", "1,2", "#")))
    elif how == "columns":  # two times per line: a 2-D table
        lines = [" ".join(lines[j:j + 2]) for j in range(0, 4, 2)]
    text = "\n".join(lines) + "\n"
    return sampler, _corrupt(draw, text.encode(), how)


@st.composite
def image_files(draw):
    """(suffix, bytes): a .npy or a CSV image, maybe spoiled."""
    if draw(st.booleans()):
        how = draw(st.sampled_from(("keep", "truncate", "flip")))
        return ".npy", _corrupt(draw, IMAGE_NPY, how)
    rows = [[repr(v) for v in row] for row in IMAGE.tolist()]
    how = draw(st.sampled_from(("keep", "cell", "drop", "truncate", "flip")))
    return ".csv", _csv_text(draw, rows, how)


def _dropped_last_two_rows() -> bytes:
    payload = preset_payload("ddim-18")
    for key in ("row_times", "signal"):
        del payload[key][-2:]
    return json.dumps(payload).encode()


def _without_beta_min() -> bytes:
    payload = preset_payload("ddim-18")
    del payload["schedule"]["beta_min"]
    return json.dumps(payload).encode()


def _header_T(value) -> bytes:
    """ddim-18 with its schedule header's T set to ``value``."""
    payload = preset_payload("ddim-18")
    payload["schedule"]["T"] = value
    return json.dumps(payload).encode()


def _evaluation_at(i: int, t: float) -> bytes:
    """ddim-18 with evaluation ``i`` (its input row and column) moved to t."""
    payload = preset_payload("ddim-18")
    payload["row_times"][i] = payload["col_times"][i] = t
    return json.dumps(payload).encode()


def _saved_signal(edit) -> bytes:
    """The saved ddpm-18 file with its signal string edited."""
    payload = json.loads(SAVED[1])
    payload["signal"] = edit(payload["signal"])
    return json.dumps(payload).encode()


# Files that loaded fine for ``guidance`` while ``check`` rejected them:
# a schedule header that cannot be built, a time outside [0, T - 1] and a
# non-integer time on the vp-discrete schedule.
SCHEDULE_DOMAIN_FILES = [(_without_beta_min(), 4),
                         (_evaluation_at(0, 5000.0), 2),
                         (_evaluation_at(1, 981.5), 2)]
# Header T values that ``--schedule`` rejects as well: not an integer and
# too large for NumPy exit 2, a string and a bool are not numbers (exit 4).
HEADER_T_FILES = [(_header_T(1000.5), 2), (_header_T(1e30), 2),
                  (_header_T("1000"), 4), (_header_T(True), 4)]
# A character outside the base64 alphabet, which a lenient decoder would
# skip, and a signal string cut by four characters: valid base64 of
# three bytes too few.
BLOCK_FILES = [(_saved_signal(lambda s: s[:8] + "*" + s[8:]), 4),
               (_saved_signal(lambda s: s[:-4]), 4)]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("exit-codes")
    return workdir / "m.json", workdir / "d.bin"


def _exit_code(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrix=matrix_files(), dataset=dataset_files())
@example(matrix=_dropped_last_two_rows(), dataset=DATASET)
@example(matrix=SCHEDULE_DOMAIN_FILES[0][0], dataset=DATASET)
@example(matrix=SCHEDULE_DOMAIN_FILES[1][0], dataset=DATASET)
@example(matrix=SCHEDULE_DOMAIN_FILES[2][0], dataset=DATASET)
@example(matrix=BLOCK_FILES[0][0], dataset=DATASET)
@example(matrix=BLOCK_FILES[1][0], dataset=DATASET)
def test_check_and_sample_exit_codes(files, matrix, dataset):
    mpath, dpath = files
    mpath.write_bytes(matrix)
    dpath.write_bytes(dataset)
    code = _exit_code("check", str(mpath))
    assert code in EXIT_CODES
    assert _exit_code("guidance", str(mpath)) == code
    assert _exit_code("sample", "--matrix", str(mpath), "--predictor",
                      f"dataset:{dpath}", "--n", "2") in EXIT_CODES


@pytest.mark.parametrize("matrix,code",
                         SCHEDULE_DOMAIN_FILES + BLOCK_FILES + HEADER_T_FILES,
                         ids=["no-beta-min", "time-5000", "time-981.5",
                              "bad-base64", "wrong-byte-count", "T-1000.5",
                              "T-1e30", "T-string", "T-true"])
def test_guidance_rejects_what_check_rejects(files, matrix, code):
    mpath, _ = files
    mpath.write_bytes(matrix)
    assert _exit_code("check", str(mpath)) == code
    assert _exit_code("guidance", str(mpath)) == code


# ----- every other subcommand that reads a file -----------------------

FILE_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("file-readers")
    (workdir / "mix.json").write_text(json.dumps(MIXTURE), encoding="utf-8")
    return workdir


def _write(workdir, name: str, blob: bytes) -> str:
    path = workdir / name
    path.write_bytes(blob)
    return str(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@FILE_SETTINGS
@given(matrix=matrix_files(), reference=any_dataset_files())
def test_search_exit_codes(workdir, matrix, reference):
    mix = f"gmm:{workdir / 'mix.json'}"
    short = ("--steps", "3", "--budget", "2")
    init = _write(workdir, "init.json", matrix)
    assert _exit_code("search", "--init", init, "--predictor", mix,
                      *short) in EXIT_CODES
    ref = _write(workdir, "ref" + reference[0], reference[1])
    assert _exit_code("search", "--reference", ref, "--predictor", mix,
                      *short) in EXIT_CODES


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@FILE_SETTINGS
@given(grid=grid_files())
@example(grid=("ddim", b"999 700\n400 100\n"))
@example(grid=("ddim", b""))
def test_trace_explicit_grid_exit_codes(workdir, grid):
    path = _write(workdir, "grid.txt", grid[1])
    assert _exit_code("trace", "--sampler", grid[0],
                      "--grid", f"explicit:{path}") in EXIT_CODES


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@FILE_SETTINGS
@given(data=any_dataset_files())
@example(data=(".csv", b""))
def test_degrade_exit_codes(workdir, data):
    path = _write(workdir, "data" + data[0], data[1])
    assert _exit_code("degrade", "--data", path, "--family", "vp",
                      "--times", "500", "--trials", "5") in EXIT_CODES


@pytest.mark.parametrize("threshold", ["nan", "2", "0", "1", "inf"])
def test_degrade_threshold_outside_unit_interval_exits_2(workdir, threshold):
    # no max posterior weight in (0, 1] can pass such a threshold, or
    # every one does, so the rates would say nothing
    path = _write(workdir, "data.bin", DATASET)
    assert _exit_code("degrade", "--data", path, "--family", "vp",
                      "--times", "500", "--trials", "5",
                      "--threshold", threshold) == 2


@pytest.mark.parametrize("argv", [
    ("sample", "--matrix", "ddim-18", "--predictor", "gmm:{mix}",
     "--n", "2"),
    ("search", "--predictor", "gmm:{mix}", "--steps", "3", "--budget", "2"),
    ("degrade", "--data", "{data}", "--family", "vp", "--times", "500",
     "--trials", "5"),
], ids=["sample", "search", "degrade"])
def test_negative_seed_exits_2(workdir, capsys, argv):
    # NumPy's seeding raised ValueError for it, a traceback with exit 1
    paths = {"mix": workdir / "mix.json",
             "data": _write(workdir, "data.bin", DATASET)}
    assert main([a.format(**paths) for a in argv] + ["--seed", "-1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: need a non-negative integer seed, got -1"]


@pytest.mark.parametrize("size", [10 ** 12, 2 ** 62])
@pytest.mark.parametrize("argv,message", [
    (("sample", "--matrix", "ddim-18", "--predictor", "gmm:{mix}", "--n"),
     "n = {size} needs a run buffer of"),
    (("degrade", "--data", "{data}", "--family", "vp", "--times", "500",
      "--trials"), "trials = {size} needs"),
], ids=["sample", "degrade"])
def test_unallocatable_size_exits_2(workdir, capsys, argv, message, size):
    # a usage error, not NumPy's MemoryError (10**12) or "array is too
    # big" ValueError (2**62) as a traceback with exit 1
    paths = {"mix": workdir / "mix.json",
             "data": _write(workdir, "data.bin", DATASET)}
    assert main([a.format(**paths) for a in argv] + [str(size)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: " + message.format(size=size))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@FILE_SETTINGS
@given(image=image_files())
@example(image=(".npy", b""))
@example(image=(".npy", IMAGE_NPY.replace(b"'<f8'", b"',f8'")))
@example(image=(".csv", b""))
def test_spectrum_exit_codes(workdir, image):
    path = _write(workdir, "image" + image[0], image[1])
    assert _exit_code("spectrum", "--image", path, "--family", "vp",
                      "--t", "500") in EXIT_CODES


@pytest.mark.parametrize("blob", [b"", b"\n\n", b"# no data\n"],
                         ids=["empty", "blank", "comment"])
@pytest.mark.parametrize("argv", [
    ("degrade", "--data", "{}", "--family", "vp", "--times", "500"),
    ("spectrum", "--image", "{}", "--family", "vp", "--t", "500"),
    ("trace", "--sampler", "ddim", "--grid", "explicit:{}"),
], ids=["degrade", "spectrum", "trace"])
def test_table_with_no_data_exits_4(workdir, argv, blob):
    # unreadable as a table, like every other unreadable file
    path = _write(workdir, "empty.csv", blob)
    assert _exit_code(*[a.format(path) for a in argv]) == 4


#: Where a matrix file holds numbers: (file, key, index of the entry).
#: flow-euler-18 is a ``nimatrix/1`` preset, whose blocks are lists; the
#: saved ddpm-18 stores noise times.
MATRIX_NUMBERS = {"row-time": ("flow-euler-18", "row_times", (3,)),
                  "col-time": ("flow-euler-18", "col_times", (3,)),
                  "noise-time": ("ddpm-18", "noise_times", (3,)),
                  "list-block": ("flow-euler-18", "signal", (5, 2))}
MIXTURE_NUMBERS = {"weights": (0,), "means": (1, 0), "variances": (0,)}
#: What each value in a number's place gives: exit 4 for what is not a
#: JSON number, exit 2 for a JSON number that is not a finite float.
NUMBER_VALUES = {"string": ("0.944", 4), "padded-string": (" 0.944\n", 4),
                 "true": (True, 4), "null": (None, 4),
                 "400-digits": (10 ** 400, 2), "1e400": (float("inf"), 2)}


def _with_entry(payload: dict, key: str, index: tuple, value) -> bytes:
    cells = payload[key]
    for i in index[:-1]:
        cells = cells[i]
    cells[index[-1]] = value
    return json.dumps(payload).replace("Infinity", "1e400").encode()


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("value", NUMBER_VALUES)
@pytest.mark.parametrize("where", MATRIX_NUMBERS)
def test_matrix_numbers_must_be_json_floats(workdir, capsys, where, value):
    # the times were read with float(), which took "0.944" and true and
    # ended a 400-digit integer in an OverflowError traceback; list blocks
    # with np.asarray, which took strings and bools
    name, key, index = MATRIX_NUMBERS[where]
    payload = (preset_payload(name) if name != "ddpm-18"
               else json.loads(SAVED[1]))
    cell, code = NUMBER_VALUES[value]
    path = _write(workdir, "numbers.json", _with_entry(payload, key, index,
                                                       cell))
    mix = f"gmm:{workdir / 'mix.json'}"
    for argv in (("check", path),
                 ("sample", "--matrix", path, "--predictor", mix)):
        got, err = _run(capsys, *argv)
        assert got == code and "Traceback" not in err


@pytest.mark.parametrize("value", NUMBER_VALUES)
@pytest.mark.parametrize("key", MIXTURE_NUMBERS)
def test_mixture_numbers_must_be_json_floats(workdir, capsys, key, value):
    cell, code = NUMBER_VALUES[value]
    payload = json.loads(json.dumps(MIXTURE))
    path = _write(workdir, "numbers.json", _with_entry(
        payload, key, MIXTURE_NUMBERS[key], cell))
    got, err = _run(capsys, "sample", "--matrix", "ddim-18",
                    "--predictor", f"gmm:{path}", "--n", "2")
    assert got == code and "Traceback" not in err
    assert f"mixture {key}" in err


def test_mixture_of_strings_and_bools_is_format_error(workdir, capsys):
    path = _write(workdir, "numbers.json", json.dumps(
        {"weights": ["1.0"], "means": [[True, False, "0.5", 0]],
         "variances": [True]}).encode())
    got, err = _run(capsys, "sample", "--matrix", "ddim-18",
                    "--predictor", f"gmm:{path}")
    assert got == 4
    assert err.splitlines() == [
        "i/o error: mixture weights must hold JSON numbers, not a string"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@FILE_SETTINGS
@given(mixture=mixture_files())
def test_mixture_predictor_exit_codes(workdir, mixture):
    path = _write(workdir, "mixture.json", mixture)
    assert _exit_code("sample", "--matrix", "ddim-18", "--predictor",
                      f"gmm:{path}", "--n", "2") in EXIT_CODES
