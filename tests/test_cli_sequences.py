"""Sequences of ``nimatrix`` commands run in one process.

``cli.main`` reuses one parser for every call in a process.  Hypothesis
draws up to six argv lists over the eight commands, with flag values
from 0, -1, nan, inf, 1e400, "x", "", a valid value, missing files and
files of the wrong kind; ``--n`` and ``--trials`` also take sizes that
no run can allocate.  Every call returns, or exits through
argparse's ``SystemExit``, with 0, 2, 3 or 4; nothing else escapes.
Played in reverse order, and each with a newly built parser, every argv
gives the same exit code and the same stdout, so no call leaves state
behind for the next.
"""

import contextlib
import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nimatrix import cli
from nimatrix.coeffmatrix import save, trace_sampler
from nimatrix.oracles import Dataset, save_dataset
from nimatrix.samplers import KINDS, SamplerSpec

EXIT_CODES = {0, 2, 3, 4}
#: Values every flag may take besides its own valid ones.
ALPHABET = ("0", "-1", "nan", "inf", "1e400", "x", "")
INPUTS = ("matrix.json", "data.bin", "data.csv", "mix.json", "vp-grid.txt",
          "flow-grid.txt", "image.csv", "image.npy", "missing.json")
SCHEDULES = ("vp-linear", "vp-linear:0.1:20:50", "flow", "vp-continuous",
             "vp-continuous:0.1:20", "vp-linear:x", "flow:1", "cosine")
_OUT = itertools.count()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The input files, written once: each command may be given any of
    them, or one that does not exist."""
    d = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(0)
    save(trace_sampler(SamplerSpec(kind="ddim"), n_evals=6),
         d / "matrix.json")
    atoms = rng.standard_normal((8, 2))
    save_dataset(Dataset(atoms=atoms), d / "data.bin")
    np.savetxt(d / "data.csv", atoms, delimiter=",")
    (d / "mix.json").write_text(json.dumps(
        {"weights": [0.25, 0.75], "means": [[2.0, 0.0], [-1.0, 1.0]],
         "variances": [0.1, 0.3]}))
    (d / "vp-grid.txt").write_text("999\n500\n0\n")
    (d / "flow-grid.txt").write_text("1.0\n0.5\n0.0\n")
    np.savetxt(d / "image.csv", rng.standard_normal((6, 6)), delimiter=",")
    np.save(d / "image.npy", rng.standard_normal((6, 6)))
    return d


def _mostly(good, bad):
    """A value drawn from ``good`` three times in four, else from ``bad``."""
    return st.sampled_from((good,) * 3 + (bad,)).flatmap(lambda s: s)


def _flag(*valid):
    """A flag's value: one of its valid values, or one from ALPHABET."""
    return _mostly(st.sampled_from(valid), st.sampled_from(ALPHABET))


def _file(*right):
    """A file of the right kind, or any input file, a missing one too."""
    return _mostly(st.sampled_from(right), st.sampled_from(INPUTS))


#: Sizes no run can allocate: NumPy raises MemoryError for the first and
#: ValueError for the second, before touching memory; both exit 2.
BIG, HUGE = str(10 ** 12), str(2 ** 62)
_MATRIX = _file("matrix.json", "ddim-18", "flow-euler-18")
_PREDICTOR = _mostly(
    st.tuples(st.sampled_from(["gmm", "dataset"]),
              _file("mix.json", "data.bin", "data.csv")).map(":".join),
    st.sampled_from(ALPHABET + ("x:mix.json",)))
_FAMILY = _mostly(st.sampled_from(["vp", "flow"]), st.sampled_from(ALPHABET))
#: A fresh output path, one that no argv reads.
OUT = object()
#: How often an argument is given: a required one seven times in eight,
#: an optional one every other time, and ``--budget`` and ``--trials``
#: always, so that their defaults of 2000 and 1000 never run.
REQUIRED = st.sampled_from((True,) * 7 + (False,))
OPTIONAL = st.booleans()
ALWAYS = st.just(True)

#: Each command's arguments: (flag, values, how often given); a
#: positional argument has no flag.
COMMANDS = {
    "trace": [("--sampler", _mostly(st.sampled_from(KINDS),
                                     st.sampled_from(ALPHABET)), REQUIRED),
              ("--steps", _flag("6", "18"), OPTIONAL),
              ("--schedule", st.sampled_from(SCHEDULES + ALPHABET), OPTIONAL),
              ("--grid", st.one_of(
                  st.sampled_from(("trailing", "quadratic") + ALPHABET),
                  _file("vp-grid.txt", "flow-grid.txt").map(
                      "explicit:{}".format)), OPTIONAL),
              ("--out", OUT, OPTIONAL)],
    "check": [("", _MATRIX, REQUIRED)],
    "sample": [("--matrix", _MATRIX, REQUIRED),
               ("--predictor", _PREDICTOR, REQUIRED),
               ("--label", _flag("1"), OPTIONAL),
               ("--n", _flag("4", BIG, HUGE), OPTIONAL),
               ("--seed", _flag("3"), OPTIONAL), ("--out", OUT, OPTIONAL)],
    "degrade": [("--data", _file("data.bin", "data.csv"), REQUIRED),
                ("--family", _FAMILY, REQUIRED),
                ("--times", _flag("999,500", "0.9,0.1"), REQUIRED),
                ("--trials", _flag("20", BIG, HUGE), ALWAYS),
                ("--threshold", _flag("0.9"), OPTIONAL),
                ("--seed", _flag("2"), OPTIONAL)],
    "guidance": [("", _MATRIX, REQUIRED)],
    "search": [("--steps", _flag("5"), OPTIONAL),
               ("--predictor", _PREDICTOR, REQUIRED),
               ("--reference", _file("data.bin", "data.csv"), OPTIONAL),
               ("--budget", _flag("3"), ALWAYS),
               ("--init", st.one_of(st.just("ddim"), _MATRIX), OPTIONAL),
               ("--band", _flag("3"), OPTIONAL),
               ("--seed", _flag("1"), OPTIONAL),
               ("--out", OUT, OPTIONAL)],
    "spectrum": [("--image", _file("image.csv", "image.npy"), REQUIRED),
                 ("--family", _FAMILY, REQUIRED),
                 ("--t", _flag("500", "0.5"), REQUIRED)],
    "presets": [("", st.sampled_from(["list", "export"]), REQUIRED),
                ("", _flag("ddim-18", "opt-5"), OPTIONAL),
                ("--out", OUT, OPTIONAL)],
}


def _path(workdir, value: str) -> str:
    """``value`` with an input file name, alone or after ``KIND:``, made
    a path in ``workdir``."""
    kind, sep, name = value.rpartition(":")
    return f"{kind}{sep}{workdir / name}" if name in INPUTS else value


@st.composite
def argv_lists(draw, workdir, commands):
    argv = [draw(st.sampled_from(commands))]
    for flag, values, given in COMMANDS[argv[0]]:
        if not draw(given):
            continue
        if values is OUT:
            value = str(workdir / f"out-{next(_OUT)}")
        else:
            value = _path(workdir, draw(values))
        argv += [flag, value] if flag else [value]
    return argv


def _call(argv, fresh=False):
    """Exit code and stdout of one ``main`` call, with a newly built parser
    if ``fresh``; an exception other than argparse's ``SystemExit``
    propagates."""
    if fresh:
        cli._parser.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_sequences_in_one_process(workdir, data):
    # one or two commands, so that calls of one command with other flags
    # follow each other
    commands = data.draw(st.lists(st.sampled_from(sorted(COMMANDS)),
                                  min_size=1, max_size=2, unique=True))
    sequence = data.draw(st.lists(argv_lists(workdir, commands), min_size=2,
                                  max_size=6))
    forward = [_call(argv) for argv in sequence]
    for argv, (code, _) in zip(sequence, forward):
        assert code in EXIT_CODES, argv
    backward = [_call(argv) for argv in reversed(sequence)]
    assert backward[::-1] == forward
    assert [_call(argv, fresh=True) for argv in sequence] == forward
