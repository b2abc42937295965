"""SciPy is imported only by the paths that call it.

``samplers`` binds ``scipy.integrate.quad`` at the first DEIS weight and
``search`` binds ``scipy.spatial.distance.cdist`` at the first energy
distance, so a command that does neither starts without loading SciPy.
Each check runs in a fresh interpreter, since this process has SciPy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PRELUDE = """
import contextlib, io, json, sys
from nimatrix import cli

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv
"""


def _child(body: str, *args) -> dict:
    """Run ``PRELUDE + body`` in a fresh interpreter with ``src`` on the
    path, and return the JSON object it prints last."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-c", PRELUDE + body, *map(str, args)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_commands_without_deis_or_search_load_no_scipy(tmp_path):
    got = _child("""
import nimatrix
import numpy as np
from nimatrix.oracles import Dataset, save_dataset
loaded = {"import": scipy_modules()}
tmp = sys.argv[1]
run("trace", "--sampler", "ddpm", "--steps", "6", "--out", tmp + "/m.json")
loaded["trace"] = scipy_modules()
with open(tmp + "/g.json", "w") as fh:
    json.dump({"weights": [0.5, 0.5], "means": [[-1.0, 0.0], [1.0, 0.5]],
               "variances": [0.1, 0.2]}, fh)
run("sample", "--matrix", tmp + "/m.json", "--predictor",
    "gmm:" + tmp + "/g.json", "--n", "3")
loaded["sample"] = scipy_modules()
atoms = np.random.default_rng(0).standard_normal((50, 4))
save_dataset(Dataset(atoms=atoms), tmp + "/d.bin")
run("degrade", "--data", tmp + "/d.bin", "--family", "vp", "--times",
    "100,600", "--trials", "5")
loaded["degrade"] = scipy_modules()
print(json.dumps(loaded))
""", tmp_path)
    assert got == {"import": [], "trace": [], "sample": [], "degrade": []}


def test_deis_trace_loads_the_quadrature(tmp_path):
    got = _child("""
before = "scipy.integrate" in sys.modules
run("trace", "--sampler", "deis-2", "--steps", "4", "--out",
    sys.argv[1] + "/m.json")
print(json.dumps([before, "scipy.integrate" in sys.modules]))
""", tmp_path)
    assert got == [False, True]


ENERGY = """
import numpy as np
from nimatrix import search
rng = np.random.default_rng(3)
# 300 x 200 pairs are several leaves, shared with the worker thread
a, b = rng.standard_normal((300, 3)), rng.standard_normal((200, 3))
before = "scipy.spatial.distance" in sys.modules
value = search.energy_distance(a, b)
print(json.dumps([before, "scipy.spatial.distance" in sys.modules,
                  value.hex()]))
"""


def test_first_energy_distance_loads_cdist_and_matches():
    lazy = _child(ENERGY)
    eager = _child("import scipy.spatial.distance\n" + ENERGY)
    assert lazy[:2] == [False, True] and eager[:2] == [True, True]
    assert lazy[2] == eager[2]
