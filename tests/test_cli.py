import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from nimatrix.cli import main
from nimatrix.coeffmatrix import load, save
from nimatrix.oracles import Dataset, save_dataset
from nimatrix.presets import load_preset
from nimatrix.samplers import KINDS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def int_digit_limit():
    """Python's default 4300-digit limit on int-string conversion, set
    whatever PYTHONINTMAXSTRDIGITS says, and restored after the test."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


class TestTraceCheck:
    def test_trace_writes_matrix_and_reports(self, capsys, tmp_path):
        out = tmp_path / "m.json"
        code, stdout, stderr = run(capsys, "trace", "--sampler", "ddim",
                                   "--steps", "6", "--out", str(out))
        assert code == 0
        assert out.exists()
        assert stdout.splitlines()[0].startswith("time,equivalent_signal")
        assert "max deviation" in stderr

    def test_check_preset_by_name(self, capsys):
        code, stdout, _ = run(capsys, "check", "ddim-18")
        assert code == 0
        assert len(stdout.splitlines()) == 20  # header + 19 rows

    def test_check_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "check", str(tmp_path / "none.json"))
        assert code == 4
        assert "error" in stderr

    def test_check_malformed_file_is_io_error(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, _ = run(capsys, "check", str(p))
        assert code == 4

    @pytest.mark.parametrize("grid,code", [("trailing", 0), ("quadratic", 0),
                                           ("bogus", 2), ("explicit", 2)])
    def test_grid_values(self, capsys, grid, code):
        got, _, stderr = run(capsys, "trace", "--sampler", "ddim",
                             "--steps", "6", "--grid", grid)
        assert got == code
        if code:
            assert "unknown grid" in stderr

    @pytest.mark.parametrize("text,code", [("999\n600\n300\n", 0),
                                           ("999\nabc\n", 4),
                                           ("999.0000000004\n999\n500\n", 2)],
                             ids=["valid", "malformed", "rounds-to-repeat"])
    def test_explicit_grid_file(self, capsys, tmp_path, text, code):
        p = tmp_path / "grid.txt"
        p.write_text(text)
        got, _, _ = run(capsys, "trace", "--sampler", "ddim", "--steps", "3",
                        "--grid", f"explicit:{p}")
        assert got == code

    @pytest.mark.parametrize("steps,code", [(None, 0), ("3", 0), ("6", 2)],
                             ids=["omitted", "matching", "mismatch"])
    def test_explicit_grid_steps(self, capsys, tmp_path, steps, code):
        p = tmp_path / "grid.txt"
        p.write_text("999\n600\n300\n")
        out = tmp_path / "m.json"
        argv = ["trace", "--sampler", "ddim", "--grid", f"explicit:{p}",
                "--out", str(out)]
        if steps is not None:
            argv += ["--steps", steps]
        got, _, stderr = run(capsys, *argv)
        assert got == code
        if code:
            assert "--steps 6" in stderr and not out.exists()
        else:
            assert load(out).n_evals == 3

    def test_schedule_missing_key_is_format_error(self, capsys, tmp_path):
        p = tmp_path / "p.json"
        assert run(capsys, "presets", "export", "ddim-18",
                   "--out", str(p))[0] == 0
        payload = json.loads(p.read_text())
        del payload["schedule"]["beta_min"]
        p.write_text(json.dumps(payload))
        code, _, stderr = run(capsys, "check", str(p))
        assert code == 4
        assert "beta_min" in stderr and "Traceback" not in stderr

    @pytest.mark.parametrize("sampler,schedule", [
        ("ddim", "vp-linear:abc"),
        ("ddim", "vp-linear:1e-4:0.02:1000:7"),
        ("ddim", "vp-linear:1e-4:0.02:10.5"),
        ("ddim", "vp-linear:1e-4:0.02:1e30"),
        ("ddim", "vp-linear:1e-4:0.02:inf"),
        ("flow-euler", "flow:x"),
        ("dpmpp-2s", "vp-continuous:0.1:inf"),
        ("ddim", "cosine")])
    def test_malformed_schedule_is_usage_error(self, capsys, sampler,
                                               schedule):
        code, _, stderr = run(capsys, "trace", "--sampler", sampler,
                              "--steps", "6", "--schedule", schedule)
        assert code == 2 and stderr.startswith("error: ")

    @pytest.mark.parametrize("kind", KINDS)
    def test_quadratic_grid_gives_the_requested_evaluations(self, capsys,
                                                            tmp_path, kind):
        out = tmp_path / "m.json"
        code, _, _ = run(capsys, "trace", "--sampler", kind, "--steps", "6",
                         "--grid", "quadratic", "--out", str(out))
        assert code == 0
        assert load(out).n_evals == 6

    @pytest.mark.parametrize("kind", ["dpm-solver-2s", "dpmpp-3s"])
    def test_quadratic_grid_rejects_an_untakeable_count(self, capsys,
                                                        tmp_path, kind):
        out = tmp_path / "m.json"
        code, _, stderr = run(capsys, "trace", "--sampler", kind, "--steps",
                              "5", "--grid", "quadratic", "--out", str(out))
        assert code == 2 and "divisible" in stderr and not out.exists()

    def test_unknown_sampler_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--sampler", "heun"])
        assert exc.value.code == 2


class TestSample:
    def test_sample_with_gmm(self, capsys, tmp_path, gmm16):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"weights": gmm16.weights.tolist(),
                                 "means": gmm16.means.tolist(),
                                 "variances": gmm16.variances.tolist()}))
        m = tmp_path / "m.json"
        assert run(capsys, "trace", "--sampler", "ddim", "--steps", "6",
                   "--out", str(m))[0] == 0
        code, stdout, _ = run(capsys, "sample", "--matrix", str(m),
                              "--predictor", f"gmm:{g}", "--n", "3",
                              "--seed", "1")
        assert code == 0
        rows = [r.split(",") for r in stdout.strip().splitlines()]
        assert len(rows) == 3 and len(rows[0]) == 16

    @pytest.mark.parametrize("source,code", [("dataset", 0), ("gmm", 2)])
    def test_label_exit_codes(self, capsys, tmp_path, small_dataset, gmm16,
                              source, code):
        # a label selects dataset atoms; a mixture has none to select
        p = tmp_path / "source"
        if source == "dataset":
            save_dataset(small_dataset, p)
        else:
            p.write_text(json.dumps({"weights": gmm16.weights.tolist(),
                                     "means": gmm16.means.tolist(),
                                     "variances": gmm16.variances.tolist()}))
        got, stdout, stderr = run(capsys, "sample", "--matrix", "ddim-18",
                                  "--predictor", f"{source}:{p}", "--n", "2",
                                  "--label", "1")
        assert got == code
        if code:
            assert stdout == "" and "label" in stderr

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_prediction_is_numeric_error(self, capsys, tmp_path):
        # means of 1e300 overflow the squared distances: NaN posterior means
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"weights": [0.5, 0.5],
                                 "means": [[1e300, 0.0], [-1e300, 0.0]],
                                 "variances": [1.0, 1.0]}))
        code, stdout, stderr = run(capsys, "sample", "--matrix", "ddim-18",
                                   "--predictor", f"gmm:{g}", "--n", "2")
        assert code == 3
        assert stdout == "" and "non-finite" in stderr

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_state_is_numeric_error(self, capsys, tmp_path):
        # noise weights of 1e308 overflow the first state to inf
        m = tmp_path / "m.json"
        ddim = load_preset("ddim-18")
        save(replace(ddim, noise=ddim.noise * 1e308), m)
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"weights": [1.0], "means": [[0.0, 0.0]],
                                 "variances": [1.0]}))
        code, stdout, stderr = run(capsys, "sample", "--matrix", str(m),
                                   "--predictor", f"gmm:{g}", "--n", "8")
        assert code == 3
        assert stdout == "" and "non-finite state" in stderr

    def test_non_utf8_mixture_is_format_error(self, capsys, tmp_path):
        g = tmp_path / "g.json"
        g.write_bytes(b'{"weights": [1.0\xff]}')
        code, stdout, stderr = run(capsys, "sample", "--matrix", "ddim-18",
                                   "--predictor", f"gmm:{g}")
        assert code == 4
        assert stdout == "" and "invalid mixture file" in stderr

    @pytest.mark.parametrize("which", ["matrix", "mixture"])
    def test_integer_past_the_digit_limit_is_format_error(
            self, capsys, tmp_path, int_digit_limit, which):
        # json raises a plain ValueError for an integer over the limit
        f = tmp_path / "f.json"
        f.write_text('{"weights": [' + "1" * 5000 + "]}")
        matrix = str(f) if which == "matrix" else "ddim-18"
        code, _, stderr = run(capsys, "sample", "--matrix", matrix,
                              "--predictor", f"gmm:{f}")
        assert code == 4 and f"invalid {which} file" in stderr

    def test_sample_to_dataset_file(self, capsys, tmp_path, small_dataset):
        d = tmp_path / "d.bin"
        save_dataset(small_dataset, d)
        m = tmp_path / "m.json"
        run(capsys, "trace", "--sampler", "ddim", "--steps", "6",
            "--out", str(m))
        out = tmp_path / "samples.bin"
        code, _, _ = run(capsys, "sample", "--matrix", str(m),
                         "--predictor", f"dataset:{d}", "--n", "4",
                         "--out", str(out))
        assert code == 0
        from nimatrix.oracles import load_dataset
        assert load_dataset(out).atoms.shape == (4, 4)


class TestDegrade:
    def test_csv_output(self, capsys, tmp_path, small_dataset):
        d = tmp_path / "d.bin"
        save_dataset(small_dataset, d)
        code, stdout, _ = run(capsys, "degrade", "--data", str(d),
                              "--family", "vp", "--times", "100,600",
                              "--trials", "50")
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0].startswith("family,t,")
        assert len(lines) == 3


    @pytest.mark.parametrize("times", ["a,b", "100,", "nan", "100,inf"])
    def test_malformed_times_is_usage_error(self, capsys, tmp_path,
                                            small_dataset, times):
        d = tmp_path / "d.bin"
        save_dataset(small_dataset, d)
        code, stdout, stderr = run(capsys, "degrade", "--data", str(d),
                                   "--family", "vp", "--times", times,
                                   "--trials", "5")
        assert code == 2 and stdout == ""
        assert "error" in stderr


class TestGuidance:
    def test_classifies_preset(self, capsys):
        code, stdout, _ = run(capsys, "guidance", "deis3-18")
        assert code == 0
        assert "has-Fore" in stdout


class TestSpectrum:
    def test_profile_from_csv_image(self, capsys, tmp_path):
        img = np.random.default_rng(0).standard_normal((16, 16))
        p = tmp_path / "img.csv"
        np.savetxt(p, img, delimiter=",")
        code, stdout, stderr = run(capsys, "spectrum", "--image", str(p),
                                   "--family", "flow", "--t", "0.5")
        assert code == 0
        assert stdout.splitlines()[0] == "band,snr"
        assert "submerged fraction" in stderr

    def test_profile_from_npy_image(self, capsys, tmp_path):
        p = tmp_path / "img.npy"
        np.save(p, np.random.default_rng(0).standard_normal((8, 8)))
        code, stdout, _ = run(capsys, "spectrum", "--image", str(p),
                              "--family", "vp", "--t", "300")
        assert code == 0
        assert len(stdout.splitlines()) > 1

    @pytest.mark.parametrize("name,write", [
        ("img.csv", lambda p: p.write_text("1,2\n3,abc\n")),
        ("img.csv", lambda p: p.write_bytes(b"1,2\xff\n3,4\n")),
        ("img.npy", lambda p: p.write_bytes(b"\x00garbage bytes\xff" * 8)),
        ("img.npy", lambda p: np.save(p, np.array([[1, "a"], [None, 2]],
                                                  dtype=object),
                                      allow_pickle=True)),
        ("img.npy", lambda p: np.save(p, np.full((8, 8), "a"))),
        ("img.npy", lambda p: np.save(p, np.ones((8, 8), dtype=complex))),
    ], ids=["csv-text", "csv-non-utf8", "npy-garbage", "npy-object",
            "npy-strings", "npy-complex"])
    def test_malformed_image_is_format_error(self, capsys, tmp_path, name,
                                             write):
        p = tmp_path / name
        write(p)
        code, stdout, stderr = run(capsys, "spectrum", "--image", str(p),
                                   "--family", "flow", "--t", "0.5")
        assert code == 4
        assert stdout == "" and str(p) in stderr

    def test_nan_pixel_is_usage_error(self, capsys, tmp_path):
        img = np.ones((8, 8))
        img[2, 2] = np.nan
        p = tmp_path / "img.csv"
        np.savetxt(p, img, delimiter=",")
        code, stdout, stderr = run(capsys, "spectrum", "--image", str(p),
                                   "--family", "flow", "--t", "0.5")
        assert code == 2
        assert stdout == "" and "non-finite" in stderr


class TestPresets:
    def test_list(self, capsys):
        code, stdout, _ = run(capsys, "presets", "list")
        assert code == 0
        assert "ddim-18" in stdout

    def test_export(self, capsys, tmp_path):
        out = tmp_path / "p.json"
        code, _, _ = run(capsys, "presets", "export", "ddim-18",
                         "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["format"] == "nimatrix/1"
        code, stdout, _ = run(capsys, "check", str(out))
        assert code == 0
        assert len(stdout.splitlines()) == 20

    def test_unknown_name_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "presets", "export", "nope")
        assert code == 2


class TestSearchCommand:
    def test_short_search_runs(self, capsys, tmp_path, ring_gmm):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"weights": ring_gmm.weights.tolist(),
                                 "means": ring_gmm.means.tolist(),
                                 "variances": ring_gmm.variances.tolist()}))
        out = tmp_path / "best.json"
        code, stdout, _ = run(capsys, "search", "--steps", "5",
                              "--predictor", f"gmm:{g}", "--budget", "20",
                              "--out", str(out))
        assert code == 0
        assert out.exists()
        assert stdout.splitlines()[0] == "evaluation,best_objective"

    def test_best_matrix_file_plays_and_seeds_a_search(self, capsys,
                                                       tmp_path, ring_gmm):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"weights": ring_gmm.weights.tolist(),
                                 "means": ring_gmm.means.tolist(),
                                 "variances": ring_gmm.variances.tolist()}))
        best = tmp_path / "best.json"
        code, _, _ = run(capsys, "search", "--steps", "5", "--predictor",
                         f"gmm:{g}", "--budget", "4", "--out", str(best))
        assert code == 0
        assert json.loads(best.read_text())["format"] == "nimatrix/2"
        code, stdout, _ = run(capsys, "sample", "--matrix", str(best),
                              "--predictor", f"gmm:{g}", "--n", "3")
        assert code == 0
        assert len(stdout.splitlines()) == 3
        code, stdout, _ = run(capsys, "search", "--init", str(best),
                              "--predictor", f"gmm:{g}", "--budget", "2")
        assert code == 0
        assert stdout.splitlines()[0] == "evaluation,best_objective"

    def test_non_utf8_mixture_is_format_error(self, capsys, tmp_path):
        g = tmp_path / "g.json"
        g.write_bytes(b'{"weights": [1.0\xff]}')
        code, stdout, stderr = run(capsys, "search", "--steps", "5",
                                   "--predictor", f"gmm:{g}", "--budget", "4")
        assert code == 4
        assert stdout == "" and "invalid mixture file" in stderr
