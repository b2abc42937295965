import json
from dataclasses import replace

import numpy as np
import pytest

from nimatrix.coeffmatrix import (TERMINAL_OUTPUT, CoefficientMatrix,
                                  equivalent_marginals, from_payload, load,
                                  normalize_rows, save, to_csv,
                                  trace_sampler)
from nimatrix.errors import FormatError, NumericError, ValidationError
from nimatrix.presets import list_presets, load_preset
from nimatrix.samplers import KINDS, SamplerSpec


def tiny_matrix(vp):
    return CoefficientMatrix(
        schedule_info=vp.descriptor(),
        row_times=(999.0, 500.0, TERMINAL_OUTPUT),
        col_times=(999.0, 500.0),
        signal=np.array([[0.0, 0.0], [0.3, 0.0], [0.5, 0.5]]),
        noise=np.array([[1.0], [0.9], [0.0]]),
        noise_times=(999.0,),
        noise_mode="traced")


class TestValidation:
    def test_accepts_lower_triangular(self, vp):
        tiny_matrix(vp)

    def test_rejects_diagonal_weight(self, vp):
        with pytest.raises(ValidationError, match="not lower triangular"):
            CoefficientMatrix(
                schedule_info=vp.descriptor(),
                row_times=(999.0, 500.0, TERMINAL_OUTPUT),
                col_times=(999.0, 500.0),
                signal=np.array([[0.1, 0.0], [0.3, 0.0], [0.5, 0.5]]),
                noise=np.zeros((3, 0)))

    def test_rejects_shape_mismatch(self, vp):
        with pytest.raises(ValidationError):
            CoefficientMatrix(schedule_info=vp.descriptor(),
                              row_times=(999.0,), col_times=(999.0, 1.0),
                              signal=np.zeros((1, 3)), noise=np.zeros((1, 0)))

    def test_rejects_nonfinite(self, vp):
        with pytest.raises(ValidationError):
            CoefficientMatrix(
                schedule_info=vp.descriptor(),
                row_times=(999.0, TERMINAL_OUTPUT), col_times=(999.0,),
                signal=np.array([[0.0], [np.nan]]), noise=np.zeros((2, 0)))

    def test_rejects_row_count_mismatch(self):
        # a ddim-18 file with its last two rows dropped used to load, and
        # then failed with an IndexError when executed
        m = load_preset("ddim-18")
        with pytest.raises(ValidationError, match="18 evaluations"):
            replace(m, row_times=m.row_times[:-2], signal=m.signal[:-2],
                    noise=m.noise[:-2])

    def test_rejects_non_2d_signal(self, vp):
        with pytest.raises(ValidationError, match="2-D"):
            CoefficientMatrix(schedule_info=vp.descriptor(),
                              row_times=(999.0, TERMINAL_OUTPUT),
                              col_times=(999.0,), signal=np.zeros(2),
                              noise=np.zeros((2, 0)))

    def test_traced_matrix_needs_noise_columns(self, vp):
        with pytest.raises(ValidationError, match="no noise columns"):
            replace(tiny_matrix(vp), noise=np.zeros((3, 0)), noise_times=())

    def test_rejects_col_times_not_decreasing(self, vp):
        with pytest.raises(ValidationError, match="strictly decrease"):
            replace(tiny_matrix(vp), row_times=(500.0, 999.0, TERMINAL_OUTPUT),
                    col_times=(500.0, 999.0))

    def test_rejects_input_row_off_its_evaluation_time(self, vp):
        with pytest.raises(ValidationError, match="input row 1"):
            replace(tiny_matrix(vp), row_times=(999.0, 400.0, TERMINAL_OUTPUT))

    def test_blocks_are_read_only_copies(self, vp):
        signal = np.array([[0.0, 0.0], [0.3, 0.0], [0.5, 0.5]])
        m = replace(tiny_matrix(vp), signal=signal)
        signal[1, 0] = 7.0
        assert m.signal[1, 0] == 0.3
        with pytest.raises(ValueError):
            m.signal[1, 0] = 7.0
        with pytest.raises(ValueError):
            m.noise[0, 0] = 7.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_traced_matrices_satisfy_every_rule(self, kind):
        for n in (6, 18):
            m = trace_sampler(SamplerSpec(kind=kind), n_evals=n)
            assert m.n_rows == n + 1 and m.noise.shape[1] > 0

    def test_rejects_bad_noise_mode(self, vp):
        with pytest.raises(ValidationError):
            CoefficientMatrix(
                schedule_info=vp.descriptor(),
                row_times=(999.0, TERMINAL_OUTPUT), col_times=(999.0,),
                signal=np.zeros((2, 1)), noise=np.zeros((2, 0)),
                noise_mode="always")


class TestMarginals:
    def test_terminal_row_targets_clean_signal(self, vp):
        m = tiny_matrix(vp)
        rep = equivalent_marginals(m)
        assert rep.ideal_signal[-1] == 1.0
        assert rep.ideal_noise[-1] == 0.0

    def test_report_values(self, vp):
        m = tiny_matrix(vp)
        rep = equivalent_marginals(m)
        assert rep.equivalent_signal[1] == pytest.approx(0.3)
        assert rep.equivalent_noise[1] == pytest.approx(0.9)

    def test_ddim_max_deviation_is_the_initial_deficit(self, vp):
        # the deterministic trailing-grid run inherits the initial-state
        # deficit, so the maximum deviation equals it for any step count
        for n in (18, 100):
            m = trace_sampler(SamplerSpec(kind="ddim"), n_evals=n)
            rep = equivalent_marginals(m)
            assert rep.max_deviation(skip_initial_row=True) == pytest.approx(
                0.0063528, abs=1e-6)


class TestNormalization:
    def test_rows_hit_targets(self, vp):
        m = tiny_matrix(vp)
        targets = [0.0, 0.6, 1.0]
        m2, scales = normalize_rows(m, targets=targets)
        sums = m2.signal.sum(axis=1)
        assert sums == pytest.approx(targets, abs=1e-12)
        assert scales[1] == pytest.approx(2.0)

    def test_zero_row_with_nonzero_target_rejected(self, vp):
        m = tiny_matrix(vp)
        with pytest.raises(NumericError):
            normalize_rows(m, targets=[1.0, 0.6, 1.0])


class TestSerialization:
    def test_roundtrip(self, vp, tmp_path):
        m = tiny_matrix(vp)
        p = tmp_path / "m.json"
        save(m, p)
        m2 = load(p)
        assert np.array_equal(m.signal, m2.signal)
        assert np.array_equal(m.noise, m2.noise)
        assert m2.row_times == m.row_times
        assert m2.noise_mode == "traced"

    def test_custom_mode_loads_as_traced(self, vp, tmp_path):
        p = tmp_path / "m.json"
        save(tiny_matrix(vp), p)
        payload = json.loads(p.read_text())
        payload["noise_mode"] = "custom"
        m = from_payload(payload)
        assert m.noise_mode == "traced"
        assert np.array_equal(m.noise, tiny_matrix(vp).noise)
        with pytest.raises(ValidationError):
            replace(m, noise_mode="custom")

    def test_non_utf8_file_is_format_error(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_bytes(b'{"format": "nimatrix/1\xff"}')
        with pytest.raises(FormatError):
            load(p)

    def test_non_object_payload_is_format_error(self):
        with pytest.raises(FormatError):
            from_payload([1, 2])

    def test_bad_format_name(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"format": "other/9"}')
        with pytest.raises(FormatError):
            load(p)

    def test_invalid_json_reports_position(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"format": "nimatrix/1", ???')
        with pytest.raises(FormatError) as exc:
            load(p)
        assert exc.value.row is not None

    def test_missing_key(self):
        with pytest.raises(FormatError):
            from_payload({"format": "nimatrix/1"})

    def test_csv_has_time_headers(self, vp):
        m = tiny_matrix(vp)
        text = to_csv(m)
        lines = text.strip().splitlines()
        assert lines[0].startswith("time,999.0,500.0")
        assert len(lines) == 4


def _old_layout_save(m, path):
    """The writer's earlier layout: one ``json.dump`` with ``indent=1``."""
    payload = {"format": "nimatrix/1", "schedule": m.schedule_info,
               "row_times": list(m.row_times), "col_times": list(m.col_times),
               "noise_mode": m.noise_mode, "noise_times": list(m.noise_times),
               "signal": m.signal.tolist(), "noise": m.noise.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_bitwise_equal(a, b):
    for name in ("signal", "noise", "row_times", "col_times", "noise_times"):
        assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name
    assert a.signal.shape == b.signal.shape and a.noise.shape == b.noise.shape
    assert a.schedule_info == b.schedule_info
    assert a.noise_mode == b.noise_mode


SAVED_KEYS = ["format", "schedule", "row_times", "col_times", "noise_mode",
              "noise_times", "signal", "noise"]


class TestWriter:
    @pytest.mark.parametrize("name", list_presets())
    def test_preset_roundtrip_is_bitwise(self, tmp_path, name):
        m = load_preset(name)
        save(m, tmp_path / "m.json")
        assert_bitwise_equal(load(tmp_path / "m.json"), m)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_evals", [6, 18])
    def test_traced_roundtrip_is_bitwise(self, tmp_path, kind, n_evals):
        m = trace_sampler(SamplerSpec(kind=kind), n_evals=n_evals)
        save(m, tmp_path / "m.json")
        assert_bitwise_equal(load(tmp_path / "m.json"), m)

    def test_negative_zero_survives(self, vp, tmp_path):
        m = tiny_matrix(vp)
        signal = m.signal.copy()
        signal[2, 0] = -0.0
        m = replace(m, signal=signal)
        save(m, tmp_path / "m.json")
        assert_bitwise_equal(load(tmp_path / "m.json"), m)

    def test_file_is_json_with_the_same_keys(self, tmp_path):
        m = trace_sampler(SamplerSpec(kind="ddpm"), n_evals=6)
        p = tmp_path / "m.json"
        save(m, p)
        payload = json.loads(p.read_text(encoding="utf-8"))
        assert list(payload) == SAVED_KEYS
        assert payload["signal"] == m.signal.tolist()
        assert payload["noise"] == m.noise.tolist()

    def test_one_line_per_block_row(self, tmp_path):
        m = trace_sampler(SamplerSpec(kind="ddpm"), n_evals=6)
        p = tmp_path / "m.json"
        save(m, p)
        lines = p.read_text(encoding="utf-8").splitlines()
        # braces, six header keys, and per block a key line, rows, "]"
        assert len(lines) == 2 + 6 + 2 * (m.n_rows + 2)

    def test_old_indented_layout_still_loads(self, tmp_path):
        m = trace_sampler(SamplerSpec(kind="sde-euler"), n_evals=6)
        p = tmp_path / "old.json"
        _old_layout_save(m, p)
        assert_bitwise_equal(load(p), m)

    def test_empty_noise_block_roundtrips(self, vp, tmp_path):
        m = replace(tiny_matrix(vp), noise_mode="single-terminal",
                    noise=np.zeros((3, 0)), noise_times=())
        save(m, tmp_path / "m.json")
        assert_bitwise_equal(load(tmp_path / "m.json"), m)


class TestPresets:
    def test_all_presets_load(self):
        for name in list_presets():
            m = load_preset(name)
            assert m.n_rows == m.n_evals + 1

    def test_preset_marginals_match_printed_sums(self):
        import nimatrix.presets as pr
        for name in ("ddim-18", "flow-euler-18", "deis3-18"):
            payload = pr.preset_payload(name)
            m = load_preset(name)
            sums = m.signal.sum(axis=1)[1:]
            printed = np.asarray(payload["printed_row_sums"])
            assert np.abs(sums - printed).max() < 5e-3
