import base64
import hashlib
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from nimatrix.coeffmatrix import (TERMINAL_OUTPUT, CoefficientMatrix,
                                  equivalent_marginals, from_payload, load,
                                  normalize_rows, rescale_row, row_sums, save,
                                  trace_sampler)
from nimatrix.engine import RunConfig, run_matrix
from nimatrix.errors import (DomainError, FormatError, NumericError,
                             ParameterError, ValidationError)
from nimatrix.oracles import make_predictor
from nimatrix.presets import list_presets, load_preset, preset_payload
from nimatrix.samplers import KIND_TABLE, KINDS, SamplerSpec
from nimatrix.schedule import FAMILY_TABLE, mixing_coeffs


def tiny_matrix(vp):
    return CoefficientMatrix(
        schedule_info=vp.descriptor(),
        row_times=(999.0, 500.0, TERMINAL_OUTPUT),
        col_times=(999.0, 500.0),
        signal=np.array([[0.0, 0.0], [0.3, 0.0], [0.5, 0.5]]),
        noise=np.array([[1.0], [0.9], [0.0]]),
        noise_times=(999.0,))


def terminal_only_matrix(vp):
    """No evaluations, so no noise columns either: both blocks empty."""
    return CoefficientMatrix(schedule_info=vp.descriptor(),
                             row_times=(TERMINAL_OUTPUT,), col_times=(),
                             signal=np.zeros((1, 0)), noise=np.zeros((1, 0)))


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
                noise=np.ones((3, 1)), noise_times=(999.0,))

    def test_two_bad_rows_report_the_first(self, vp):
        with pytest.raises(ValidationError, match=r"^row 1 \(time 500\.0\)"):
            CoefficientMatrix(
                schedule_info=vp.descriptor(),
                row_times=(999.0, 500.0, 200.0, TERMINAL_OUTPUT),
                col_times=(999.0, 500.0, 200.0),
                signal=np.array([[0.0, 0.0, 0.0], [0.3, 0.2, 0.0],
                                 [0.5, 0.5, 0.1], [0.2, 0.3, 0.5]]),
                noise=np.ones((4, 1)), noise_times=(999.0,))

    def test_rejects_shape_mismatch(self, vp):
        with pytest.raises(ValidationError):
            CoefficientMatrix(schedule_info=vp.descriptor(),
                              row_times=(999.0,), col_times=(999.0, 1.0),
                              signal=np.zeros((1, 3)), noise=np.ones((1, 1)),
                              noise_times=(999.0,))

    def test_rejects_nonfinite(self, vp):
        with pytest.raises(ValidationError):
            CoefficientMatrix(
                schedule_info=vp.descriptor(),
                row_times=(999.0, TERMINAL_OUTPUT), col_times=(999.0,),
                signal=np.array([[0.0], [np.nan]]), noise=np.ones((2, 1)),
                noise_times=(999.0,))

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
                              noise=np.ones((2, 1)), noise_times=(999.0,))

    def test_traced_matrix_needs_noise_columns(self, vp):
        # every matrix with evaluations, traced or loaded, has noise columns
        with pytest.raises(ValidationError, match="no noise columns"):
            replace(tiny_matrix(vp), noise=np.zeros((3, 0)), noise_times=())
        assert terminal_only_matrix(vp).noise.shape == (1, 0)

    def test_rejects_col_times_not_decreasing(self, vp):
        with pytest.raises(ValidationError, match="strictly decrease"):
            replace(tiny_matrix(vp), row_times=(500.0, 999.0, TERMINAL_OUTPUT),
                    col_times=(500.0, 999.0))

    def test_rejects_input_row_off_its_evaluation_time(self, vp):
        with pytest.raises(ValidationError, match="input row 1"):
            replace(tiny_matrix(vp), row_times=(999.0, 400.0, TERMINAL_OUTPUT))

    @pytest.mark.parametrize("row_times,col_times", [
        ((999.0, 500.0, 5000.0), (999.0, 500.0)),  # terminal row past T - 1
        ((999.0, 500.5, TERMINAL_OUTPUT), (999.0, 500.5)),
        ((999.0, TERMINAL_OUTPUT, TERMINAL_OUTPUT), (999.0, TERMINAL_OUTPUT)),
    ])
    def test_rejects_row_time_outside_schedule(self, vp, row_times,
                                               col_times):
        with pytest.raises(DomainError):
            replace(tiny_matrix(vp), row_times=row_times, col_times=col_times)

    def test_schedule_is_built_once(self, vp):
        m = tiny_matrix(vp)
        assert m.schedule() is m.schedule()
        assert m.schedule().descriptor() == vp.descriptor()

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

    def test_rejects_bad_noise_mode(self):
        # the mode is a file field, read only by from_payload
        payload = preset_payload("ddim-18")
        for mode in ("always", "", None, ["traced"]):
            payload["noise_mode"] = mode
            with pytest.raises(ValidationError, match="unknown noise mode"):
                from_payload(payload)


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
            assert rep.max_deviation() == pytest.approx(
                0.0063528, abs=1e-6)


#: Entries a signal row may hold: zeros of both signs, the smallest and
#: largest subnormals, and finite floats small enough that no row sum
#: overflows.
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                     -2.225073858507201e-308, 1e300, -1e300]),
    st.floats(-1e300, 1e300))


@st.composite
def _signal_blocks(draw):
    """Blocks with cancelling pairs, all-zero rows, trailing zeros of
    either sign and entries on or above the diagonal."""
    block = draw(arrays(np.float64, array_shapes(min_dims=2, max_dims=2,
                                                 min_side=0, max_side=7),
                        elements=_ENTRIES))
    rows, cols = block.shape
    for i in range(rows):
        if cols >= 2 and draw(st.booleans()):  # a pair that cancels
            j, k = draw(st.lists(st.integers(0, cols - 1), min_size=2,
                                 max_size=2, unique=True))
            block[i, k] = -block[i, j]
        end = draw(st.integers(0, cols))  # trailing zeros, signs drawn
        block[i, end:] = draw(arrays(np.float64, cols - end,
                                     elements=st.sampled_from([0.0, -0.0])))
    return block


class TestRowSums:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_signal_blocks())
    @example(np.array([[-0.0, -0.0], [0.0, -0.0], [1e-310, -0.0]]))
    @example(np.array([[1e300, 1.0, -1e300, -0.0], [0.5, -0.5, 0.0, 0.0]]))
    @example(np.zeros((3, 0)))
    def test_bitwise_the_fsum_of_whole_rows(self, block):
        want = np.array([math.fsum(r) for r in block.tolist()],
                        dtype=np.float64)
        assert _bits(row_sums(block)) == _bits(want)

    def test_long_traced_block(self):
        signal = trace_sampler(SamplerSpec(kind="ddpm"), n_evals=300).signal
        want = [math.fsum(r) for r in signal.tolist()]
        assert _bits(row_sums(signal)) == _bits(want)


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

    def test_rescale_row(self):
        row = np.array([0.1, 0.2, 0.3])
        scale = rescale_row(row, 1.5)
        assert scale == 1.5 / math.fsum([0.1, 0.2, 0.3])
        assert _bits(row) == _bits(np.array([0.1, 0.2, 0.3]) * scale)
        zero = np.array([1.0, -1.0])
        assert rescale_row(zero, 0.0) == 1.0
        assert rescale_row(zero, 0.5) is None
        assert _bits(zero) == _bits([1.0, -1.0])


#: One explicit grid per schedule family, in that family's domain.
FAMILY_GRIDS = {"vp-discrete": (999.0, 500.0, 0.0),
                "flow": (1.0, 0.5, 0.0),
                "vp-continuous": (1.0, 0.5, 0.001)}
#: Every sampler kind with each schedule family other than its own.
WRONG_FAMILIES = [(kind, family) for kind in KINDS for family in FAMILY_TABLE
                  if family != KIND_TABLE[kind].family]


class TestTraceFamily:
    @pytest.mark.parametrize("kind,family", WRONG_FAMILIES)
    def test_family_checked_before_an_explicit_grid(self, kind, family):
        # the grid of the kind's own family: under the other schedule its
        # times were checked first, and that error was reported
        own = KIND_TABLE[kind].family
        with pytest.raises(ParameterError) as exc:
            trace_sampler(SamplerSpec(kind=kind),
                          s=FAMILY_TABLE[family].make(),
                          grid=FAMILY_GRIDS[own])
        assert str(exc.value) == f"{kind} requires a {own} schedule"


class TestSerialization:
    def test_roundtrip(self, vp, tmp_path):
        m = tiny_matrix(vp)
        p = tmp_path / "m.json"
        save(m, p)
        m2 = load(p)
        assert np.array_equal(m.signal, m2.signal)
        assert np.array_equal(m.noise, m2.noise)
        assert m2.row_times == m.row_times
        assert json.loads(p.read_text())["noise_mode"] == "traced"

    def test_custom_mode_loads_as_traced(self, vp, tmp_path):
        p = tmp_path / "m.json"
        save(tiny_matrix(vp), p)
        payload = json.loads(p.read_text())
        payload["noise_mode"] = "custom"
        assert_bitwise_equal(from_payload(payload), tiny_matrix(vp))

    def test_non_utf8_file_is_format_error(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_bytes(b'{"format": "nimatrix/1\xff"}')
        with pytest.raises(FormatError):
            load(p)

    def test_crlf_file_loads(self, vp, tmp_path):
        # JSON reads a carriage return as whitespace
        p = tmp_path / "m.json"
        save(tiny_matrix(vp), p)
        text = json.dumps(json.loads(p.read_text()), indent=1)
        p.write_bytes(text.replace("\n", "\r\n").encode())
        assert p.read_bytes().count(b"\r\n") > 3
        assert_bitwise_equal(load(p), tiny_matrix(vp))

    def test_byte_order_mark_is_format_error(self, vp, tmp_path):
        p = tmp_path / "m.json"
        save(tiny_matrix(vp), p)
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        with pytest.raises(FormatError, match="BOM"):
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
        # JSON's own position of the error is in the printed message
        with pytest.raises(FormatError, match=r"line 1 column 26"):
            load(p)

    def test_missing_key(self):
        with pytest.raises(FormatError):
            from_payload({"format": "nimatrix/1"})

    @pytest.mark.parametrize("schedule", [[["family", "flow"]], "flow"])
    def test_schedule_must_be_an_object(self, tmp_path, schedule):
        # a list of pairs is not read as a header, and a string fails with
        # the format's message, not Python's
        p = tmp_path / "m.json"
        save(trace_sampler(SamplerSpec(kind="flow-euler"), n_evals=6), p)
        payload = json.loads(p.read_text())
        assert payload["format"] == "nimatrix/2"
        payload["schedule"] = schedule
        with pytest.raises(FormatError, match="schedule must be a JSON object"):
            from_payload(payload)

    def test_header_is_kept_in_normal_form(self, tmp_path):
        # the matrix holds its schedule's descriptor, not the raw header:
        # a stray "T": 0 on vp-continuous and an integral float T drop out
        assert "T" not in trace_sampler(SamplerSpec(kind="dpmpp-2s"),
                                        n_evals=6).schedule_info
        for name, edit in (("dpmpp-2s-18", {"T": 0}),
                           ("ddim-18", {"T": 1000.0})):
            payload = preset_payload(name)
            want = dict(payload["schedule"])
            payload["schedule"].update(edit)
            m = from_payload(payload)
            assert m.schedule_info == want
            save(m, tmp_path / "m.json")
            assert json.loads((tmp_path / "m.json").read_text())[
                "schedule"] == want


def _held(m, noise_mode="traced"):
    """``m`` as matrices were held while they carried a noise mode: a
    single-terminal one stored no noise block and no noise times."""
    single = noise_mode == "single-terminal"
    return SimpleNamespace(
        schedule_info=m.schedule_info, row_times=m.row_times,
        col_times=m.col_times, signal=m.signal, noise_mode=noise_mode,
        noise=np.zeros((m.n_rows, 0)) if single else m.noise,
        noise_times=() if single else m.noise_times)


def with_c1_column(m):
    """``m`` with one shared draw at amplitude c1 of each row time, 0 at
    ``TERMINAL_OUTPUT``: what a single-terminal file loads as."""
    s = m.schedule()
    c1 = [0.0 if t == TERMINAL_OUTPUT else mixing_coeffs(s, t)[1]
          for t in m.row_times]
    return replace(m, noise=np.array(c1)[:, None],
                   noise_times=m.row_times[:1])


def _old_layout_save(m, path):
    """The writer's earlier layout: one ``json.dump`` with ``indent=1``."""
    payload = {"format": "nimatrix/1", "schedule": m.schedule_info,
               "row_times": list(m.row_times), "col_times": list(m.col_times),
               "noise_mode": m.noise_mode, "noise_times": list(m.noise_times),
               "signal": m.signal.tolist(), "noise": m.noise.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _streamed_list_save(m, path):
    """The ``nimatrix/1`` writer: one line per header key and block row."""
    header = {"format": "nimatrix/1", "schedule": m.schedule_info,
              "row_times": list(m.row_times), "col_times": list(m.col_times),
              "noise_mode": m.noise_mode, "noise_times": list(m.noise_times)}
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


def _base64_mode_save(m, path):
    """The first ``nimatrix/2`` writer, which wrote ``m.noise_mode``: a
    single-terminal matrix went out with an empty noise block."""
    header = {
        "format": "nimatrix/2",
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
            raw = block.astype("<f8", copy=False).tobytes()
            fh.write(f'{json.dumps(key)}: "'
                     f'{base64.b64encode(raw).decode("ascii")}"{end}\n')
        fh.write("}\n")


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_bitwise_equal(a, b):
    for name in ("signal", "noise", "row_times", "col_times", "noise_times"):
        assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name
    assert a.signal.shape == b.signal.shape and a.noise.shape == b.noise.shape
    assert a.schedule_info == b.schedule_info


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

    def test_file_is_json_with_base64_blocks(self, tmp_path):
        m = trace_sampler(SamplerSpec(kind="ddpm"), n_evals=6)
        p = tmp_path / "m.json"
        save(m, p)
        payload = json.loads(p.read_text(encoding="utf-8"))
        assert list(payload) == SAVED_KEYS
        assert payload["format"] == "nimatrix/2"
        for name in ("signal", "noise"):
            block = payload[name]
            assert isinstance(block, str)
            want = getattr(m, name).astype("<f8").tobytes()
            assert base64.b64decode(block, validate=True) == want

    def test_one_line_per_key(self, tmp_path):
        m = trace_sampler(SamplerSpec(kind="ddpm"), n_evals=6)
        p = tmp_path / "m.json"
        save(m, p)
        lines = p.read_text(encoding="utf-8").splitlines()
        # braces, six header keys, one line per block
        assert len(lines) == 2 + 6 + 2

    def test_old_indented_layout_still_loads(self, tmp_path):
        m = trace_sampler(SamplerSpec(kind="sde-euler"), n_evals=6)
        p = tmp_path / "old.json"
        _old_layout_save(_held(m), p)
        assert_bitwise_equal(load(p), m)

    @pytest.mark.parametrize("kind", ["ddpm", "ddim"])
    def test_streamed_list_layout_still_loads(self, tmp_path, kind):
        m = trace_sampler(SamplerSpec(kind=kind), n_evals=6)
        held = _held(m)
        if kind == "ddim":  # single-terminal: an empty noise block, as []
            held = _held(m, "single-terminal")
            m = with_c1_column(m)
        p = tmp_path / "old.json"
        _streamed_list_save(held, p)
        assert json.loads(p.read_text(encoding="utf-8"))["format"] == \
            "nimatrix/1"
        assert_bitwise_equal(load(p), m)

    def test_empty_noise_block_roundtrips(self, vp, tmp_path):
        m = terminal_only_matrix(vp)
        save(m, tmp_path / "m.json")
        assert_bitwise_equal(load(tmp_path / "m.json"), m)


def _edited_matrix():
    """ddpm at six evaluations, edited to hold ``-0.0`` and subnormal
    entries in both blocks."""
    m = trace_sampler(SamplerSpec(kind="ddpm"), n_evals=6)
    signal, noise = m.signal.copy(), m.noise.copy()
    signal[3, 0] = -0.0
    signal[4, 1] = 5e-324
    signal[6, 2] = -2.2250738585072014e-309
    noise[1, 5] = -0.0
    noise[2, 1] = 1e-310
    return replace(m, signal=signal, noise=noise)


#: sha256 of the files ``save`` writes, taken from the text-mode writer
#: it replaced: the binary writer keeps every byte.
SAVE_DIGESTS = {
    "ddpm-300": "2f799a663e623b55aaa55a2fe7f30d02"
                "8158e22432d05ba344e59e8645a42905",
    "edited": "cd8d692df62b61f74aeacc948628749f"
              "2cb2d2bccbe67a7635f3a11f667cce40",
}


class TestSavedBytes:
    @pytest.mark.parametrize("name", sorted(SAVE_DIGESTS))
    def test_file_bytes_are_pinned(self, tmp_path, name):
        m = (_edited_matrix() if name == "edited" else
             trace_sampler(SamplerSpec(kind="ddpm"), n_evals=300))
        p = tmp_path / "m.json"
        save(m, p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == \
            SAVE_DIGESTS[name]

    def test_fortran_ordered_block_saves_the_same_bytes(self, tmp_path):
        m = _edited_matrix()
        f = replace(m, signal=np.asfortranarray(m.signal),
                    noise=np.asfortranarray(m.noise))
        assert not f.signal.flags.c_contiguous  # the copy keeps the order
        save(m, tmp_path / "c.json")
        save(f, tmp_path / "f.json")
        assert (tmp_path / "f.json").read_bytes() == \
            (tmp_path / "c.json").read_bytes()

    def test_loaded_blocks_are_the_decoded_bytes(self, tmp_path):
        # a loaded nimatrix/2 block is kept, not copied: its memory is the
        # bytes its base64 decoded into, which NumPy will not make writable
        save(_edited_matrix(), tmp_path / "m.json")
        m = load(tmp_path / "m.json")
        for block in (m.signal, m.noise):
            memory = block
            while isinstance(memory, np.ndarray):
                memory = memory.base
            assert type(memory) is bytes
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block.setflags(write=True)
        assert_bitwise_equal(m, _edited_matrix())


def _saved_payload(m, tmp_path):
    save(m, tmp_path / "m.json")
    return json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))


class TestBlocks:
    @pytest.mark.parametrize("char", ["*", " ", "\n", "\u00e9", "=", "-"])
    def test_bad_base64_is_format_error(self, vp, tmp_path, char):
        # a lenient decoder skips every one but the non-ASCII one
        payload = _saved_payload(tiny_matrix(vp), tmp_path)
        payload["noise"] = payload["noise"][:8] + char + payload["noise"][8:]
        with pytest.raises(FormatError, match="base64"):
            from_payload(payload)

    def test_missing_padding_is_format_error(self, tmp_path):
        m = trace_sampler(SamplerSpec(kind="ddpm"), n_evals=4)
        payload = _saved_payload(m, tmp_path)
        assert payload["signal"].endswith("==")  # 160 bytes
        payload["signal"] = payload["signal"].rstrip("=")
        with pytest.raises(FormatError, match="base64"):
            from_payload(payload)

    @pytest.mark.parametrize("cut", [4, 8, 40])
    def test_wrong_byte_count_is_format_error(self, vp, tmp_path, cut):
        payload = _saved_payload(tiny_matrix(vp), tmp_path)
        payload["signal"] = payload["signal"][:cut]
        with pytest.raises(FormatError, match="bytes"):
            from_payload(payload)

    def test_wrong_kind_of_block_is_format_error(self, vp, tmp_path):
        m = tiny_matrix(vp)
        payload = _saved_payload(m, tmp_path)
        as_list = dict(payload, signal=m.signal.tolist())
        with pytest.raises(FormatError, match="base64 string"):
            from_payload(as_list)
        as_v1 = dict(payload, format="nimatrix/1", noise=m.noise.tolist())
        with pytest.raises(FormatError, match="list of rows"):
            from_payload(as_v1)
        with pytest.raises(FormatError, match="base64 string"):
            from_payload({k: v for k, v in payload.items() if k != "noise"})

    def test_nan_in_binary_is_validation_error(self, vp, tmp_path):
        m = tiny_matrix(vp)
        payload = _saved_payload(m, tmp_path)
        signal = m.signal.copy()
        signal[2, 0] = np.nan
        raw = signal.astype("<f8").tobytes()
        payload["signal"] = base64.b64encode(raw).decode("ascii")
        with pytest.raises(ValidationError, match="non-finite"):
            from_payload(payload)

    def test_empty_block_decodes_to_zero_columns(self, vp, tmp_path):
        payload = _saved_payload(terminal_only_matrix(vp), tmp_path)
        assert payload["noise"] == ""
        assert from_payload(payload).noise.shape == (1, 0)


SINGLE_TERMINAL = [name for name in list_presets()
                   if preset_payload(name)["noise_mode"] == "single-terminal"]


class TestSingleTerminalLoad:
    """A single-terminal file stores no noise block; it loads as the
    one-column c1 block, which both the executor and the report read."""

    @pytest.mark.parametrize("name", SINGLE_TERMINAL)
    def test_preset_loads_as_c1_column(self, name):
        payload = preset_payload(name)
        m = load_preset(name)
        assert payload["noise"] == [] and payload["noise_times"] == []
        assert_bitwise_equal(m, with_c1_column(m))
        assert _bits(m.signal) == _bits(payload["signal"])
        rep = equivalent_marginals(m)
        # the noise norm of a one-entry row is that entry
        ulp = np.spacing(rep.ideal_noise)
        assert np.all(rep.noise_deviation <= ulp)

    def test_missing_key_is_single_terminal(self):
        payload = preset_payload("ddim-18")
        del payload["noise_mode"]
        assert_bitwise_equal(from_payload(payload), load_preset("ddim-18"))

    @pytest.mark.parametrize("fmt", ["nimatrix/1", "nimatrix/2"])
    def test_stored_noise_is_format_error(self, tmp_path, fmt):
        # the executor never played a stored block in this mode, so a
        # file that holds one is malformed rather than silently ignored
        m = trace_sampler(SamplerSpec(kind="ddim"), n_evals=6)
        save(m, tmp_path / "m.json")
        payload = json.loads((tmp_path / "m.json").read_text())
        if fmt == "nimatrix/1":
            payload.update(format=fmt, signal=m.signal.tolist(),
                           noise=m.noise.tolist())
        payload["noise_mode"] = "single-terminal"
        with pytest.raises(FormatError, match="single-terminal"):
            from_payload(payload)
        payload.update(noise="" if fmt == "nimatrix/2" else [])
        with pytest.raises(FormatError):
            from_payload(payload)  # noise times left behind

    @pytest.mark.parametrize("name", ["ddim-18", "flow-euler-18", "opt-5"])
    def test_base64_mode_file_samples_as_preset(self, tmp_path, gmm16,
                                                name):
        preset = load_preset(name)
        p = tmp_path / "old.json"
        _base64_mode_save(_held(preset, "single-terminal"), p)
        m = load(p)
        assert_bitwise_equal(m, preset)
        pred = make_predictor(gmm16, preset.schedule())
        a = run_matrix(RunConfig(matrix=m, predictor=pred, n=5, seed=3))
        b = run_matrix(RunConfig(matrix=preset, predictor=pred, n=5, seed=3))
        assert a.samples.tobytes() == b.samples.tobytes()


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
