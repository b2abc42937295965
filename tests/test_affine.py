import numpy as np
import pytest

from nimatrix.affine import (CONCRETE, TRACE, AffineState, RunContext,
                             lin_combine)
from nimatrix.errors import NumericError, ProtocolError


class TestLinCombine:
    def test_affine_sum(self):
        a = AffineState(signal={0: 1.0}, noise={"n": 0.5})
        b = AffineState(signal={0: 2.0, 1: 1.0})
        c = lin_combine([(2.0, a), (-1.0, b)])
        assert c.signal == {0: 0.0, 1: -1.0}
        assert c.noise == {"n": 1.0}

    def test_concrete_sum(self):
        out = lin_combine([(2.0, np.ones(3)), (1.0, np.arange(3))])
        assert np.array_equal(out, [2.0, 3.0, 4.0])

    def test_mixed_rejected(self):
        with pytest.raises(TypeError):
            lin_combine([(1.0, AffineState()), (1.0, np.ones(2))])

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            lin_combine([])

    def test_nonfinite_coefficient_rejected(self):
        with pytest.raises(NumericError):
            lin_combine([(float("nan"), AffineState())])


class TestRunContext:
    def test_trace_records_rows(self):
        ctx = RunContext(mode=TRACE)
        x = ctx.fresh_noise(("a", 0))
        y = ctx.apply_model(5.0, x)
        assert ctx.records[0][0] == 5.0
        assert ctx.records[0][1].noise == {("a", 0): 1.0}
        assert y.signal == {0: 1.0}

    def test_noise_id_reuse_rejected(self):
        ctx = RunContext(mode=TRACE)
        ctx.fresh_noise(("a", 0))
        with pytest.raises(ProtocolError):
            ctx.fresh_noise(("a", 0))

    def test_concrete_requires_predictor_and_shape(self):
        with pytest.raises(ProtocolError):
            RunContext(mode=CONCRETE)
        with pytest.raises(ProtocolError):
            RunContext(mode=CONCRETE, predictor=lambda t, x: x)

    def test_concrete_draws_are_reproducible(self):
        mk = lambda: RunContext(mode=CONCRETE, predictor=lambda t, x: x,
                                seed=3, shape=(2, 5))
        a = mk().fresh_noise(("a", 0))
        b = mk().fresh_noise(("a", 0))
        assert np.array_equal(a, b)
        assert a.shape == (2, 5)

    def test_trace_rejects_concrete_input(self):
        ctx = RunContext(mode=TRACE)
        with pytest.raises(ProtocolError):
            ctx.apply_model(1.0, np.ones(3))

    def test_unknown_mode(self):
        with pytest.raises(ProtocolError):
            RunContext(mode="other")
