import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nimatrix.affine import (CONCRETE, TRACE, AffineState, RunContext,
                             lin_combine)
from nimatrix.coeffmatrix import trace_sampler
from nimatrix.errors import NumericError, ProtocolError
from nimatrix.samplers import KINDS, SamplerSpec


class TestLinCombine:
    def test_affine_sum(self):
        a = AffineState(signal=[1.0], noise=[0.5])
        b = AffineState(signal=[2.0, 1.0])
        c = lin_combine([(2.0, a), (-1.0, b)])
        assert c.signal.tolist() == [0.0, -1.0]
        assert c.noise.tolist() == [1.0]

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
        assert ctx.noise_ids == [("a", 0)]
        assert ctx.records[0][1].noise.tolist() == [1.0]
        assert y.signal.tolist() == [1.0]

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

    def test_noise_id_reuse_rejected_after_many_draws(self):
        for mode, kw in ((TRACE, {}),
                         (CONCRETE, {"predictor": lambda t, x: x,
                                     "shape": (2,)})):
            ctx = RunContext(mode=mode, **kw)
            for k in range(50):
                ctx.fresh_noise((float(k), 0))
            with pytest.raises(ProtocolError):
                ctx.fresh_noise((7.0, 0))
            assert len(ctx.noise_ids) == 50


class TestAffineState:
    def test_weights_are_float_vectors(self):
        a = AffineState(signal=[1, 2], noise=(0.5,))
        assert a.signal.dtype == np.float64 and a.signal.tolist() == [1.0, 2.0]
        assert a.noise.tolist() == [0.5]
        assert AffineState().signal.shape == (0,)

    def test_rejects_non_vector_weights(self):
        with pytest.raises(ProtocolError):
            AffineState(signal=np.zeros((2, 2)))

    def test_trace_mints_unit_vectors(self):
        ctx = RunContext(mode=TRACE)
        e0 = ctx.fresh_noise(("a", 0))
        e1 = ctx.fresh_noise(("b", 0))
        assert e1.noise.tolist() == [0.0, 1.0]
        ctx.apply_model(5.0, e0)
        y = ctx.apply_model(4.0, e1)
        assert y.signal.tolist() == [0.0, 1.0]
        assert y.noise.shape == (0,)


# Small pools make overlapping columns, equal magnitudes and exact
# cancellation common; 1e-170 squared underflows to a zero product.
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 1.0 / 3.0, 1e-170, -1e-170,
            5e-324, 2.0 ** 53, 1e16]
_WEIGHT = st.one_of(st.sampled_from(_SPECIAL),
                    st.floats(-1e3, 1e3, allow_nan=False,
                              allow_infinity=False))
_VECTOR = st.lists(_WEIGHT, max_size=7)
_TERM = st.tuples(_WEIGHT, _VECTOR, _VECTOR)


def _fsum_columns(terms, name):
    """Per-column ``math.fsum`` of the products present in that column."""
    vectors = [getattr(e, name).tolist() for _, e in terms]
    return [math.fsum(c * v[j] for (c, _), v in zip(terms, vectors)
                      if j < len(v))
            for j in range(max(map(len, vectors)))]


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestCombineIsCorrectlyRounded:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(_TERM, min_size=2, max_size=6), st.booleans())
    @example([(-1.0, [0.0], []), (1.0, [-0.0], [])], False)
    @example([(1e-170, [1e-170], [-1e-170]), (-1.0, [-0.0], [0.0])], False)
    @example([(1.0, [1e16, 1.0], []), (1.0, [-1e16], []),
              (1.0, [1.0, -1.0], [])], True)
    def test_matches_per_column_fsum(self, raw, cancel):
        terms = [(c, AffineState(signal=s, noise=n)) for c, s, n in raw]
        if cancel:  # the first term again, negated: exact cancellation
            terms.append((-terms[0][0], terms[0][1]))
        out = lin_combine(terms)
        for name in ("signal", "noise"):
            assert _bits(getattr(out, name)) == \
                _bits(_fsum_columns(terms, name)), name


#: SHA-256 of the little-endian signal then noise bytes of
#: ``trace_sampler(SamplerSpec(kind), n_evals=n)``, taken from the
#: dict-and-fsum tracer that the vector form replaced.
TRACE_DIGESTS = {
    ("ddpm", 6): "5e555db97d46a00e4367bec4c39aec98239dca1ffb4da69e45f8cb78dad7f5a8",
    ("ddpm", 18): "e9454f3c63653358cb7a3cc7da1c8e2f93fd945e9bbdd8066e63fa181dcf114b",
    ("ddpm", 60): "69365ab5ae00420d461ba1bbfa12d30b3fa558f82e328d206091160e625b8bdc",
    ("ddim", 6): "849d8e8b6922da098e4fce1bc884df95e660b7b5fd86b8635ba7cdba610f8482",
    ("ddim", 18): "9e6a4e50498995ec7e0a57389433fe76c743d9a3227c12cc7441bcd0553a41d4",
    ("ddim", 60): "65c51b157b78006a816869970780037dc2a8cedc8ecffa0308f8bbda52de3aa7",
    ("flow-euler", 6): "091371f30e6ffbe98c411e4d9b02064040a1022055d3d5384589ffe284a68a9d",
    ("flow-euler", 18): "68461f61773cf40ce39d5af6e00e8271593cfcff5ba63769c56f446b765109b7",
    ("flow-euler", 60): "340a8b973545d0837d835559318dcc249e28818fb56441d93b189801fa02b7e1",
    ("sde-euler", 6): "eb32019101257107071ceb94e5a09470a97e1bb614d2d88e0de56170d758c243",
    ("sde-euler", 18): "f38ccde56f55befd119ba8991413109787b0c6e300aa91c470c6ee81e70e2d08",
    ("sde-euler", 60): "8292e1a339ba2aef3b515195269187d565a10f203340fffb0810d962ea6ed844",
    ("ode-euler", 6): "0bd9f1ab7016ae8661bcc6b4b94c68a2b4a7bf82e9157aa2ceddda53282d9f09",
    ("ode-euler", 18): "6c7a455ee0339a186e9359da86ddc81694d34e7dd10c03e6eb21407f0bc79372",
    ("ode-euler", 60): "dbfe3a6a5765bbbee6a6f81ab158742996def1787253413759d1d09ca08707c7",
    ("dpm-solver-2s", 6): "aa06b8b8d2162110b3bc077d7b357fad6c4cf37970f840eee0f2f563a2139052",
    ("dpm-solver-2s", 18): "815e3f423d72b5be046129be61e623d28b1164fe91d1af991cbd49931c13dc94",
    ("dpm-solver-2s", 60): "0537af9dd7735c0775242ae283e30c5a34401ebb55dc5345e12f03f9faa87e9b",
    ("dpm-solver-3s", 6): "3bd5df43a06533743640980c9f1fdccb43cdd7090eee91284665ff0ec8c7a7e4",
    ("dpm-solver-3s", 18): "ccb09a34c5944a774930eb8811c3318c841fee3fb93e3235fab988dfc7e7ace2",
    ("dpm-solver-3s", 60): "04560ce10fa340c7d72bd3c8fb2a981f5067c69c69de4f55fee7c768d52c9378",
    ("dpmpp-2s", 6): "38eb0e207652b0b5d4dfc3bfde7b44b14091263c2104e23ebd37d19d0c8b89d4",
    ("dpmpp-2s", 18): "99fb05deada273f35bc8d7c0bc4d620d2661f693bf430eb89f408d9161580075",
    ("dpmpp-2s", 60): "aa4626c1f4d54e915c679a862f64923c494fc3297d5aabad7086aae91691f43f",
    ("dpmpp-3s", 6): "ef5bc62fe707a0d8925a73fdcc290f196662f8973f62d1072c694e97e0c7b55a",
    ("dpmpp-3s", 18): "c31924e22b43bd3f0cd55d05a6b1954c9c6f2cb61920d1166feb6f4caf07c53e",
    ("dpmpp-3s", 60): "e21743f7ad993f0a21003f4ff1b8f99959c365dc51f39a3e5ee190243b07d968",
    ("deis-1", 6): "406091382e4eef93cef4d2979947de421d07a9769e6fec31f79187e0be8bb933",
    ("deis-1", 18): "c9dc163e654aa19c7d204c150eca5d4834c958c2b34ea61438f30fbb970ca642",
    ("deis-1", 60): "333ed2a99fcfdd1bbba88514f28cc85d52dc35140a9526f7812c949d05c36d37",
    ("deis-2", 6): "bc8eaf6dbcc5c05a8249c43effcdfb2aa743a1f31b8b76f4b19f49d16cb068eb",
    ("deis-2", 18): "8c8c83d46d6ac78991d9decf602d6b9267144bba2e0ff333d94620b72938305a",
    ("deis-2", 60): "544fa93d8bd3394f624eefc78204c6c231dadaa4d11530f43a0ef13cc3ec8e6f",
    ("deis-3", 6): "9f1507ed749eb69e9c3bbb6638dd62a18246b78301a4fc80d40d642445fb1a96",
    ("deis-3", 18): "45fbf422131e723cd3cec4d29a5527488f94294cc73d745442a8016e9a23d66c",
    ("deis-3", 60): "b6dd6e65093402b709071c6b56579633243c1c41dffa7a46242296f3dd42a3cd",
    ("ddpm", 300): "3c4130b2cd80e0b9a68786ead8baa8d022396d7438fe1b7724c7902c9f399a3e",
}


class TestTraceDigests:
    def test_covers_every_kind(self):
        assert {k for k, _ in TRACE_DIGESTS} == set(KINDS)

    @pytest.mark.parametrize("kind,n_evals", sorted(TRACE_DIGESTS))
    def test_traced_blocks_are_pinned(self, kind, n_evals):
        m = trace_sampler(SamplerSpec(kind), n_evals=n_evals)
        h = hashlib.sha256()
        h.update(m.signal.astype("<f8").tobytes())
        h.update(m.noise.astype("<f8").tobytes())
        assert h.hexdigest() == TRACE_DIGESTS[kind, n_evals]
