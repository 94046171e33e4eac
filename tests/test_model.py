"""Tests for the four-block model: forward pass, joint loss, freezing,
and the structural width law."""

import math
import pickle

import numpy as np
import pytest

from jobcast.dataio import ContextKey, RunRecord
from jobcast.encoding import Normalizer, PropertyValue, encode_property
from jobcast.errors import SchemaError
from jobcast.errors import TrainingError
from jobcast.model import (CODE_DIM, COMPONENTS, F_DIM, Z_HIDDEN, _WEIGHT_ORDER,
                           ModelState, PropertySchema, joint_loss,
                           joint_loss_grads, predict)
from jobcast.nn import SELU_ALPHA, SELU_LAMBDA, Adam, he_init

SCHEMA = PropertySchema(
    essential=(("dataset_size", "natural"), ("node_type", "text")),
    optional=(("memory_mb", "natural"), ("job_name", "text")),
)

PROPS = {
    "dataset_size": PropertyValue.natural(8_000_000_000),
    "node_type": PropertyValue.text("m5.xlarge"),
    "memory_mb": PropertyValue.natural(16384),
    "job_name": PropertyValue.text("sort"),
}

CTX = ContextKey((("dataset_size", 8_000_000_000), ("node_type", "m5.xlarge")))


def fresh_state(seed=2024, schema=SCHEMA):
    return ModelState.new(schema, Normalizer.fit([2, 4, 6, 8]),
                          np.random.default_rng(seed))


def record(scale_out, runtime, props=PROPS):
    return RunRecord(scale_out, runtime, dict(props), CTX)


def scalar_selu(v):
    return SELU_LAMBDA * v if v > 0 else SELU_LAMBDA * SELU_ALPHA * (math.exp(v) - 1.0)


def scalar_block(block, x):
    """Plain-loop evaluation of a two-layer block (inference mode)."""
    act = {"selu": scalar_selu, "tanh": math.tanh, "identity": lambda v: v}
    hidden = []
    for j in range(block.w1.shape[0]):
        acc = block.b1[j] if block.b1 is not None else 0.0
        for i in range(block.w1.shape[1]):
            acc += block.w1[j, i] * x[i]
        hidden.append(act[block.phi](acc))
    out = []
    for k in range(block.w2.shape[0]):
        acc = block.b2[k] if block.b2 is not None else 0.0
        for j in range(block.w2.shape[1]):
            acc += block.w2[k, j] * hidden[j]
        out.append(act[block.sigma](acc))
    return out


def scalar_forward(state, scale_out, props):
    """Independent loop-based re-implementation of the full forward pass."""
    feats = [1.0 / scale_out, math.log(scale_out), float(scale_out)]
    s = []
    for i in range(3):
        lo, hi = state.normalizer.lo[i], state.normalizer.hi[i]
        s.append(0.5 if hi == lo else (feats[i] - lo) / (hi - lo))
    e = scalar_block(state.f, s)
    codes = {}
    for name, _ in state.schema.essential + state.schema.optional:
        if name in props:
            codes[name] = scalar_block(state.g, list(encode_property(props[name])))
    r = list(e)
    for name, _ in state.schema.essential:
        r.extend(codes[name])
    opt = [codes[name] for name, _ in state.schema.optional if name in codes]
    if opt:
        pooled = [sum(c[i] for c in opt) / len(opt) for i in range(CODE_DIM)]
    else:
        pooled = [0.0] * CODE_DIM
    r.extend(pooled)
    return scalar_block(state.z, r)[0]


class TestForward:
    def test_combined_width_law(self):
        # 2 essential here: 8 + (2+1)*4 = 20; the synthetic 4-essential
        # schema gives 8 + 5*4 = 28
        assert SCHEMA.combined_width == F_DIM + 3 * CODE_DIM == 20
        four = PropertySchema(essential=tuple((f"p{i}", "text") for i in range(4)))
        assert four.combined_width == 28

    def test_wrong_z_width_rejected_at_build(self):
        """A weight vector sized for a z input four wider does not fit."""
        state = fresh_state()
        wider = np.zeros(state.vector.size + 4 * Z_HIDDEN)
        with pytest.raises(SchemaError):
            ModelState(wider, state.normalizer, SCHEMA)

    def test_matches_scalar_loop_oracle(self):
        state = fresh_state()
        for x in (2, 3, 5, 8):
            got = predict(state, x, PROPS).runtime_seconds
            assert got == pytest.approx(scalar_forward(state, x, PROPS), rel=1e-10)

    def test_golden_scalar(self):
        """Frozen value guards against drift in any encoding/forward step."""
        state = fresh_state()
        got = predict(state, 5, PROPS).runtime_seconds
        assert got == pytest.approx(-0.9623357763525452, rel=1e-9)
        assert predict(state, 5, PROPS).negative_output

    def test_missing_optional_excluded_from_mean(self):
        state = fresh_state()
        partial = {k: v for k, v in PROPS.items() if k != "job_name"}
        got = predict(state, 4, partial).runtime_seconds
        assert got == pytest.approx(scalar_forward(state, 4, partial), rel=1e-10)
        assert got != predict(state, 4, PROPS).runtime_seconds

    def test_no_optionals_pools_zero(self):
        state = fresh_state()
        bare = {k: v for k, v in PROPS.items() if k in ("dataset_size", "node_type")}
        got = predict(state, 4, bare).runtime_seconds
        assert got == pytest.approx(scalar_forward(state, 4, bare), rel=1e-10)

    def test_optional_order_is_irrelevant_bitwise(self):
        state = fresh_state()
        shuffled = dict(reversed(list(PROPS.items())))
        a = predict(state, 6, PROPS).runtime_seconds
        b = predict(state, 6, shuffled).runtime_seconds
        assert a == b

    def test_essential_order_matters(self):
        """Swapping essential values changes the prediction (codes are
        concatenated in schema order)."""
        state = fresh_state()
        swapped = dict(PROPS)
        swapped["node_type"] = PropertyValue.text("r5.large")
        assert predict(state, 6, PROPS).runtime_seconds != \
            predict(state, 6, swapped).runtime_seconds

    def test_missing_essential_rejected(self):
        state = fresh_state()
        with pytest.raises(SchemaError):
            predict(state, 4, {"node_type": PropertyValue.text("a")})

    def test_unknown_property_rejected(self):
        state = fresh_state()
        bad = dict(PROPS, surprise=PropertyValue.text("x"))
        with pytest.raises(SchemaError):
            predict(state, 4, bad)

    def test_kind_mismatch_rejected(self):
        state = fresh_state()
        bad = dict(PROPS, dataset_size=PropertyValue.text("8GB"))
        with pytest.raises(SchemaError):
            predict(state, 4, bad)

    def test_inference_deterministic(self):
        state = fresh_state()
        runs = {predict(state, 7, PROPS).runtime_seconds for _ in range(5)}
        assert len(runs) == 1

    def test_codes_and_reconstructions_per_property(self):
        state = fresh_state()
        p = predict(state, 4, PROPS)
        assert len(p.codes) == 4 and len(p.reconstructions) == 4
        assert all(c.shape == (CODE_DIM,) for c in p.codes)
        assert all(r.shape == (40,) for r in p.reconstructions)

    def test_codes_separate_node_types(self):
        """Realistic node-type strings map to pairwise distinct codes."""
        state = fresh_state()
        types = ["m5.xlarge", "m5.2xlarge", "c5.xlarge", "r5.large",
                 "i3.4xlarge", "t2.medium"]
        codes = [state.g.forward(encode_property(PropertyValue.text(t)))[0]
                 for t in types]
        for i in range(len(codes)):
            for j in range(i + 1, len(codes)):
                assert not np.array_equal(codes[i], codes[j])


class TestJointLoss:
    def _exact_state(self):
        """A state that reproduces one specific record with zero loss:
        all-zero property vector (tanh can hit 0 exactly) and a runtime
        the SELU output head represents exactly."""
        schema = PropertySchema(essential=(("size", "natural"),))
        state = ModelState.new(schema, Normalizer.fit([2, 4]),
                               np.random.default_rng(1))
        state.h.w2[:] = 0.0  # reconstruction of the zero vector is exact
        state.z.w1[:] = 0.0
        state.z.b1[:] = 0.0
        state.z.w2[:] = 0.0
        state.z.b2[:] = 1.0  # selu(1) = lambda, exactly
        props = {"size": PropertyValue.natural(0)}
        rec = RunRecord(2, SELU_LAMBDA, props,
                        ContextKey((("size", 0),)))
        return state, rec

    def test_exact_reproduction_gives_zero_loss(self):
        state, rec = self._exact_state()
        total, runtime_term, recon_term = joint_loss(state, [rec])
        assert total == 0.0 and runtime_term == 0.0 and recon_term == 0.0

    def test_term_separation(self):
        """Corrupting only the decoder leaves the runtime term at zero.

        The record needs a nonzero property vector here, otherwise the
        bias-free autoencoder maps it to zero no matter what the decoder
        weights are; the all-zeros z head keeps the runtime exact.
        """
        state, _ = self._exact_state()
        state.h.w2[:] = np.random.default_rng(3).normal(size=state.h.w2.shape)
        rec = RunRecord(2, SELU_LAMBDA, {"size": PropertyValue.natural(5)},
                        ContextKey((("size", 5),)))
        total, runtime_term, recon_term = joint_loss(state, [rec])
        assert runtime_term == 0.0
        assert recon_term > 0.0
        assert total == pytest.approx(recon_term)

    def test_golden_loss_value(self):
        state = fresh_state()
        recs = [record(2, 300.0), record(8, 120.5)]
        total, runtime_term, recon_term = joint_loss(state, recs)
        assert total == pytest.approx(210.52757605656961, rel=1e-9)
        assert runtime_term == pytest.approx(210.00485581983287, rel=1e-9)
        assert recon_term == pytest.approx(0.5227202367367549, rel=1e-9)

    def test_loss_terms_nonnegative(self):
        state = fresh_state()
        total, runtime_term, recon_term = joint_loss(
            state, [record(2, 50.0), record(4, 60.0), record(6, 70.0)])
        assert runtime_term >= 0 and recon_term >= 0
        assert total == pytest.approx(runtime_term + recon_term)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            joint_loss(fresh_state(), [])

    def test_recon_weight_scales_total(self):
        state = fresh_state()
        recs = [record(2, 300.0)]
        t1, rt, rc = joint_loss(state, recs, recon_weight=1.0)
        t2, _, _ = joint_loss(state, recs, recon_weight=2.0)
        assert t2 == pytest.approx(rt + 2.0 * rc)


class TestFreezeAndReset:
    def test_freeze_all_means_no_updates(self):
        """With no component live, steps leave every weight in place."""
        state = fresh_state()
        before = state.fingerprint()
        optim = Adam(lr=1e-2, segments=state.segments, name_of=state.param_name,
                     weight_decay=0.1)
        recs = [record(2, 300.0), record(8, 120.5)]
        for _ in range(100):
            *_, grad = joint_loss_grads(state, recs)
            optim.step(state.vector, grad, ())
        assert state.fingerprint() == before

    def test_reset_z_only_touches_z(self):
        state = fresh_state()
        snap = state.vector.copy()
        state.reset("z", np.random.default_rng(99))
        z = state.segments["z"]
        assert not np.array_equal(state.vector[z], snap[z])
        np.testing.assert_array_equal(state.vector[: z.start], snap[: z.start])

    def test_reset_draws_like_a_fresh_block(self):
        """reset() writes He draws for w1, then w2, into z's slice, and
        zeroes its biases."""
        state = fresh_state()
        state.reset("z", np.random.default_rng(99))
        rng = np.random.default_rng(99)
        width = SCHEMA.combined_width
        np.testing.assert_array_equal(state.z.w1, he_init((Z_HIDDEN, width), width, rng))
        np.testing.assert_array_equal(state.z.w2, he_init((1, Z_HIDDEN), Z_HIDDEN, rng))
        assert not state.z.b1.any() and not state.z.b2.any()

    def test_fingerprint_tracks_weights(self):
        state = fresh_state()
        fp = state.fingerprint()
        assert fp == state.fingerprint()
        assert fp == state.copy().fingerprint()
        state.z.w2[0, 0] += 1e-9
        assert state.fingerprint() != fp


class TestFlatStore:
    def test_blocks_are_views_of_the_vector(self):
        state = fresh_state()
        for c in COMPONENTS:
            block = getattr(state, c)
            for arr in (block.w1, block.b1, block.w2, block.b2):
                if arr is not None:
                    assert np.shares_memory(arr, state.vector[state.segments[c]])
        before = predict(state, 4, PROPS).runtime_seconds
        state.vector[state.segments["z"]] *= 2.0
        assert predict(state, 4, PROPS).runtime_seconds != before

    def test_segments_tile_the_vector_in_weight_order(self):
        state = fresh_state()
        names = [state.param_name(i) for i in range(state.vector.size)]
        expect = [name for name in _WEIGHT_ORDER
                  for _ in range(getattr(getattr(state, name[0]), name[2:]).size)]
        assert names == expect
        starts = [state.segments[c].start for c in COMPONENTS]
        stops = [state.segments[c].stop for c in COMPONENTS]
        assert starts == [0] + stops[:-1] and stops[-1] == state.vector.size

    def test_pickle_keeps_blocks_as_views(self):
        state = ModelState.new(SCHEMA, Normalizer.fit([2, 4]),
                               np.random.default_rng(1), dropout_rate=0.1)
        back = pickle.loads(pickle.dumps(state))
        np.testing.assert_array_equal(back.vector, state.vector)
        assert np.shares_memory(back.z.w1, back.vector)
        assert back.g.dropout_rate == 0.1
        assert back.fingerprint() == state.fingerprint()

    @pytest.mark.parametrize("make", [
        lambda n: np.zeros(2 * n)[::2],  # strided: block views would be copies
        lambda n: np.zeros(n, dtype=np.float32),
    ], ids=["strided", "float32"])
    def test_vector_must_be_contiguous_float64(self, make):
        state = fresh_state()
        with pytest.raises(SchemaError):
            ModelState(make(state.vector.size), state.normalizer, SCHEMA)

    def test_copy_is_independent(self):
        state = fresh_state()
        twin = state.copy()
        twin.vector[:] = 0.0
        assert state.vector.any()
        assert twin.z.w1.sum() == 0.0

    def test_f_joins_with_fresh_moments_while_z_keeps_count(self):
        """When f goes live after five z-only steps, its update is the first
        step of a fresh Adam and z's is the sixth of its own count."""
        state = fresh_state()
        twin = state.vector.copy()
        seg = state.segments
        optim = Adam(1e-2, seg, state.param_name, weight_decay=1e-3)
        z_only = Adam(1e-2, {"z": seg["z"]}, state.param_name, weight_decay=1e-3)
        fresh_f = Adam(1e-2, {"f": seg["f"]}, state.param_name, weight_decay=1e-3)
        recs = [record(2, 300.0), record(8, 120.5)]
        for epoch in range(6):
            *_, grad = joint_loss_grads(state, recs)
            optim.step(state.vector, grad, ("z",) if epoch < 5 else ("f", "z"))
            z_only.step(twin, grad, ("z",))
        fresh_f.step(twin, grad, ("f",))
        np.testing.assert_array_equal(state.vector, twin)
        assert optim.steps == {"f": 1, "g": 0, "h": 0, "z": 6}

    def test_nan_gradient_names_the_model_parameter(self):
        state = fresh_state()
        optim = Adam(1e-2, state.segments, name_of=state.param_name)
        grad = np.zeros_like(state.vector)
        grad[state.segments["z"].stop - 1] = np.nan  # z.b2
        with pytest.raises(TrainingError, match="'z.b2'"):
            optim.step(state.vector, grad, COMPONENTS)
