"""Tests for the four-block model: forward pass, joint loss, freezing,
and the structural width law."""

import math
import pickle

import numpy as np
import pytest

import jobcast.model as model_module
from jobcast.dataio import ContextKey, RunRecord
from jobcast.encoding import Normalizer, PropertyValue, encode_property
from jobcast.errors import SchemaError
from jobcast.errors import TrainingError
from jobcast.model import (CODE_DIM, COMPONENTS, F_DIM, Z_HIDDEN, _WEIGHT_ORDER,
                           ModelState, PropertySchema, _joint_terms, diverged_rows,
                           encode_batch, forward_batch, joint_loss, predict,
                           predict_batch)
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


def joint_grad(state, records):
    """The flat joint-loss gradient, as a training step computes it."""
    batch = encode_batch(state.schema, state.normalizer, records)
    grad = np.zeros_like(state.vector)
    _joint_terms(state, batch, grad=grad)
    return grad


def scalar_selu(v):
    return SELU_LAMBDA * v if v > 0 else SELU_LAMBDA * SELU_ALPHA * (math.exp(v) - 1.0)


def scalar_block(block, x):
    """Plain-loop evaluation of a two-layer block (inference mode)."""
    out_act = math.tanh if block.tanh_out else scalar_selu
    hidden = []
    for j in range(block.w1.shape[0]):
        acc = block.b1[j] if block.b1 is not None else 0.0
        for i in range(block.w1.shape[1]):
            acc += block.w1[j, i] * x[i]
        hidden.append(scalar_selu(acc))
    out = []
    for k in range(block.w2.shape[0]):
        acc = block.b2[k] if block.b2 is not None else 0.0
        for j in range(block.w2.shape[1]):
            acc += block.w2[k, j] * hidden[j]
        out.append(out_act(acc))
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
        xs = (2, 3, 5, 8)
        batched = predict_batch(state, xs, PROPS)
        for x, in_batch in zip(xs, batched, strict=True):
            want = scalar_forward(state, x, PROPS)
            assert predict(state, x, PROPS).runtime_seconds == pytest.approx(want, rel=1e-10)
            assert in_batch == pytest.approx(want, rel=1e-10)

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

    def test_inference_skips_the_decoder(self):
        """Predictions never run h: a decoder full of NaNs changes nothing."""
        state = fresh_state()
        before = predict_batch(state, (2, 5), PROPS)
        single = predict(state, 5, PROPS).runtime_seconds
        state.vector[state.segments["h"]] = np.nan
        np.testing.assert_array_equal(predict_batch(state, (2, 5), PROPS), before)
        assert predict(state, 5, PROPS).runtime_seconds == single

    def test_codes_separate_node_types(self):
        """Realistic node-type strings map to pairwise distinct codes."""
        state = fresh_state()
        types = ["m5.xlarge", "m5.2xlarge", "c5.xlarge", "r5.large",
                 "i3.4xlarge", "t2.medium"]
        codes = state.g.forward(np.stack([encode_property(PropertyValue.text(t))
                                          for t in types]))
        for i in range(len(codes)):
            for j in range(i + 1, len(codes)):
                assert not np.array_equal(codes[i], codes[j])


# 9000-9400, 19143 and 94869 hold the integers where np.log and math.log
# differ in the last bit; 1 and 10**6 lie outside the fitted bounds [2, 8].
CANDIDATES = list(range(9000, 9400)) + [19143, 94869, 1, 10**6, 2**39 - 1]
NO_OPTIONAL = {k: v for k, v in PROPS.items() if k in ("dataset_size", "node_type")}
ENCODED = ("sfeat", "pvecs", "ess_rows", "opt_weights", "usage")


def queries(xs, props):
    """Records of one property set at scale-outs ``xs``, each with its own copy."""
    return [RunRecord(x, 1.0, dict(props), CTX) for x in xs]


def forwarded_batch(state, scale_outs, props, monkeypatch):
    """The batch predict_batch forwards, caught on its way to forward_batch."""
    caught = []
    with monkeypatch.context() as m:
        m.setattr(model_module, "forward_batch", lambda s, batch: caught.append(batch))
        predict_batch(state, scale_outs, props)
    [batch] = caught
    return batch


class TestSharedEncoding:
    """predict_batch encodes its one property set once and broadcasts its
    rows to every candidate; encode_batch encodes each distinct property
    value once over a batch of records."""

    @pytest.mark.parametrize("props", [PROPS, NO_OPTIONAL], ids=["optional", "essential"])
    def test_each_candidate_encodes_as_it_does_alone(self, props, monkeypatch):
        """predict_batch's batch, row by row, is bitwise the one-record batch
        that encode_batch gives each candidate; its broadcast rows are
        read-only, and it carries no usage counts or runtimes."""
        state = fresh_state()
        batch = forwarded_batch(state, CANDIDATES, props, monkeypatch)
        assert batch.usage is None and batch.runtimes is None
        assert not (batch.ess_rows.flags.writeable or batch.opt_weights.flags.writeable)
        for i, x in enumerate(CANDIDATES):
            alone = encode_batch(SCHEMA, state.normalizer, queries([x], props))
            assert alone.pvecs.tobytes() == batch.pvecs.tobytes()
            for name in ("sfeat", "ess_rows", "opt_weights"):
                one, row = getattr(alone, name)[0], getattr(batch, name)[i]
                assert (one.dtype, one.tobytes()) == (row.dtype, row.tobytes()), name

    @pytest.mark.parametrize("props", [PROPS, NO_OPTIONAL], ids=["optional", "essential"])
    def test_predict_batch_is_hex_equal_to_a_per_record_encoding(self, props):
        """The shared encoding forwards bitwise as records that each hold
        their own copy of the mapping, so each is checked and encoded alone.
        predict agrees with each candidate's entry, but not always to the
        bit: BLAS may take another kernel for a one-row matrix product."""
        state = fresh_state()
        batched = predict_batch(state, CANDIDATES, props)
        copies = encode_batch(SCHEMA, state.normalizer, queries(CANDIDATES, props))
        expect = forward_batch(state, copies)
        assert [float(y).hex() for y in batched] == [float(y).hex() for y in expect]
        singles = [predict(state, x, props).runtime_seconds for x in CANDIDATES]
        np.testing.assert_allclose(batched, singles, rtol=1e-12, atol=1e-12)
        assert predict(state, 9170, props).runtime_seconds == \
            float(predict_batch(state, [9170], props)[0])

    def test_each_distinct_value_is_encoded_once(self, monkeypatch):
        """64 candidates of a set whose memory_mb equals its dataset_size
        encode 3 values; so do 66 records that each hold their own mapping,
        plus the one new value of the last two."""
        encoded = []
        monkeypatch.setattr(model_module, "encode_property",
                            lambda v: encoded.append(v) or encode_property(v))
        props = dict(PROPS, memory_mb=PROPS["dataset_size"])
        batch = forwarded_batch(fresh_state(), range(1, 65), props, monkeypatch)
        assert len(encoded) == len(set(encoded)) == 3 == len(batch.pvecs)
        assert batch.ess_rows.shape == (64, 2) and batch.opt_weights.shape == (64, 3)
        encoded.clear()
        other = dict(props, job_name=PropertyValue.text("join"))
        records = queries(range(1, 65), props) + queries([3, 4], other)
        batch = encode_batch(SCHEMA, Normalizer.fit([2, 8]), records)
        assert len(encoded) == len(set(encoded)) == 4 == len(batch.pvecs)
        assert batch.ess_rows.shape == (66, 2) and batch.usage.shape == (66, 4)

    def test_an_empty_batch_encodes_to_empty_arrays(self):
        batch = encode_batch(SCHEMA, Normalizer.fit([2, 8]), [])
        assert [getattr(batch, name).shape for name in ENCODED + ("runtimes",)] == \
            [(0, 3), (0, 40), (0, 2), (0, 0), (0, 0), (0,)]

    def test_a_vector_shared_by_two_optional_properties_counts_twice(self):
        """Equal values of two optional properties map onto one vector, whose
        pooling weight and usage count then add up twice."""
        schema = PropertySchema(essential=(("dataset_size", "natural"),),
                                optional=(("memory_mb", "natural"), ("cores", "natural"),
                                          ("nodes", "natural")))
        props = {"dataset_size": PropertyValue.natural(7),
                 "memory_mb": PropertyValue.natural(3), "cores": PropertyValue.natural(3),
                 "nodes": PropertyValue.natural(7)}
        batch = encode_batch(schema, Normalizer.fit([2, 8]), queries([2, 4], props))
        third = 1.0 / 3
        np.testing.assert_array_equal(batch.opt_weights, [[third, third + third]] * 2)
        np.testing.assert_array_equal(batch.usage, [[2.0, 2.0]] * 2)
        np.testing.assert_array_equal(batch.ess_rows, [[0], [0]])


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
        total, runtime_term, recon_term = joint_loss(state, recs)
        assert total == runtime_term + recon_term


class TestDivergedRows:
    """The rows of a stack with a non-finite block output or gradient."""

    def _stack(self):
        """A finite ``(detail, loss, grad)`` of three rows, shaped as a
        stacked joint loss leaves them: 5 records and 2 unique vectors."""
        rng = np.random.default_rng(8)
        detail = {"e": rng.normal(size=(3, 5, F_DIM)),
                  "codes": rng.normal(size=(3, 2, CODE_DIM)),
                  "recons": rng.normal(size=(3, 2, 40)),
                  "y": rng.normal(size=(3, 5))}
        return detail, rng.normal(size=3), rng.normal(size=(3, 30))

    def test_all_finite_gives_none(self):
        assert diverged_rows(*self._stack()) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("key", ["e", "codes", "recons", "y", "grad"])
    def test_one_bad_row_is_flagged_alone(self, key, bad):
        detail, loss, grad = self._stack()
        target = grad if key == "grad" else detail[key]
        target[1].flat[-1] = bad
        if key in ("recons", "y"):
            loss[1] = np.nan  # they reach the row's loss, as in a joint loss
        np.testing.assert_array_equal(diverged_rows(detail, loss, grad),
                                      [False, True, False])


class TestFreezeAndReset:
    def test_freeze_all_means_no_updates(self):
        """A frozen component is one with no optimizer: steps on the other
        components' slices leave its weights in place, though its gradient
        and weight decay would move them."""
        state = fresh_state()
        before = state.vector.copy()
        seg = state.segments
        optims = {c: Adam(lr=1e-2, shape=state.vector[seg[c]].shape,
                          name_of=state.param_name, weight_decay=0.1) for c in "fz"}
        recs = [record(2, 300.0), record(8, 120.5)]
        for _ in range(100):
            grad = joint_grad(state, recs)
            assert grad[seg["g"]].any() and grad[seg["h"]].any()
            for c, optim in optims.items():
                optim.step(state.vector[seg[c]], grad[seg[c]])
        for c in COMPONENTS:
            moved = not np.array_equal(state.vector[seg[c]], before[seg[c]])
            assert moved == (c in "fz")

    def test_reset_z_only_touches_z(self):
        state = fresh_state()
        snap = state.vector.copy()
        state.z.init(np.random.default_rng(99))
        z = state.segments["z"]
        assert not np.array_equal(state.vector[z], snap[z])
        np.testing.assert_array_equal(state.vector[: z.start], snap[: z.start])

    def test_reset_draws_like_a_fresh_block(self):
        """Re-initializing z writes He draws for w1, then w2, into its
        slice of the vector, and zeroes its biases."""
        state = fresh_state()
        state.z.init(np.random.default_rng(99))
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
        """Optimizers step the blocks in place through their slices of the
        vector: when f joins after five z-only steps, its update is the
        first step of a fresh Adam and z's is the sixth of its own count,
        as on detached copies of the two slices."""
        state = fresh_state()
        seg = state.segments
        copies = {c: state.vector[seg[c]].copy() for c in "fz"}
        before = state.vector.copy()

        def adam(c):
            return Adam(1e-2, copies[c].shape, state.param_name, weight_decay=1e-3)

        optims, refs = {"z": adam("z")}, {"z": adam("z")}
        recs = [record(2, 300.0), record(8, 120.5)]
        for epoch in range(6):
            if epoch == 5:
                optims["f"], refs["f"] = adam("f"), adam("f")
            grad = joint_grad(state, recs)
            for c, optim in optims.items():
                optim.step(state.vector[seg[c]], grad[seg[c]])
                refs[c].step(copies[c], grad[seg[c]])
        for c in COMPONENTS:
            expect = copies[c] if c in copies else before[seg[c]]
            np.testing.assert_array_equal(state.vector[seg[c]], expect)
        assert (optims["f"].t, optims["z"].t) == (1, 6)

    def test_nan_gradient_names_the_model_parameter(self):
        state = fresh_state()
        optim = Adam(1e-2, state.vector.shape, name_of=state.param_name)
        grad = np.zeros_like(state.vector)
        grad[state.segments["z"].stop - 1] = np.nan  # z.b2
        with pytest.raises(TrainingError, match="'z.b2'"):
            optim.step(state.vector, grad)
