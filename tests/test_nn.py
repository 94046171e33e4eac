"""Tests for the dense-NN core: activations, dropout, init, losses,
two-layer blocks, backprop, and Adam."""

import math

import numpy as np
import pytest

import cached_passes as cached
from jobcast.errors import NumericsError, TrainingError
from jobcast.nn import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, SELU_ALPHA, SELU_LAMBDA,
                        Adam, TwoLayerBlock, _Bound, _Dropout, _split, he_init,
                        huber_grad, huber_loss, selu)


def squared_error(a, b) -> float:
    """Mean squared difference, the loss the block tests fit."""
    d = np.asarray(a) - np.asarray(b)
    return float(np.mean(d * d))


def new_block(in_dim, hidden_dim, out_dim, rng, bias=True, **kwargs):
    """He-initialized block over a fresh flat buffer."""
    flat = np.zeros(TwoLayerBlock.size(in_dim, hidden_dim, out_dim, bias))
    block = TwoLayerBlock(flat, in_dim, hidden_dim, out_dim, bias, **kwargs)
    block.init(rng)
    return block, flat


class TestActivations:
    def test_selu_zero(self):
        assert selu(np.array([0.0]))[0] == 0.0

    def test_selu_positive_is_scaled_identity(self):
        # closed form for x > 0: lambda * x
        np.testing.assert_allclose(selu(np.array([1.0, 3.5])),
                                   [SELU_LAMBDA, SELU_LAMBDA * 3.5], rtol=1e-12)

    def test_selu_negative_saturation(self):
        # lambda * alpha * (e^x - 1) -> -lambda*alpha as x -> -inf
        assert selu(np.array([-50.0]))[0] == pytest.approx(-SELU_LAMBDA * SELU_ALPHA,
                                                           rel=1e-9)

    def test_selu_published_constants(self):
        assert SELU_ALPHA == pytest.approx(1.67326, abs=1e-5)
        assert SELU_LAMBDA == pytest.approx(1.05070, abs=1e-5)


class TestAlphaDropout:
    """:class:`_Dropout`, the dropout a training pass binds, checked here
    on its own; ``TestBound`` checks it bit for bit against the reference
    in ``cached_passes``."""

    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=100)
        drawn = rng.bit_generator.state
        drop = _Dropout(v, 0.0, rng)
        drop()
        np.testing.assert_array_equal(drop.out, v)
        np.testing.assert_array_equal(drop.dmult, 1.0)
        assert rng.bit_generator.state == drawn

    def test_infer_mode_is_identity(self):
        """An unbound pass, inference, drops nothing at any rate."""
        rng = np.random.default_rng(0)
        block, _ = new_block(5, 8, 2, rng, dropout_rate=0.5)
        x = rng.normal(size=(4, 5))
        out, _ = cached.forward(block, x)
        assert block.forward(x).tobytes() == out.tobytes()

    def test_preserves_mean_and_variance_in_expectation(self):
        """Applied to a large standard-normal sample, alpha-dropout must
        keep mean near 0 and variance near 1."""
        rng = np.random.default_rng(42)
        v = rng.standard_normal(200_000)
        drop = _Dropout(v, 0.2, rng)
        drop()
        assert abs(drop.out.mean()) < 0.02
        assert abs(drop.out.var() - 1.0) < 0.05

    def test_invalid_rate_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            _Dropout(np.zeros(3), 1.0, rng)
        with pytest.raises(ValueError):
            _Dropout(np.zeros((2, 1, 3)), np.array([0.1, 1.0]), [rng, rng])


class TestHeInit:
    def test_sample_variance(self):
        rng = np.random.default_rng(123)
        w = he_init((1000, 100), 100, rng)
        target = 2.0 / 100
        assert abs(w.var() - target) < 0.15 * target
        assert abs(w.mean()) < 0.005

    def test_deterministic_under_seed(self):
        a = he_init((20, 10), 10, np.random.default_rng(7))
        b = he_init((20, 10), 10, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_zero_fan_in_rejected(self):
        with pytest.raises(ValueError):
            he_init((3, 3), 0, np.random.default_rng(0))


class TestLosses:
    def test_huber_equal_inputs(self):
        assert huber_loss([5.0], [5.0]) == 0.0

    def test_huber_linear_region(self):
        # |e| = 2 > delta = 1: delta * (|e| - delta/2) = 1.5
        assert huber_loss([2.0], [0.0]) == pytest.approx(1.5)

    def test_huber_quadratic_region(self):
        assert huber_loss([0.5], [0.0]) == pytest.approx(0.125)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            huber_loss([1.0, 2.0], [1.0])

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            assert huber_loss(a, b) > 0
            assert huber_loss(a, a) == 0

    def test_huber_grad_matches_finite_difference(self):
        rng = np.random.default_rng(9)
        pred = rng.normal(size=8) * 3
        target = rng.normal(size=8) * 3
        g = huber_grad(pred, target)
        h = 1e-6
        for i in range(8):
            bumped = pred.copy()
            bumped[i] += h
            num = (huber_loss(bumped, target) - huber_loss(pred, target)) / h
            assert g[i] == pytest.approx(num, abs=1e-5)


class TestTwoLayerBlock:
    def test_selu_zero_input(self):
        w1 = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        w2 = np.array([[1.0, 1.0]])
        block = TwoLayerBlock(np.concatenate([w1.ravel(), w2.ravel()]), 3, 2, 1,
                              bias=False)
        out = block.forward(np.zeros((1, 3)))
        np.testing.assert_array_equal(out, [[0.0]])

    def test_matches_scalar_loop_reference(self):
        """He-initialized block output equals an explicit scalar-loop
        evaluation of the two-layer formula over the same weights."""
        rng = np.random.default_rng(11)
        block, _ = new_block(4, 6, 3, rng, bias=True)
        x = rng.normal(size=4)
        out = block.forward(x[None, :])

        def ref_selu(v):
            lam, alpha = SELU_LAMBDA, SELU_ALPHA
            return lam * v if v > 0 else lam * alpha * (math.exp(v) - 1.0)

        hidden = []
        for j in range(6):
            acc = block.b1[j]
            for i in range(4):
                acc += block.w1[j, i] * x[i]
            hidden.append(ref_selu(acc))
        expect = []
        for k in range(3):
            acc = block.b2[k]
            for j in range(6):
                acc += block.w2[k, j] * hidden[j]
            expect.append(ref_selu(acc))
        np.testing.assert_allclose(out, [expect], rtol=1e-12)

    def test_infer_mode_deterministic(self):
        rng = np.random.default_rng(3)
        block, _ = new_block(5, 8, 2, rng, dropout_rate=0.3)
        x = rng.normal(size=(4, 5))
        a = block.forward(x)
        b = block.forward(x)
        np.testing.assert_array_equal(a, b)

    def test_shape_mismatch_rejected(self):
        """Only a batch of the block's input width goes in: not another
        width, and not a lone vector."""
        block, _ = new_block(3, 4, 2, np.random.default_rng(0))
        for x in (np.zeros((2, 5)), np.zeros(3)):
            with pytest.raises(ValueError):
                block.forward(x)

    # ``activations`` names the (hidden, output) pair: the decoder h alone
    # ends in tanh.
    @pytest.mark.parametrize("bias,activations,dim", [
        (True, "selu-selu", (3, 16, 8)),
        (False, "selu-selu", (40, 8, 4)),
        (False, "selu-tanh", (4, 8, 40)),
        (True, "selu-selu", (28, 8, 1)),
    ])
    def test_gradcheck_every_block_shape(self, bias, activations, dim):
        """Analytic gradients match central finite differences for each
        block configuration used by the model (dropout disabled)."""
        rng = np.random.default_rng(sum(dim))
        block, flat = new_block(*dim, rng, bias=bias,
                                tanh_out=activations == "selu-tanh")
        x = rng.normal(size=(5, dim[0]))
        target = rng.normal(size=(5, dim[2]))

        def loss():
            return squared_error(block.forward(x), target)

        grad = np.full_like(flat, np.nan)
        bound = _Bound(block, x, grad)
        bound.forward()
        out = bound.out
        dout = 2.0 * (out - target) / out.size
        dx = block.backward(bound, dout)
        assert np.all(np.isfinite(grad))  # every weight gets a gradient

        h = 1e-5
        check_rng = np.random.default_rng(0)
        views = zip(("w1", "b1", "w2", "b2"), _split(flat, *dim, bias),
                    _split(grad, *dim, bias))
        for name, arr, garr in views:
            if arr is None:
                continue
            warr, gflat = arr.reshape(-1), garr.reshape(-1)  # views, not copies
            idxs = check_rng.choice(warr.size, size=min(10, warr.size), replace=False)
            for i in idxs:
                orig = warr[i]
                warr[i] = orig + h
                lp = loss()
                warr[i] = orig - h
                lm = loss()
                warr[i] = orig
                num = (lp - lm) / (2 * h)
                rel = abs(gflat[i] - num) / max(1.0, abs(gflat[i]), abs(num))
                assert rel < 1e-4, f"{name}[{i}]: analytic {gflat[i]} vs fd {num}"

        # input gradient too
        for i in range(x.size):
            orig = x.ravel()[i]
            x.ravel()[i] = orig + h
            lp = loss()
            x.ravel()[i] = orig - h
            lm = loss()
            x.ravel()[i] = orig
            num = (lp - lm) / (2 * h)
            rel = abs(dx.ravel()[i] - num) / max(1.0, abs(dx.ravel()[i]), abs(num))
            assert rel < 1e-4

    def test_weights_are_views_of_the_flat_buffer(self):
        """Layout is w1, b1, w2, b2; writing the buffer moves the block."""
        flat = np.arange(TwoLayerBlock.size(2, 3, 1), dtype=np.float64)
        block = TwoLayerBlock(flat, 2, 3, 1)
        np.testing.assert_array_equal(block.w1.ravel(), flat[:6])
        np.testing.assert_array_equal(block.b1, flat[6:9])
        np.testing.assert_array_equal(block.w2.ravel(), flat[9:12])
        np.testing.assert_array_equal(block.b2, flat[12:])
        flat[12] = -7.0
        assert block.b2[0] == -7.0

    def test_init_draws_w1_then_w2(self):
        """He draws come from the rng in the order w1, w2; biases are zero."""
        block, _ = new_block(4, 6, 3, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        np.testing.assert_array_equal(block.w1, he_init((6, 4), 4, rng))
        np.testing.assert_array_equal(block.w2, he_init((3, 6), 6, rng))
        assert not block.b1.any() and not block.b2.any()


class TestAdam:
    def test_zero_gradient_zero_decay_leaves_params(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=9)
        before = p.copy()
        optim = Adam(lr=1e-2, shape=p.shape, name_of=str, weight_decay=0.0)
        for _ in range(10):
            optim.step(p, np.zeros_like(p))
        np.testing.assert_array_equal(p, before)

    def test_frozen_params_untouched(self):
        """An optimizer over a slice of a vector never touches the rest,
        which is frozen by having no optimizer."""
        rng = np.random.default_rng(1)
        p = rng.normal(size=32)
        snapshot = p.copy()
        optim = Adam(lr=1e-2, shape=(16,), name_of=str)
        for _ in range(100):
            optim.step(p[16:], rng.normal(size=32)[16:])
        np.testing.assert_array_equal(p[:16], snapshot[:16])
        assert not np.array_equal(p[16:], snapshot[16:])
        assert optim.t == 100

    def test_nan_gradient_aborts_naming_parameter(self):
        """The error names the offending parameter, and nothing moves."""
        p = np.ones(4)
        optim = Adam(lr=1e-2, shape=p.shape, name_of=lambda i: f"p[{i}]")
        bad = np.array([0.5, 0.5, 0.5, np.nan])
        with pytest.raises(TrainingError, match=r"'p\[3\]'"):
            optim.step(p, bad)
        np.testing.assert_array_equal(p, np.ones(4))
        assert optim.t == 0 and not optim.m.any() and not optim.v.any()
        # a NaN outside the optimizer's slice is never read
        Adam(lr=1e-2, shape=(2,), name_of=str).step(p[:2], bad[:2])

    def test_decoupled_weight_decay_shrinks_weights(self):
        p = np.array([10.0])
        optim = Adam(lr=0.1, shape=p.shape, name_of=str, weight_decay=0.5)
        optim.step(p, np.zeros(1))
        # pure decay step: p - lr*wd*p = 10 - 0.1*0.5*10
        assert p[0] == pytest.approx(9.5)

    def test_late_segment_starts_fresh_while_others_keep_count(self):
        """An optimizer created late, for a slice that joins training, takes
        the first step of Adam's formula, while one stepping all along
        takes its eighth: each keeps its own moments and count."""
        rng = np.random.default_rng(3)
        p = rng.normal(size=5)
        twin = p.copy()
        b = Adam(1e-2, (2,), str, weight_decay=1e-3)
        ref_m, ref_v = np.zeros(5), np.zeros(5)

        def reference(sl, g, t):  # textbook Adam with decoupled weight decay
            ref_m[sl] = ADAM_BETA1 * ref_m[sl] + (1.0 - ADAM_BETA1) * g[sl]
            ref_v[sl] = ADAM_BETA2 * ref_v[sl] + (1.0 - ADAM_BETA2) * (g[sl] * g[sl])
            mhat = ref_m[sl] / (1.0 - ADAM_BETA1**t)
            vhat = ref_v[sl] / (1.0 - ADAM_BETA2**t)
            twin[sl] -= 1e-2 * (mhat / (np.sqrt(vhat) + ADAM_EPS) + 1e-3 * twin[sl])

        for t in range(1, 8):
            g = rng.normal(size=5)
            b.step(p[3:], g[3:])
            reference(slice(3, 5), g, t)
        a = Adam(1e-2, (3,), str, weight_decay=1e-3)
        g = rng.normal(size=5)
        a.step(p[:3], g[:3])
        b.step(p[3:], g[3:])
        reference(slice(0, 3), g, 1)
        reference(slice(3, 5), g, 8)
        np.testing.assert_array_equal(p, twin)
        assert (a.t, b.t) == (1, 8)

    def test_single_block_capacity(self):
        """A lone block fitted on 10 random pairs reaches MSE < 1e-3
        within 5000 Adam steps."""
        rng = np.random.default_rng(2024)
        block, flat = new_block(3, 16, 2, rng)
        x = rng.normal(size=(10, 3))
        y = rng.normal(size=(10, 2))
        optim = Adam(lr=1e-2, shape=flat.shape, name_of=str)
        grad = np.zeros_like(flat)
        bound = _Bound(block, x, grad)
        for _ in range(5000):
            bound.forward()
            block.backward(bound, 2.0 * (bound.out - y) / bound.out.size)
            optim.step(flat, grad)
        assert squared_error(block.forward(x), y) < 1e-3


class TestBound:
    """A bound pass computes what the cached passes of ``cached_passes``
    compute, bit for bit, on a single block and on a stack, with and
    without dropout, and reads its input afresh at every pass; so does the
    cache-free inference pass."""

    @pytest.mark.parametrize("stack", [(), (3,)])
    @pytest.mark.parametrize("bias,tanh_out,dim", [
        (True, False, (3, 16, 8)), (False, True, (4, 8, 40)), (True, False, (28, 8, 1)),
    ])
    def test_bound_passes_match_the_block(self, stack, bias, tanh_out, dim):
        rng = np.random.default_rng(sum(dim))
        flat = rng.normal(size=(*stack, TwoLayerBlock.size(*dim, bias)))
        block = TwoLayerBlock(flat, *dim, bias, tanh_out=tanh_out)
        x = rng.normal(size=(*stack, 5, dim[0]))
        dout = rng.normal(size=(*stack, 5, dim[2]))
        grad, bound_grad = np.zeros_like(flat), np.zeros_like(flat)
        bound = _Bound(block, x, bound_grad)
        for _ in range(2):  # the second pass runs on a rewritten input
            out, cache = cached.forward(block, x)
            dx = cached.backward(block, cache, dout, grad)
            bound.forward()
            assert block.backward(bound, dout) is bound.dx
            assert [a.tobytes() for a in (bound.out, bound_grad, bound.dx)] == \
                [a.tobytes() for a in (out, grad, dx)]
            assert block.forward(x).tobytes() == out.tobytes()
            x *= -0.5

    @pytest.mark.parametrize("rates", [0.2, (0.2, 0.0, 0.1), (0.0, 0.0)])
    @pytest.mark.parametrize("tanh_out", [False, True])
    def test_bound_dropout_draws_as_the_cached_pass(self, rates, tanh_out):
        """Each row draws its hidden mask, then its output mask, from its
        own generator at every pass, and a row at rate 0 draws nothing."""
        stack = np.shape(rates)
        dim = (4, 6, 3)
        rng = np.random.default_rng(13)
        flat = rng.normal(size=(*stack, TwoLayerBlock.size(*dim)))
        block = TwoLayerBlock(flat, *dim, tanh_out=tanh_out, dropout_rate=rates)
        x = rng.normal(size=(*stack, 5, dim[0]))
        dout = rng.normal(size=(*stack, 5, dim[2]))

        def streams():
            return [np.random.default_rng(7 + s) for s in range(np.size(rates))]

        def rng(gens):  # one generator per row, or one for a single block
            return gens if stack else gens[0]

        ours, theirs = streams(), streams()
        grad, bound_grad = np.zeros_like(flat), np.zeros_like(flat)
        bound = _Bound(block, x, bound_grad, rng(ours))
        for _ in range(3):
            out, cache = cached.forward(block, x, train=True, rng=rng(theirs))
            dx = cached.backward(block, cache, dout, grad)
            bound.forward()
            block.backward(bound, dout)
            assert [a.tobytes() for a in (bound.out, bound_grad, bound.dx)] == \
                [a.tobytes() for a in (out, grad, dx)]
        for gen, other, new, rate in zip(ours, theirs, streams(), np.ravel(rates)):
            assert gen.bit_generator.state == other.bit_generator.state
            assert (gen.bit_generator.state != new.bit_generator.state) == bool(rate)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_single_bound_block_raises_on_a_non_finite_output(self):
        rng = np.random.default_rng(9)
        block, flat = new_block(2, 3, 2, rng)
        block.w2[0, 0] = np.nan
        with pytest.raises(NumericsError, match="non-finite output"):
            _Bound(block, np.ones((4, 2)), np.zeros_like(flat)).forward()
        stacked = TwoLayerBlock(np.stack([flat, flat]), 2, 3, 2)
        _Bound(stacked, np.ones((2, 4, 2)), np.zeros((2, flat.size))).forward()


class TestStack:
    """A stack of S models, one per row of an (S, n) matrix, computes each
    row's unstacked result bit for bit."""

    def _stack(self, dims, rates, bias=True):
        rng = np.random.default_rng(5)
        flats = [new_block(*dims, rng, bias=bias)[1] for _ in rates]
        stacked = TwoLayerBlock(np.stack(flats), *dims, bias, dropout_rate=np.array(rates))
        singles = [TwoLayerBlock(f, *dims, bias, dropout_rate=r)
                   for f, r in zip(flats, rates)]
        return stacked, singles

    def test_block_rows_match_single_blocks(self):
        dims, rates = (5, 7, 3), (0.2, 0.0, 0.1)
        stacked, singles = self._stack(dims, rates)
        x = np.random.default_rng(6).standard_normal((len(rates), 9, 5))
        dout = np.random.default_rng(7).standard_normal((len(rates), 9, 3))
        grad = np.zeros((len(rates), TwoLayerBlock.size(*dims)))
        bound = _Bound(stacked, x, grad, [np.random.default_rng(s) for s in range(3)])
        bound.forward()
        out = bound.out
        dx = stacked.backward(bound, dout)
        for s, block in enumerate(singles):
            g = np.zeros(TwoLayerBlock.size(*dims))
            xs = x[s]
            alone = _Bound(block, xs, g, np.random.default_rng(s))
            alone.forward()
            o = alone.out
            d = block.backward(alone, dout[s])
            assert np.array_equal(out[s], o) and np.array_equal(grad[s], g)
            assert np.array_equal(dx[s], d)

    def test_stacked_block_rejects_a_single_batch(self):
        """A stacked block takes one batch per row, never one batch for all."""
        stacked, _ = self._stack((5, 7, 3), (0.0, 0.0))
        with pytest.raises(ValueError):
            stacked.forward(np.ones((9, 5)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stacked_block_leaves_non_finite_rows_to_the_caller(self):
        stacked, singles = self._stack((2, 3, 2), (0.0, 0.0))
        stacked.w1[1] = singles[1].w1[...] = np.inf
        out = stacked.forward(np.ones((2, 4, 2)))
        assert np.isfinite(out[0]).all() and not np.isfinite(out[1]).all()
        with pytest.raises(NumericsError):
            singles[1].forward(np.ones((4, 2)))

    def test_adam_rows_match_single_optimizers_and_can_leave(self):
        rng = np.random.default_rng(8)
        params = rng.standard_normal((3, 6))
        grads = [rng.standard_normal((3, 6)) for _ in range(4)]
        lr, wd = np.array([1e-2, 1e-1, 1e-3]), np.array([0.0, 1e-2, 1e-3])
        stacked = Adam(lr[:, None], params.shape, str, weight_decay=wd[:, None])
        singles = [Adam(lr[s], params.shape[1:], str, weight_decay=wd[s])
                   for s in range(3)]
        alone = params.copy()
        for t, g in enumerate(grads):
            if t == 2:  # row 1 leaves the stack
                stacked.keep_rows([0, 2])
                params = params[[0, 2]]
            stacked.step(params, g[[0, 2]] if t >= 2 else g)
            for s in range(3):
                singles[s].step(alone[s], g[s])
        assert np.array_equal(params, alone[[0, 2]])
