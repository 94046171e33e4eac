"""Minimal dense-vector neural network core.

Everything here operates on float64 numpy arrays and is sized for the tiny
two-layer blocks this package needs: explicit forward/backward passes, the
SELU activation (with a tanh output for the decoder), alpha-dropout, He
initialization, the Huber loss, and an Adam optimizer with decoupled weight
decay. Inputs are a batch ``(B, D)``.

A block's weights are views into one flat buffer laid out ``w1, b1, w2, b2``;
its backward pass writes gradients in that layout. Adam updates one such
array in place with one step counter: a whole parameter vector, or the slice
of it that one part of a model owns.

Everything also runs on a stack of S independent models, one per row of an
``(S, n)`` parameter matrix: weights, batches and gradients gain a leading
stack axis, reductions run per row, and dropout and Adam take one rate,
learning rate and weight decay per row. The arithmetic of each row is the
unstacked arithmetic, so a row computes what it would compute alone.

Training runs its passes through a binding (:class:`_Bound`), which holds
a block's input, its weight and gradient views, its dropout draws, and
every array its passes write, which each pass overwrites and which stay
valid until the next. Fine-tuning's stack binds ``f`` and ``z`` again each
time rows leave it, and pre-training's stack binds its whole joint step
(see :mod:`jobcast.model`). :meth:`TwoLayerBlock.forward` is inference
alone: it keeps no cache, each layer computes its activation over or
beside its own pre-activation, and what it returns is its caller's. Both
run the same per-layer step, :func:`_dense`; the backward pass is
:func:`_dense_backward`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError, TrainingError

# Self-normalizing activation constants (Klambauer et al. 2017).
SELU_ALPHA = 1.6732632423543772848170429916717
SELU_LAMBDA = 1.0507009873554804934193349852946

# Value dropped units are set to under alpha-dropout: the negative
# saturation point of SELU.
_ALPHA_PRIME = -SELU_LAMBDA * SELU_ALPHA

# Where the Huber runtime loss turns from quadratic to linear, in seconds.
HUBER_DELTA = 1.0

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def selu(x, out=None, tmp=None):
    """SELU applied elementwise to an array, into ``out`` when given, with
    ``tmp`` (of the same shape) as scratch.

    Computed as ``lambda * (alpha * expm1(min(x, 0)) + max(x, -0.0))``
    rather than by selecting between the two branches: for ``x > 0`` the
    first term is +0.0 and adding ``x`` gives ``x``; for any other ``x`` the
    second term is -0.0, which leaves every sum, signed zeros included, as
    it was. So each element equals the branch the definition picks.
    """
    y = np.minimum(x, 0.0, out=out)
    np.expm1(y, out=y)
    y *= SELU_ALPHA
    y += np.maximum(x, -0.0, out=tmp)
    y *= SELU_LAMBDA
    return y


def selu_deriv(x, out=None, greater=None):
    """Derivative of SELU at the pre-activation array ``x``, into ``out``
    when given, with ``greater``, a bool array of the same shape, as
    scratch for the mask ``x > 0``.

    ``lambda * (alpha * exp(min(x, 0)))``, except that the bracket is
    exactly 1.0 where ``x > 0``, so the derivative there is exactly
    ``lambda``; a NaN stays NaN.
    """
    d = np.minimum(x, 0.0, out=out)
    np.exp(d, out=d)
    d *= SELU_ALPHA
    np.putmask(d, np.greater(x, 0.0, out=greater), 1.0)
    d *= SELU_LAMBDA
    return d


def _alpha_affine(rate: float) -> tuple[float, float]:
    """``(a, b)`` of alpha-dropout's rescaling ``a * x + b`` at ``rate``."""
    keep = 1.0 - rate
    a = (keep + _ALPHA_PRIME**2 * keep * rate) ** -0.5
    return a, -a * rate * _ALPHA_PRIME


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")


class _Dropout:
    """Alpha-dropout of ``v`` at a block's rate, bound to the arrays it
    writes: the dropped output ``out``, the gradient multiplier ``dmult``
    (``a`` where a unit is kept, 0 where it is dropped) and the mask.

    ``rate`` is one float, with one generator ``rng``, or one rate per row
    of a stack ``(S, N, K)``, with one generator per row: at each call row
    ``s`` draws its mask from ``rng[s]``, and nothing at rate 0, exactly as
    alone. Dropped units are set to the SELU saturation value and the result
    is rescaled affinely, so mean and variance are kept in expectation.
    """

    def __init__(self, v, rate, rng, empty=np.empty):
        stacked = isinstance(rate, np.ndarray)
        rates, rngs = (rate.tolist(), rng) if stacked else ([rate], [rng])
        for r in rates:
            _check_rate(r)
        # (keep, a, b) in Python floats, as (S, 1, 1) columns over a stack
        coeffs = ([1.0 - r for r in rates], *zip(*map(_alpha_affine, rates)))
        self.keep, self.a, self.b = (np.array(c)[:, None, None] if stacked else c[0]
                                     for c in coeffs)
        self.v = v
        self.out, self.dmult = empty((2, *v.shape))
        self.mask = empty(v.shape, np.bool_)
        rows = self.out if stacked else [self.out]
        self._draws = [(gen if r else None, row) for r, gen, row in zip(rates, rngs, rows)]

    def __call__(self) -> None:
        out, mask = self.out, self.mask
        for gen, row in self._draws:
            if gen is None:
                row.fill(0.0)  # keeps every unit
            else:
                gen.random(out=row)
        # out holds the uniform draws until the mask is taken from them.
        np.less(out, self.keep, out=mask)
        np.copyto(out, _ALPHA_PRIME)
        np.copyto(out, self.v, where=mask)
        np.multiply(self.a, out, out=out)
        out += self.b
        np.multiply(self.a, mask, out=self.dmult)


def he_init(shape, fan_in: int, rng) -> np.ndarray:
    """Normal He initialization: i.i.d. N(0, 2/fan_in)."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def huber_loss(pred, target, out=(None,) * 4):
    """Mean-reduced Huber loss: quadratic inside ``|e| <= HUBER_DELTA``,
    linear outside.

    The mean runs over the last axis: a float for a batch, one loss per row
    for a stack ``(S, B)``. ``out`` holds the elementwise arrays it writes,
    ``(e, quad, per, inner)`` of ``pred``'s shape (``inner`` a bool array),
    or None for each it allocates.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    e, quad, per, inner = out
    e = np.subtract(pred, target, out=e)
    np.abs(e, out=e)
    quad = np.multiply(0.5, e, out=quad)
    quad *= e
    per = np.subtract(e, 0.5 * HUBER_DELTA, out=per)
    np.multiply(HUBER_DELTA, per, out=per)
    np.copyto(per, quad, where=np.less_equal(e, HUBER_DELTA, out=inner))
    loss = np.add.reduce(per, axis=-1) / per.shape[-1]  # np.mean, without its wrapper
    return loss if loss.ndim else float(loss)


def huber_grad(pred, target, out=None) -> np.ndarray:
    """d(huber_loss)/d(pred), including the 1/n mean factor of each row,
    into ``out`` when given."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    g = np.subtract(pred, target, out=out)
    return _huber_slope(g, g)


def _huber_slope(residual, out):
    """:func:`huber_grad` from the residual ``pred - target``, into ``out``
    (which may be ``residual``)."""
    # np.clip, faster
    np.minimum(np.maximum(residual, -HUBER_DELTA, out=out), HUBER_DELTA, out=out)
    out /= out.shape[-1]
    return out


def _check_finite(out) -> None:
    """Raise :class:`NumericsError` unless every element of a block's
    output is finite."""
    # A finite sum clears every element at once (see model.diverged_rows).
    if not math.isfinite(np.add.reduce(out, axis=None)) and not np.isfinite(out).all():
        raise NumericsError("two-layer block produced a non-finite output")


def _dense(x, wt, b, pre, out, tmp, tanh):
    """One layer of a block: ``pre = x @ wt + b`` and ``out = sigma(pre)``,
    with SELU, or tanh when ``tanh``, as ``sigma``; returns ``(pre, out)``.

    ``wt`` is the layer's weights transposed (over a stack, its last two
    axes swapped) and ``b`` its bias with a batch axis, or None. ``pre``,
    ``out`` and the scratch ``tmp`` are the arrays written, or None. A pass
    that keeps no pre-activation may pass ``pre`` as ``out`` under tanh,
    or as ``tmp`` under SELU.
    """
    pre = np.matmul(x, wt, out=pre)
    if b is not None:
        pre += b
    return pre, (np.tanh(pre, out=out) if tanh else selu(pre, out, tmp))


def _dense_backward(dout, x, w, pre, out, gw, gb, delta, greater, tanh, need_dx, dx):
    """Backpropagate ``dout``, dLoss/d(out), through one layer that
    :func:`_dense` ran on ``x`` (writing ``pre`` and ``out``).

    Writes the weight gradients into ``gw`` and ``gb`` (None without a
    bias) and dLoss/d(pre) into ``delta``, with ``greater`` as SELU's
    mask scratch. Returns dLoss/d(x), into ``dx``, or None without
    ``need_dx``. ``delta``, ``greater`` and ``dx`` may be None.
    """
    if tanh:
        delta = np.multiply(out, out, out=delta)
        np.subtract(1.0, delta, out=delta)
    else:
        delta = selu_deriv(pre, delta, greater)
    delta *= dout
    np.matmul(delta.swapaxes(-1, -2), x, out=gw)
    if gb is not None:
        np.add.reduce(delta, axis=-2, out=gb)
    return np.matmul(delta, w, out=dx) if need_dx else None


class TwoLayerBlock:
    """A two-layer feed-forward block: ``out = sigma(W2 @ selu(W1 @ x + b1) + b2)``,
    where ``sigma`` is SELU, or tanh with ``tanh_out=True`` (the decoder's).

    The weights are views into one flat buffer, laid out ``w1, b1, w2, b2``,
    so their shapes agree by construction; biases exist only with
    ``bias=True``. Alpha-dropout (when ``dropout_rate > 0``) is applied after
    each activation of a training pass only.

    Over a stack ``(S, n)`` the block holds S blocks: ``w1`` is
    ``(S, H, D)``, inputs are stacked too, ``(S, B, D)`` (a lone ``(B, D)``
    batch is rejected), and ``dropout_rate`` may be one rate per row. A
    stacked block does not raise on a non-finite output; its caller decides
    row by row.

    :meth:`forward` is inference. A training pass runs on a binding of the
    block (:class:`_Bound`): ``bound.forward()``, then
    ``backward(bound, dout)``.
    """

    def __init__(self, flat, in_dim, hidden_dim, out_dim, bias=True, tanh_out=False,
                 dropout_rate=0.0):
        w1, b1, w2, b2 = _split(flat, in_dim, hidden_dim, out_dim, bias)
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2
        self.tanh_out = tanh_out
        self.dropout_rate = (float(dropout_rate) if isinstance(dropout_rate, float)
                             or not np.ndim(dropout_rate)
                             else np.asarray(dropout_rate, dtype=np.float64))
        # The forward pass's operands, as views: the weights change only in
        # place (they are views into a parameter vector), so these follow.
        self._w1t, self._w2t = w1.swapaxes(-1, -2), w2.swapaxes(-1, -2)
        self._b1 = None if b1 is None else b1[..., None, :]
        self._b2 = None if b2 is None else b2[..., None, :]

    @staticmethod
    def size(in_dim, hidden_dim, out_dim, bias=True) -> int:
        """Number of weights in a block of these dimensions."""
        return hidden_dim * (in_dim + out_dim) + (hidden_dim + out_dim if bias else 0)

    def init(self, rng) -> None:
        """He-initialize in place, drawing ``w1`` then ``w2``; zero the biases."""
        self.w1[...] = he_init(self.w1.shape, self.in_dim, rng)
        self.w2[...] = he_init(self.w2.shape, self.w1.shape[-2], rng)
        if self.b1 is not None:
            self.b1[...] = 0.0
            self.b2[...] = 0.0

    @property
    def in_dim(self) -> int:
        return self.w1.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.w2.shape[-2]

    def forward(self, x):
        """Run the block on a batch ``(B, D)``, or a stacked block on a
        stack ``(S, B, D)``, in inference mode; returns the output,
        ``(B, K)`` or ``(S, B, K)``.

        Inference has no dropout and no cache. Each layer writes its
        activation over its pre-activation (tanh) or with it as scratch
        (SELU), so a layer holds no more than its input, its pre-activation
        and its output, and only the output, the caller's, outlives the call.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != self.w1.ndim or x.shape[-1] != self.in_dim:
            raise ValueError(f"input of shape {x.shape} is not a "
                             f"{'stack of batches' if self.w1.ndim > 2 else 'batch'}"
                             f" of width {self.in_dim}")
        for wt, b, tanh in ((self._w1t, self._b1, False), (self._w2t, self._b2, self.tanh_out)):
            pre = np.empty((*x.shape[:-1], wt.shape[-1]))
            x = _dense(x, wt, b, pre, pre if tanh else None, pre, tanh)[1]
            del pre  # x holds the activation; the pre-activation is spent
        if self.w1.ndim == 2:
            _check_finite(x)
        return x

    def backward(self, bound, dout, need_dx=True):
        """Backpropagate ``dout`` through ``bound``'s last forward pass.

        Writes the weight gradient into the gradient views ``bound`` holds
        and returns dLoss/dx (``bound.dx``), or None with ``need_dx=False``
        (the input is data, not a parameter's output).
        """
        bound.backward(dout, need_dx)
        return bound.dx if need_dx else None


class _Bound:
    """A block's training passes over arrays bound once: the input ``x``
    (read at every pass, so its owner may rewrite it in place), the weight
    views, the gradient views into ``grad`` (laid out like the block's
    weights), and every array a pass writes, ``out`` and ``dx`` among them,
    each taken from ``empty``.

    Given ``rng`` (a generator, or one per row of a stack), each forward
    pass applies alpha-dropout after both activations at the block's rate
    (see :class:`_Dropout`): every row draws its hidden mask, then its
    output mask, and ``out`` is the dropped output. Without it, or where no
    row drops, a pass has no dropout.

    Each pass runs the per-layer steps without input checks. ``x`` may carry
    the block's stack axis, ``(S, B, D)``; a single block raises
    :class:`NumericsError` on a non-finite output.
    """

    def __init__(self, block, x, grad, rng=None, empty=np.empty):
        lead = x.shape[:-1]
        h, k = block.w1.shape[-2], block.out_dim
        pre1, act1, tmp1, delta1, dact1 = empty((5, *lead, h))
        pre2, out2, tmp2, delta2 = empty((4, *lead, k))
        greater1, greater2 = empty((*lead, h), np.bool_), empty((*lead, k), np.bool_)
        self.dx = empty(x.shape)
        gw1, gb1, gw2, gb2 = _split(grad, block.in_dim, h, k, block.b1 is not None)
        rate = block.dropout_rate
        self._drops = () if rng is None or not np.any(rate) else (
            _Dropout(act1, rate, rng, empty), _Dropout(out2, rate, rng, empty))
        hidden, self.out = (d.out for d in self._drops) if self._drops else (act1, out2)
        self._layers = ((x, block._w1t, block._b1, pre1, act1, tmp1, False),
                        (hidden, block._w2t, block._b2, pre2, out2, tmp2, block.tanh_out))
        self._dact1, self._tmp2 = dact1, tmp2
        self._back2 = (hidden, block.w2, pre2, out2, gw2, gb2, delta2, greater2,
                       block.tanh_out, True, dact1)
        self._back1 = (x, block.w1, pre1, act1, gw1, gb1, delta1, greater1, False)
        self._single = block.w1.ndim == 2

    def forward(self) -> None:
        """Run the block on ``x`` into ``out``."""
        first, second = self._layers
        _dense(*first)
        if self._drops:
            self._drops[0]()
        _dense(*second)
        if self._drops:
            self._drops[1]()
        if self._single:
            _check_finite(self.out)

    def backward(self, dout, need_dx=True) -> None:
        """Backpropagate ``dout`` through the last forward pass: the weight
        gradient into ``grad``'s views and, with ``need_dx``, dLoss/dx into
        ``dx``."""
        if self._drops:
            dout = np.multiply(dout, self._drops[1].dmult, out=self._tmp2)
        _dense_backward(dout, *self._back2)
        if self._drops:
            self._dact1 *= self._drops[0].dmult
        _dense_backward(self._dact1, *self._back1, need_dx, self.dx)


def _split(flat, in_dim, hidden_dim, out_dim, bias):
    """``(w1, b1, w2, b2)`` views into a flat block buffer, or into each row
    of a stack ``(S, n)`` of them; biases may be None."""
    lead = flat.shape[:-1]
    a = hidden_dim * in_dim
    b = a + hidden_dim * bias
    c = b + out_dim * hidden_dim
    return (flat[..., :a].reshape(*lead, hidden_dim, in_dim),
            flat[..., a:b] if bias else None,
            flat[..., b:c].reshape(*lead, out_dim, hidden_dim),
            flat[..., c : c + out_dim] if bias else None)


class Adam:
    """Adam with decoupled weight decay over one parameter array.

    The array is a flat vector, a slice of one, or a stack ``(S, n)`` of S
    rows, whose ``lr`` and ``weight_decay`` are then ``(S, 1)`` columns, one
    value per row; every row steps together. The moments, of ``shape``,
    start at zero and one step counter serves the whole array, so a part
    of a model that joins training late gets an optimizer of its own, and
    a frozen part has none. ``name_of`` names the parameter at an index of
    the array in non-finite gradient errors.

    Beside its moments the optimizer owns two scratch arrays of ``shape``,
    which every step overwrites; a step allocates nothing. Neither the
    moments nor the scratch are ever handed out.
    """

    def __init__(self, lr, shape, name_of, weight_decay=0.0):
        self.lr = lr if np.ndim(lr) else float(lr)
        self.weight_decay = weight_decay if np.ndim(weight_decay) else float(weight_decay)
        self.m, self.v = np.zeros((2, *shape))
        self._tmp, self._step = np.empty((2, *shape))
        self.t = 0
        self.name_of = name_of

    def step(self, params, grads) -> None:
        """Update ``params`` in place from ``grads``.

        A non-finite gradient raises :class:`TrainingError` before any update.
        """
        # A finite sum clears every gradient at once (see model.diverged_rows).
        if not math.isfinite(np.add.reduce(grads, axis=None)):
            finite = np.isfinite(grads)
            if not finite.all():
                bad = int(np.nonzero(~finite)[-1][0])
                raise TrainingError(
                    f"non-finite gradient for parameter {self.name_of(bad)!r}")
        self.t += 1
        t, m, v, tmp, step = self.t, self.m, self.v, self._tmp, self._step
        # p -= lr * (mhat / (sqrt(vhat) + eps) + wd * p), in two buffers
        np.multiply(1.0 - ADAM_BETA1, grads, out=tmp)
        m *= ADAM_BETA1
        m += tmp
        np.multiply(grads, grads, out=tmp)
        tmp *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += tmp
        np.divide(m, 1.0 - ADAM_BETA1**t, out=step)  # mhat
        np.divide(v, 1.0 - ADAM_BETA2**t, out=tmp)  # vhat
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step /= tmp
        np.multiply(self.weight_decay, params, out=tmp)
        step += tmp
        step *= self.lr
        params -= step

    def keep_rows(self, rows) -> None:
        """Keep only the given rows of a stack: their moments, and their lr
        and decay where those are columns; the scratch shrinks to its first
        rows."""
        self.m, self.v = self.m[rows], self.v[rows]
        self.lr, self.weight_decay = (x[rows] if np.ndim(x) else x
                                      for x in (self.lr, self.weight_decay))
        self._tmp, self._step = self._tmp[: len(rows)], self._step[: len(rows)]
