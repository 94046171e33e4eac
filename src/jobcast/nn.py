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

Every operation takes the arrays it writes from a buffer holder, ``buf``,
and passes them to numpy as ``out=``. Called without one, an operation gets
``None`` (numpy allocates) or a new array, so whatever it returns is its
caller's to keep. A training loop may pass its own :class:`_Buffers`
instead (pre-training's stack does), and each operation then writes into
the same arrays at every step: a block's forward outputs and cache, its
backward pass's deltas and input gradient, the dropout outputs and masks,
and the Huber terms. Those arrays stay valid until the same operation runs
again under the same holder, at the next step; the loop never hands them
out. Each block's scope of the holder owns its scratch. A site's first
request sizes its arrays and must be its largest, as a stack's first step
is: its first minibatch is full, and rows only leave. After the first
step such a step allocates nothing large. Adam owns the scratch of its
update beside its moments.

A loop that runs one block on the same input array at every epoch, as
fine-tuning does, binds its arrays once instead (:class:`_Bound`); bound
passes and the block's own run the same per-layer steps, :func:`_dense`
and :func:`_dense_backward`.
"""

from __future__ import annotations

import functools
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


class _Buffers:
    """The arrays one training loop's operations write at every step.

    ``buf(site, lead, widths)`` returns one array of shape ``lead + w`` for
    each trailing shape ``w`` in ``widths``; a site asks with the same
    ``widths`` every time. Each array is a contiguous prefix of a flat
    arena of its own, sized by the site's first request, which must be its
    largest: in a stack the first minibatch is a full one and rows only
    leave, so the short last minibatch of an epoch, or a stack after rows
    left it, reuses the arenas of the first step. The views are kept per
    ``(site, lead)``: the same request returns the same arrays, overwriting
    what the last one wrote. ``buf.arrays`` is the same call, for a site
    that fills its arrays in place (see :class:`_Fresh`). ``scope(name)``
    is a holder of its own for one block's sites, its scratch among them.
    """

    def __init__(self):
        self._arenas: dict = {}
        self._views: dict = {}
        self._scopes: dict = {}

    def __call__(self, site, lead, widths, dtype=np.float64):
        views = self._views.get((site, lead))
        if views is None:
            shapes = [lead + w for w in widths]
            arenas = self._arenas.get(site)
            if arenas is None:
                arenas = self._arenas[site] = [np.empty(math.prod(s), dtype) for s in shapes]
            views = self._views[site, lead] = tuple(
                arena[: math.prod(s)].reshape(s) for arena, s in zip(arenas, shapes))
        return views

    arrays = __call__

    def scope(self, name):
        child = self._scopes.get(name)
        if child is None:
            child = self._scopes[name] = _Buffers()
        return child


class _Fresh:
    """The holder of every call that passes none, where nothing a caller
    receives may be written again.

    ``buf(...)`` gives ``None`` for every array, so numpy allocates each
    output (its ``out=None``); ``buf.arrays(...)`` gives new arrays, for a
    site that fills them in place.
    """

    def __call__(self, site, lead, widths, dtype=np.float64):
        return (None,) * len(widths)

    def arrays(self, site, lead, widths, dtype=np.float64):
        return [np.empty(lead + w, dtype) for w in widths]

    def scope(self, name):
        return self


_FRESH = _Fresh()


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


@functools.lru_cache(maxsize=64)
def _alpha_rows(rates: tuple):
    """``(keep, a, b)`` as ``(S, 1, 1)`` columns for one rate per stack row,
    computed in Python floats as for a single rate (read-only, shared);
    None when no row drops anything."""
    for rate in rates:
        _check_rate(rate)
    if not any(rates):
        return None
    cols = [np.array(c)[:, None, None] for c in
            ([1.0 - r for r in rates], *zip(*map(_alpha_affine, rates)))]
    for c in cols:
        c.flags.writeable = False
    return tuple(cols)


def alpha_dropout(v, rate, rng, train: bool, buf=_FRESH):
    """Alpha-dropout that preserves the self-normalizing regime.

    Dropped units are set to the SELU saturation value and the result is
    rescaled affinely so mean and variance are kept in expectation. In
    inference mode, or at rate 0, this is the identity.

    A stack ``v`` of shape ``(S, N, K)`` may take one rate per row, an
    ``(S,)`` array, with ``rng`` a sequence of S generators: row ``s`` draws
    its mask from ``rng[s]``, and nothing at rate 0, exactly as alone.

    Returns ``(out, dmult)`` where ``dmult`` is the elementwise multiplier
    to apply to an upstream gradient (all ones outside training), both
    taken from ``buf``.
    """
    v = np.asarray(v, dtype=np.float64)
    if not train:
        return v, None
    lead, width = v.shape[:-1], v.shape[-1:]
    if isinstance(rate, np.ndarray):
        rates = tuple(rate.tolist())
        coeffs = _alpha_rows(rates)
        if coeffs is None:
            return v, None
        keep, a, b = coeffs
        out, dmult = buf.arrays("dropout", lead, (width, width))
        for r, gen, row in zip(rates, rng, out):
            if r:
                gen.random(out=row)
            else:
                row.fill(0.0)  # keeps every unit
    else:
        if rate == 0.0:
            return v, None
        _check_rate(rate)
        keep = 1.0 - rate
        out, dmult = buf.arrays("dropout", lead, (width, width))
        rng.random(out=out)
        a, b = _alpha_affine(rate)
    # out holds the uniform draws until the mask is taken from them.
    (mask,) = buf("mask", lead, (width,), np.bool_)
    mask = np.less(out, keep, out=mask)
    np.copyto(out, _ALPHA_PRIME)
    np.copyto(out, v, where=mask)
    np.multiply(a, out, out=out)
    out += b
    np.multiply(a, mask, out=dmult)
    return out, dmult


def he_init(shape, fan_in: int, rng) -> np.ndarray:
    """Normal He initialization: i.i.d. N(0, 2/fan_in)."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def huber_loss(pred, target, buf=_FRESH):
    """Mean-reduced Huber loss: quadratic inside ``|e| <= HUBER_DELTA``,
    linear outside.

    The mean runs over the last axis: a float for a batch, one loss per row
    for a stack ``(S, B)``.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    e, quad, per = buf("huber_loss", pred.shape, ((), (), ()))
    (inner,) = buf("huber_loss.inner", pred.shape, ((),), np.bool_)
    e = np.subtract(pred, target, out=e)
    np.abs(e, out=e)
    quad = np.multiply(0.5, e, out=quad)
    quad *= e
    per = np.subtract(e, 0.5 * HUBER_DELTA, out=per)
    np.multiply(HUBER_DELTA, per, out=per)
    np.copyto(per, quad, where=np.less_equal(e, HUBER_DELTA, out=inner))
    loss = np.add.reduce(per, axis=-1) / per.shape[-1]  # np.mean, without its wrapper
    return loss if loss.ndim else float(loss)


def huber_grad(pred, target, buf=_FRESH) -> np.ndarray:
    """d(huber_loss)/d(pred), including the 1/n mean factor of each row."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    (g,) = buf("huber_grad", pred.shape, ((),))
    g = np.subtract(pred, target, out=g)
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
    ``out`` and the scratch ``tmp`` are the arrays written, or None.
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
    each activation in training mode only.

    Over a stack ``(S, n)`` the block holds S blocks: ``w1`` is
    ``(S, H, D)``, inputs are stacked too, ``(S, B, D)`` (a lone ``(B, D)``
    batch is rejected), ``dropout_rate`` may be one rate per row, and
    ``rng`` one generator per row. A stacked block does not raise on a
    non-finite output; its caller decides row by row.

    :meth:`forward` and :meth:`backward` take their arrays from ``buf``.
    Under a training loop's holder, a forward pass's output and cache, and a
    backward pass's input gradient, are overwritten by the next call of the
    same method under that holder; without one they are new arrays. Both
    passes take their float scratch from the holder's ``"scratch"`` site,
    which they share, and the backward pass its SELU masks from
    ``"masks"``: neither keeps them past its own return.
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
        # The trailing shapes of the arrays the passes write (see forward
        # and backward for their order).
        h, k = (hidden_dim,), (out_dim,)
        self._forward_widths, self._backward_widths = (h, h, k, k), (h, h, k)
        self._scratch_widths, self._in_width = (h, k), ((in_dim,),)

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

    def forward(self, x, train=False, rng=None, buf=_FRESH):
        """Run the block on a batch ``(B, D)``, or a stacked block on a
        stack ``(S, B, D)``; returns ``(out, cache)``.

        ``cache`` holds what :meth:`backward` needs. The output is
        ``(B, K)``, or ``(S, B, K)`` for a stacked block.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != self.w1.ndim or x.shape[-1] != self.in_dim:
            raise ValueError(f"input of shape {x.shape} is not a "
                             f"{'stack of batches' if self.w1.ndim > 2 else 'batch'}"
                             f" of width {self.in_dim}")
        rate = self.dropout_rate
        drop = train and bool(rate.any() if isinstance(rate, np.ndarray) else rate)
        if drop and rng is None:
            raise ValueError("training with dropout requires an rng")

        lead = x.shape[:-1]
        pre1, act1, pre2, a2 = buf("forward", lead, self._forward_widths)
        tmp1, tmp2 = buf("scratch", lead, self._scratch_widths)
        pre1, act1 = _dense(x, self._w1t, self._b1, pre1, act1, tmp1, False)
        dmul1 = None
        if drop:
            act1, dmul1 = alpha_dropout(act1, rate, rng, train, buf.scope("hidden"))
        pre2, a2 = _dense(act1, self._w2t, self._b2, pre2, a2, tmp2, self.tanh_out)
        out, dmul2 = a2, None
        if drop:
            out, dmul2 = alpha_dropout(a2, rate, rng, train, buf.scope("output"))
        if self.w1.ndim == 2:
            _check_finite(out)
        return out, (x, pre1, act1, dmul1, pre2, a2, dmul2)

    def backward(self, cache, dout, grad, need_dx=True, buf=_FRESH):
        """Backpropagate ``dout`` through the cached forward pass.

        Writes the weight gradient into ``grad``, a flat buffer laid out like
        the block's weights (``w1, b1, w2, b2``), and returns ``dx``, or None
        with ``need_dx=False`` (the input is data, not a parameter's output).
        """
        x, pre1, act1, dmul1, pre2, a2, dmul2 = cache
        gw1, gb1, gw2, gb2 = _split(grad, self.in_dim, self.w1.shape[-2],
                                    self.out_dim, self.b1 is not None)
        lead = pre1.shape[:-1]
        dact1, delta1, delta2 = buf("backward", lead, self._backward_widths)
        greater1, greater2 = buf("masks", lead, self._scratch_widths, np.bool_)
        if dmul2 is not None:
            _, tmp2 = buf("scratch", lead, self._scratch_widths)
            dout = np.multiply(dout, dmul2, out=tmp2)
        dact1 = _dense_backward(dout, act1, self.w2, pre2, a2, gw2, gb2, delta2, greater2,
                                self.tanh_out, True, dact1)
        if dmul1 is not None:
            dact1 *= dmul1
        (dx,) = buf("input_grad", lead, self._in_width) if need_dx else (None,)
        return _dense_backward(dact1, x, self.w1, pre1, act1, gw1, gb1, delta1, greater1,
                               False, need_dx, dx)


class _Bound:
    """A block's passes over arrays bound once: the input ``x`` (read at
    every pass, so its owner may rewrite it in place), the weight views,
    the gradient views into ``grad`` (laid out like the block's weights),
    and every array a pass writes, ``out`` and ``dx`` among them.

    Each pass runs the per-layer steps of :meth:`TwoLayerBlock.forward` and
    :meth:`~TwoLayerBlock.backward`, without dropout, input checks or
    holder lookups. ``x`` may carry the block's stack axis, ``(S, B, D)``;
    a single block raises :class:`NumericsError` on a non-finite output.
    """

    def __init__(self, block, x, grad):
        lead = x.shape[:-1]
        (h,), (k,) = block._scratch_widths
        pre1, act1, tmp1, delta1, dact1 = np.empty((5, *lead, h))
        pre2, self.out, tmp2, delta2 = np.empty((4, *lead, k))
        greater1, greater2 = np.empty((*lead, h), np.bool_), np.empty((*lead, k), np.bool_)
        self.dx = np.empty_like(x)
        gw1, gb1, gw2, gb2 = _split(grad, block.in_dim, h, k, block.b1 is not None)
        self._layers = ((x, block._w1t, block._b1, pre1, act1, tmp1, False),
                        (act1, block._w2t, block._b2, pre2, self.out, tmp2, block.tanh_out))
        self._dact1 = dact1
        self._back2 = (act1, block.w2, pre2, self.out, gw2, gb2, delta2, greater2,
                       block.tanh_out, True, dact1)
        self._back1 = (x, block.w1, pre1, act1, gw1, gb1, delta1, greater1, False)
        self._single = block.w1.ndim == 2

    def forward(self) -> None:
        """Run the block on ``x`` into ``out``."""
        first, second = self._layers
        _dense(*first)
        _dense(*second)
        if self._single:
            _check_finite(self.out)

    def backward(self, dout, need_dx=True) -> None:
        """Backpropagate ``dout`` through the last forward pass: the weight
        gradient into ``grad``'s views and, with ``need_dx``, dLoss/dx into
        ``dx``."""
        _dense_backward(dout, *self._back2)
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
        """Keep only the given rows of a stack: their moments, lr and decay;
        the scratch shrinks to its first rows."""
        self.m, self.v, self.lr, self.weight_decay = (
            x[rows] for x in (self.m, self.v, self.lr, self.weight_decay))
        self._tmp, self._step = self._tmp[: len(rows)], self._step[: len(rows)]
