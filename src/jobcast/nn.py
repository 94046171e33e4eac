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
out. After the first step such a step allocates nothing large. Adam owns
the scratch of its update beside its moments.
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
    arena of its own, which grows to the largest request, so the short last
    minibatch of an epoch, or a stack after rows left it, reuses the
    arenas of the first step. The views are kept per ``(site, lead)``: the
    same request returns the same arrays, overwriting what the last one
    wrote. ``buf.arrays`` is the same call, for a site that fills its
    arrays in place (see :class:`_Fresh`). ``scope(name)`` is a holder of
    its own for one block's sites.

    ``scratch(lead, widths)`` gives arrays in the same way, all over one
    arena that the holder shares with its scopes: an operation uses them
    one at a time, and never across a call to another.
    """

    def __init__(self, scratch=None):
        self._arenas: dict = {}
        self._views: dict = {}
        self._scopes: dict = {}
        self.scratch = scratch or _Scratch()

    def __call__(self, site, lead, widths, dtype=np.float64):
        views = self._views.get((site, lead))
        if views is None:
            views = self._views[site, lead] = self._carve(site, lead, widths, dtype)
        return views

    def _carve(self, site, lead, widths, dtype):
        views = []
        for i, w in enumerate(widths):
            shape = lead + w
            size = math.prod(shape)
            arena = self._arenas.get((site, i))
            if arena is None or arena.size < size:
                arena = self._arenas[site, i] = np.empty(size, dtype)
                # Views into the old arena would keep it alive.
                for key in [k for k in self._views if k[0] == site]:
                    del self._views[key]
            views.append(arena[:size].reshape(shape))
        return tuple(views)

    arrays = __call__

    def scope(self, name):
        child = self._scopes.get(name)
        if child is None:
            child = self._scopes[name] = _Buffers(self.scratch)
        return child


class _Scratch:
    """The scratch arena that a holder and its scopes share (see
    :class:`_Buffers`). It refers to no holder, so that a holder is freed
    as soon as its loop lets it go."""

    def __init__(self):
        self._arena = np.empty(0)
        self._views: dict = {}

    def __call__(self, lead, widths):
        views = self._views.get((widths, lead))
        if views is None:
            sizes = [math.prod(lead + w) for w in widths]
            if self._arena.size < max(sizes):
                self._arena = np.empty(max(sizes))
                self._views.clear()
            views = self._views[widths, lead] = tuple(
                self._arena[:size].reshape(lead + w) for size, w in zip(sizes, widths))
        return views


class _Fresh:
    """The holder of every call that passes none, where nothing a caller
    receives may be written again.

    ``buf(...)`` gives ``None`` for every array, so numpy allocates each
    output (its ``out=None``); ``buf.arrays(...)`` gives new arrays, for a
    site that fills them in place.
    """

    def __call__(self, site, lead, widths, dtype=np.float64):
        return (None,) * len(widths)

    def scratch(self, lead, widths):
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
    x = np.asarray(x, dtype=np.float64)
    y = np.minimum(x, 0.0, out=out)
    np.expm1(y, out=y)
    y *= SELU_ALPHA
    y += np.maximum(x, -0.0, out=tmp)
    y *= SELU_LAMBDA
    return y


# alpha + (1 - alpha) is exactly 1.0, and 1 - alpha is exact (Sterbenz).
_SELU_STEP = 1.0 - SELU_ALPHA


def selu_deriv(x, out=None, tmp=None):
    """Derivative of SELU at the pre-activation array ``x``, into ``out``
    when given, with ``tmp`` as scratch.

    ``lambda * (alpha * exp(min(x, 0)) + [x > 0] * (1 - alpha))``: the
    bracket turns ``alpha * exp(0)`` into exactly 1.0 for ``x > 0`` and adds
    -0.0 elsewhere, as :func:`selu` does.
    """
    d = np.minimum(x, 0.0, out=out)
    np.exp(d, out=d)
    d *= SELU_ALPHA
    d += np.multiply(np.greater(x, 0, out=tmp), _SELU_STEP, out=tmp)
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
    # np.clip, faster
    np.minimum(np.maximum(g, -HUBER_DELTA, out=g), HUBER_DELTA, out=g)
    g /= g.shape[-1]
    return g


class TwoLayerBlock:
    """A two-layer feed-forward block: ``out = sigma(W2 @ selu(W1 @ x + b1) + b2)``,
    where ``sigma`` is SELU, or tanh with ``tanh_out=True`` (the decoder's).

    The weights are views into one flat buffer, laid out ``w1, b1, w2, b2``,
    so their shapes agree by construction; biases exist only with
    ``bias=True``. Alpha-dropout (when ``dropout_rate > 0``) is applied after
    each activation in training mode only.

    Over a stack ``(S, n)`` the block holds S blocks: ``w1`` is
    ``(S, H, D)``, inputs are ``(S, B, D)`` or one ``(B, D)`` batch shared by
    every row, ``dropout_rate`` may be one rate per row, and ``rng`` one
    generator per row. A stacked block does not raise on a non-finite
    output; its caller decides row by row.

    :meth:`forward` and :meth:`backward` take their arrays from ``buf``.
    Under a training loop's holder, a forward pass's output and cache, and a
    backward pass's input gradient, are overwritten by the next call of the
    same method under that holder; without one they are new arrays.
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
        """Run the block on a batch ``(B, D)``; returns ``(out, cache)``.

        ``cache`` holds what :meth:`backward` needs. The output is
        ``(B, K)``, or ``(S, B, K)`` for a stacked block.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim < 2 or x.shape[-1] != self.in_dim:
            raise ValueError(f"input of shape {x.shape} is not a batch of "
                             f"width {self.in_dim}")
        rate = self.dropout_rate
        drop = train and bool(rate.any() if isinstance(rate, np.ndarray) else rate)
        if drop and rng is None:
            raise ValueError("training with dropout requires an rng")

        lead = x.shape[:-1]
        if len(lead) < self.w1.ndim - 1:  # one batch shared by every row
            lead = self.w1.shape[:-2] + lead
        pre1, act1, pre2, a2 = buf("forward", lead, self._forward_widths)
        tmp1, tmp2 = buf.scratch(lead, self._scratch_widths)
        pre1 = np.matmul(x, self._w1t, out=pre1)
        if self._b1 is not None:
            pre1 += self._b1
        act1 = selu(pre1, act1, tmp1)
        dmul1 = None
        if drop:
            act1, dmul1 = alpha_dropout(act1, rate, rng, train, buf.scope("hidden"))

        pre2 = np.matmul(act1, self._w2t, out=pre2)
        if self._b2 is not None:
            pre2 += self._b2
        a2 = np.tanh(pre2, out=a2) if self.tanh_out else selu(pre2, a2, tmp2)
        out, dmul2 = a2, None
        if drop:
            out, dmul2 = alpha_dropout(a2, rate, rng, train, buf.scope("output"))

        if self.w1.ndim == 2 and not np.isfinite(out).all():
            raise NumericsError("two-layer block produced a non-finite output")
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
        tmp1, tmp2 = buf.scratch(lead, self._scratch_widths)
        if self.tanh_out:
            delta2 = np.multiply(a2, a2, out=delta2)
            np.subtract(1.0, delta2, out=delta2)
        else:
            delta2 = selu_deriv(pre2, delta2, tmp2)
        if dmul2 is not None:  # tmp2 is free again once delta2 is in
            dout = np.multiply(dout, dmul2, out=tmp2)
        delta2 *= dout
        np.matmul(delta2.swapaxes(-1, -2), act1, out=gw2)
        if gb2 is not None:
            delta2.sum(axis=-2, out=gb2)
        dact1 = np.matmul(delta2, self.w2, out=dact1)
        if dmul1 is not None:
            dact1 *= dmul1
        delta1 = selu_deriv(pre1, delta1, tmp1)
        delta1 *= dact1
        np.matmul(delta1.swapaxes(-1, -2), x, out=gw1)
        if gb1 is not None:
            delta1.sum(axis=-2, out=gb1)
        if not need_dx:
            return None
        (dx,) = buf("input_grad", lead, self._in_width)
        return np.matmul(delta1, self.w1, out=dx)


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
