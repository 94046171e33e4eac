"""Minimal dense-vector neural network core.

Everything here operates on float64 numpy arrays and is sized for the tiny
two-layer blocks this package needs: explicit forward/backward passes, SELU
and tanh activations, alpha-dropout, He initialization, Huber/MSE losses,
and an Adam optimizer with decoupled weight decay. Inputs may be a single
vector ``(D,)`` or a batch ``(B, D)``.

A block's weights are views into one flat buffer laid out ``w1, b1, w2, b2``;
its backward pass writes gradients in that layout, and Adam updates one flat
parameter vector cut into named segments.

Everything also runs on a stack of S independent models, one per row of an
``(S, n)`` parameter matrix: weights, batches and gradients gain a leading
stack axis, reductions run per row, and dropout and Adam take one rate,
learning rate and weight decay per row. The arithmetic of each row is the
unstacked arithmetic, so a row computes what it would compute alone.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NumericsError, TrainingError

# Self-normalizing activation constants (Klambauer et al. 2017).
SELU_ALPHA = 1.6732632423543772848170429916717
SELU_LAMBDA = 1.0507009873554804934193349852946

# Value dropped units are set to under alpha-dropout: the negative
# saturation point of SELU.
_ALPHA_PRIME = -SELU_LAMBDA * SELU_ALPHA

ACTIVATIONS = ("identity", "selu", "tanh")


def selu(x):
    """SELU applied elementwise; scalar in, scalar out."""
    x = np.asarray(x, dtype=np.float64)
    return SELU_LAMBDA * np.where(x > 0, x, SELU_ALPHA * np.expm1(np.minimum(x, 0.0)))


def tanh(x):
    return np.tanh(np.asarray(x, dtype=np.float64))


def activate(name: str, x):
    if name == "identity":
        return np.asarray(x, dtype=np.float64)
    if name == "selu":
        return selu(x)
    if name == "tanh":
        return tanh(x)
    raise ValueError(f"unknown activation {name!r}")


def activate_deriv(name: str, x):
    """Derivative of the activation evaluated at pre-activation ``x``."""
    x = np.asarray(x, dtype=np.float64)
    if name == "identity":
        return np.ones_like(x)
    if name == "selu":
        return SELU_LAMBDA * np.where(
            x > 0, 1.0, SELU_ALPHA * np.exp(np.minimum(x, 0.0))
        )
    if name == "tanh":
        t = np.tanh(x)
        return 1.0 - t * t
    raise ValueError(f"unknown activation {name!r}")


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


def alpha_dropout(v, rate, rng, train: bool):
    """Alpha-dropout that preserves the self-normalizing regime.

    Dropped units are set to the SELU saturation value and the result is
    rescaled affinely so mean and variance are kept in expectation. In
    inference mode, or at rate 0, this is the identity.

    A stack ``v`` of shape ``(S, N, K)`` may take one rate per row, an
    ``(S,)`` array, with ``rng`` a sequence of S generators: row ``s`` draws
    its mask from ``rng[s]``, and nothing at rate 0, exactly as alone.

    Returns ``(out, dmult)`` where ``dmult`` is the elementwise multiplier
    to apply to an upstream gradient (all ones outside training).
    """
    v = np.asarray(v, dtype=np.float64)
    if not train:
        return v, None
    if isinstance(rate, np.ndarray):
        rates = tuple(rate.tolist())
        coeffs = _alpha_rows(rates)
        if coeffs is None:
            return v, None
        keep, a, b = coeffs
        u = np.empty(v.shape)
        for r, gen, row in zip(rates, rng, u):
            if r:
                gen.random(out=row)
            else:
                row.fill(0.0)  # keeps every unit
    else:
        if rate == 0.0:
            return v, None
        _check_rate(rate)
        keep = 1.0 - rate
        u = rng.random(v.shape)
        a, b = _alpha_affine(rate)
    mask = u < keep
    out = a * np.where(mask, v, _ALPHA_PRIME) + b
    return out, a * mask


def he_init(shape, fan_in: int, rng) -> np.ndarray:
    """Normal He initialization: i.i.d. N(0, 2/fan_in)."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def mse_loss(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.mean(d * d))


def huber_loss(pred, target, delta: float = 1.0):
    """Mean-reduced Huber loss: quadratic inside ``|e| <= delta``, linear outside.

    The mean runs over the last axis: a float for a batch, one loss per row
    for a stack ``(S, B)``.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    e = np.abs(pred - target)
    per = np.where(e <= delta, 0.5 * e * e, delta * (e - 0.5 * delta))
    loss = np.add.reduce(per, axis=-1) / per.shape[-1]  # np.mean, without its wrapper
    return loss if loss.ndim else float(loss)


def huber_grad(pred, target, delta: float = 1.0) -> np.ndarray:
    """d(huber_loss)/d(pred), including the 1/n mean factor of each row."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    e = pred - target
    return np.minimum(np.maximum(e, -delta), delta) / e.shape[-1]  # np.clip, faster


class TwoLayerBlock:
    """A two-layer feed-forward block: ``out = sigma(W2 @ phi(W1 @ x + b1) + b2)``.

    Alpha-dropout (when ``dropout_rate > 0``) is applied after each
    activation in training mode only. Biases exist only when the block was
    built with ``bias=True``. :meth:`over` cuts the four arrays out of one
    flat buffer, so their shapes agree by construction; the constructor
    takes arrays as given.

    Over a stack ``(S, n)`` the block holds S blocks: ``w1`` is
    ``(S, H, D)``, inputs are ``(S, B, D)`` or one ``(B, D)`` batch shared by
    every row, ``dropout_rate`` may be one rate per row, and ``rng`` one
    generator per row. A stacked block does not raise on a non-finite
    output; its caller decides row by row.
    """

    def __init__(self, w1, b1, w2, b2, phi="selu", sigma="selu", dropout_rate=0.0):
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b1 = None if b1 is None else np.asarray(b1, dtype=np.float64)
        self.b2 = None if b2 is None else np.asarray(b2, dtype=np.float64)
        self.phi = phi
        self.sigma = sigma
        self.dropout_rate = (np.asarray(dropout_rate, dtype=np.float64)
                             if np.ndim(dropout_rate) else float(dropout_rate))

    @staticmethod
    def size(in_dim, hidden_dim, out_dim, bias=True) -> int:
        """Number of weights in a block of these dimensions."""
        return hidden_dim * (in_dim + out_dim) + (hidden_dim + out_dim if bias else 0)

    @classmethod
    def over(cls, flat, in_dim, hidden_dim, out_dim, bias=True, **kwargs):
        """Block whose weights are views into ``flat``: one buffer, or a stack ``(S, n)``."""
        w1, b1, w2, b2 = _split(flat, in_dim, hidden_dim, out_dim, bias)
        return cls(w1, b1, w2, b2, **kwargs)

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

    def forward(self, x, train=False, rng=None):
        """Run the block; returns ``(out, cache)``.

        ``cache`` holds what :meth:`backward` needs. Output layout follows
        the input: ``(D,) -> (K,)``, ``(B, D) -> (B, K)``, and ``(S, B, K)``
        for a stacked block.
        """
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        xb = x[None, :] if single else x
        if xb.shape[-1] != self.in_dim:
            raise ValueError(
                f"input width {xb.shape[-1]} does not match block input {self.in_dim}"
            )
        if train and rng is None and np.any(self.dropout_rate):
            raise ValueError("training with dropout requires an rng")

        pre1 = xb @ self.w1.swapaxes(-1, -2)
        if self.b1 is not None:
            pre1 = pre1 + self.b1[..., None, :]
        act1 = activate(self.phi, pre1)
        act1, dmul1 = alpha_dropout(act1, self.dropout_rate, rng, train)

        pre2 = act1 @ self.w2.swapaxes(-1, -2)
        if self.b2 is not None:
            pre2 = pre2 + self.b2[..., None, :]
        out = activate(self.sigma, pre2)
        out, dmul2 = alpha_dropout(out, self.dropout_rate, rng, train)

        if self.w1.ndim == 2 and not np.all(np.isfinite(out)):
            raise NumericsError("two-layer block produced a non-finite output")
        cache = (xb, pre1, act1, dmul1, pre2, dmul2, single)
        return (out[0] if single else out), cache

    def backward(self, cache, dout, grad, need_dx=True):
        """Backpropagate ``dout`` through the cached forward pass.

        Writes the weight gradient into ``grad``, a flat buffer laid out like
        the block's weights (``w1, b1, w2, b2``), and returns ``dx``, or None
        with ``need_dx=False`` (the input is data, not a parameter's output).
        """
        xb, pre1, act1, dmul1, pre2, dmul2, single = cache
        gw1, gb1, gw2, gb2 = _split(grad, self.in_dim, self.w1.shape[-2],
                                    self.out_dim, self.b1 is not None)
        d = np.asarray(dout, dtype=np.float64)
        if single:
            d = d[None, :]
        if dmul2 is not None:
            d = d * dmul2
        delta2 = d * activate_deriv(self.sigma, pre2)
        np.matmul(delta2.swapaxes(-1, -2), act1, out=gw2)
        if gb2 is not None:
            delta2.sum(axis=-2, out=gb2)
        dact1 = delta2 @ self.w2
        if dmul1 is not None:
            dact1 = dact1 * dmul1
        delta1 = dact1 * activate_deriv(self.phi, pre1)
        np.matmul(delta1.swapaxes(-1, -2), xb, out=gw1)
        if gb1 is not None:
            delta1.sum(axis=-2, out=gb1)
        if not need_dx:
            return None
        dx = delta1 @ self.w1
        return dx[0] if single else dx


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
    """Adam with decoupled weight decay over one flat parameter vector.

    ``segments`` maps names (e.g. model components) to slices of the vector.
    Moments are two flat buffers; each segment has its own step counter, so
    a segment that joins late (after an unfreeze) starts with fresh moments.
    A step makes one vectorized update per run of adjacent live segments
    that share a step count, and never touches frozen ones. ``name_of``
    names the parameter at a vector index in non-finite gradient errors.

    For a stack of S parameter rows, ``(S, n)``, ``lr`` and ``weight_decay``
    are ``(S, 1)`` columns, one value per row, and the moments are ``(S, n)``;
    every row steps together.
    """

    def __init__(self, lr, segments: dict, name_of, weight_decay=0.0, beta1=0.9,
                 beta2=0.999, eps=1e-8):
        self.lr = lr if np.ndim(lr) else float(lr)
        self.weight_decay = weight_decay if np.ndim(weight_decay) else float(weight_decay)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.segments = dict(segments)
        size = max(s.stop for s in self.segments.values())
        self.m, self.v = np.zeros((2, *np.shape(lr)[:-1], size))
        self.steps = {name: 0 for name in self.segments}
        self.name_of = name_of

    def step(self, params, grads, live) -> None:
        """Update the ``live`` segments of the flat ``params`` from ``grads``.

        A non-finite live gradient raises :class:`TrainingError` before any update.
        """
        runs = []  # [start, stop, steps taken so far]
        for name, sl in self.segments.items():
            if name in live:
                t = self.steps[name]
                if runs and runs[-1][1:] == [sl.start, t]:
                    runs[-1][1] = sl.stop
                else:
                    runs.append([sl.start, sl.stop, t])
        for lo, hi, _ in runs:
            finite = np.isfinite(grads[..., lo:hi])
            if not finite.all():
                bad = lo + int(np.nonzero(~finite)[-1][0])
                raise TrainingError(
                    f"non-finite gradient for parameter {self.name_of(bad)!r}")
        for name in live:
            self.steps[name] += 1
        for lo, hi, t in runs:
            t += 1
            p, g = params[..., lo:hi], grads[..., lo:hi]
            m, v = self.m[..., lo:hi], self.v[..., lo:hi]
            # p -= lr * (mhat / (sqrt(vhat) + eps) + wd * p), in two buffers
            tmp = (1.0 - self.beta1) * g
            m *= self.beta1
            m += tmp
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - self.beta2
            v *= self.beta2
            v += tmp
            step = m / (1.0 - self.beta1**t)  # mhat
            np.divide(v, 1.0 - self.beta2**t, out=tmp)  # vhat
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            step /= tmp
            np.multiply(self.weight_decay, p, out=tmp)
            step += tmp
            step *= self.lr
            p -= step

    def keep_rows(self, rows) -> None:
        """Keep only the given rows of a stack: their moments, lr and decay."""
        self.m, self.v, self.lr, self.weight_decay = (
            x[rows] for x in (self.m, self.v, self.lr, self.weight_decay))
