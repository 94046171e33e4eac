"""Cached block passes, kept as test-only references.

Before training bound its arrays, a block's generic forward pass allocated
every array it wrote and returned, beside its output, the cache its backward
pass read; the runtime path ran over those passes and assembled ``z``'s input
with one gather and one concatenation. This module keeps that arithmetic,
alpha-dropout's included, written over plain numpy and the public
activations. Bound passes and the cache-free inference pass must match it
bit for bit.
"""

import numpy as np

from jobcast.errors import NumericsError
from jobcast.model import CODE_DIM
from jobcast.nn import SELU_ALPHA, SELU_LAMBDA, _split, selu, selu_deriv

_ALPHA_PRIME = -SELU_LAMBDA * SELU_ALPHA


def _alpha_affine(rate):
    keep = 1.0 - rate
    a = (keep + _ALPHA_PRIME**2 * keep * rate) ** -0.5
    return a, -a * rate * _ALPHA_PRIME


def alpha_dropout(v, rate, rng, train):
    """``(out, dmult)`` of alpha-dropout of ``v``, allocating both; ``v``
    and None in inference or where no row drops.

    A stack ``(S, N, K)`` takes one rate per row, with one generator per
    row: row ``s`` draws its uniforms from ``rng[s]``, and nothing at rate
    0. A unit is kept where its draw is below ``1 - rate``; a dropped unit
    is set to SELU's saturation value, and the result is rescaled to
    ``a * out + b``. ``dmult`` is ``a`` where a unit is kept, else 0.
    """
    v = np.asarray(v, dtype=np.float64)
    if not train or not np.any(rate):
        return v, None
    if isinstance(rate, np.ndarray):
        rates = rate.tolist()
        if not all(0.0 <= r < 1.0 for r in rates):
            raise ValueError(f"dropout rate must be in [0, 1), got {rates}")
        keep, a, b = (np.array(c)[:, None, None] for c in
                      ([1.0 - r for r in rates], *zip(*map(_alpha_affine, rates))))
        draws = np.empty(v.shape)
        for r, gen, row in zip(rates, rng, draws):
            if r:
                gen.random(out=row)
            else:
                row.fill(0.0)  # keeps every unit
    else:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        keep, (a, b) = 1.0 - rate, _alpha_affine(rate)
        draws = rng.random(v.shape)
    mask = draws < keep
    out = np.where(mask, v, _ALPHA_PRIME)
    out = a * out
    out += b
    return out, a * mask


def _layer(x, wt, b, tanh):
    pre = np.matmul(x, wt)
    if b is not None:
        pre += b
    return pre, (np.tanh(pre) if tanh else selu(pre))


def _layer_backward(dout, x, w, pre, out, gw, gb, tanh, need_dx):
    delta = 1.0 - out * out if tanh else selu_deriv(pre)
    delta *= dout
    np.matmul(delta.swapaxes(-1, -2), x, out=gw)
    if gb is not None:
        np.add.reduce(delta, axis=-2, out=gb)
    return np.matmul(delta, w) if need_dx else None


def forward(block, x, train=False, rng=None):
    """``(out, cache)`` of ``block`` on ``x``; in training, alpha-dropout
    after each activation, drawing from ``rng`` (one generator per row of
    a stack)."""
    x = np.asarray(x, dtype=np.float64)
    rate = block.dropout_rate
    pre1, act1 = _layer(x, block._w1t, block._b1, False)
    act1, dmul1 = alpha_dropout(act1, rate, rng, train)
    pre2, a2 = _layer(act1, block._w2t, block._b2, block.tanh_out)
    out, dmul2 = alpha_dropout(a2, rate, rng, train)
    if block.w1.ndim == 2 and not np.isfinite(out).all():
        raise NumericsError("two-layer block produced a non-finite output")
    return out, (x, pre1, act1, dmul1, pre2, a2, dmul2)


def backward(block, cache, dout, grad, need_dx=True):
    """Backpropagate ``dout`` through a cached pass: the weight gradient
    into ``grad`` (laid out like the block's weights), and dLoss/dx."""
    x, pre1, act1, dmul1, pre2, a2, dmul2 = cache
    gw1, gb1, gw2, gb2 = _split(grad, block.in_dim, block.w1.shape[-2], block.out_dim,
                                block.b1 is not None)
    if dmul2 is not None:
        dout = dout * dmul2
    dact1 = _layer_backward(dout, act1, block.w2, pre2, a2, gw2, gb2, block.tanh_out,
                            True)
    if dmul1 is not None:
        dact1 *= dmul1
    return _layer_backward(dact1, x, block.w1, pre1, act1, gw1, gb1, False, need_dx)


def assemble(schema, e, codes, ess_rows, opt_weights):
    """``z``'s input: one gather of the essential codes, then one
    concatenation."""
    lead = e.shape[:-1]
    ess = codes.reshape(-1, CODE_DIM).take(ess_rows, axis=0)
    pooled = np.matmul(opt_weights, codes)
    return np.concatenate(
        (e, ess.reshape(*lead, schema.essential_count * CODE_DIM), pooled), axis=-1)


def forward_batch(state, batch):
    """The runtime path in inference mode, over the cached passes."""
    e, _ = forward(state.f, batch.sfeat)
    codes, _ = forward(state.g, batch.pvecs)
    r = assemble(state.schema, e, codes, batch.ess_rows, batch.opt_weights)
    return forward(state.z, r)[0][..., 0]
