"""The four-block runtime model and its serialization.

Block ``f`` embeds the normalized scale-out features, the autoencoder pair
``g``/``h`` compresses property vectors into 4-dimensional codes and
reconstructs them, and ``z`` maps the concatenation of the scale-out
embedding, the essential codes (in schema order), and the mean of the
optional codes onto a runtime in seconds. Training minimizes Huber runtime
error plus the autoencoder's reconstruction MSE.

One batched path serves training and inference: :func:`encode_batch`
encodes records once, with property vectors deduplicated, and
:func:`forward_batch` runs the blocks over the whole batch.
:func:`predict_batch` scores one property set at many scale-outs in one
such pass, without the decoder ``h``; :func:`predict` is a batch of one.
Training may run the same path over a stack of models (see :class:`ModelState`).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import encoding
from .encoding import Normalizer, PropertyValue, encode_property
from .errors import ModelFileError, NumericsError, SchemaError
from .nn import ACTIVATIONS, TwoLayerBlock, huber_grad, huber_loss

SCALE_FEATURES = 3
F_HIDDEN = 16
F_DIM = 8  # scale-out embedding width
AE_HIDDEN = 8
CODE_DIM = 4  # property code width
Z_HIDDEN = 8

COMPONENTS = ("f", "g", "h", "z")

_MAGIC = b"JCMODEL\x00"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class PropertySchema:
    """Ordered property names and kinds; order is part of the model."""

    essential: tuple[tuple[str, str], ...]  # (name, kind), kind in natural|text
    optional: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        names = [n for n, _ in self.essential + self.optional]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate property names in schema: {names}")
        if not self.essential:
            raise SchemaError("schema needs at least one essential property")
        for name, kind in self.essential + self.optional:
            if kind not in ("natural", "text"):
                raise SchemaError(f"property {name!r} has unknown kind {kind!r}")

    @property
    def essential_count(self) -> int:
        return len(self.essential)

    @property
    def combined_width(self) -> int:
        """Input width of ``z``: embedding + essential codes + pooled optional."""
        return F_DIM + (self.essential_count + 1) * CODE_DIM

    def check_properties(self, props: dict, where: str = "input") -> None:
        kinds = dict(self.essential + self.optional)
        for name, value in props.items():
            if name not in kinds:
                raise SchemaError(f"{where}: property {name!r} not in schema")
            if value.kind != kinds[name]:
                raise SchemaError(
                    f"{where}: property {name!r} is {value.kind}, schema says {kinds[name]}"
                )
        for name, _ in self.essential:
            if name not in props:
                raise SchemaError(f"{where}: essential property {name!r} missing")


_ACTIVATIONS = {c: ("selu", "tanh" if c == "h" else "selu") for c in COMPONENTS}


def _block_dims(schema: PropertySchema) -> dict:
    """``component -> (in, hidden, out, bias)``, in vector order."""
    return {
        "f": (SCALE_FEATURES, F_HIDDEN, F_DIM, True),
        "g": (encoding.VECTOR_SIZE, AE_HIDDEN, CODE_DIM, False),
        "h": (CODE_DIM, AE_HIDDEN, encoding.VECTOR_SIZE, False),
        "z": (schema.combined_width, Z_HIDDEN, 1, True),
    }


def _weight_count(schema: PropertySchema) -> int:
    return sum(TwoLayerBlock.size(*d) for d in _block_dims(schema).values())


class ModelState:
    """All weights in one flat vector, plus the normalization bounds and the schema.

    ``vector`` holds every weight, float64, in ``_WEIGHT_ORDER``; the blocks
    ``f``, ``g``, ``h``, ``z`` are views into it and ``segments[c]`` is the
    slice component ``c`` owns. Copies, snapshots, optimizer steps and
    serialization each work on the whole vector at once.

    A stacked state holds S models as the rows of an ``(S, n)`` matrix, with
    stacked block views (see :class:`~jobcast.nn.TwoLayerBlock`) and, per
    component, one dropout rate or one per row. Pre-training trains a stack;
    :meth:`take` copies rows out of it. Only single states are saved.
    """

    def __init__(self, vector, normalizer, schema, activations=None,
                 dropout=None):
        count = _weight_count(schema)
        if (vector.dtype != np.float64 or vector.ndim not in (1, 2)
                or vector.shape[-1] != count or not vector.flags.c_contiguous):
            raise SchemaError(f"weight vector is {vector.dtype}{list(vector.shape)}, "
                              f"schema requires a contiguous float64[{count}] "
                              f"or a stack of them")
        self.vector = vector
        self.normalizer = normalizer
        self.schema = schema
        activations, dropout = activations or _ACTIVATIONS, dropout or {}
        self.segments, pos = {}, 0
        for c, dims in _block_dims(schema).items():
            self.segments[c] = sl = slice(pos, pos + TwoLayerBlock.size(*dims))
            phi, sigma = activations[c]
            setattr(self, c, TwoLayerBlock.over(vector[..., sl], *dims, phi=phi, sigma=sigma,
                                                dropout_rate=dropout.get(c, 0.0)))
            pos = sl.stop

    @classmethod
    def new(cls, schema: PropertySchema, normalizer: Normalizer, rng,
            dropout_rate: float = 0.0) -> "ModelState":
        """Fresh He-initialized state, drawn block by block in vector order.

        ``dropout_rate`` lands on the autoencoder blocks only; the
        scale-out block and the predictor never use dropout. ``g`` and
        ``h`` carry no biases, and the decoder's final activation is tanh
        to match the range of the property vectors.
        """
        state = cls(np.zeros(_weight_count(schema)), normalizer, schema,
                    dropout={"g": dropout_rate, "h": dropout_rate})
        for c in COMPONENTS:
            state.reset(c, rng)
        return state

    def copy(self) -> "ModelState":
        return ModelState(self.vector.copy(), self.normalizer, self.schema,
                          *self._block_settings())

    def take(self, rows) -> "ModelState":
        """A copy of some rows of a stacked state; an int row gives a single state."""
        activations, dropout = self._block_settings()
        return ModelState(self.vector[rows].copy(), self.normalizer, self.schema,
                          activations,
                          {c: d[rows] if np.ndim(d) else d for c, d in dropout.items()})

    def __reduce__(self):
        # Pickle the vector once; unpickling rebuilds the block views into it.
        return ModelState, (self.vector, self.normalizer, self.schema,
                            *self._block_settings())

    def blocks(self) -> dict:
        return {c: getattr(self, c) for c in COMPONENTS}

    def _block_settings(self) -> tuple[dict, dict]:
        """``(activations, dropout)`` per component, as the blocks hold them."""
        blocks = self.blocks().items()
        return ({c: (b.phi, b.sigma) for c, b in blocks},
                {c: b.dropout_rate for c, b in blocks})

    def param_name(self, index: int) -> str:
        """Name in ``_WEIGHT_ORDER`` of the array holding ``vector[..., index]``."""
        rows = self.vector.size // self.vector.shape[-1]  # S for a stack, else 1
        stops = np.cumsum([getattr(getattr(self, n[0]), n[2:]).size // rows
                           for n in _WEIGHT_ORDER])
        return _WEIGHT_ORDER[int(np.searchsorted(stops, index, side="right"))]

    def reset(self, component: str, rng) -> None:
        """Re-run He initialization for one component, in its slice of the vector."""
        getattr(self, component).init(rng)

    def fingerprint(self) -> str:
        """Hex content hash; changes iff weights, bounds, or schema change."""
        return hashlib.sha256(serialize(self)).hexdigest()


@dataclass
class Prediction:
    """Model output for one input configuration."""

    runtime_seconds: float
    negative_output: bool = False


@dataclass
class EncodedBatch:
    """Records encoded once, with property vectors deduplicated.

    ``pvecs`` holds the unique property vectors; the index arrays say which
    rows each record uses. ``usage`` counts, per record and unique vector,
    how many of the record's properties map onto that vector, which weights
    the reconstruction loss by actual occurrences.

    A stacked batch gives each row of a model stack its own records: every
    per-record array gains a leading ``S`` axis, ``pvecs`` stays shared, and
    ``ess_rows`` of row ``s`` are offset by ``s * U``, so they index all rows'
    codes flattened to ``(S * U, CODE_DIM)``.
    """

    sfeat: np.ndarray  # (B, 3) normalized scale-out features
    pvecs: np.ndarray  # (U, 40)
    ess_rows: np.ndarray  # (B, m) int
    opt_weights: np.ndarray  # (B, U) mean-pooling weights for optional codes
    usage: np.ndarray  # (B, U) occurrence counts
    runtimes: np.ndarray | None  # (B,)


def encode_batch(schema: PropertySchema, normalizer: Normalizer, records,
                 with_runtimes=True) -> EncodedBatch:
    records = list(records)
    b = len(records)
    m = schema.essential_count
    sfeat = np.empty((b, SCALE_FEATURES))
    rows: dict[PropertyValue, int] = {}
    vecs: list[np.ndarray] = []
    ess_rows = np.empty((b, m), dtype=np.intp)
    opt_records: list[int] = []  # one entry per optional property present
    opt_rows: list[int] = []

    def row_of(value: PropertyValue) -> int:
        if value not in rows:
            rows[value] = len(vecs)
            vecs.append(encode_property(value))
        return rows[value]

    for i, r in enumerate(records):
        schema.check_properties(r.properties, where=f"record {i}")
        sfeat[i] = normalizer.transform(r.scale_out)
        for j, (name, _) in enumerate(schema.essential):
            ess_rows[i, j] = row_of(r.properties[name])
        hits = [row_of(r.properties[name])
                for name, _ in schema.optional if name in r.properties]
        opt_records += [i] * len(hits)
        opt_rows += hits

    pvecs = np.stack(vecs) if vecs else np.zeros((0, encoding.VECTOR_SIZE))
    u = pvecs.shape[0]
    # add.at accumulates repeated cells one addend at a time, in hit order,
    # so a vector shared by several optional properties sums as a loop would.
    opt_cells = (np.array(opt_records, dtype=np.intp), np.array(opt_rows, dtype=np.intp))
    opt_counts = np.bincount(opt_cells[0], minlength=b)
    opt_weights = np.zeros((b, u))
    np.add.at(opt_weights, opt_cells, 1.0 / opt_counts[opt_cells[0]])
    usage = np.zeros((b, u))
    np.add.at(usage, (np.arange(b).repeat(m), ess_rows.ravel()), 1.0)
    np.add.at(usage, opt_cells, 1.0)
    runtimes = None
    if with_runtimes:
        runtimes = np.array([r.runtime_seconds for r in records], dtype=np.float64)
    return EncodedBatch(sfeat, pvecs, ess_rows, opt_weights, usage, runtimes)


def _assemble(schema, e, codes, ess_rows, opt_weights):
    """``z``'s input: embedding, essential codes, pooled optional codes.

    ``ess_rows`` index ``codes`` flattened to ``(-1, CODE_DIM)``, which for a
    stack is all rows' codes one after another (see ``EncodedBatch``).
    """
    lead = e.shape[:-1]
    m = schema.essential_count
    r = np.empty((*lead, schema.combined_width))
    r[..., :F_DIM] = e
    r[..., F_DIM : F_DIM + m * CODE_DIM] = \
        codes.reshape(-1, CODE_DIM)[ess_rows].reshape(*lead, m * CODE_DIM)
    r[..., F_DIM + m * CODE_DIM :] = opt_weights @ codes
    return r


def forward_batch(state: ModelState, batch: EncodedBatch, train=False, rng=None,
                  need_recon=True, cached_codes=None, cached_e=None):
    """Full forward pass over an encoded batch.

    Returns ``(outputs, detail)`` where ``detail`` carries intermediate
    values and caches for :func:`backward_batch`. ``cached_codes`` /
    ``cached_e`` skip the autoencoder / scale-out block when their weights
    are known not to have changed (frozen fine-tuning). The blocks read
    their weights straight from views into ``state.vector``.

    A stacked state runs every row at once on a stacked batch (one
    minibatch per row, see ``EncodedBatch``) and raises nothing
    for a row gone non-finite; :func:`diverged_rows` tells them apart.
    """
    if cached_e is None:
        e, f_cache = state.f.forward(batch.sfeat, train=train, rng=rng)
    else:
        e, f_cache = cached_e, None
    if cached_codes is None:
        codes, g_cache = state.g.forward(batch.pvecs, train=train, rng=rng)
    else:
        codes, g_cache = cached_codes, None
    recons, h_cache = (None, None)
    if need_recon and cached_codes is None:
        recons, h_cache = state.h.forward(codes, train=train, rng=rng)
    r = _assemble(state.schema, e, codes, batch.ess_rows, batch.opt_weights)
    y2, z_cache = state.z.forward(r, train=train, rng=rng)
    y = y2[..., 0]
    detail = {
        "e": e, "codes": codes, "recons": recons, "r": r, "y": y,
        "f_cache": f_cache, "g_cache": g_cache, "h_cache": h_cache,
        "z_cache": z_cache,
    }
    return y, detail


def diverged_rows(detail, loss, grad) -> np.ndarray | None:
    """The rows of a stack with a non-finite block output or gradient, as a
    boolean mask, or None when every row is finite.

    A single-state forward pass raises on a non-finite block output; these
    are the same outputs. ``y`` and ``recons`` reach the rows' ``loss`` by
    elementwise arithmetic and sums alone, so a non-finite one leaves its
    loss non-finite; and a sum is finite only if its terms are. So finite
    sums of ``loss``, ``e``, ``codes`` and ``grad`` clear every row, and
    rows are told apart only otherwise.
    """
    if math.isfinite(sum([float(np.add.reduce(a, axis=None))
                          for a in (loss, detail["e"], detail["codes"], grad)])):
        return None
    outputs = [detail[k] for k in ("e", "codes", "recons", "y") if detail[k] is not None]
    return ~np.logical_and.reduce([np.isfinite(a).reshape(len(a), -1).all(axis=1)
                                   for a in outputs + [grad]])


def backward_batch(state: ModelState, batch: EncodedBatch, detail, dy, grad,
                   drecons=None) -> np.ndarray:
    """Fill ``grad``, a flat buffer aligned with ``state.vector``, and return it.

    ``dy`` is dLoss/d(outputs), shape (B,) or (S, B). ``drecons`` is
    dLoss/d(reconstructions) over the unique vectors, or None when the
    reconstruction term is absent. Only the segments of blocks that were
    forwarded live are written; blocks that ran from a cache (frozen during
    fine-tuning) leave their segments as they were.
    """
    seg = state.segments
    m = state.schema.essential_count
    dr = state.z.backward(detail["z_cache"], dy[..., None], grad[..., seg["z"]])
    if detail["g_cache"] is not None:
        codes = detail["codes"]
        # Scatter-add the essential codes' gradients onto their unique
        # vectors. bincount adds in index order: property by property, each
        # in record order, as repeated vectors would accumulate in a loop.
        dess = dr[..., F_DIM : F_DIM + m * CODE_DIM].reshape(*dr.shape[:-1], m, CODE_DIM)
        cells = batch.ess_rows.swapaxes(-1, -2)[..., None] * CODE_DIM + np.arange(CODE_DIM)
        dcodes = np.bincount(cells.ravel(), weights=dess.swapaxes(-2, -3).ravel(),
                             minlength=codes.size).reshape(codes.shape)
        dcodes += batch.opt_weights.swapaxes(-1, -2) @ dr[..., F_DIM + m * CODE_DIM :]
        if drecons is not None:
            dcodes += state.h.backward(detail["h_cache"], drecons, grad[..., seg["h"]])
        state.g.backward(detail["g_cache"], dcodes, grad[..., seg["g"]], need_dx=False)
    if detail["f_cache"] is not None:
        state.f.backward(detail["f_cache"], dr[..., :F_DIM], grad[..., seg["f"]],
                         need_dx=False)
    return grad


def joint_loss(state: ModelState, records, huber_delta: float = 1.0,
               recon_weight: float = 1.0, train=False, rng=None):
    """Total, runtime, and reconstruction loss terms over a batch of records.

    The runtime term is mean-reduced Huber error in seconds; the
    reconstruction term is the MSE over every (record, property)
    reconstruction, weighted by occurrence.
    """
    records = list(records)
    if not records:
        raise ValueError("joint_loss needs a nonempty batch")
    batch = encode_batch(state.schema, state.normalizer, records)
    total, runtime, recon, _ = _joint_terms(state, batch, huber_delta, recon_weight,
                                            train, rng)
    if not np.isfinite(total):
        raise NumericsError("joint loss is non-finite")
    return total, runtime, recon


def _recon_loss(batch: EncodedBatch, detail):
    """Occurrence-weighted reconstruction MSE and its gradient (per row of a stack)."""
    occ = batch.usage.sum(axis=-2)
    pairs = occ.sum(axis=-1)
    err = detail["recons"] - batch.pvecs
    denom = pairs * encoding.VECTOR_SIZE
    loss = np.sum(occ * np.sum(err * err, axis=-1), axis=-1) / denom
    dgrad = (2.0 / denom)[..., None, None] * occ[..., None] * err
    return (loss if loss.ndim else float(loss)), dgrad


def _joint_terms(state: ModelState, batch: EncodedBatch, huber_delta, recon_weight,
                 train=False, rng=None, grad=None):
    """``(total, runtime, reconstruction)`` loss terms over an encoded batch,
    plus the forward pass's ``detail``; for a stack, one value per row.

    Given a flat ``grad`` buffer, also backpropagates the total into it.
    """
    y, detail = forward_batch(state, batch, train=train, rng=rng)
    runtime_term = huber_loss(y, batch.runtimes, huber_delta)
    recon_term, drecons = _recon_loss(batch, detail)
    if grad is not None:
        backward_batch(state, batch, detail, huber_grad(y, batch.runtimes, huber_delta),
                       grad, recon_weight * drecons)
    return runtime_term + recon_weight * recon_term, runtime_term, recon_term, detail


def joint_loss_grads(state: ModelState, records, huber_delta: float = 1.0,
                     recon_weight: float = 1.0, train=False, rng=None):
    """Loss terms plus the flat gradient; the training-loop building block."""
    batch = encode_batch(state.schema, state.normalizer, list(records))
    grad = np.zeros_like(state.vector)
    total, runtime, recon, _ = _joint_terms(state, batch, huber_delta, recon_weight,
                                            train, rng, grad)
    return total, runtime, recon, grad


def predict_batch(state: ModelState, scale_outs, props: dict) -> np.ndarray:
    """Predicted runtimes in seconds, one per scale-out, for one property set.

    ``props`` maps property names to :class:`PropertyValue`; every
    essential property must be present, optional ones may be missing. The
    whole batch is encoded once and forwarded once, in inference mode and
    without the decoder ``h``.
    """
    state.schema.check_properties(props)  # errors name the input, not "record 0"
    queries = [SimpleNamespace(scale_out=x, properties=props) for x in scale_outs]
    batch = encode_batch(state.schema, state.normalizer, queries, with_runtimes=False)
    return forward_batch(state, batch, need_recon=False)[0]


def predict(state: ModelState, scale_out: int, props: dict) -> Prediction:
    """Predict the runtime for one configuration: a batch of one."""
    runtime = float(predict_batch(state, [scale_out], props)[0])
    return Prediction(runtime, negative_output=runtime < 0)


# ---------------------------------------------------------------------------
# Serialization: versioned binary format.
#
#   magic (8 bytes) | version (uint32 LE) | header length (uint32 LE)
#   | header (UTF-8 JSON) | weight arrays (raw float64 LE, declared order)
#   | sha256 of everything above (32 bytes)
#
# The trailing digest doubles as the model fingerprint.
# ---------------------------------------------------------------------------

_WEIGHT_ORDER = ("f.w1", "f.b1", "f.w2", "f.b2", "g.w1", "g.w2",
                 "h.w1", "h.w2", "z.w1", "z.b1", "z.w2", "z.b2")


def _dims(schema: PropertySchema) -> dict:
    return dict(scale_features=SCALE_FEATURES, f_hidden=F_HIDDEN, f_dim=F_DIM,
                ae_hidden=AE_HIDDEN, code_dim=CODE_DIM, z_hidden=Z_HIDDEN,
                vector_size=encoding.VECTOR_SIZE, combined_width=schema.combined_width)


def _header(state: ModelState) -> dict:
    return {
        "schema": {
            "essential": [list(p) for p in state.schema.essential],
            "optional": [list(p) for p in state.schema.optional],
        },
        "dims": _dims(state.schema),
        "activations": {c: [b.phi, b.sigma] for c, b in state.blocks().items()},
        "dropout": {c: b.dropout_rate for c, b in state.blocks().items()},
        "normalizer": {"lo": list(state.normalizer.lo), "hi": list(state.normalizer.hi)},
    }


def serialize(state: ModelState) -> bytes:
    header = json.dumps(_header(state), sort_keys=True).encode("utf-8")
    return b"".join([_MAGIC, struct.pack("<I", _FORMAT_VERSION),
                     struct.pack("<I", len(header)), header,
                     np.ascontiguousarray(state.vector, dtype="<f8").tobytes()])


def save(state: ModelState, path) -> None:
    """Write the model file; the fingerprint digest is appended last."""
    payload = serialize(state)
    digest = hashlib.sha256(payload).digest()
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(digest)


def load(path) -> ModelState:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    if len(blob) < len(_MAGIC) + 8 + 32 or blob[: len(_MAGIC)] != _MAGIC:
        raise ModelFileError(f"{path}: not a model file (bad magic)")
    payload, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise ModelFileError(f"{path}: corrupt model file (checksum mismatch)")
    pos = len(_MAGIC)
    version, header_len = struct.unpack_from("<II", payload, pos)
    if version != _FORMAT_VERSION:
        raise ModelFileError(
            f"{path}: format version {version} unsupported (expected {_FORMAT_VERSION})"
        )
    pos += 8
    schema, normalizer, activations, dropout = _parse_header(
        payload[pos : pos + header_len], path)
    pos += header_len
    count = _weight_count(schema)
    if len(payload) - pos != 8 * count:
        raise ModelFileError(f"{path}: {len(payload) - pos} bytes of weight data, "
                             f"expected {8 * count}")
    vector = np.frombuffer(payload, dtype="<f8", count=count, offset=pos)
    return ModelState(vector.astype(np.float64), normalizer, schema,
                      activations, dropout)


def _parse_header(raw: bytes, path):
    """Schema, normalizer, activations and dropout from a checked JSON header.

    A missing or bad value raises :class:`ModelFileError`, a ``z`` width
    that contradicts the schema :class:`SchemaError`: a file that loads predicts.
    """
    try:
        header = json.loads(raw.decode("utf-8"))
        schema = PropertySchema(
            tuple(tuple(p) for p in header["schema"]["essential"]),
            tuple(tuple(p) for p in header["schema"]["optional"]),
        )
        dims = dict(header["dims"])
        activations = {c: tuple(header["activations"][c]) for c in COMPONENTS}
        dropout = {c: header["dropout"][c] for c in COMPONENTS}
        bounds = [tuple(header["normalizer"][side]) for side in ("lo", "hi")]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"{path}: malformed header: {exc!r}") from exc
    if dims.get("combined_width") != schema.combined_width:
        raise SchemaError(
            f"{path}: stored width {dims.get('combined_width')!r} conflicts with "
            f"{schema.essential_count} essential properties"
        )
    bad = [f"dims.{k}={dims.get(k)!r}" for k, v in _dims(schema).items()
           if dims.get(k) != v]
    bad += [f"activations.{c}={list(a)!r}" for c, a in activations.items()
            if len(a) != 2 or not all(name in ACTIVATIONS for name in a)]
    bad += [f"dropout.{c}={d!r}" for c, d in dropout.items()
            if not (_is_real(d) and 0.0 <= d < 1.0)]
    bad += [f"normalizer.{side}={list(values)!r}"
            for side, values in zip(("lo", "hi"), bounds)
            if len(values) != SCALE_FEATURES
            or not all(_is_real(v) and math.isfinite(v) for v in values)]
    if bad:
        raise ModelFileError(f"{path}: invalid header values: {', '.join(bad)}")
    return schema, Normalizer(*bounds), activations, dropout


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)
