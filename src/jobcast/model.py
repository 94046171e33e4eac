"""The four-block runtime model and its serialization.

Block ``f`` embeds the normalized scale-out features, the autoencoder pair
``g``/``h`` compresses property vectors into 4-dimensional codes and
reconstructs them, and ``z`` maps the concatenation of the scale-out
embedding, the essential codes (in schema order), and the mean of the
optional codes onto a runtime in seconds. Training minimizes Huber runtime
error plus the autoencoder's reconstruction MSE.

One batched path serves training and inference: :func:`encode_batch`
encodes records once, each distinct property mapping once and each
property vector once, and :func:`forward_batch` runs the runtime path
``f``, ``g``, ``z`` over the whole batch. :func:`predict_batch` scores one
property set at many scale-outs in one such pass, its candidates sharing
one mapping; :func:`predict` is a batch of one. The decoder
``h`` serves the joint loss alone (:func:`_joint_terms`). Training may run
the same path over a stack of models (see :class:`ModelState`).

The forward pass, the joint loss and the backward pass take a buffer holder
``buf`` (see :mod:`jobcast.nn`). Pre-training's stack passes its own: the
blocks' outputs and caches, ``z``'s assembled input, the loss terms'
elementwise arrays and the backward pass's scatter inputs are then written
into the same arrays at every step, and last until the next step. Every
other caller, :func:`predict_batch` among them, passes none and gets new
arrays: nothing this module returns to a caller is ever written again.
"""

from __future__ import annotations

import functools
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
from .nn import _FRESH, TwoLayerBlock, huber_grad, huber_loss

SCALE_FEATURES = 3
F_HIDDEN = 16
F_DIM = 8  # scale-out embedding width
AE_HIDDEN = 8
CODE_DIM = 4  # property code width
Z_HIDDEN = 8

COMPONENTS = ("f", "g", "h", "z")

# The columns of one property code, for scattering codes' gradients.
_CODE_COLUMNS = np.arange(CODE_DIM)
_CODE_COLUMNS.flags.writeable = False

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


# Every block's (hidden, output) activation, as a model file's header lists
# them: SELU throughout, except that the decoder h ends in tanh to match the
# range of the property vectors. Fixed; a file listing others is refused.
_ACTIVATIONS = {c: ["selu", "tanh" if c == "h" else "selu"] for c in COMPONENTS}


def _dropout_table(rate) -> dict:
    """Each block's dropout rate, as a model file's header lists them: the
    autoencoder's one rate on ``g`` and ``h``, none on ``f`` and ``z``."""
    return {c: rate if c in ("g", "h") else 0.0 for c in COMPONENTS}


@functools.lru_cache(maxsize=64)
def _block_dims(schema: PropertySchema) -> tuple:
    """``(component, (in, hidden, out, bias), slice of the vector)`` per
    block, in vector order; computed once per (frozen) schema."""
    dims = {
        "f": (SCALE_FEATURES, F_HIDDEN, F_DIM, True),
        "g": (encoding.VECTOR_SIZE, AE_HIDDEN, CODE_DIM, False),
        "h": (CODE_DIM, AE_HIDDEN, encoding.VECTOR_SIZE, False),
        "z": (schema.combined_width, Z_HIDDEN, 1, True),
    }
    layout, pos = [], 0
    for c, d in dims.items():
        layout.append((c, d, slice(pos, pos + TwoLayerBlock.size(*d))))
        pos = layout[-1][2].stop
    return tuple(layout)


def _weight_count(schema: PropertySchema) -> int:
    return _block_dims(schema)[-1][2].stop


class ModelState:
    """All weights in one flat vector, plus the normalization bounds and the schema.

    ``vector`` holds every weight, float64, in ``_WEIGHT_ORDER``; the blocks
    ``f``, ``g``, ``h``, ``z`` are views into it and ``segments[c]`` is the
    slice component ``c`` owns. Copies, snapshots and serialization work on
    the whole vector at once; an optimizer steps the whole vector or one
    component's slice, and re-initializing a block (``state.z.init(rng)``)
    rewrites only its slice.

    ``dropout_rate`` is the autoencoder's alpha-dropout rate: ``g`` and ``h``
    apply it in training mode, ``f`` and ``z`` never drop. Only pre-training
    trains with dropout.

    A stacked state holds S models as the rows of an ``(S, n)`` matrix, with
    stacked block views (see :class:`~jobcast.nn.TwoLayerBlock`) and one
    dropout rate, or one per row. Pre-training trains a stack; :meth:`take`
    copies rows out of it. Only single states are saved.
    """

    def __init__(self, vector, normalizer, schema, dropout_rate=0.0):
        count = _weight_count(schema)
        if (vector.dtype != np.float64 or vector.ndim not in (1, 2)
                or vector.shape[-1] != count or not vector.flags.c_contiguous):
            raise SchemaError(f"weight vector is {vector.dtype}{list(vector.shape)}, "
                              f"schema requires a contiguous float64[{count}] "
                              f"or a stack of them")
        self.vector = vector
        self.normalizer = normalizer
        self.schema = schema
        self.segments = {}
        rates = _dropout_table(dropout_rate)
        for c, dims, sl in _block_dims(schema):
            self.segments[c] = sl
            setattr(self, c, TwoLayerBlock(vector[..., sl], *dims,
                                           tanh_out=_ACTIVATIONS[c][1] == "tanh",
                                           dropout_rate=rates[c]))

    @classmethod
    def new(cls, schema: PropertySchema, normalizer: Normalizer, rng,
            dropout_rate: float = 0.0) -> "ModelState":
        """Fresh He-initialized state, drawn block by block in vector order.

        ``g`` and ``h`` carry no biases.
        """
        state = cls(np.zeros(_weight_count(schema)), normalizer, schema, dropout_rate)
        for c in COMPONENTS:
            getattr(state, c).init(rng)
        return state

    @property
    def dropout_rate(self):
        """The autoencoder's dropout rate, as its blocks hold it."""
        return self.g.dropout_rate

    def copy(self) -> "ModelState":
        return ModelState(self.vector.copy(), self.normalizer, self.schema,
                          self.dropout_rate)

    def take(self, rows) -> "ModelState":
        """A copy of some rows of a stacked state; an int row gives a single state."""
        rate = self.dropout_rate
        return ModelState(self.vector[rows].copy(), self.normalizer, self.schema,
                          rate[rows] if np.ndim(rate) else rate)

    def __reduce__(self):
        # Pickle the vector once; unpickling rebuilds the block views into it.
        return ModelState, (self.vector, self.normalizer, self.schema, self.dropout_rate)

    def param_name(self, index: int) -> str:
        """Name in ``_WEIGHT_ORDER`` of the array holding ``vector[..., index]``."""
        rows = self.vector.size // self.vector.shape[-1]  # S for a stack, else 1
        stops = np.cumsum([getattr(getattr(self, n[0]), n[2:]).size // rows
                           for n in _WEIGHT_ORDER])
        return _WEIGHT_ORDER[int(np.searchsorted(stops, index, side="right"))]

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

    A stacked batch gives each row of a model stack its own records and its
    own unique vectors: every array gains a leading ``S`` axis (``pvecs`` is
    ``(S, U, 40)``), and ``ess_rows`` of row ``s`` are offset by ``s * U``, so
    they index all rows' codes flattened to ``(S * U, CODE_DIM)``.
    """

    sfeat: np.ndarray  # (B, 3) normalized scale-out features
    pvecs: np.ndarray  # (U, 40)
    ess_rows: np.ndarray  # (B, m) int
    opt_weights: np.ndarray  # (B, U) mean-pooling weights for optional codes
    usage: np.ndarray  # (B, U) occurrence counts
    runtimes: np.ndarray | None  # (B,)


def encode_batch(schema: PropertySchema, normalizer: Normalizer, records,
                 with_runtimes=True) -> EncodedBatch:
    """Encode records for :func:`forward_batch`.

    Each distinct properties mapping, told apart by identity, is checked
    and encoded once, in order of first appearance. Records that share one
    mapping object, as :func:`predict_batch`'s candidates do, share its rows
    of ``ess_rows``, ``opt_weights`` and ``usage``, which one gather copies
    out. The scale-out features of the whole batch come from one
    :meth:`Normalizer.transform` call.
    """
    records = list(records)
    b = len(records)
    m = schema.essential_count
    # The first record to hold each distinct mapping, in order of appearance:
    # filled from the back, the dict keeps each mapping's first record.
    keys = [id(r.properties) for r in records]
    firsts = sorted(dict(zip(reversed(keys), range(b - 1, -1, -1))).values())
    rows: dict[PropertyValue, int] = {}
    vecs: list[np.ndarray] = []

    def row_of(value: PropertyValue) -> int:
        if value not in rows:
            rows[value] = len(vecs)
            vecs.append(encode_property(value))
        return rows[value]

    hits = []  # per distinct mapping: its essential rows, its optional rows
    for i in firsts:
        props = records[i].properties
        schema.check_properties(props, where=f"record {i}")
        hits.append(([row_of(props[name]) for name, _ in schema.essential],
                     [row_of(props[name]) for name, _ in schema.optional if name in props]))

    k, u = len(hits), len(vecs)
    pvecs = np.stack(vecs) if vecs else np.zeros((0, encoding.VECTOR_SIZE))
    usage = [[0.0] * u for _ in hits]
    opt_weights = [[0.0] * u for _ in hits]
    for counts, weights, (ess, opt) in zip(usage, opt_weights, hits):
        for r in ess + opt:
            counts[r] += 1.0
        for r in opt:  # a vector shared by two optional properties adds twice
            weights[r] += 1.0 / len(opt)
    ess_rows = np.array([ess for ess, _ in hits], dtype=np.intp).reshape(k, m)
    usage = np.array(usage).reshape(k, u)
    opt_weights = np.array(opt_weights).reshape(k, u)
    if k < b:  # records share mappings: give each its mapping's rows
        slot = {keys[i]: g for g, i in enumerate(firsts)}
        of_record = np.fromiter(map(slot.__getitem__, keys), dtype=np.intp, count=b)
        ess_rows, opt_weights, usage = (ess_rows[of_record], opt_weights[of_record],
                                        usage[of_record])
    sfeat = normalizer.transform([r.scale_out for r in records])
    runtimes = None
    if with_runtimes:
        runtimes = np.array([r.runtime_seconds for r in records], dtype=np.float64)
    return EncodedBatch(sfeat, pvecs, ess_rows, opt_weights, usage, runtimes)


def _assemble(schema, e, codes, ess_rows, opt_weights, buf=_FRESH):
    """``z``'s input: embedding, essential codes, pooled optional codes.

    ``ess_rows`` index ``codes`` flattened to ``(-1, CODE_DIM)``, which for a
    stack is all rows' codes one after another (see ``EncodedBatch``).
    """
    lead = e.shape[:-1]
    m = schema.essential_count
    r, pooled = buf("assemble", lead, ((schema.combined_width,), (CODE_DIM,)))
    (ess,) = buf.scratch(lead, ((m, CODE_DIM),))
    # mode="clip" writes straight into ess (the rows are in range anyway)
    ess = codes.reshape(-1, CODE_DIM).take(ess_rows, axis=0, out=ess, mode="clip")
    pooled = np.matmul(opt_weights, codes, out=pooled)
    return np.concatenate((e, ess.reshape(*lead, m * CODE_DIM), pooled), axis=-1, out=r)


def forward_batch(state: ModelState, batch: EncodedBatch, train=False, rng=None,
                  buf=_FRESH):
    """The runtime path over an encoded batch: ``f``, ``g`` and ``z``.

    Returns ``(outputs, detail)`` where ``detail`` carries the blocks'
    outputs and the caches :func:`backward_batch` needs. The decoder ``h``
    serves only the joint loss, which runs it (see :func:`_joint_terms`).
    The blocks read their weights straight from views into ``state.vector``.

    A stacked state runs every row at once on a stacked batch (one
    minibatch per row, see ``EncodedBatch``) and raises nothing
    for a row gone non-finite; :func:`diverged_rows` tells them apart.
    """
    e, f_cache = state.f.forward(batch.sfeat, train, rng, buf.scope("f"))
    codes, g_cache = state.g.forward(batch.pvecs, train, rng, buf.scope("g"))
    r = _assemble(state.schema, e, codes, batch.ess_rows, batch.opt_weights, buf)
    y2, z_cache = state.z.forward(r, train, rng, buf.scope("z"))
    y = y2[..., 0]
    detail = {"e": e, "codes": codes, "y": y,
              "f_cache": f_cache, "g_cache": g_cache, "z_cache": z_cache}
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
    outputs = [detail[k] for k in ("e", "codes", "recons", "y")] + [grad]
    return ~np.logical_and.reduce([np.isfinite(a).reshape(len(a), -1).all(axis=1)
                                   for a in outputs])


def backward_batch(state: ModelState, batch: EncodedBatch, detail, dy, drecons,
                   grad, buf=_FRESH) -> np.ndarray:
    """Backpropagate the joint loss through all four blocks into ``grad``,
    a flat buffer aligned with ``state.vector``, and return it.

    ``detail`` is a forward pass's, with the decoder's ``h_cache`` that
    :func:`_joint_terms` adds. ``dy`` is dLoss/d(outputs), shape (B,) or
    (S, B), and ``drecons`` dLoss/d(reconstructions) over the unique vectors.
    """
    seg = state.segments
    m = state.schema.essential_count
    dr = state.z.backward(detail["z_cache"], dy[..., None], grad[..., seg["z"]],
                          buf=buf.scope("z"))
    codes = detail["codes"]
    # Scatter-add the essential codes' gradients onto their unique
    # vectors. bincount adds in index order: property by property, each
    # in record order, as repeated vectors would accumulate in a loop.
    dess = dr[..., F_DIM : F_DIM + m * CODE_DIM].reshape(*dr.shape[:-1], m, CODE_DIM)
    ess_rows = batch.ess_rows.swapaxes(-1, -2)  # (..., m, B)
    (cells,) = buf.arrays("cells", ess_rows.shape, ((CODE_DIM,),), np.intp)
    (weights,) = buf.arrays("cell_weights", ess_rows.shape, ((CODE_DIM,),))
    (dpooled,) = buf("dpooled", codes.shape[:-1], ((CODE_DIM,),))
    np.multiply(ess_rows[..., None], CODE_DIM, out=cells)
    cells += _CODE_COLUMNS
    np.copyto(weights, dess.swapaxes(-2, -3))
    dcodes = np.bincount(cells.ravel(), weights=weights.ravel(),
                         minlength=codes.size).reshape(codes.shape)
    dcodes += np.matmul(batch.opt_weights.swapaxes(-1, -2),
                        dr[..., F_DIM + m * CODE_DIM :], out=dpooled)
    dcodes += state.h.backward(detail["h_cache"], drecons, grad[..., seg["h"]],
                               buf=buf.scope("h"))
    state.g.backward(detail["g_cache"], dcodes, grad[..., seg["g"]], need_dx=False,
                     buf=buf.scope("g"))
    state.f.backward(detail["f_cache"], dr[..., :F_DIM], grad[..., seg["f"]],
                     need_dx=False, buf=buf.scope("f"))
    return grad


def joint_loss(state: ModelState, records, train=False, rng=None):
    """Total, runtime, and reconstruction loss terms over a batch of records.

    The runtime term is mean-reduced Huber error in seconds; the
    reconstruction term is the MSE over every (record, property)
    reconstruction, weighted by occurrence. The total is their plain sum.
    """
    records = list(records)
    if not records:
        raise ValueError("joint_loss needs a nonempty batch")
    batch = encode_batch(state.schema, state.normalizer, records)
    total, runtime, recon, _ = _joint_terms(state, batch, train, rng)
    if not np.isfinite(total):
        raise NumericsError("joint loss is non-finite")
    return total, runtime, recon


def _recon_loss(batch: EncodedBatch, detail, buf=_FRESH):
    """Occurrence-weighted reconstruction MSE and its gradient (per row of a stack)."""
    occ = batch.usage.sum(axis=-2)
    pairs = occ.sum(axis=-1)
    recons = detail["recons"]
    err, dgrad = buf("recon", recons.shape[:-1], ((encoding.VECTOR_SIZE,),) * 2)
    err = np.subtract(recons, batch.pvecs, out=err)
    denom = pairs * encoding.VECTOR_SIZE
    squares = np.multiply(err, err, out=dgrad)  # dgrad's array, before dgrad
    loss = np.sum(occ * np.sum(squares, axis=-1), axis=-1) / denom
    dgrad = np.multiply((2.0 / denom)[..., None, None] * occ[..., None], err, out=dgrad)
    return (loss if loss.ndim else float(loss)), dgrad


def _joint_terms(state: ModelState, batch: EncodedBatch, train=False, rng=None,
                 grad=None, buf=_FRESH):
    """``(total, runtime, reconstruction)`` loss terms over an encoded batch,
    plus the forward pass's ``detail``; for a stack, one value per row.

    The decoder ``h`` runs here, on :func:`forward_batch`'s codes, adding
    ``recons`` and ``h_cache`` to ``detail``. Given a flat ``grad`` buffer,
    also backpropagates the total into it.
    """
    y, detail = forward_batch(state, batch, train, rng, buf)
    detail["recons"], detail["h_cache"] = state.h.forward(detail["codes"], train, rng,
                                                          buf.scope("h"))
    runtime_term = huber_loss(y, batch.runtimes, buf)
    recon_term, drecons = _recon_loss(batch, detail, buf)
    if grad is not None:
        backward_batch(state, batch, detail, huber_grad(y, batch.runtimes, buf),
                       drecons, grad, buf)
    return runtime_term + recon_term, runtime_term, recon_term, detail


def predict_batch(state: ModelState, scale_outs, props: dict) -> np.ndarray:
    """Predicted runtimes in seconds, one per scale-out, for one property set.

    ``props`` maps property names to :class:`PropertyValue`; every
    essential property must be present, optional ones may be missing. The
    whole batch is forwarded once, in inference mode and without the
    decoder ``h``; every candidate holds the one ``props`` mapping, so
    :func:`encode_batch` encodes it once.
    """
    state.schema.check_properties(props)  # errors name the input, not "record 0"
    # The candidates are dropped before the forward pass, whose arrays peak.
    batch = encode_batch(state.schema, state.normalizer,
                         [SimpleNamespace(scale_out=x, properties=props) for x in scale_outs],
                         with_runtimes=False)
    return forward_batch(state, batch)[0]


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
        "activations": _ACTIVATIONS,
        "dropout": _dropout_table(state.dropout_rate),
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
    schema, normalizer, dropout_rate = _parse_header(payload[pos : pos + header_len], path)
    pos += header_len
    count = _weight_count(schema)
    if len(payload) - pos != 8 * count:
        raise ModelFileError(f"{path}: {len(payload) - pos} bytes of weight data, "
                             f"expected {8 * count}")
    vector = np.frombuffer(payload, dtype="<f8", count=count, offset=pos)
    return ModelState(vector.astype(np.float64), normalizer, schema, dropout_rate)


def _parse_header(raw: bytes, path):
    """Schema, normalizer and the autoencoder's dropout rate from a checked
    JSON header.

    A missing or bad value raises :class:`ModelFileError`, a ``z`` width
    that contradicts the schema :class:`SchemaError`: a file that loads predicts.
    So do activations other than ``_ACTIVATIONS`` and dropout anywhere
    but on ``g`` and ``h`` at one rate, which this package never writes.
    """
    try:
        header = json.loads(raw.decode("utf-8"))
        schema = PropertySchema(
            tuple(tuple(p) for p in header["schema"]["essential"]),
            tuple(tuple(p) for p in header["schema"]["optional"]),
        )
        dims = dict(header["dims"])
        activations = header["activations"]
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
    if activations != _ACTIVATIONS:
        bad.append(f"activations={activations!r}")
    expect = _dropout_table(dropout["g"])
    bad += [f"dropout.{c}={d!r}" for c, d in dropout.items()
            if not (_is_real(d) and 0.0 <= d < 1.0) or d != expect[c]]
    bad += [f"normalizer.{side}={list(values)!r}"
            for side, values in zip(("lo", "hi"), bounds)
            if len(values) != SCALE_FEATURES
            or not all(_is_finite(v) for v in values)]
    if bad:
        raise ModelFileError(f"{path}: invalid header values: {', '.join(bad)}")
    return schema, Normalizer(*bounds), dropout["g"]


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A real that a float holds finitely; a JSON integer may exceed every float."""
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:
        return False
