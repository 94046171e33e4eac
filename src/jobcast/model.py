"""The four-block runtime model and its serialization.

Block ``f`` embeds the normalized scale-out features, the autoencoder pair
``g``/``h`` compresses property vectors into 4-dimensional codes and
reconstructs them, and ``z`` maps the concatenation of the scale-out
embedding, the essential codes (in schema order), and the mean of the
optional codes onto a runtime in seconds. Training minimizes Huber runtime
error plus the autoencoder's reconstruction MSE.

:func:`encode_batch` encodes records once, each distinct property value
once, and :func:`forward_batch` runs the runtime path ``f``, ``g``, ``z``
over the whole batch in inference mode. :func:`predict_batch` scores one
property set at many scale-outs in one such pass: it encodes the set once
and broadcasts its rows to every candidate. :func:`predict` is a batch of
one. Training runs the same path, and the decoder ``h`` after it, over a
binding (:func:`_joint_terms`), on one model or a stack of them (see
:class:`ModelState`).

Inference keeps no cache: :func:`forward_batch` runs each block's
inference pass and drops each intermediate array once the next block has
read it. Training binds the joint step once (:class:`_JointStep`): the four
blocks' passes (see :class:`jobcast.nn._Bound`), ``z``'s assembled input,
the loss terms' arrays and the backward pass's scatter arrays.
:func:`_joint_terms` runs its passes and :func:`backward_batch` reads the
batch from it. Pre-training's stack binds one per minibatch length;
:func:`joint_loss` and the single-state gradient bind one per call.
Nothing this module returns to a caller is written again, except a
binding's own arrays.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import encoding
from .encoding import Normalizer, PropertyValue, encode_property
from .errors import ModelFileError, NumericsError, SchemaError
from .nn import TwoLayerBlock, _Bound, huber

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
    the reconstruction loss by actual occurrences. :func:`predict_batch`'s
    batch broadcasts one row of ``ess_rows`` and ``opt_weights`` to every
    candidate, read-only, and sets neither ``usage`` nor ``runtimes``.

    A stacked batch gives each row of a model stack its own records and its
    own unique vectors: every array gains a leading ``S`` axis (``pvecs`` is
    ``(S, U, 40)``), and ``ess_rows`` of row ``s`` are offset by ``s * U``, so
    they index all rows' codes flattened to ``(S * U, CODE_DIM)``.
    """

    sfeat: np.ndarray  # (B, 3) normalized scale-out features
    pvecs: np.ndarray  # (U, 40)
    ess_rows: np.ndarray  # (B, m) int
    opt_weights: np.ndarray  # (B, U) mean-pooling weights for optional codes
    usage: np.ndarray | None  # (B, U) occurrence counts; None for inference
    runtimes: np.ndarray | None  # (B,); None for inference


def _encode_mappings(schema: PropertySchema, mappings):
    """``(pvecs, ess_rows, opt_weights, usage)`` of a list of properties
    mappings, one row of the last three per mapping.

    Each mapping is checked, and each distinct property value is encoded
    once, in order of first appearance.
    """
    rows: dict[PropertyValue, int] = {}
    vecs: list[np.ndarray] = []

    def row_of(value: PropertyValue) -> int:
        if value not in rows:
            rows[value] = len(vecs)
            vecs.append(encode_property(value))
        return rows[value]

    hits = []  # per mapping: its essential rows, its optional rows
    for i, props in enumerate(mappings):
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
    ess_rows = np.array([ess for ess, _ in hits], dtype=np.intp)
    return (pvecs, ess_rows.reshape(k, schema.essential_count),
            np.array(opt_weights).reshape(k, u), np.array(usage).reshape(k, u))


def encode_batch(schema: PropertySchema, normalizer: Normalizer, records) -> EncodedBatch:
    """Encode training records for :func:`forward_batch` and the joint loss.

    Each record's properties are checked and encoded as in
    :func:`_encode_mappings`, each distinct value once over the batch, and
    the scale-out features of the whole batch come from one
    :meth:`Normalizer.transform` call.
    """
    records = list(records)
    pvecs, ess_rows, opt_weights, usage = _encode_mappings(
        schema, [r.properties for r in records])
    sfeat = normalizer.transform([r.scale_out for r in records])
    runtimes = np.array([r.runtime_seconds for r in records], dtype=np.float64)
    return EncodedBatch(sfeat, pvecs, ess_rows, opt_weights, usage, runtimes)


def _assemble(schema, e, codes, ess_rows, opt_weights, r=None):
    """``z``'s input: embedding, essential codes, pooled optional codes,
    into ``r`` when given.

    ``ess_rows`` index ``codes`` flattened to ``(-1, CODE_DIM)``, which for a
    stack is all rows' codes one after another (see ``EncodedBatch``). Each
    part goes straight into its columns of ``r``, the essential codes one
    property at a time, so nothing else of ``r``'s size is allocated.
    """
    if r is None:
        r = np.empty((*e.shape[:-1], schema.combined_width))
    r[..., :F_DIM] = e
    flat = codes.reshape(-1, CODE_DIM)
    for j in range(schema.essential_count):
        col = F_DIM + j * CODE_DIM
        r[..., col : col + CODE_DIM] = flat[ess_rows[..., j]]
    np.matmul(opt_weights, codes, out=r[..., -CODE_DIM:])
    return r


def forward_batch(state: ModelState, batch: EncodedBatch) -> np.ndarray:
    """The runtime path over an encoded batch, ``f``, ``g`` and ``z``, in
    inference mode: returns the outputs, ``(B,)``, or ``(S, B)`` when a
    stacked state runs every row at once on a stacked batch (one minibatch
    per row, see ``EncodedBatch``). Training runs the same path through its
    :class:`_JointStep` (see :func:`_joint_terms`).

    Each block keeps no cache, and the embedding is dropped before ``z``
    runs, so the peak is ``z``'s input and its first layer. A stacked state
    raises nothing for a row gone non-finite; :func:`diverged_rows` tells
    them apart.
    """
    e = state.f.forward(batch.sfeat)
    r = _assemble(state.schema, e, state.g.forward(batch.pvecs), batch.ess_rows,
                  batch.opt_weights)
    del e
    return state.z.forward(r)[..., 0]


class _JointStep:
    """The joint loss's training pass over one batch, bound once: ``f``
    over ``batch.sfeat``, ``g`` over ``batch.pvecs``, ``z`` over its
    assembled input ``r`` and ``h`` over ``g``'s codes (each a
    :class:`~jobcast.nn._Bound` writing its gradient into its views of
    ``grad``), the Huber and reconstruction terms' arrays, and the code
    scatter's. Every array comes from ``empty``. :func:`_joint_terms`
    runs the passes and :func:`backward_batch` backpropagates them.

    The batch's owner may rewrite its arrays in place between passes: each
    pass reads them afresh and overwrites every array of the step, which
    stay valid until the next pass. ``rng`` (one generator per row of a
    stack) turns alpha-dropout on; without ``grad`` the step only scores
    (:func:`joint_loss`). ``detail`` holds the blocks' outputs that
    :func:`diverged_rows` reads.
    """

    def __init__(self, state, batch, grad=None, rng=None, empty=np.empty):
        seg, lead = state.segments, batch.sfeat.shape[:-1]
        self.batch, self.grad = batch, grad
        views = np.empty_like(state.vector) if grad is None else grad

        def bind(c, x):
            return _Bound(getattr(state, c), x, views[..., seg[c]], rng, empty)

        self.f, self.g = bind("f", batch.sfeat), bind("g", batch.pvecs)
        self.r = empty((*lead, state.schema.combined_width))
        self.z, self.h = bind("z", self.r), bind("h", self.g.out)
        self.huber = (*empty((3, *lead)), empty(lead, np.bool_))
        self.dy = empty(lead)
        self.recon = empty((2, *self.h.out.shape))
        # The scatter's cells and weights, per property and record
        ess_rows = batch.ess_rows.swapaxes(-1, -2)
        self.cells = empty((*ess_rows.shape, CODE_DIM), np.intp)
        self.weights = empty(self.cells.shape)
        self.dpooled = empty(self.g.out.shape)
        self.detail = {"e": self.f.out, "codes": self.g.out, "recons": self.h.out,
                       "y": self.z.out[..., 0]}


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


def backward_batch(state: ModelState, step: _JointStep, dy, drecons) -> np.ndarray:
    """Backpropagate the joint loss through all four blocks of ``step``,
    whose forward passes ran last, into ``step.grad``, a flat buffer
    aligned with ``state.vector``, and return it.

    ``dy`` is dLoss/d(outputs), shape (B,) or (S, B), and ``drecons``
    dLoss/d(reconstructions) over the unique vectors of ``step.batch``.
    """
    batch, m = step.batch, state.schema.essential_count
    dr = state.z.backward(step.z, dy[..., None])
    codes = step.g.out
    # Scatter-add the essential codes' gradients onto their unique
    # vectors. bincount adds in index order: property by property, each
    # in record order, as repeated vectors would accumulate in a loop.
    dess = dr[..., F_DIM : F_DIM + m * CODE_DIM].reshape(*dr.shape[:-1], m, CODE_DIM)
    cells, weights = step.cells, step.weights
    np.multiply(batch.ess_rows.swapaxes(-1, -2)[..., None], CODE_DIM, out=cells)
    cells += _CODE_COLUMNS
    np.copyto(weights, dess.swapaxes(-2, -3))
    dcodes = np.bincount(cells.ravel(), weights=weights.ravel(),
                         minlength=codes.size).reshape(codes.shape)
    dcodes += np.matmul(batch.opt_weights.swapaxes(-1, -2),
                        dr[..., F_DIM + m * CODE_DIM :], out=step.dpooled)
    dcodes += state.h.backward(step.h, drecons)
    state.g.backward(step.g, dcodes, need_dx=False)
    state.f.backward(step.f, dr[..., :F_DIM], need_dx=False)
    return step.grad


def joint_loss(state: ModelState, records):
    """Total, runtime, and reconstruction loss terms over a batch of records,
    in inference mode (no dropout).

    The runtime term is mean-reduced Huber error in seconds; the
    reconstruction term is the MSE over every (record, property)
    reconstruction, weighted by occurrence. The total is their plain sum.
    """
    records = list(records)
    if not records:
        raise ValueError("joint_loss needs a nonempty batch")
    batch = encode_batch(state.schema, state.normalizer, records)
    total, runtime, recon = _joint_terms(state, batch)
    if not np.isfinite(total):
        raise NumericsError("joint loss is non-finite")
    return total, runtime, recon


def _recon_loss(batch: EncodedBatch, recons, err, dgrad):
    """Occurrence-weighted reconstruction MSE and its gradient (per row of a
    stack), into ``dgrad``, with ``err`` as scratch."""
    occ = batch.usage.sum(axis=-2)
    pairs = occ.sum(axis=-1)
    np.subtract(recons, batch.pvecs, out=err)
    denom = pairs * encoding.VECTOR_SIZE
    squares = np.multiply(err, err, out=dgrad)  # dgrad's array, before dgrad
    loss = np.sum(occ * np.sum(squares, axis=-1), axis=-1) / denom
    np.multiply((2.0 / denom)[..., None, None] * occ[..., None], err, out=dgrad)
    return (loss if loss.ndim else float(loss)), dgrad


def _joint_terms(state: ModelState, batch: EncodedBatch, grad=None, step=None):
    """``(total, runtime, reconstruction)`` loss terms over an encoded batch;
    for a stack, one value per row.

    Runs on ``step``, a :class:`_JointStep` of this state and batch, which
    pre-training's stack binds with dropout; without one it binds the batch
    once, without dropout, backpropagating into ``grad`` when given. Runs
    the step's bound passes in :func:`forward_batch`'s order, ``f``, ``g``
    and ``z``, then the decoder ``h`` on the codes; a step bound with a
    gradient backpropagates the total into it.
    """
    if step is None:
        step = _JointStep(state, batch, grad)
    step.f.forward()
    step.g.forward()
    _assemble(state.schema, step.f.out, step.g.out, batch.ess_rows, batch.opt_weights,
              step.r)
    step.z.forward()
    step.h.forward()
    y = step.z.out[..., 0]
    runtime_term, dy = huber(y, batch.runtimes, (*step.huber, step.dy))
    recon_term, drecons = _recon_loss(batch, step.h.out, *step.recon)
    if step.grad is not None:
        backward_batch(state, step, dy, drecons)
    return runtime_term + recon_term, runtime_term, recon_term


def predict_batch(state: ModelState, scale_outs, props: dict) -> np.ndarray:
    """Predicted runtimes in seconds, one per scale-out, for one property set.

    ``props`` maps property names to :class:`PropertyValue`; every
    essential property must be present, optional ones may be missing. It
    is checked and encoded once, and every candidate's rows of
    ``ess_rows`` and ``opt_weights`` are read-only broadcast views of its
    one row. The whole batch is forwarded once, in inference mode and
    without the decoder ``h``.
    """
    state.schema.check_properties(props)  # errors name the input, not "record 0"
    pvecs, ess_rows, opt_weights, _ = _encode_mappings(state.schema, [props])
    sfeat = state.normalizer.transform(list(scale_outs))
    b = len(sfeat)
    batch = EncodedBatch(sfeat, pvecs, np.broadcast_to(ess_rows, (b, ess_rows.shape[1])),
                         np.broadcast_to(opt_weights, (b, opt_weights.shape[1])), None, None)
    return forward_batch(state, batch)


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
