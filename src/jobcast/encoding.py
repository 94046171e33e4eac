"""Fixed-size numeric encodings for scale-outs and context properties.

A descriptive property is either a natural number or a text string. Both
are mapped to a vector of length ``VECTOR_SIZE`` whose first entry is a
method indicator (0 = binary expansion, 1 = hashed character n-grams) and
whose remaining ``PAYLOAD_BITS`` entries carry the encoding. Scale-outs get
the three-feature crafting ``[1/x, ln x, x]`` plus min-max normalization
with bounds frozen at training time.

Both payloads are computed with numpy, without a loop per bit or per
n-gram. The binary expansion shifts the value by every bit position at
once. The text hash runs FNV-1a over all n-grams together as a chain of
``uint64`` arrays: one FNV step, ``h = (h ^ byte) * prime``, over every
position gives the unigram hashes; one more step over the unigram hashes
and the next bytes gives the bigram hashes, and one more over those the
trigram hashes. numpy's ``uint64`` multiply wraps modulo ``2**64``, as the
scalar :func:`fnv1a_64` masks, so every term hashes as it would alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DataError

VECTOR_SIZE = 40
PAYLOAD_BITS = VECTOR_SIZE - 1

METHOD_BINARY = 0.0
METHOD_HASHED = 1.0

# Case-insensitive character vocabulary for text properties; everything
# else is stripped before n-gram extraction.
VOCABULARY = frozenset("abcdefghijklmnopqrstuvwxyz0123456789.-_/ ")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# The same constants as uint64 scalars, so array arithmetic stays uint64
# (and wraps) under every numpy version's promotion rules.
_FNV_OFFSET_U64 = np.uint64(_FNV_OFFSET)
_FNV_PRIME_U64 = np.uint64(_FNV_PRIME)
_PAYLOAD_BITS_U64 = np.uint64(PAYLOAD_BITS)
# Every byte outside the vocabulary, for bytes.translate to delete.
_NON_VOCABULARY = bytes(b for b in range(256) if chr(b) not in VOCABULARY)


@dataclass(frozen=True)
class PropertyValue:
    """Tagged union of the two supported property kinds."""

    kind: str  # "natural" | "text"
    value: int | str

    def __post_init__(self):
        if self.kind == "natural":
            if not isinstance(self.value, int) or isinstance(self.value, bool) or self.value < 0:
                raise DataError(f"natural property must be a non-negative int, got {self.value!r}")
        elif self.kind == "text":
            if not isinstance(self.value, str):
                raise DataError(f"text property must be a string, got {self.value!r}")
        else:
            raise DataError(f"unknown property kind {self.kind!r}")

    @classmethod
    def natural(cls, n: int) -> "PropertyValue":
        return cls("natural", n)

    @classmethod
    def text(cls, s: str) -> "PropertyValue":
        return cls("text", s)


# Bit positions of the binary expansion, most significant first.
_SHIFTS = np.arange(PAYLOAD_BITS - 1, -1, -1)


def binarize(n: int) -> np.ndarray:
    """Zero-padded, most-significant-bit-first binary expansion of ``n``.

    Injective over ``[0, 2**PAYLOAD_BITS - 1]``; larger values raise
    :class:`CapacityError`.
    """
    if n < 0:
        raise CapacityError(f"cannot binarize negative value {n}")
    if n >= 1 << PAYLOAD_BITS:
        raise CapacityError(
            f"value {n} exceeds binarizer capacity 2**{PAYLOAD_BITS} - 1")
    return ((np.int64(n) >> _SHIFTS) & 1).astype(np.float64)


def fnv1a_64(data: bytes) -> int:
    """Seedless 64-bit FNV-1a hash; fixed so encodings are portable."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def clean_text(s: str) -> str:
    """Lowercase and drop every character outside the vocabulary."""
    # The vocabulary is ASCII, so every non-ASCII character goes, lone
    # surrogates (from surrogate-escaped argv) included; a character that
    # lowercases to ASCII is lowered before it is dropped, and kept.
    kept = s.lower().encode("ascii", "ignore").translate(None, _NON_VOCABULARY)
    return kept.decode("ascii")


def hash_text(s: str) -> np.ndarray:
    """Signed hashed character n-gram counts, projected onto the unit sphere.

    Unigrams, bigrams, and trigrams of the cleaned string are counted; each
    term lands at index ``fnv1a_64(term) % PAYLOAD_BITS`` with a sign taken
    from the hash's top bit. Nonempty cleaned input yields a unit-L2 vector;
    empty input yields the zero vector.

    The hashes of all terms come from one ``uint64`` FNV-1a chain (see the
    module docstring). Each occurrence adds +-1, so every count is a small
    integer and sums exactly in any order.
    """
    cleaned = clean_text(s).encode("ascii")
    if not cleaned:
        return np.zeros(PAYLOAD_BITS)
    b = np.frombuffer(cleaned, dtype=np.uint8).astype(np.uint64)
    h1 = (b ^ _FNV_OFFSET_U64) * _FNV_PRIME_U64
    h2 = (h1[:-1] ^ b[1:]) * _FNV_PRIME_U64
    h3 = (h2[:-1] ^ b[2:]) * _FNV_PRIME_U64
    h = np.concatenate((h1, h2, h3))
    sign = (h.view(np.int64) >> 63) | 1  # -1 where the top bit is set, else 1
    index = (h % _PAYLOAD_BITS_U64).view(np.int64)  # bincount takes no uint64
    out = np.bincount(index, weights=sign, minlength=PAYLOAD_BITS)
    norm = math.sqrt(float(np.dot(out, out)))
    if norm > 0.0:  # +-1 terms may cancel to zero
        out /= norm
    return out


def encode_property(v: PropertyValue) -> np.ndarray:
    """Full property vector: method indicator followed by the payload."""
    out = np.zeros(VECTOR_SIZE)
    if v.kind == "natural":
        out[0] = METHOD_BINARY
        out[1:] = binarize(v.value)
    else:
        out[0] = METHOD_HASHED
        out[1:] = hash_text(v.value)
    return out


def scaleout_features(x) -> np.ndarray:
    """Raw scale-out feature crafting ``[1/x, ln x, x]`` for ``x >= 1``.

    ``x`` is one scale-out, giving shape ``(3,)``, or a sequence of them,
    giving ``(n, 3)``. ``1/x`` is one array division over the sequence;
    ``ln x`` is :func:`math.log` per value, since ``np.log`` differs from it
    in the last bit for some integers (9170 is the first). A value that is
    not a finite number of at least 1 raises :class:`DataError`.
    """
    one = isinstance(x, numbers.Real)
    xs = [x] if one else list(x)
    try:
        values = list(map(float, xs))
        logs = list(map(math.log, values))  # ValueError for a value <= 0
        # A finite sum of logs >= 0 has no nan or inf among them: x in [1, inf).
        ok = min(logs, default=0.0) >= 0.0 and math.isfinite(sum(logs))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        bad = next(v for v in xs if not _is_scale_out(v))
        raise DataError(f"scale-out must be a finite number >= 1, got {bad!r}")
    feats = np.empty((len(values), 3))
    feats[:, 1] = logs
    feats[:, 2] = values
    np.divide(1.0, feats[:, 2], out=feats[:, 0])
    return feats[0] if one else feats


def _is_scale_out(v) -> bool:
    try:
        return 1.0 <= float(v) < math.inf
    except (TypeError, ValueError, OverflowError):
        return False


@dataclass(frozen=True)
class Normalizer:
    """Per-feature min-max bounds over the three scale-out features.

    Bounds are fixed when fitted and reused for all later inference; values
    outside the fitted range intentionally map outside (0, 1) so that
    extrapolation remains visible to the model. A degenerate feature
    (max == min) maps to 0.5.
    """

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    @classmethod
    def fit(cls, scale_outs) -> "Normalizer":
        xs = list(scale_outs)
        if not xs:
            raise DataError("cannot fit a normalizer on zero samples")
        feats = scaleout_features(xs)
        return cls(tuple(feats.min(axis=0)), tuple(feats.max(axis=0)))

    def transform(self, x) -> np.ndarray:
        """Normalized features of one scale-out, ``(3,)``, or of a sequence
        of them, ``(n, 3)``; see :func:`scaleout_features`."""
        feats = scaleout_features(x)
        span = [hi - lo for lo, hi in zip(self.lo, self.hi)]
        feats -= self.lo
        feats /= [s or 1.0 for s in span]
        if 0.0 in span:
            feats[..., [s == 0.0 for s in span]] = 0.5
        return feats
