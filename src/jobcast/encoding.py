"""Fixed-size numeric encodings for scale-outs and context properties.

A descriptive property is either a natural number or a text string. Both
are mapped to a vector of length ``VECTOR_SIZE`` whose first entry is a
method indicator (0 = binary expansion, 1 = hashed character n-grams) and
whose remaining ``PAYLOAD_BITS`` entries carry the encoding. Scale-outs get
the three-feature crafting ``[1/x, ln x, x]`` plus min-max normalization
with bounds frozen at training time.
"""

from __future__ import annotations

import math
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


def binarize(n: int, bits: int = PAYLOAD_BITS) -> np.ndarray:
    """Zero-padded, most-significant-bit-first binary expansion of ``n``.

    Injective over ``[0, 2**bits - 1]``; larger values raise
    :class:`CapacityError`.
    """
    if n < 0:
        raise CapacityError(f"cannot binarize negative value {n}")
    if n >= 1 << bits:
        raise CapacityError(f"value {n} exceeds binarizer capacity 2**{bits} - 1")
    out = np.zeros(bits)
    for i in range(bits - 1, -1, -1):
        out[i] = n & 1
        n >>= 1
    return out


def fnv1a_64(data: bytes) -> int:
    """Seedless 64-bit FNV-1a hash; fixed so encodings are portable."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def clean_text(s: str) -> str:
    """Lowercase and drop every character outside the vocabulary."""
    return "".join(c for c in s.lower() if c in VOCABULARY)


def _ngrams(s: str):
    for size in (1, 2, 3):
        for i in range(len(s) - size + 1):
            yield s[i : i + size]


def hash_text(s: str, bits: int = PAYLOAD_BITS) -> np.ndarray:
    """Signed hashed character n-gram counts, projected onto the unit sphere.

    Unigrams, bigrams, and trigrams of the cleaned string are counted; each
    unique term lands at index ``fnv1a_64(term) % bits`` with a sign taken
    from the hash's top bit. Nonempty cleaned input yields a unit-L2 vector;
    empty input yields the zero vector.
    """
    out = np.zeros(bits)
    cleaned = clean_text(s)
    counts: dict[str, int] = {}
    for term in _ngrams(cleaned):
        counts[term] = counts.get(term, 0) + 1
    for term, count in counts.items():
        h = fnv1a_64(term.encode("utf-8"))
        sign = -1.0 if h >> 63 else 1.0
        out[h % bits] += sign * count
    norm = math.sqrt(float(np.dot(out, out)))
    if norm > 0.0:
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


def scaleout_features(x: int) -> np.ndarray:
    """Raw scale-out feature crafting ``[1/x, ln x, x]`` for ``x >= 1``."""
    if x < 1:
        raise DataError(f"scale-out must be >= 1, got {x}")
    return np.array([1.0 / x, math.log(x), float(x)])


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
        feats = np.stack([scaleout_features(x) for x in xs])
        return cls(tuple(feats.min(axis=0)), tuple(feats.max(axis=0)))

    def apply(self, features: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo)
        span = np.asarray(self.hi) - lo
        flat = span == 0.0
        return np.where(flat, 0.5, (features - lo) / np.where(flat, 1.0, span))

    def transform(self, x: int) -> np.ndarray:
        return self.apply(scaleout_features(x))
