"""Tests for property vectorization and scale-out feature crafting."""

import csv
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from jobcast.encoding import (PAYLOAD_BITS, VECTOR_SIZE, Normalizer,
                              PropertyValue, binarize, clean_text,
                              encode_property, hash_text, scaleout_features)
from jobcast.errors import CapacityError, DataError

GOLDEN = Path(__file__).parent / "golden" / "encoding_vectors.csv"


def decode_binary(vec) -> int:
    """Round-trip oracle: independent MSB-first reassembly."""
    n = 0
    for bit in vec:
        n = (n << 1) | int(bit)
    return n


class TestBinarize:
    def test_five(self):
        vec = binarize(5)
        expect = np.zeros(PAYLOAD_BITS)
        expect[-1] = expect[-3] = 1.0  # 101 in the lowest bits
        np.testing.assert_array_equal(vec, expect)

    def test_zero_is_all_zeros(self):
        np.testing.assert_array_equal(binarize(0), np.zeros(PAYLOAD_BITS))

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            binarize(2**39 + 1)
        with pytest.raises(CapacityError):
            binarize(2**40)

    def test_largest_encodable(self):
        np.testing.assert_array_equal(binarize(2**39 - 1), np.ones(PAYLOAD_BITS))

    def test_round_trip_random(self):
        rng = np.random.default_rng(17)
        for n in rng.integers(0, 2**39, size=10_000):
            assert decode_binary(binarize(int(n))) == int(n)

    def test_injective_on_neighbors(self):
        for n in (0, 1, 2, 255, 256, 2**20, 2**39 - 2):
            assert not np.array_equal(binarize(n), binarize(n + 1))


class TestHashText:
    def test_empty_is_zero_vector(self):
        np.testing.assert_array_equal(hash_text(""), np.zeros(PAYLOAD_BITS))

    def test_nonempty_unit_norm(self):
        for text in ("a", "m5.xlarge", "k-means --k 5", "x" * 100):
            norm = np.linalg.norm(hash_text(text))
            assert norm == pytest.approx(1.0, abs=1e-9)

    def test_permutation_sensitivity(self):
        """Distinct bigrams: 'ab' and 'ba' must encode differently."""
        assert not np.array_equal(hash_text("ab"), hash_text("ba"))

    def test_case_insensitive(self):
        np.testing.assert_array_equal(hash_text("Sort"), hash_text("sort"))

    def test_vocabulary_stripping(self):
        assert clean_text("Größe/Path_mixed.CASE") == "gre/path_mixed.case"
        np.testing.assert_array_equal(hash_text("a!!b"), hash_text("ab"))

    def test_out_of_vocabulary_only_is_zero(self):
        np.testing.assert_array_equal(hash_text("!!!"), np.zeros(PAYLOAD_BITS))

    def test_deterministic(self):
        np.testing.assert_array_equal(hash_text("grep -r pattern"),
                                      hash_text("grep -r pattern"))


class TestEncodeProperty:
    def test_natural_dispatch(self):
        vec = encode_property(PropertyValue.natural(6))
        assert vec[0] == 0.0
        np.testing.assert_array_equal(vec[1:], binarize(6))
        assert vec.shape == (VECTOR_SIZE,)

    def test_text_dispatch(self):
        vec = encode_property(PropertyValue.text("k-means --k 5"))
        assert vec[0] == 1.0
        assert np.linalg.norm(vec[1:]) == pytest.approx(1.0, abs=1e-9)

    def test_capacity_error_propagates(self):
        with pytest.raises(CapacityError):
            encode_property(PropertyValue.natural(2**40))

    def test_deterministic_bitwise(self):
        a = encode_property(PropertyValue.text("--iterations 10"))
        b = encode_property(PropertyValue.text("--iterations 10"))
        assert a.tobytes() == b.tobytes()

    def test_invalid_values_rejected(self):
        with pytest.raises(DataError):
            PropertyValue.natural(-1)
        with pytest.raises(DataError):
            PropertyValue("natural", "5")
        with pytest.raises(DataError):
            PropertyValue("weird", 5)


class TestGoldenVectors:
    """Fixture vectors must match the committed reference file bit-exactly
    (tests/golden/gen_reference.py regenerates it independently)."""

    def _rows(self):
        with open(GOLDEN) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        return rows

    def test_bit_exact_match(self):
        for row in self._rows():
            value = int(row["value"]) if row["kind"] == "natural" else row["value"]
            got = encode_property(PropertyValue(row["kind"], value))
            expect = [float(row["method"])] + [float(row[f"v{i}"])
                                               for i in range(PAYLOAD_BITS)]
            assert got.tolist() == expect, f"{row['kind']} {row['value']!r}"

    def test_hashed_fixtures_unit_norm(self):
        for row in self._rows():
            if row["kind"] != "text" or clean_text(row["value"]) == "":
                continue
            q = np.array([float(row[f"v{i}"]) for i in range(PAYLOAD_BITS)])
            assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-9)


class TestScaleoutFeatures:
    def test_x_one(self):
        np.testing.assert_allclose(scaleout_features(1), [1.0, 0.0, 1.0])

    def test_x_two(self):
        np.testing.assert_allclose(scaleout_features(2), [0.5, math.log(2), 2.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(DataError):
            scaleout_features(0)

    @pytest.mark.parametrize("x", [10**400, 2**1024, math.inf, math.nan, 0.5, -3, "x"])
    def test_not_a_finite_number_at_least_one_rejected(self, x):
        """A value a float cannot hold finitely raises DataError, not
        OverflowError, alone or in a sequence."""
        with pytest.raises(DataError, match="scale-out must be"):
            scaleout_features(x)
        with pytest.raises(DataError, match="scale-out must be"):
            scaleout_features([4, x, 2])

    def test_largest_float_is_accepted(self):
        x = int(sys.float_info.max)
        assert scaleout_features(x)[2] == float(x)

    def test_log_is_math_log_per_value(self):
        """ln x is math.log, which np.log misses in the last bit at 9170,
        19143 and 94869 on some builds."""
        xs = [9170, 19143, 94869, 1, 2**39 - 1]
        feats = scaleout_features(xs)
        assert [v.hex() for v in feats[:, 1]] == [math.log(x).hex() for x in xs]
        assert [v.hex() for v in feats[:, 0]] == [(1.0 / x).hex() for x in xs]
        assert feats.shape == (5, 3) and feats.flags.c_contiguous

    def test_one_value_is_a_vector(self):
        assert scaleout_features(7).shape == (3,)
        assert scaleout_features(np.int64(7)).tobytes() == scaleout_features(7).tobytes()
        assert scaleout_features([]).shape == (0, 3)


class TestNormalizer:
    def test_endpoints_on_grid(self):
        norm = Normalizer.fit(range(2, 13))
        # 1/x is largest at x=2, log and x smallest there
        np.testing.assert_allclose(norm.transform(2), [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(norm.transform(12), [0.0, 1.0, 1.0], atol=1e-12)

    def test_training_samples_inside_unit_cube(self):
        xs = [2, 4, 6, 8, 10, 12]
        norm = Normalizer.fit(xs)
        for x in xs:
            v = norm.transform(x)
            assert np.all(v >= 0.0) and np.all(v <= 1.0)

    def test_extrapolation_leaves_unit_cube(self):
        norm = Normalizer.fit([2, 4, 6])
        assert np.any(norm.transform(12) > 1.0)
        assert np.any(norm.transform(1) > 1.0)  # 1/x grows below the range

    def test_degenerate_feature_maps_to_half(self):
        norm = Normalizer.fit([4])
        np.testing.assert_allclose(norm.transform(4), [0.5, 0.5, 0.5])

    def test_sequence_is_the_stacked_single_transforms(self):
        """Bitwise, over the integers where np.log and math.log differ and
        beyond the fitted bounds on both sides."""
        norm = Normalizer.fit(range(2, 13))
        xs = [1, 2, 12, 13] + list(range(9000, 9400)) + [19143, 94869, 2**39 - 1]
        batched = norm.transform(xs)
        assert batched.shape == (len(xs), 3)
        assert batched.tobytes() == np.stack([norm.transform(x) for x in xs]).tobytes()
        # the same arithmetic on Python floats, one value at a time
        expect = [[(f - lo) / (hi - lo) for f, lo, hi in
                   zip((1.0 / x, math.log(x), float(x)), norm.lo, norm.hi)] for x in xs]
        assert batched.tolist() == expect
        assert norm.transform(iter(xs)).tobytes() == batched.tobytes()

    def test_degenerate_feature_in_a_sequence(self):
        norm = Normalizer.fit([4])
        np.testing.assert_array_equal(norm.transform([4, 4]), np.full((2, 3), 0.5))

    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_zero_anywhere_in_a_sequence_is_named(self, where):
        xs = [2, 3, 4, 5, 6, 7, 8]
        xs[where] = 0
        with pytest.raises(DataError, match=r"got 0$"):
            Normalizer.fit(range(2, 13)).transform(xs)

    def test_empty_fit_rejected(self):
        with pytest.raises(DataError):
            Normalizer.fit([])
