"""Round-trip and corruption tests for the versioned model file."""

import hashlib
import json
import pickle
import struct

import numpy as np
import pytest

from jobcast.encoding import Normalizer, PropertyValue
from jobcast.errors import ModelFileError, SchemaError
from jobcast.model import (ModelState, PropertySchema, load, predict, save,
                           serialize, _FORMAT_VERSION, _MAGIC)

SCHEMA = PropertySchema(
    essential=(("dataset_size", "natural"), ("node_type", "text"),
               ("job_parameters", "text")),
    optional=(("memory_mb", "natural"),),
)


def build_state(seed=5):
    return ModelState.new(SCHEMA, Normalizer.fit([2, 6, 12]),
                          np.random.default_rng(seed))


def random_inputs(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        props = {
            "dataset_size": PropertyValue.natural(int(rng.integers(1, 2**35))),
            "node_type": PropertyValue.text(
                rng.choice(["m5.xlarge", "c5.2xlarge", "r5.large"])),
            "job_parameters": PropertyValue.text(f"--k {rng.integers(1, 20)}"),
        }
        if rng.random() < 0.5:
            props["memory_mb"] = PropertyValue.natural(int(rng.integers(1024, 65536)))
        out.append((int(rng.integers(1, 40)), props))
    return out


def rewrite_with_valid_checksum(blob: bytes) -> bytes:
    payload = blob[:-32]
    return payload + hashlib.sha256(payload).digest()


def save_with_header(tmp_path, mutate):
    """Save a model, apply ``mutate`` to its JSON header, and re-sign it."""
    path = tmp_path / "model.jcm"
    save(build_state(), path)
    blob = path.read_bytes()
    header_len = struct.unpack_from("<I", blob, len(_MAGIC) + 4)[0]
    start = len(_MAGIC) + 8
    header = json.loads(blob[start : start + header_len])
    mutate(header)
    new_header = json.dumps(header, sort_keys=True).encode()
    patched = (blob[: len(_MAGIC) + 4] + struct.pack("<I", len(new_header))
               + new_header + blob[start + header_len :])
    path.write_bytes(rewrite_with_valid_checksum(patched))
    return path


class TestRoundTrip:
    def test_predictions_bitwise_identical(self, tmp_path):
        state = build_state()
        path = tmp_path / "model.jcm"
        save(state, path)
        loaded = load(path)
        for x, props in random_inputs(100):
            a = predict(state, x, props).runtime_seconds
            b = predict(loaded, x, props).runtime_seconds
            assert a == b

    def test_weights_bitwise_identical(self, tmp_path):
        state = build_state()
        path = tmp_path / "model.jcm"
        save(state, path)
        loaded = load(path)
        np.testing.assert_array_equal(loaded.vector, state.vector)
        for c in ("f", "g", "h", "z"):
            np.testing.assert_array_equal(getattr(loaded, c).w2, getattr(state, c).w2)
        assert loaded.normalizer == state.normalizer
        assert loaded.schema == state.schema

    def test_fingerprint_survives_round_trip(self, tmp_path):
        state = build_state()
        path = tmp_path / "model.jcm"
        save(state, path)
        assert load(path).fingerprint() == state.fingerprint()

    def test_file_fingerprint_is_trailing_digest(self, tmp_path):
        state = build_state()
        path = tmp_path / "model.jcm"
        save(state, path)
        blob = path.read_bytes()
        assert blob[-32:].hex() == state.fingerprint()


class TestRejection:
    def test_truncated_file(self, tmp_path):
        state = build_state()
        path = tmp_path / "model.jcm"
        save(state, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelFileError):
            load(path)

    def test_flipped_byte(self, tmp_path):
        state = build_state()
        path = tmp_path / "model.jcm"
        save(state, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFileError):
            load(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "model.jcm"
        path.write_bytes(b"definitely not a model file, far too short?")
        with pytest.raises(ModelFileError):
            load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFileError):
            load(tmp_path / "nope.jcm")

    def test_version_mismatch(self, tmp_path):
        """A file with a bumped version and a valid checksum is refused."""
        state = build_state()
        path = tmp_path / "model.jcm"
        save(state, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(_MAGIC), _FORMAT_VERSION + 1)
        path.write_bytes(rewrite_with_valid_checksum(bytes(blob)))
        with pytest.raises(ModelFileError, match="version"):
            load(path)

    def test_schema_inconsistent_width(self, tmp_path):
        """Dropping an essential property from the header must fail the
        width law (the stored z block no longer fits)."""
        def drop_essential(header):
            header["schema"]["essential"] = header["schema"]["essential"][:-1]

        path = save_with_header(tmp_path, drop_essential)
        with pytest.raises(SchemaError):
            load(path)

    @pytest.mark.parametrize("mutate", [
        lambda h: h["dims"].pop("vector_size"),
        lambda h: h.pop("dims"),
        lambda h: h["dims"].update(f_hidden=15),
        lambda h: h["dims"].update(code_dim="4"),
        lambda h: h["activations"].update(z=["relu", "selu"]),
        lambda h: h["activations"].update(g=["selu"]),
        lambda h: h["activations"].pop("h"),
        lambda h: h["dropout"].update(g=1.0),
        lambda h: h["dropout"].update(h="0.1"),
        lambda h: h["dropout"].pop("f"),
        lambda h: h["normalizer"].update(lo=h["normalizer"]["lo"][:2]),
        lambda h: h["normalizer"].update(hi=[1.0, float("inf"), 2.0]),
        lambda h: h["normalizer"].update(lo=[0.0, None, 1.0]),
        lambda h: h["normalizer"].pop("hi"),
    ], ids=["no-vector-size", "no-dims", "hidden-width", "dim-type",
            "unknown-activation", "one-activation", "no-activation",
            "dropout-range", "dropout-type", "no-dropout",
            "two-bounds", "infinite-bound", "null-bound", "no-upper-bounds"])
    def test_invalid_header_is_model_file_error(self, tmp_path, mutate):
        """A re-signed file whose header holds a missing or bad value is
        refused at load, never later at predict."""
        path = save_with_header(tmp_path, mutate)
        with pytest.raises(ModelFileError):
            load(path)

    def test_header_that_is_not_json(self, tmp_path):
        state = build_state()
        path = tmp_path / "model.jcm"
        save(state, path)
        blob = bytearray(path.read_bytes())
        blob[len(_MAGIC) + 8] = 0xFF  # not UTF-8
        path.write_bytes(rewrite_with_valid_checksum(bytes(blob)))
        with pytest.raises(ModelFileError):
            load(path)


class TestSerializeBytes:
    def test_fingerprint_changes_iff_content_changes(self):
        state = build_state()
        same = build_state()
        assert state.fingerprint() == same.fingerprint()
        other = build_state(seed=6)
        assert state.fingerprint() != other.fingerprint()

    def test_normalizer_participates_in_fingerprint(self):
        state = build_state()
        moved = state.copy()
        moved.normalizer = Normalizer.fit([2, 6, 24])
        assert moved.fingerprint() != state.fingerprint()

    def test_serialized_stream_is_stable(self):
        state = build_state()
        assert serialize(state) == serialize(state)

    def test_block_settings_are_what_is_saved_copied_and_pickled(self, tmp_path):
        """Dropout and activations live only on the blocks; a change there
        moves the fingerprint and survives save/load, copy and pickle."""
        state = build_state()
        before = state.fingerprint()
        state.g.dropout_rate = 0.25
        state.z.phi = "tanh"
        assert state.fingerprint() != before
        path = tmp_path / "model.jcm"
        save(state, path)
        for twin in (load(path), state.copy(), pickle.loads(pickle.dumps(state))):
            assert (twin.g.dropout_rate, twin.z.phi) == (0.25, "tanh")
            assert twin.fingerprint() == state.fingerprint()
