"""Property tests for the input boundaries: whatever text arrives, only a
:class:`JobcastError` escapes, and whatever loads can be encoded; and for
the encoders, which must equal the plain loops of ``golden/gen_reference.py``
byte for byte.

Examples are derandomized and few, so the suite stays deterministic and fast.
"""

import contextlib
import csv
import hashlib
import io
import importlib.util
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jobcast import cli, model
from jobcast.dataio import load_dataset, parse_manifest
from jobcast.encoding import (PAYLOAD_BITS, Normalizer, PropertyValue, binarize,
                              encode_property, hash_text)
from jobcast.errors import CapacityError, ConfigError, JobcastError
from jobcast.model import encode_batch

DATA = Path(__file__).parent / "data"

_spec = importlib.util.spec_from_file_location(
    "gen_reference", Path(__file__).parent / "golden" / "gen_reference.py")
REFERENCE = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(REFERENCE)

FUZZ = settings(derandomize=True, max_examples=60, database=None, deadline=None)

# Any code point but a surrogate, ASCII drawn as often as the rest so that
# digits, signs and separators turn up. An explicit alphabet rather than
# st.characters(), whose category table takes seconds to build on first use.
CHAR = st.one_of(
    st.integers(0, 0x7F),
    st.integers(0x80, 0x10FFFF).filter(lambda c: not 0xD800 <= c < 0xE000),
).map(chr)

# Arbitrary text, plus the number spellings that sit on a boundary.
CELL = st.one_of(
    st.text(CHAR, max_size=12),
    st.sampled_from(["inf", "-inf", "nan", "1e15", "1e400", "-1", "0", "", " 7 ",
                     "2.5", "549755813887", "549755813888"]),
    st.floats().map(repr),
    st.integers(-2**64, 2**64).map(str),
)


@pytest.fixture(scope="module")
def sort_data(tmp_path_factory):
    manifest = parse_manifest(DATA / "sort_manifest.txt")
    with open(DATA / "sort_runs.csv", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    schema = cli._schema_from_manifest(manifest)
    return manifest, header, schema, tmp_path_factory.mktemp("fuzz") / "runs.csv"


@FUZZ
@given(rows=st.lists(st.lists(CELL, min_size=9, max_size=9), min_size=1, max_size=2))
def test_load_dataset_on_arbitrary_cells(sort_data, rows):
    manifest, header, schema, path = sort_data
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + rows)
    try:
        records = load_dataset(path, manifest)
    except JobcastError:
        return
    encode_batch(schema, Normalizer.fit(r.scale_out for r in records), records)


@FUZZ
@given(raw=st.dictionaries(
    st.sampled_from(["dataset_size", "memory_mb", "node_type", "unknown"]), CELL))
def test_coerce_props_on_arbitrary_text(sort_data, raw):
    try:
        cli._coerce_props(sort_data[2], raw)
    except JobcastError:
        pass


# Ranges are bounded before they are expanded, so a draw may spell any.
@FUZZ
@given(text=st.one_of(st.text(CHAR, max_size=16), st.text("0123456789-, x.", max_size=16)))
def test_parse_int_list_on_arbitrary_text(text):
    try:
        values = cli._parse_int_list(text, limit=20)
    except ConfigError:
        return
    assert values and all(isinstance(v, int) and 0 <= v <= 20 for v in values)


# Manifest lines: mostly known keys with arbitrary or plausible values, so
# that draws get past the first checks; sometimes arbitrary text.
MANIFEST_KEY = st.one_of(
    st.sampled_from(["algorithm", "column.scale_out", "column.runtime", "unit.runtime"]),
    st.tuples(st.sampled_from(["size", "kind", "", "a.b"]),
              st.sampled_from(["role", "kind", "column", "unit", "other"]))
    .map(lambda t: f"property.{t[0]}.{t[1]}"),
    st.text(CHAR, max_size=12),
)
MANIFEST_VALUE = st.one_of(
    st.sampled_from(["essential", "optional", "natural", "text", "mb", "KiB", "s", "ms",
                     "min", "hours", "x", ""]),
    CELL,
)
MANIFEST_LINE = st.one_of(
    st.tuples(MANIFEST_KEY, MANIFEST_VALUE).map(" = ".join),
    st.text(CHAR, max_size=20),
)


@FUZZ
@given(lines=st.lists(MANIFEST_LINE, max_size=12),
       encoding=st.sampled_from(["utf-8", "latin-1", "utf-16"]))
def test_parse_manifest_on_arbitrary_text(tmp_path_factory, lines, encoding):
    path = tmp_path_factory.mktemp("manifest") / "m.txt"
    path.write_bytes("\n".join(lines).encode(encoding, errors="replace"))
    try:
        manifest = parse_manifest(path)
    except JobcastError:
        return
    assert manifest.essential


# Encoder input: any code point, lone surrogates included (argv reaches
# --props surrogate-escaped), with the characters whose lowercase is or holds
# ASCII ('İ' -> 'i̇', Kelvin 'K' -> 'k') and short strings drawn often.
ANY_CHAR = st.one_of(
    st.integers(0, 0x7F).map(chr),
    st.integers(0x80, 0x10FFFF).map(chr),
    st.sampled_from(["\u0130", "\u212a", "\udcff", "\ud800", "\u00df", "A", "Z", "-"]),
)
TEXT = st.one_of(st.text(ANY_CHAR, max_size=2), st.text(ANY_CHAR, max_size=40))
NATURAL = st.one_of(
    st.integers(0, 2**PAYLOAD_BITS - 1),
    st.integers(2**PAYLOAD_BITS - 3, 2**PAYLOAD_BITS + 3),
    st.integers(2**PAYLOAD_BITS, 2**70),
)


@FUZZ
@given(text=TEXT)
def test_text_encoding_equals_reference_loops(text):
    expect = np.array(REFERENCE.hashed_vector(text))
    assert hash_text(text).tobytes() == expect.tobytes()
    vec = encode_property(PropertyValue.text(text))
    assert vec.tobytes() == np.concatenate(([1.0], expect)).tobytes()


@FUZZ
@given(n=NATURAL)
def test_natural_encoding_equals_reference_loops(n):
    try:
        payload = binarize(n)
    except CapacityError:
        assert n >= 2**PAYLOAD_BITS
        with pytest.raises(CapacityError):
            encode_property(PropertyValue.natural(n))
        return
    expect = np.array(REFERENCE.binary_vector(n))
    assert payload.tobytes() == expect.tobytes()
    vec = encode_property(PropertyValue.natural(n))
    assert vec.tobytes() == np.concatenate(([0.0], expect)).tobytes()


# Model headers: a saved header with one value replaced by arbitrary JSON or
# one key deleted, then re-signed, so that every check past the checksum runs.
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(), st.integers(-2**70, 2**70),
              st.text(CHAR, max_size=8), st.sampled_from(["selu", "tanh", "natural", "text"])),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(CHAR, max_size=8), inner, max_size=3)),
    max_leaves=6,
)
# Values on a boundary of some header check; JSON integers have no bound.
EDGE = st.sampled_from([10**400, -10**400, float("nan"), float("inf"), -1, 0, 1, 1.5,
                        True, "", [], {}])
HEADER_PATHS = [
    ("schema",), ("schema", "essential"), ("schema", "optional"),
    ("schema", "essential", 0), ("schema", "essential", 0, 1),
    ("dims",), ("dims", "combined_width"), ("dims", "vector_size"), ("dims", "f_hidden"),
    ("activations",), ("activations", "h"), ("activations", "z", 0),
    ("dropout",), ("dropout", "g"),
    ("normalizer",), ("normalizer", "lo"), ("normalizer", "hi", 2),
]


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    schema = model.PropertySchema(essential=(("size", "natural"), ("node", "text")),
                                  optional=(("mem", "natural"),))
    state = model.ModelState.new(schema, Normalizer.fit([2, 6, 12]),
                                 np.random.default_rng(3), dropout_rate=0.1)
    path = tmp_path_factory.mktemp("model") / "m.jcm"
    model.save(state, path)
    return path.read_bytes(), path.with_name("mutated.jcm")


@settings(FUZZ, max_examples=300)
@given(path=st.sampled_from(HEADER_PATHS), value=st.one_of(EDGE, JSON, st.just(KeyError)),
       length_shift=st.sampled_from([0, 0, 0, -1, 1, 8]))
def test_load_of_resigned_mutated_header(saved_model, path, value, length_shift):
    blob, target = saved_model
    start = len(model._MAGIC) + 8
    header_len = struct.unpack_from("<I", blob, start - 4)[0]
    header = json.loads(blob[start : start + header_len])
    *parents, last = path
    node = header
    for key in parents:
        node = node[key]
    if value is KeyError:
        del node[last]
    else:
        node[last] = value
    raw = json.dumps(header, sort_keys=True).encode()
    payload = (blob[: start - 4] + struct.pack("<I", len(raw) + length_shift) + raw
               + blob[start + header_len : -32])
    target.write_bytes(payload + hashlib.sha256(payload).digest())
    try:
        state = model.load(target)
    except JobcastError:
        return
    # A file that loads predicts.
    props = {name: PropertyValue.natural(5) if kind == "natural" else PropertyValue.text("x")
             for name, kind in state.schema.essential + state.schema.optional}
    model.predict(state, 4, props)


# Whole command lines on the sort fixture. Each flag value and each
# name=value token is the good value or an edge case (or, for a token, a
# missing '=' or nothing at all), so every parser and check between argparse
# and the library sees them; the good value is drawn about as often as all
# edge cases together, so that draws also get past the first check. Only
# argparse's usage error may escape, and every exit code is a documented one.
EDGE_TEXT = ["inf", "nan", "-1", "1e30", ""]
GOOD = {"dataset_size": "8000", "dataset_characteristics": "uniform",
        "job_parameters": "--sort-buffer 64m", "node_type": "m5.xlarge",
        "memory_mb": "16384", "cpu_cores": "4", "job_name": "sort"}
ESSENTIAL = ["dataset_size", "dataset_characteristics", "job_parameters", "node_type"]
EXIT_CODES = {0, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_TRAINING, cli.EXIT_SCHEMA}


def _pairs(names):
    return st.tuples(*[st.sampled_from([f"{n}={GOOD[n]}"] * 7 + [f"{n}={e}" for e in EDGE_TEXT]
                                       + [n, None]) for n in names]) \
        .map(lambda tokens: [t for t in tokens if t is not None])


@st.composite
def cli_argv(draw):
    """A command line whose ``MODEL`` and ``OUT`` the test fills in."""
    def flag(good):
        return draw(st.sampled_from([good] * 5 + EDGE_TEXT))

    command = draw(st.sampled_from(["pretrain", "predict", "recommend"]))
    if command == "pretrain":
        argv = ["pretrain", "--data", str(DATA / "sort_runs.csv"),
                "--manifest", str(DATA / "sort_manifest.txt"), "--epochs", "1",
                "--search-samples", "1", "--out", "OUT", "--seed", flag("0"),
                "--variant", draw(st.sampled_from(["full", "filtered", "local"]))]
        if draw(st.booleans()):
            argv += ["--target-context", ",".join(draw(_pairs(ESSENTIAL)))]
        return argv
    argv = [command, "--model", "MODEL", "--props", *draw(_pairs(GOOD))]
    if command == "predict":
        return argv + ["--scale-out", flag("4")]
    return argv + ["--target", flag("100"),
                   "--range", ":".join(flag(good) for good in ("1", "8", "1"))]


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {"MODEL": str(root / "m.jcm"), "OUT": str(root / "out.jcm")}
    assert cli.main(["pretrain", "--data", str(DATA / "sort_runs.csv"),
                     "--manifest", str(DATA / "sort_manifest.txt"), "--epochs", "1",
                     "--search-samples", "1", "--out", paths["MODEL"]]) == 0
    return paths


@settings(FUZZ, max_examples=120)
@given(argv=cli_argv())
def test_cli_main_on_edge_case_arguments(cli_paths, argv):
    argv = [cli_paths.get(arg, arg) for arg in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage error
        assert exc.code == 2
        return
    assert code in EXIT_CODES


def _parsed(parser, argv):
    """The parsed namespace's items as text (so a ``nan`` equals itself), or
    the usage error's stderr."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return repr(sorted(vars(parser.parse_args(argv)).items()))
    except SystemExit as exc:
        assert exc.code == 2
        return err.getvalue()


@settings(FUZZ, max_examples=120)
@given(argv=cli_argv())
def test_shared_parser_parses_as_a_fresh_one(cli_paths, argv):
    """The parser ``main`` keeps across calls (built by ``cli_paths``) gives
    the namespace, or the usage error, that a new tree gives."""
    argv = [cli_paths.get(arg, arg) for arg in argv]
    assert cli._parser is not None
    assert _parsed(cli._parser, argv) == _parsed(cli.build_parser(), argv)
