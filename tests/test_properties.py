"""Property tests for the input boundaries: whatever text arrives, only a
:class:`JobcastError` escapes, and whatever loads can be encoded.

Examples are derandomized and few, so the suite stays deterministic and fast.
"""

import csv
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jobcast import cli
from jobcast.dataio import load_dataset, parse_manifest
from jobcast.encoding import Normalizer
from jobcast.errors import ConfigError, JobcastError
from jobcast.model import encode_batch

DATA = Path(__file__).parent / "data"

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
