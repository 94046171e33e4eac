"""Tests for manifest parsing, CSV ingestion, and context filtering."""

from pathlib import Path

import pytest

from jobcast.dataio import (ContextKey, RunRecord,
                            canonical_manifest_from_schema,
                            filter_for_variant, group_by_context,
                            load_dataset, parse_manifest, parse_natural,
                            summarize, write_records_csv)
from jobcast.encoding import PropertyValue
from jobcast.errors import ConfigError, DataError
from jobcast.model import PropertySchema

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def manifest():
    return parse_manifest(DATA / "sort_manifest.txt")


@pytest.fixture(scope="module")
def records(manifest):
    return load_dataset(DATA / "sort_runs.csv", manifest)


class TestManifest:
    def test_roles_and_order(self, manifest):
        assert manifest.algorithm == "sort"
        assert [p.name for p in manifest.essential] == [
            "dataset_size", "dataset_characteristics", "job_parameters",
            "node_type"]
        assert [p.name for p in manifest.optional] == [
            "memory_mb", "cpu_cores", "job_name"]

    def test_unit_conversion_declared(self, manifest):
        size = next(p for p in manifest.properties if p.name == "dataset_size")
        assert size.unit == 10**6  # mb -> bytes

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_manifest(tmp_path / "absent.txt")

    def test_unreadable_manifest_is_config_error(self, tmp_path):
        bad = tmp_path / "m.txt"
        bad.write_bytes("algorithm = x\n".encode("utf-16"))
        with pytest.raises(ConfigError, match="UTF-8"):
            parse_manifest(bad)
        with pytest.raises(ConfigError, match="cannot read"):
            parse_manifest(tmp_path)  # a directory

    def test_duplicate_key_rejected(self, tmp_path):
        bad = tmp_path / "m.txt"
        bad.write_text((DATA / "sort_manifest.txt").read_text()
                       + "\n# again\nalgorithm = sort\n")
        with pytest.raises(ConfigError, match="duplicate key 'algorithm'"):
            parse_manifest(bad)

    def test_missing_required_key(self, tmp_path):
        bad = tmp_path / "m.txt"
        bad.write_text("algorithm = x\ncolumn.scale_out = a\n")
        with pytest.raises(ConfigError):
            parse_manifest(bad)

    def test_unknown_keys_rejected(self, tmp_path):
        bad = tmp_path / "m.txt"
        bad.write_text("algorithm = x\ncolumn.scale_out = a\n"
                       "column.runtime = b\nwhatever = nope\n"
                       "property.p.role = essential\nproperty.p.kind = text\n"
                       "property.p.column = c\n")
        with pytest.raises(ConfigError, match="whatever"):
            parse_manifest(bad)

    def test_essential_property_required(self, tmp_path):
        bad = tmp_path / "m.txt"
        bad.write_text("algorithm = x\ncolumn.scale_out = a\n"
                       "column.runtime = b\n"
                       "property.p.role = optional\nproperty.p.kind = text\n"
                       "property.p.column = c\n")
        with pytest.raises(ConfigError):
            parse_manifest(bad)


class TestLoadDataset:
    def test_row_and_context_counts(self, records):
        assert len(records) == 60
        summary = summarize(records)
        assert summary.context_count == 2
        for grid in summary.scale_out_grid.values():
            assert grid == [2, 4, 6, 8, 10, 12]
        for reps in summary.repetitions.values():
            assert set(reps.values()) == {5}

    def test_summary_of_an_iterator_counts_every_row(self, records):
        summary = summarize(iter(records))
        assert (summary.row_count, summary.context_count) == (60, 2)

    def test_units_normalized(self, records):
        sizes = {r.properties["dataset_size"].value for r in records}
        assert sizes == {8_000_000_000, 24_000_000_000}

    def test_context_key_from_essential_values(self, records):
        ctx = records[0].context
        assert [name for name, _ in ctx.items] == [
            "dataset_size", "dataset_characteristics", "job_parameters",
            "node_type"]

    def test_missing_column(self, tmp_path, manifest):
        bad = tmp_path / "bad.csv"
        bad.write_text("machine_count,gross_runtime_s\n2,10\n")
        with pytest.raises(DataError, match="missing columns"):
            load_dataset(bad, manifest)

    def test_unparsable_cell_reports_row(self, tmp_path, manifest):
        good = (DATA / "sort_runs.csv").read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([good[0], good[1].replace("2,", "two,", 1)]) + "\n")
        with pytest.raises(DataError, match="row 0"):
            load_dataset(bad, manifest)

    def test_nonpositive_runtime_rejected(self, tmp_path, manifest):
        header = ("machine_count,gross_runtime_s,data_size_mb,"
                  "data_characteristics,job_args,instance_type,memory_mb,"
                  "cpu_cores,job\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(header + "2,0.0,8000,u,p,t,1,1,sort\n")
        with pytest.raises(DataError, match="positive"):
            load_dataset(bad, manifest)

    @pytest.mark.parametrize("row, match", [
        ("2,inf,8000,u,p,t,1,1,sort", "runtime must be positive and finite"),
        ("inf,10.5,8000,u,p,t,1,1,sort", "bad scale-out cell 'inf'"),
        ("2,10.5,inf,u,p,t,1,1,sort", "bad natural cell 'inf'"),
        ("2,10.5,8000,u,p,t,1e15,1,sort", "natural cell '1e15' .* outside"),
        ("2,10.5,8000,u,p,t,-1,1,sort", "natural cell '-1' .* outside"),
        ("2", "bad runtime cell None"),
        ("1e15,10.5,8000,u,p,t,1,1,sort", "scale-out cell '1e15' is outside"),
        ("-3,10.5,8000,u,p,t,1,1,sort", "scale-out cell '-3' is outside"),
        ("0.4,10.5,8000,u,p,t,1,1,sort", "scale-out must be >= 1, got 0"),
    ], ids=["runtime-inf", "scale-out-inf", "natural-inf", "natural-over-capacity",
            "natural-negative", "short-row", "scale-out-over-capacity",
            "scale-out-negative", "scale-out-rounds-to-zero"])
    def test_bad_cell_rejected_naming_row(self, tmp_path, manifest, row, match):
        header = ("machine_count,gross_runtime_s,data_size_mb,"
                  "data_characteristics,job_args,instance_type,memory_mb,"
                  "cpu_cores,job\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(header + "2,10.5,8000,u,p,t,1,1,sort\n" + row + "\n")
        with pytest.raises(DataError, match=f"row 1: {match}"):
            load_dataset(bad, manifest)

    def test_scale_out_cell_rounds_as_a_natural(self, tmp_path, manifest):
        """A scale-out cell follows the one rule for naturals: rounded, not
        truncated, so 2.7 machines load as 3."""
        header = ("machine_count,gross_runtime_s,data_size_mb,"
                  "data_characteristics,job_args,instance_type,memory_mb,"
                  "cpu_cores,job\n")
        path = tmp_path / "fractional.csv"
        path.write_text(header + "".join(f"{cell},10.5,8000,u,p,t,1,1,sort\n"
                                         for cell in ("2.7", "3.2", " 4 ", "5.0")))
        assert [r.scale_out for r in load_dataset(path, manifest)] == [3, 3, 4, 5]

    def test_scale_out_cell_rounds_half_up(self, tmp_path, manifest):
        """Halves round up, not to even: 2.5 machines load as 3, and 0.5 as 1
        rather than being refused as a scale-out of 0."""
        header = ("machine_count,gross_runtime_s,data_size_mb,"
                  "data_characteristics,job_args,instance_type,memory_mb,"
                  "cpu_cores,job\n")
        path = tmp_path / "halves.csv"
        path.write_text(header + "".join(f"{cell},10.5,8000,u,p,t,1,1,sort\n"
                                         for cell in ("0.5", "1.5", "2.5", "3.5")))
        assert [r.scale_out for r in load_dataset(path, manifest)] == [1, 2, 3, 4]

    @pytest.mark.parametrize("text,natural", [
        ("0.49999999999999994", 0), ("0.5", 1), ("2.5", 3), ("2.4999999999999996", 2),
        ("-0.5", 0), ("549755813887", (1 << 39) - 1)])
    def test_parse_natural_rounds_half_up_exactly(self, text, natural):
        assert parse_natural(text) == natural

    def test_empty_optional_cells_mean_absent(self, tmp_path, manifest):
        header = ("machine_count,gross_runtime_s,data_size_mb,"
                  "data_characteristics,job_args,instance_type,memory_mb,"
                  "cpu_cores,job\n")
        path = tmp_path / "sparse.csv"
        path.write_text(header + "2,10.5,8000,u,p,t,,4,sort\n")
        rec = load_dataset(path, manifest)[0]
        assert "memory_mb" not in rec.properties
        assert rec.properties["cpu_cores"].value == 4

    def test_round_trip_preserves_record_multiset(self, tmp_path, manifest, records):
        path = tmp_path / "canonical.csv"
        write_records_csv(records, path)
        schema = PropertySchema(tuple((p.name, p.kind) for p in manifest.essential),
                                tuple((p.name, p.kind) for p in manifest.optional))
        back = load_dataset(path, canonical_manifest_from_schema(schema, algorithm="sort"))
        assert sorted(back, key=lambda r: (str(r.context), r.scale_out,
                                           r.runtime_seconds)) == \
            sorted(records, key=lambda r: (str(r.context), r.scale_out,
                                           r.runtime_seconds))


def _record(size, chars, params, node, runtime=100.0, algorithm="sort"):
    props = {
        "dataset_size": PropertyValue.natural(size),
        "dataset_characteristics": PropertyValue.text(chars),
        "job_parameters": PropertyValue.text(params),
        "node_type": PropertyValue.text(node),
    }
    ctx = ContextKey(tuple((k, v.value) for k, v in props.items()))
    return RunRecord(4, runtime, props, ctx, algorithm)


class TestFilterForVariant:
    TARGET = _record(10_000_000_000, "uniform", "--k 5", "m5.xlarge").context

    def test_local_is_empty(self):
        recs = [_record(20_000_000_000, "skewed", "--k 7", "r5.large")]
        assert filter_for_variant(recs, self.TARGET, "local") == []

    def test_full_excludes_target_context_only(self):
        own = _record(10_000_000_000, "uniform", "--k 5", "m5.xlarge")
        other = _record(20_000_000_000, "skewed", "--k 7", "r5.large")
        out = filter_for_variant([own, other], self.TARGET, "full")
        assert out == [other]

    def test_filtered_requires_all_categoricals_to_differ(self):
        """Same job parameters alone disqualifies a record, even with a
        different node type."""
        rec = _record(20_000_000_000, "skewed", "--k 5", "r5.large")
        assert filter_for_variant([rec], self.TARGET, "filtered") == []

    def test_filtered_size_boundary_is_inclusive(self):
        at_boundary = _record(12_000_000_000, "skewed", "--k 7", "r5.large")
        out = filter_for_variant([at_boundary], self.TARGET, "filtered")
        assert out == [at_boundary]

    def test_filtered_rejects_similar_size(self):
        near = _record(11_000_000_000, "skewed", "--k 7", "r5.large")
        assert filter_for_variant([near], self.TARGET, "filtered") == []

    def test_filtered_accepts_smaller_size_too(self):
        smaller = _record(8_000_000_000, "skewed", "--k 7", "r5.large")
        assert filter_for_variant([smaller], self.TARGET, "filtered") == [smaller]

    def test_filtered_subset_of_full(self, records):
        for target in group_by_context(records):
            filtered = filter_for_variant(records, target, "filtered")
            full = filter_for_variant(records, target, "full")
            assert set(map(id, filtered)) <= set(map(id, full))

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            filter_for_variant([], self.TARGET, "none-of-the-above")
