"""End-to-end CLI tests: command flow, exit codes, artifact hygiene."""

import csv
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from jobcast import cli, evalharness, model, training
from jobcast.dataio import load_dataset, parse_manifest, write_records_csv
from jobcast.encoding import PropertyValue
from jobcast.errors import ConfigError, TrainingError
from jobcast.synthetic import SYNTH_SCHEMA, context_records, make_contexts

DATA = Path(__file__).parent / "data"

PROPS = ["dataset_size=8000000000", "dataset_characteristics=uniform",
         "job_parameters=--sort-buffer 64m", "node_type=m5.xlarge",
         "memory_mb=16384", "cpu_cores=4", "job_name=sort"]


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    """One quick pre-training run shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("cli") / "sort.jcm"
    code = cli.main([
        "pretrain", "--data", str(DATA / "sort_runs.csv"),
        "--manifest", str(DATA / "sort_manifest.txt"),
        "--epochs", "150", "--search-samples", "2", "--seed", "1",
        "--out", str(out),
    ])
    assert code == 0
    return out


class TestPretrain:
    def test_writes_model_and_search_log(self, trained_model, capsys):
        assert trained_model.exists()
        assert trained_model.with_suffix(".search.csv").exists()
        state = model.load(trained_model)
        assert state.schema.essential_count == 4

    def test_missing_manifest_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "m.jcm"
        code = cli.main([
            "pretrain", "--data", str(DATA / "sort_runs.csv"),
            "--manifest", str(tmp_path / "absent.txt"), "--out", str(out),
        ])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()  # no partial artifact

    def test_local_variant_rejected(self, tmp_path):
        code = cli.main([
            "pretrain", "--data", str(DATA / "sort_runs.csv"),
            "--manifest", str(DATA / "sort_manifest.txt"),
            "--variant", "local", "--out", str(tmp_path / "m.jcm"),
        ])
        assert code == cli.EXIT_CONFIG

    def test_deterministic_fingerprints(self, tmp_path, capsys):
        fingerprints = []
        for name in ("a.jcm", "b.jcm"):
            code = cli.main([
                "pretrain", "--data", str(DATA / "sort_runs.csv"),
                "--manifest", str(DATA / "sort_manifest.txt"),
                "--epochs", "40", "--search-samples", "2", "--seed", "7",
                "--out", str(tmp_path / name),
            ])
            assert code == 0
            stdout = capsys.readouterr().out
            fingerprints.append(_grab(stdout, "fingerprint: "))
        assert fingerprints[0] == fingerprints[1]
        assert (tmp_path / "a.jcm").read_bytes() == (tmp_path / "b.jcm").read_bytes()

    def test_target_context_filtering(self, tmp_path, capsys):
        out = tmp_path / "filtered.jcm"
        code = cli.main([
            "pretrain", "--data", str(DATA / "sort_runs.csv"),
            "--manifest", str(DATA / "sort_manifest.txt"),
            "--variant", "full",
            "--target-context",
            "dataset_size=8000,dataset_characteristics=uniform,"
            "job_parameters=--sort-buffer 64m,node_type=m5.xlarge",
            "--epochs", "40", "--search-samples", "2",
            "--out", str(out),
        ])
        assert code == 0
        assert "30 records after filtering" in capsys.readouterr().out


class TestPredict:
    def test_prediction_deterministic(self, trained_model, capsys):
        outputs = []
        for _ in range(2):
            code = cli.main(["predict", "--model", str(trained_model),
                             "--scale-out", "6", "--props", *PROPS])
            assert code == 0
            outputs.append(_grab(capsys.readouterr().out,
                                 "predicted_runtime_seconds: "))
        assert outputs[0] == outputs[1]

    def test_missing_essential_is_schema_error(self, trained_model, capsys):
        code = cli.main(["predict", "--model", str(trained_model),
                         "--scale-out", "6",
                         "--props", "node_type=m5.xlarge"])
        assert code == cli.EXIT_SCHEMA

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "lots", "-3", "1e15"])
    def test_bad_natural_prop_is_config_error(self, trained_model, capsys, value):
        props = [p for p in PROPS if not p.startswith("dataset_size=")]
        code = cli.main(["predict", "--model", str(trained_model),
                         "--scale-out", "6", "--props", f"dataset_size={value}", *props])
        assert code == cli.EXIT_CONFIG
        assert "dataset_size" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [2**39, 10**400, 0, -1],
                             ids=["2**39", "10**400", "zero", "negative"])
    def test_scale_out_outside_a_csv_cells_range_is_config_error(self, tmp_path, capsys,
                                                                 value):
        """Checked before the model is read: the model path does not exist."""
        code = cli.main(["predict", "--model", str(tmp_path / "absent.jcm"),
                         "--scale-out", str(value), "--props", *PROPS])
        assert code == cli.EXIT_CONFIG
        assert "[1, 2**39 - 1]" in capsys.readouterr().err

    def test_largest_scale_out_predicts(self, trained_model, capsys):
        state = model.load(trained_model)
        props = cli._coerce_props(state.schema, cli._parse_pairs(PROPS))
        code = cli.main(["predict", "--model", str(trained_model),
                         "--scale-out", str(2**39 - 1), "--props", *PROPS])
        assert code == 0
        assert float(_grab(capsys.readouterr().out, "predicted_runtime_seconds: ")) == \
            float(f"{model.predict(state, 2**39 - 1, props).runtime_seconds:.3f}")

    def test_props_file(self, trained_model, tmp_path, capsys):
        pf = tmp_path / "ctx.props"
        pf.write_text("\n".join(p for p in PROPS) + "\n")
        code = cli.main(["predict", "--model", str(trained_model),
                         "--scale-out", "6", "--props-file", str(pf)])
        assert code == 0

    def test_corrupt_model_is_data_error(self, trained_model, tmp_path):
        broken = tmp_path / "broken.jcm"
        blob = bytearray(trained_model.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        broken.write_bytes(bytes(blob))
        code = cli.main(["predict", "--model", str(broken),
                         "--scale-out", "6", "--props", *PROPS])
        assert code == cli.EXIT_DATA


class TestRecommend:
    def test_recommendation_matches_curve(self, trained_model, capsys):
        """The recommended scale-out must be the smallest candidate whose
        own predicted runtime is under the target, derived directly from
        the emitted curve."""
        code = cli.main(["recommend", "--model", str(trained_model),
                         "--target", "1e9", "--range", "2:12:2",
                         "--props", *PROPS])
        assert code == 0
        out = capsys.readouterr().out
        curve = _parse_curve(out)
        assert len(curve) == 6
        assert _grab(out, "recommended_scale_out: ") == "2"  # huge target

        target = sorted(r for _, r in curve)[len(curve) // 2]
        code = cli.main(["recommend", "--model", str(trained_model),
                         "--target", str(target), "--range", "2:12:2",
                         "--props", *PROPS])
        assert code == 0
        out = capsys.readouterr().out
        expect = min(x for x, r in curve if r <= target)
        assert int(_grab(out, "recommended_scale_out: ")) == expect

    def test_curve_is_one_batched_prediction(self, trained_model, capsys):
        """The printed curve is predict_batch over the range at 3 decimals,
        and so per-candidate predict's, and the recommendation is the one
        per-candidate predict gives. 9000:9400 holds 9170, where np.log and
        math.log differ in the last bit."""
        state = model.load(trained_model)
        props = cli._coerce_props(state.schema, cli._parse_pairs(PROPS))
        for span, xs in (("2:12:2", range(2, 13, 2)), ("9000:9400:1", range(9000, 9401))):
            singles = [model.predict(state, x, props).runtime_seconds for x in xs]
            # halfway between two curve points, so rounding cannot move the
            # answer; far beyond its training grid the curve is flat below 0
            low, high = sorted(singles)[len(xs) // 2 - 1: len(xs) // 2 + 1]
            target = max((low + high) / 2, 1.0)
            code = cli.main(["recommend", "--model", str(trained_model),
                             "--target", repr(target), "--range", span,
                             "--props", *PROPS])
            assert code == 0
            out = capsys.readouterr().out
            curve = _parse_curve(out)
            assert curve == [(x, float(f"{r:.3f}"))
                             for x, r in zip(xs, model.predict_batch(state, xs, props))]
            assert curve == [(x, float(f"{r:.3f}")) for x, r in zip(xs, singles)]
            assert int(_grab(out, "recommended_scale_out: ")) == \
                min(x for x, r in zip(xs, singles) if r <= target)
            assert out.count("\n") == len(xs) + 2 and out.endswith("\n")

    def test_unachievable_target_still_emits_curve(self, trained_model, capsys):
        code = cli.main(["recommend", "--model", str(trained_model),
                         "--target", "1", "--range", "2:12:2",
                         "--props", *PROPS])
        assert code == 0
        out = capsys.readouterr().out
        assert "none (target not achievable)" in out
        curve = _parse_curve(out)
        assert len(curve) == 6 and all(r > 1 for _, r in curve)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0", "-5"])
    def test_target_must_be_finite_seconds_above_zero(self, tmp_path, capsys, value):
        """Checked before the model is read: the model path does not exist."""
        code = cli.main(["recommend", "--model", str(tmp_path / "absent.jcm"),
                         f"--target={value}", "--range", "2:12:2", "--props", *PROPS])
        assert code == cli.EXIT_CONFIG
        assert "--target" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-3", "1e15"])
    def test_out_of_range_natural_prop_is_config_error(self, trained_model, capsys,
                                                        value):
        props = [p for p in PROPS if not p.startswith("memory_mb=")]
        code = cli.main(["recommend", "--model", str(trained_model), "--target", "100",
                         "--range", "1:8:1", "--props", f"memory_mb={value}", *props])
        assert code == cli.EXIT_CONFIG
        assert "memory_mb" in capsys.readouterr().err

    @pytest.mark.parametrize("span", ["1:100001:1", "3:300003:3"])
    def test_more_candidates_than_the_limit_is_config_error(self, trained_model, capsys,
                                                           span):
        code = cli.main(["recommend", "--model", str(trained_model),
                         "--target", "100", "--range", span, "--props", *PROPS])
        assert code == cli.EXIT_CONFIG
        assert "100001 candidates" in capsys.readouterr().err

    def test_range_is_checked_before_the_model_loads(self, tmp_path, monkeypatch):
        class Loaded(Exception):
            pass

        def load(path):
            raise Loaded

        monkeypatch.setattr(cli.model, "load", load)
        argv = ["recommend", "--model", str(tmp_path / "m.jcm"), "--target", "100",
                "--props", *PROPS, "--range"]
        assert cli.main(argv + ["1:100001:1"]) == cli.EXIT_CONFIG
        assert cli.main(argv + ["12:2:2"]) == cli.EXIT_CONFIG
        with pytest.raises(Loaded):  # exactly the limit
            cli.main(argv + ["1:100000:1"])

    @pytest.mark.parametrize("span", [f"{2**39}:{2**39}:1", f"{10**400}:{10**400}:1",
                                      f"1:{2**39}:{2**38}", "0:8:1"],
                             ids=["2**39", "10**400", "hi-2**39", "zero"])
    def test_scale_out_outside_a_csv_cells_range_is_config_error(self, tmp_path, capsys,
                                                                 span):
        """Checked before the model is read: the model path does not exist."""
        code = cli.main(["recommend", "--model", str(tmp_path / "absent.jcm"),
                         "--target", "100", "--range", span, "--props", *PROPS])
        assert code == cli.EXIT_CONFIG
        assert "[1, 2**39 - 1]" in capsys.readouterr().err

    def test_largest_scale_out_is_scored(self, trained_model, capsys):
        x = 2**39 - 1
        code = cli.main(["recommend", "--model", str(trained_model), "--target", "1e9",
                         "--range", f"{x - 2}:{x}:1", "--props", *PROPS])
        assert code == 0
        out = capsys.readouterr().out
        assert [s for s, _ in _parse_curve(out)] == [x - 2, x - 1, x]
        assert _grab(out, "recommended_scale_out: ") == str(x - 2)

    def test_bad_range_is_config_error(self, trained_model):
        code = cli.main(["recommend", "--model", str(trained_model),
                         "--target", "100", "--range", "12:2:2",
                         "--props", *PROPS])
        assert code == cli.EXIT_CONFIG


class TestFinetune:
    def test_finetune_flow(self, trained_model, tmp_path, capsys):
        ctx = make_contexts(1, seed=21)[0]
        samples = context_records(ctx, repetitions=1, seed=21)[:3]
        samples_csv = tmp_path / "samples.csv"
        write_records_csv(samples, samples_csv)
        out = tmp_path / "tuned.jcm"
        code = cli.main(["finetune", "--model", str(trained_model),
                         "--samples", str(samples_csv),
                         "--reuse", "partial-unfreeze", "--seed", "3",
                         "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "stopped:" in stdout
        tuned = model.load(out)
        assert tuned.fingerprint() != model.load(trained_model).fingerprint()


class TestEvaluate:
    def test_emits_metrics_and_ecdf(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = cli.main([
            "evaluate", "--data", str(DATA / "sort_runs.csv"),
            "--manifest", str(DATA / "sort_manifest.txt"),
            "--methods", "nnls,bell", "--n-train", "2-3",
            "--max-splits", "4", "--contexts", "2",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        with open(out_dir / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["n_train"] for r in rows} == {"2", "3"}
        assert (out_dir / "ecdf.csv").exists()
        with open(out_dir / "contexts.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 2


    @pytest.mark.parametrize("n_train", ["x", "1-x", "2.5", "3-1", ",", "-1", "1-6"])
    def test_bad_n_train_is_config_error(self, tmp_path, capsys, n_train):
        code = cli.main([
            "evaluate", "--data", str(DATA / "sort_runs.csv"),
            "--manifest", str(DATA / "sort_manifest.txt"),
            "--methods", "nnls", "--n-train", n_train,
            "--out-dir", str(tmp_path / "results"),
        ])
        assert code == cli.EXIT_CONFIG
        assert "--n-train" in capsys.readouterr().err


    @pytest.mark.parametrize("methods", ["nnls,bogus", "", "nnls,", "nnls,nnls",
                                         "full,bell,full"])
    def test_bad_methods_is_config_error_before_the_data_loads(
            self, tmp_path, capsys, monkeypatch, methods):
        def no_work(*args, **kwargs):
            raise AssertionError("the data was read")

        monkeypatch.setattr(cli, "load_dataset", no_work)
        code = cli.main([
            "evaluate", "--data", str(DATA / "sort_runs.csv"),
            "--manifest", str(DATA / "sort_manifest.txt"),
            "--methods", methods, "--out-dir", str(tmp_path / "results"),
        ])
        assert code == cli.EXIT_CONFIG
        assert "method tokens" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_n_train_range_is_bounded_before_expansion(self, tmp_path, capsys):
        tracemalloc.start()
        try:
            code = cli.main([
                "evaluate", "--data", str(DATA / "sort_runs.csv"),
                "--manifest", str(DATA / "sort_manifest.txt"),
                "--methods", "nnls", "--n-train", "1-2000000",
                "--out-dir", str(tmp_path / "results"),
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_CONFIG
        assert peak < 10 * 2**20  # two million ints would take about 80 MB

    def test_unservable_n_train_fails_before_pretraining(self, tmp_path, capsys,
                                                         monkeypatch):
        def no_pretraining(*args, **kwargs):
            raise AssertionError("pre-training started")

        monkeypatch.setattr(training, "pretrain_corpora", no_pretraining)
        monkeypatch.setattr(evalharness, "pretrain_corpora", no_pretraining)
        # Narrow the r5.large context's grid to 2, 4, 6: n_train 3 passes the
        # flag's bound (5, from the other context's 6-point grid) but not the
        # harness's check of that context, which comes before pre-training.
        with open(DATA / "sort_runs.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        narrow = [r for r in rows[1:] if r[5] != "r5.large" or int(r[0]) <= 6]
        data = tmp_path / "runs.csv"
        with open(data, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([rows[0], *narrow])
        code = cli.main([
            "evaluate", "--data", str(data),
            "--manifest", str(DATA / "sort_manifest.txt"),
            "--methods", "nnls,full", "--n-train", "1,3",
            "--out-dir", str(tmp_path / "results"),
        ])
        assert code == cli.EXIT_CONFIG
        assert "3-point grid" in capsys.readouterr().err


COUNT_FLAG_CASES = [
    ("pretrain", "--search-samples", "-1"),
    ("pretrain", "--search-samples", "0"),
    ("pretrain", "--epochs", "-5"),
    ("pretrain", "--epochs", "0"),
    ("evaluate", "--max-splits", "-3"),
    ("evaluate", "--max-splits", "0"),
    ("evaluate", "--contexts", "0"),
    ("evaluate", "--workers", "0"),
    ("evaluate", "--search-samples", "0"),
    ("evaluate", "--pretrain-epochs", "-1"),
]


class TestCountFlags:
    @pytest.mark.parametrize("command,flag,value", COUNT_FLAG_CASES)
    def test_count_below_one_is_config_error_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, flag, value):
        def no_work(*args, **kwargs):
            raise AssertionError("the command started work")

        monkeypatch.setattr(cli, "parse_manifest", no_work)
        out = ["--out", str(tmp_path / "m.jcm")] if command == "pretrain" \
            else ["--out-dir", str(tmp_path / "results")]
        code = cli.main([command, "--data", str(DATA / "sort_runs.csv"),
                         "--manifest", str(DATA / "sort_manifest.txt"),
                         flag, value] + out)
        assert code == cli.EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "evaluate"])
    def test_negative_seed_is_config_error_before_any_work(self, tmp_path, capsys,
                                                           monkeypatch, command):
        def no_work(*args, **kwargs):
            raise AssertionError("the command started work")

        monkeypatch.setattr(cli, "parse_manifest", no_work)
        monkeypatch.setattr(cli.model, "load", no_work)
        inputs = (["--model", str(tmp_path / "m.jcm"), "--samples", str(tmp_path / "s.csv")]
                  if command == "finetune" else
                  ["--data", str(DATA / "sort_runs.csv"),
                   "--manifest", str(DATA / "sort_manifest.txt")])
        out = ["--out-dir", str(tmp_path / "results")] if command == "evaluate" \
            else ["--out", str(tmp_path / "out.jcm")]
        code = cli.main([command, *inputs, "--seed", "-1", *out])
        assert code == cli.EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_pretrain_without_samples_is_config_error(self):
        records = context_records(make_contexts(1, seed=0)[0], repetitions=1, seed=0)
        with pytest.raises(ConfigError):
            training.pretrain(records, SYNTH_SCHEMA,
                              space=training.SearchSpace(sample_count=0), epochs=1)


class TestPropsFile:
    @pytest.mark.parametrize("command", [
        ["predict", "--scale-out", "6"],
        ["recommend", "--target", "100", "--range", "2:12:2"],
    ], ids=["predict", "recommend"])
    @pytest.mark.parametrize("make", [
        lambda path: None,  # never created
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"job_name=\xff\xfe\n"),
    ], ids=["missing", "directory", "not-utf8"])
    def test_unreadable_props_file_is_config_error(self, trained_model, tmp_path,
                                                   capsys, command, make):
        path = tmp_path / "ctx.props"
        make(path)
        code = cli.main([command[0], "--model", str(trained_model), *command[1:],
                         "--props-file", str(path)])
        assert code == cli.EXIT_CONFIG
        assert str(path) in capsys.readouterr().err


    def test_a_later_line_wins(self, trained_model, tmp_path, capsys):
        path = tmp_path / "ctx.props"
        path.write_text("# context\ndataset_size = lots\n\n"
                        + "\n".join(PROPS) + "  # the value used\n")
        args = ["predict", "--model", str(trained_model), "--scale-out", "6"]
        assert cli.main(args + ["--props", *PROPS]) == 0
        expect = capsys.readouterr().out
        assert cli.main(args + ["--props-file", str(path)]) == 0
        assert capsys.readouterr().out == expect

    def test_a_line_without_equals_is_config_error(self, trained_model, tmp_path,
                                                   capsys):
        path = tmp_path / "ctx.props"
        path.write_text("\n".join(PROPS) + "\nnode_type m5.xlarge\n")
        code = cli.main(["predict", "--model", str(trained_model),
                         "--scale-out", "6", "--props-file", str(path)])
        assert code == cli.EXIT_CONFIG
        assert f"{path}:8" in capsys.readouterr().err

# The essential properties of the fixture's contexts but dataset_size.
TARGET_REST = ("dataset_characteristics=uniform,job_parameters=--sort-buffer 64m,"
               "node_type=m5.xlarge")


def _pretrain_filtered(out, *flags):
    return cli.main(["pretrain", "--data", str(DATA / "sort_runs.csv"),
                     "--manifest", str(DATA / "sort_manifest.txt"),
                     "--variant", "filtered", "--epochs", "1", "--search-samples", "1",
                     "--out", str(out), *flags])


class TestNaturalValues:
    """A natural from the command line is parsed as a CSV cell is: scaled by
    its unit, rounded, and held to the encoder's range, or a config error."""

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "-5", "1e30", "lots"])
    def test_bad_target_context_natural_is_config_error(self, tmp_path, capsys, value):
        out = tmp_path / "m.jcm"
        code = _pretrain_filtered(out, "--target-context",
                                  f"dataset_size={value},{TARGET_REST}")
        assert code == cli.EXIT_CONFIG
        assert "dataset_size" in capsys.readouterr().err
        assert not out.exists()

    def test_filtered_variant_needs_a_target_context(self, tmp_path, capsys):
        out = tmp_path / "m.jcm"
        assert _pretrain_filtered(out) == cli.EXIT_CONFIG
        assert "--target-context" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,natural", [("2.6", 3), ("-0.4", 0)])
    def test_props_natural_rounds_as_a_csv_cell_does(self, tmp_path, text, natural):
        manifest = parse_manifest(DATA / "sort_manifest.txt")
        rows = (DATA / "sort_runs.csv").read_text().splitlines()[:2]
        cells = rows[1].split(",")
        cells[6] = text  # memory_mb, in bytes
        path = tmp_path / "one.csv"
        path.write_text("\n".join([rows[0], ",".join(cells)]) + "\n")
        from_csv = load_dataset(path, manifest)[0].properties["memory_mb"]
        props = cli._coerce_props(cli._schema_from_manifest(manifest),
                                  {"memory_mb": text})
        assert props["memory_mb"] == from_csv == PropertyValue.natural(natural)

    @pytest.mark.parametrize("text,natural", [("0.5", 1), ("1.5", 2), ("2.5", 3),
                                              ("3.5", 4)])
    def test_halves_round_up_everywhere(self, tmp_path, text, natural):
        """A CSV cell, a ``--props`` value and a ``--target-context`` value
        all round a half up, never to even."""
        # dataset_size in bytes, so a half stays a half after scaling.
        manifest_path = tmp_path / "bytes.txt"
        manifest_path.write_text((DATA / "sort_manifest.txt").read_text()
                                 .replace("property.dataset_size.unit = mb\n", ""))
        manifest = parse_manifest(manifest_path)
        rows = (DATA / "sort_runs.csv").read_text().splitlines()[:2]
        cells = rows[1].split(",")
        cells[2] = cells[6] = text  # data_size_mb and memory_mb
        path = tmp_path / "one.csv"
        path.write_text("\n".join([rows[0], ",".join(cells)]) + "\n")
        from_csv = load_dataset(path, manifest)[0].properties
        props = cli._coerce_props(cli._schema_from_manifest(manifest),
                                  {"memory_mb": text})
        context = cli._parse_context(f"dataset_size={text},{TARGET_REST}", manifest)
        expected = PropertyValue.natural(natural)
        assert from_csv["dataset_size"] == from_csv["memory_mb"] == expected
        assert props["memory_mb"] == expected
        assert context.get("dataset_size") == natural


class TestExitCodeMapping:
    def test_training_error_maps_to_4(self, monkeypatch, tmp_path):
        def boom(args):
            raise TrainingError("synthetic failure")

        monkeypatch.setattr(cli, "cmd_predict", boom)
        code = cli.main(["predict", "--model", "x", "--scale-out", "2"])
        assert code == cli.EXIT_TRAINING


class TestOneParser:
    """``main`` builds its parser once per process and dispatches to the
    ``cmd_<command>`` function it finds at call time."""

    def test_calls_build_the_parser_once(self, trained_model, monkeypatch, capsys):
        build_parser, built = cli.build_parser, []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        for _ in range(4):
            assert cli.main(["predict", "--model", str(trained_model),
                             "--scale-out", "4", "--props", *PROPS]) == 0
        assert len(built) == 1

    def test_a_command_replaced_after_the_first_call_is_dispatched(
            self, trained_model, monkeypatch, capsys):
        assert cli.main(["predict", "--model", str(trained_model),
                         "--scale-out", "4", "--props", *PROPS]) == 0
        seen = []

        def replacement(args):
            seen.append(args.scale_out)
            return 7

        monkeypatch.setattr(cli, "cmd_predict", replacement)
        assert cli.main(["predict", "--model", "x", "--scale-out", "5"]) == 7
        assert seen == [5]

    def test_no_default_carries_over_between_calls(self, trained_model, tmp_path,
                                                   capsys):
        """A recommend without ``--props`` after one with it prints what the
        same command prints alone in a new process: a ``--props`` value left
        behind would override the file's ``dataset_size``."""
        props_file = tmp_path / "context.props"
        props_file.write_text("\n".join(["dataset_size=16000000000", *PROPS[1:]]) + "\n",
                              encoding="utf-8")
        command = ["recommend", "--model", str(trained_model), "--target", "300",
                   "--range", "2:12:2"]
        assert cli.main([*command, "--props", *PROPS]) == 0
        capsys.readouterr()
        code = cli.main([*command, "--props-file", str(props_file)])
        in_process = capsys.readouterr()
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")])}
        alone = subprocess.run([sys.executable, "-m", "jobcast.cli", *command,
                                "--props-file", str(props_file)],
                               env=env, capture_output=True, text=True, timeout=120)
        assert (code, in_process.out, in_process.err) == \
            (alone.returncode, alone.stdout, alone.stderr)
        assert code == 0


def _grab(text: str, prefix: str) -> str:
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise AssertionError(f"no line starting with {prefix!r} in:\n{text}")


def _parse_curve(text: str):
    curve = []
    seen_header = False
    for line in text.splitlines():
        if line.startswith("scale_out,"):
            seen_header = True
            continue
        if seen_header and "," in line:
            x, runtime = line.split(",")
            curve.append((int(x), float(runtime)))
        elif seen_header:
            break
    return curve