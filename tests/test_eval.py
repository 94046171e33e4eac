"""Tests for split generation, the comparison harness, and metric output."""

import concurrent.futures
import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jobcast import evalharness, training
from jobcast.errors import ConfigError, DataError
from jobcast.baselines import ErnestModel
from jobcast.dataio import filter_for_variant
from jobcast.evalharness import (ComparisonConfig, EvalSplit, MetricsTable, _score,
                                 _variant_seed, choose_contexts, context_id, ecdf,
                                 generate_splits, run_comparison, validate_split,
                                 write_ecdf_csv, write_metrics_csv)
from jobcast.model import predict_batch
from jobcast.synthetic import SYNTH_SCHEMA, context_records, corpus, make_contexts
from jobcast.training import SearchSpace, pretrain


@pytest.fixture(scope="module")
def ctx_records():
    ctx = make_contexts(1, seed=8)[0]
    return context_records(ctx, repetitions=2, noise=0.02, seed=8)


class TestGenerateSplits:
    def test_full_range_train_has_no_extrapolation(self, ctx_records):
        """Training on {2, 12} covers the whole grid: interpolation tests
        come from {4, 6, 8, 10} and no extrapolation point exists."""
        splits = generate_splits(ctx_records, 2, max_splits=200, seed=1)
        covering = [s for s in splits
                    if sorted(ctx_records[i].scale_out for i in s.train) == [2, 12]]
        assert covering
        for s in covering:
            assert s.extrap_test is None
            assert ctx_records[s.interp_test].scale_out in (4, 6, 8, 10)

    def test_single_point_train_is_extrapolation_only(self, ctx_records):
        splits = generate_splits(ctx_records, 1, max_splits=50, seed=2)
        assert splits
        for s in splits:
            assert s.interp_test is None
            assert s.extrap_test is not None
            assert ctx_records[s.extrap_test].scale_out != \
                ctx_records[s.train[0]].scale_out

    def test_zero_point_train_supported(self, ctx_records):
        splits = generate_splits(ctx_records, 0, max_splits=20, seed=3)
        assert splits
        for s in splits:
            assert s.train == () and s.interp_test is None
            assert s.extrap_test is not None

    def test_exhausted_grid_rejected(self, ctx_records):
        with pytest.raises(DataError):
            generate_splits(ctx_records, 6, max_splits=10, seed=0)

    def test_all_generated_splits_validate(self, ctx_records):
        for n in (0, 1, 2, 3, 4, 5):
            for s in generate_splits(ctx_records, n, max_splits=100, seed=4):
                validate_split(ctx_records, s)

    def test_unique_triples(self, ctx_records):
        splits = generate_splits(ctx_records, 3, max_splits=500, seed=5)
        triples = {(s.train, s.interp_test, s.extrap_test) for s in splits}
        assert len(triples) == len(splits)

    def test_deterministic(self, ctx_records):
        a = generate_splits(ctx_records, 2, max_splits=50, seed=6)
        b = generate_splits(ctx_records, 2, max_splits=50, seed=6)
        assert a == b

    def test_validator_rejects_bad_splits(self, ctx_records):
        by_x = {r.scale_out: i for i, r in enumerate(ctx_records)}
        with pytest.raises(ValueError):  # interp at a training scale-out
            validate_split(ctx_records, EvalSplit(
                (by_x[2], by_x[6], by_x[12]), by_x[6], None))
        with pytest.raises(ValueError):  # extrap inside the range
            validate_split(ctx_records, EvalSplit(
                (by_x[2], by_x[12]), None, by_x[6]))
        with pytest.raises(ValueError):  # no test point at all
            validate_split(ctx_records, EvalSplit((by_x[2],), None, None))


class TestEcdf:
    def test_single_value(self):
        assert ecdf([5]) == [(5, 1.0)]

    def test_duplicates(self):
        assert ecdf([1, 1, 3]) == [(1, 2 / 3), (3, 1.0)]

    def test_permutation_invariant(self):
        assert ecdf([3, 1, 1]) == ecdf([1, 1, 3])

    def test_final_fraction_is_one(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 100, size=57).tolist()
        steps = ecdf(values)
        assert steps[-1][1] == 1.0
        fractions = [f for _, f in steps]
        assert fractions == sorted(fractions)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ecdf([])


def constant_nnls(value):
    """An NNLS model that predicts ``value`` at every scale-out: the first
    column of ``ernest_features`` is 1.0."""
    return ErnestModel((value, 0.0, 0.0, 0.0))


class TestScore:
    def test_perfect_oracle_has_zero_error(self, ctx_records):
        """Each test record, scored by the constant model at its own
        runtime, has no error."""
        splits = generate_splits(ctx_records, 2, max_splits=30, seed=7)
        rows = []
        for split in splits:
            for task, idx in (("interp", split.interp_test), ("extrap", split.extrap_test)):
                if idx is not None:
                    oracle = constant_nnls(ctx_records[idx].runtime_seconds)
                    rows += [r for r in _score(ctx_records, split, "nnls", oracle, "c")
                             if r.task == task]
        assert rows
        assert all(r.rel_err == 0.0 and r.abs_err == 0.0 for r in rows)
        assert {(r.method, r.flag) for r in rows} == {("nnls", "ok")}

    def test_constant_method_matches_closed_form(self, ctx_records):
        """Aggregated MRE must equal the analytic mean of |c - y| / y over
        the chosen test points."""
        splits = generate_splits(ctx_records, 2, max_splits=30, seed=8)
        rows = [row for split in splits
                for row in _score(ctx_records, split, "nnls", constant_nnls(250.0), "c")]
        table = MetricsTable(rows)
        for (method, _v, _n, task), agg in table.aggregate().items():
            expect = np.mean([abs(250.0 - r.actual) / r.actual
                              for r in rows if r.task == task])
            assert agg["mre"] == pytest.approx(float(expect), rel=1e-12)


class TestEvaluateSplits:
    def test_nnls_single_point_flagged_degenerate(self, ctx_records):
        config = ComparisonConfig(methods=("nnls",), n_train_values=(1,),
                                  contexts=[ctx_records[0].context],
                                  max_splits=10, seed=0)
        table = run_comparison(ctx_records, SYNTH_SCHEMA, config)
        assert table.rows
        assert all(r.flag == "degenerate" for r in table.rows)
        assert all(r.rel_err is not None for r in table.rows)

    def test_bell_below_three_points_excluded(self, ctx_records):
        config = ComparisonConfig(methods=("bell",), n_train_values=(2,),
                                  contexts=[ctx_records[0].context],
                                  max_splits=10, seed=0)
        table = run_comparison(ctx_records, SYNTH_SCHEMA, config)
        assert table.rows
        assert all(r.flag.startswith("excluded") for r in table.rows)
        assert all(r.rel_err is None for r in table.rows)


class TestChooseContexts:
    def test_each_node_type_present(self):
        contexts = make_contexts(9, seed=1)
        records = corpus(contexts, repetitions=1, seed=1)
        picked = choose_contexts(records, count=7, seed=0)
        assert len(picked) == 7
        node_types = {ctx.get("node_type") for ctx in picked}
        all_types = {ctx.key.get("node_type") for ctx in contexts}
        assert node_types == all_types

    def test_deterministic(self):
        contexts = make_contexts(9, seed=1)
        records = corpus(contexts, repetitions=1, seed=1)
        assert choose_contexts(records, 5, seed=3) == \
            choose_contexts(records, 5, seed=3)

    def test_requesting_more_than_available(self):
        contexts = make_contexts(3, seed=1)
        records = corpus(contexts, repetitions=1, seed=1)
        assert len(choose_contexts(records, 10, seed=0)) == 3


@pytest.fixture(scope="module")
def small_table(ctx_records):
    config = ComparisonConfig(
        methods=("nnls", "bell", "local"),
        n_train_values=(1, 3),
        contexts=[ctx_records[0].context],
        max_splits=6, seed=1,
        finetune_epochs=300,
    )
    return run_comparison(ctx_records, SYNTH_SCHEMA, config)


class TestRunComparison:
    def test_rows_cover_methods_and_tasks(self, small_table):
        methods = {(r.method, r.variant) for r in small_table.rows}
        assert ("nnls", "") in methods
        assert ("bell", "") in methods
        assert ("model", "local") in methods
        assert {r.task for r in small_table.rows} == {"interp", "extrap"}

    def test_model_rows_carry_epochs_and_walltime(self, small_table):
        model_rows = [r for r in small_table.rows if r.method == "model"
                      and not r.flag.startswith("excluded")]
        assert model_rows
        assert all(r.epochs is not None and r.epochs >= 0 for r in model_rows)
        assert all(r.wall_time_s is not None for r in model_rows)

    def test_reproducible_under_seed(self, ctx_records):
        config = ComparisonConfig(methods=("nnls",), n_train_values=(2,),
                                  contexts=[ctx_records[0].context],
                                  max_splits=8, seed=9)
        a = run_comparison(ctx_records, SYNTH_SCHEMA, config)
        b = run_comparison(ctx_records, SYNTH_SCHEMA, config)
        assert a.rows == b.rows

    def test_workers_match_sequential(self, ctx_records):
        """Parallel cells produce identical rows, wall time aside; this
        also exercises pickling of model states and configs."""
        base = dict(methods=("nnls", "bell", "local"), n_train_values=(3,),
                    contexts=[ctx_records[0].context], max_splits=6, seed=2,
                    finetune_epochs=40)
        seq = run_comparison(ctx_records, SYNTH_SCHEMA,
                             ComparisonConfig(**base, workers=1))
        par = run_comparison(ctx_records, SYNTH_SCHEMA,
                             ComparisonConfig(**base, workers=2))
        strip = [(r.method, r.variant, r.context, r.n_train, r.task, r.actual,
                  r.predicted, r.rel_err, r.abs_err, r.epochs, r.flag)
                 for r in seq.rows]
        strip_par = [(r.method, r.variant, r.context, r.n_train, r.task,
                      r.actual, r.predicted, r.rel_err, r.abs_err, r.epochs,
                      r.flag) for r in par.rows]
        assert strip == strip_par

    def test_unservable_n_train_fails_before_pretraining(self, monkeypatch):
        def no_pretraining(*args, **kwargs):
            raise AssertionError("pre-training started")

        monkeypatch.setattr(training, "pretrain_corpora", no_pretraining)
        monkeypatch.setattr(evalharness, "pretrain_corpora", no_pretraining)
        wide, narrow = make_contexts(2, seed=9)
        records = (context_records(wide, seed=9)
                   + context_records(narrow, scale_outs=(2, 4, 6), seed=9))
        # n_train 3 fits the 6-point grid of the first context only.
        config = ComparisonConfig(methods=("nnls", "full"), n_train_values=(1, 3),
                                  contexts=[records[0].context, records[-1].context])
        with pytest.raises(ConfigError, match="3-point grid"):
            run_comparison(records, SYNTH_SCHEMA, config)

    def test_unknown_context_fails_before_pretraining(self, monkeypatch):
        def no_pretraining(*args, **kwargs):
            raise AssertionError("pre-training started")

        monkeypatch.setattr(evalharness, "pretrain_corpora", no_pretraining)
        present, absent = make_contexts(2, seed=9)
        config = ComparisonConfig(methods=("nnls", "full"), n_train_values=(1,),
                                  contexts=[present.key, absent.key])
        with pytest.raises(ConfigError, match=re.escape(str(absent.key))):
            run_comparison(context_records(present, seed=9), SYNTH_SCHEMA, config)

    def test_a_corpus_too_small_to_pretrain_excludes_only_its_context(self):
        """The ``full`` and ``filtered`` corpora of the wide context are the
        single record of the other, too few to pre-train: its model rows are
        excluded. The other context's two corpora, the wide context's six
        records each, still pre-train (as rows of one stack), and predict
        what they predicted when each corpus pre-trained on its own."""
        wide, single = make_contexts(2, seed=6)
        records = (context_records(wide, repetitions=1, seed=6)
                   + context_records(single, scale_outs=(4,), repetitions=1, seed=6))
        config = ComparisonConfig(methods=("filtered", "full"), n_train_values=(0,),
                                  contexts=[wide.key, single.key], max_splits=3,
                                  seed=1, pretrain_space=SearchSpace(sample_count=2),
                                  pretrain_epochs=20)
        table = run_comparison(records, SYNTH_SCHEMA, config)
        rows = [(r.variant, r.context, r.task,
                 None if r.predicted is None else r.predicted.hex(), r.flag)
                for r in table.rows]
        excluded = [(variant, context_id(wide.key), "extrap", None,
                     f"excluded: no pre-trained model for variant {variant!r}")
                    for variant in ("filtered", "full")]
        target = records[-1]
        alone = []
        for variant in ("filtered", "full"):
            state, _ = pretrain(filter_for_variant(records, single.key, variant),
                                SYNTH_SCHEMA, space=config.pretrain_space,
                                seed=_variant_seed(config, variant, single.key), epochs=20)
            predicted = predict_batch(state, [target.scale_out], target.properties)[0]
            alone.append((variant, context_id(single.key), "extrap",
                          float(predicted).hex(), "ok"))
        assert rows == excluded * 3 + alone

    def test_unknown_method_token(self, ctx_records):
        with pytest.raises(ConfigError, match="must come from"):
            run_comparison(ctx_records, SYNTH_SCHEMA,
                           ComparisonConfig(methods=("magic",)))

    @pytest.mark.parametrize("name, value", [("contexts", 0), ("contexts", -1),
                                             ("max_splits", 0), ("max_splits", -3),
                                             ("workers", 0)])
    def test_a_count_below_one_fails_before_pretraining(self, ctx_records, monkeypatch,
                                                        name, value):
        def no_pretraining(*args, **kwargs):
            raise AssertionError("pre-training started")

        monkeypatch.setattr(evalharness, "pretrain_corpora", no_pretraining)
        config = ComparisonConfig(methods=("nnls", "full"), **{name: value})
        with pytest.raises(ConfigError, match=f"^{name} must be at least 1, got {value}$"):
            run_comparison(ctx_records, SYNTH_SCHEMA, config)

    @pytest.mark.parametrize("methods", [(), ("",), ("nnls", "nnls"),
                                         ("full", "bell", "full")])
    def test_empty_or_repeated_method_tokens(self, ctx_records, methods):
        with pytest.raises(ConfigError, match="method tokens"):
            run_comparison(ctx_records, SYNTH_SCHEMA, ComparisonConfig(methods=methods))

    def test_pool_starts_no_more_workers_than_tasks(self, monkeypatch):
        """A sequential stand-in for the pool records the worker count asked
        for: never more than the tasks, one per n_train, nor than the CPUs
        this process may use. Two contexts give six cells but three tasks.
        The rows are those of an in-process run."""
        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, task):
                future = concurrent.futures.Future()
                future.set_result(fn(task))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        records = corpus(make_contexts(2, seed=8), repetitions=1, seed=8)
        contexts = sorted({r.context for r in records}, key=str)
        base = dict(methods=("nnls", "bell"), n_train_values=(1, 2, 3),
                    contexts=contexts, max_splits=3, seed=4)
        serial = run_comparison(records, SYNTH_SCHEMA, ComparisonConfig(**base))
        assert {r.context for r in serial.rows} == {context_id(c) for c in contexts}
        for cpus in (64, 2):
            monkeypatch.setattr(training, "_cpus", lambda: cpus)
            pooled = run_comparison(records, SYNTH_SCHEMA,
                                    ComparisonConfig(**base, workers=5000))
            assert pooled.rows == serial.rows
        assert asked == [3, 2]

    def test_importing_the_package_loads_no_process_pool(self):
        """The pool's module, and multiprocessing with it, load only when a
        run with more than one worker starts a pool."""
        src = Path(evalharness.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")])}
        code = ("import sys, jobcast, jobcast.cli; "
                "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
                "if m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_an_evaluate_run_loads_no_masked_arrays(self, tmp_path):
        """The hybrid baseline takes its medians without np.median, whose
        first call imports numpy.ma."""
        src = Path(evalharness.__file__).resolve().parents[1]
        data = Path(__file__).resolve().parent / "data"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")])}
        argv = ["evaluate", "--data", str(data / "sort_runs.csv"),
                "--manifest", str(data / "sort_manifest.txt"), "--methods", "bell",
                "--n-train", "3", "--max-splits", "2", "--out-dir", str(tmp_path / "out")]
        code = (f"import sys; from jobcast import cli; cli.main({argv!r}); "
                "print('numpy.ma' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "bell" in done.stdout
        assert done.stdout.strip().splitlines()[-1] == "False"

    def test_interpolation_error_shrinks_with_more_data(self, ctx_records):
        """Statistical sanity on parametric-shaped data: the hybrid and the
        learned model interpolate better with 5 training points than with
        their minimum workable counts."""
        config = ComparisonConfig(
            methods=("bell", "local"), n_train_values=(2, 3, 5),
            contexts=[ctx_records[0].context], max_splits=8, seed=3,
            finetune_epochs=600,
        )
        table = run_comparison(ctx_records, SYNTH_SCHEMA, config)
        agg = table.aggregate()
        assert agg[("bell", "", 5, "interp")]["mre"] <= \
            agg[("bell", "", 3, "interp")]["mre"]
        assert agg[("model", "local", 5, "interp")]["mre"] <= \
            agg[("model", "local", 2, "interp")]["mre"]


class TestCsvOutput:
    def test_metrics_and_ecdf_files(self, ctx_records, tmp_path):
        config = ComparisonConfig(
            methods=("nnls", "local"), n_train_values=(2,),
            contexts=[ctx_records[0].context], max_splits=4, seed=0,
            finetune_epochs=50,
        )
        table = run_comparison(ctx_records, SYNTH_SCHEMA, config)
        mpath = tmp_path / "metrics.csv"
        epath = tmp_path / "ecdf.csv"
        write_metrics_csv(table, mpath)
        write_ecdf_csv(table, epath)

        with open(mpath) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert set(rows[0]) == {"method", "variant", "context", "n_train",
                                "task", "mre", "mae", "epochs", "wall_time_s",
                                "flag"}
        ok_rows = [r for r in rows if r["flag"] == "ok"]
        assert all(float(r["mre"]) >= 0 for r in ok_rows)

        with open(epath) as fh:
            steps = list(csv.DictReader(fh))
        local_steps = [s for s in steps if s["variant"] == "local"]
        assert local_steps
        assert float(local_steps[-1]["cumulative_fraction"]) == 1.0

    def test_ecdf_counts_every_fit_once(self, ctx_records, tmp_path, monkeypatch):
        """The ECDF holds the epochs of every model fit that was not
        excluded, once each, whichever test tasks its split has: at n_train
        1 no split has an interpolation test, and at n_train 5 on a six-point
        grid each split has only one of the two."""
        finetune_rows, fits = training._finetune_rows, []

        def recording(rows, epochs):
            results = finetune_rows(rows, epochs)
            fits.extend(r for r in results if not isinstance(r, Exception))
            return results

        monkeypatch.setattr(training, "_finetune_rows", recording)
        config = ComparisonConfig(methods=("local",), n_train_values=(1, 2, 5),
                                  contexts=[ctx_records[0].context], max_splits=6,
                                  seed=3, finetune_epochs=300)
        table = run_comparison(ctx_records, SYNTH_SCHEMA, config)
        assert {r.n_train for r in table.rows if r.task == "extrap"} == {1, 2, 5}
        assert len(table.epochs_of("local")) == len(fits) > 0
        path = tmp_path / "ecdf.csv"
        write_ecdf_csv(table, path)
        with open(path) as fh:
            steps = [tuple(row.values()) for row in csv.DictReader(fh)]
        assert steps == [("model", "local", str(value), repr(fraction)) for value, fraction
                         in ecdf([report.epochs_run for _, report in fits])]

    def test_context_id_stable(self, ctx_records):
        ctx = ctx_records[0].context
        assert context_id(ctx) == context_id(ctx)
        assert len(context_id(ctx)) == 8
