"""Tests for split generation, the comparison harness, and metric output."""

import csv
import re

import numpy as np
import pytest

from jobcast import evalharness, training
from jobcast.errors import ConfigError, DataError
from jobcast.evalharness import (ComparisonConfig, EvalSplit, Method,
                                 MethodResult, MetricsTable, choose_contexts,
                                 context_id, ecdf, evaluate_splits,
                                 generate_splits, run_comparison,
                                 validate_split, write_ecdf_csv,
                                 write_metrics_csv)
from jobcast.synthetic import SYNTH_SCHEMA, context_records, corpus, make_contexts
from jobcast.training import SearchSpace


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


def oracle_method():
    """Knows the actual runtime of every test record."""
    return Method("oracle",
                  fit=lambda train, seed: MethodResult(None),
                  predict=lambda _m, recs: [r.runtime_seconds for r in recs])


def constant_method(value):
    return Method("const",
                  fit=lambda train, seed: MethodResult(value),
                  predict=lambda c, recs: [c] * len(recs))


class TestEvaluateSplits:
    def test_perfect_oracle_has_zero_error(self, ctx_records):
        splits = generate_splits(ctx_records, 2, max_splits=30, seed=7)
        rows = evaluate_splits(ctx_records, splits, [oracle_method()], seed=7)
        assert rows
        assert all(r.rel_err == 0.0 and r.abs_err == 0.0 for r in rows)

    def test_constant_method_matches_closed_form(self, ctx_records):
        """Aggregated MRE must equal the analytic mean of |c - y| / y over
        the chosen test points."""
        splits = generate_splits(ctx_records, 2, max_splits=30, seed=8)
        rows = evaluate_splits(ctx_records, splits, [constant_method(250.0)],
                               seed=8)
        table = MetricsTable(rows)
        for (method, _v, _n, task), agg in table.aggregate().items():
            expect = np.mean([abs(250.0 - r.actual) / r.actual
                              for r in rows if r.task == task])
            assert agg["mre"] == pytest.approx(float(expect), rel=1e-12)

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
        assert rows == excluded * 3 + [
            ("filtered", context_id(single.key), "extrap", "0x1.148001bf42fbep+8", "ok"),
            ("full", context_id(single.key), "extrap", "0x1.7014f02c10d49p+5", "ok"),
        ]

    def test_unknown_method_token(self, ctx_records):
        with pytest.raises(ConfigError, match="must come from"):
            run_comparison(ctx_records, SYNTH_SCHEMA,
                           ComparisonConfig(methods=("magic",)))

    @pytest.mark.parametrize("methods", [(), ("",), ("nnls", "nnls"),
                                         ("full", "bell", "full")])
    def test_empty_or_repeated_method_tokens(self, ctx_records, methods):
        with pytest.raises(ConfigError, match="method tokens"):
            run_comparison(ctx_records, SYNTH_SCHEMA, ComparisonConfig(methods=methods))

    def test_pool_starts_no_more_workers_than_cells(self, ctx_records, monkeypatch):
        """A sequential stand-in for the pool records the worker count asked
        for; the rows are those of an in-process run."""
        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(evalharness, "ProcessPoolExecutor", RecordingPool)
        base = dict(methods=("nnls", "bell"), n_train_values=(1, 2, 3),
                    contexts=[ctx_records[0].context], max_splits=3, seed=4)
        serial = run_comparison(ctx_records, SYNTH_SCHEMA, ComparisonConfig(**base))
        pooled = run_comparison(ctx_records, SYNTH_SCHEMA,
                                ComparisonConfig(**base, workers=5000))
        assert asked == [3]
        assert pooled.rows == serial.rows

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

    def test_context_id_stable(self, ctx_records):
        ctx = ctx_records[0].context
        assert context_id(ctx) == context_id(ctx)
        assert len(context_id(ctx)) == 8
