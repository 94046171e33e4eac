"""Tests for pre-training search and fine-tuning schedule/stopping."""

import numpy as np
import pytest

from jobcast import model, training
from jobcast.dataio import ContextKey, RunRecord
from jobcast.encoding import VECTOR_SIZE, PropertyValue
from jobcast.errors import DataError
from jobcast.model import ModelState, joint_loss, predict
from jobcast.nn import Adam, TwoLayerBlock
from jobcast.synthetic import SYNTH_SCHEMA, corpus, context_records, make_contexts
from jobcast.training import (SearchSpace, finetune, lr_at, pretrain,
                              unfreeze_epoch)
from test_finetune_reference import maes


@pytest.fixture(scope="module")
def small_pretrained():
    """A short two-context pre-training shared across tests."""
    contexts = make_contexts(2, seed=3)
    records = corpus(contexts, repetitions=2, seed=3)
    state, log = pretrain(records, SYNTH_SCHEMA,
                          space=SearchSpace(sample_count=4),
                          seed=0, epochs=1200)
    return state, log, records


@pytest.fixture(scope="module")
def target_context():
    ctx = make_contexts(6, seed=0)[5]
    return ctx, context_records(ctx, repetitions=2, seed=99)


class TestLrSchedule:
    def test_starts_at_hi(self):
        assert lr_at(0) == pytest.approx(1e-2)

    def test_trough_at_half_period(self):
        assert lr_at(100) == pytest.approx(1e-3)

    def test_periodicity(self):
        assert lr_at(200) == pytest.approx(lr_at(0))
        assert lr_at(450) == pytest.approx(lr_at(50))

    def test_bounds(self):
        values = [lr_at(e) for e in range(400)]
        assert min(values) >= 1e-3 and max(values) <= 1e-2


class TestUnfreezeEpoch:
    def test_linear_in_samples_with_cap(self):
        assert unfreeze_epoch(1) == 100
        assert unfreeze_epoch(5) == 500
        assert unfreeze_epoch(10) == 1000
        assert unfreeze_epoch(100) == 1000


class TestPretrain:
    def test_corpus_too_small(self):
        with pytest.raises(DataError):
            pretrain([], SYNTH_SCHEMA)

    def test_search_log_shape(self, small_pretrained):
        _, log, _ = small_pretrained
        assert len(log) == 4
        assert sum(e.chosen for e in log) == 1
        grid = set(SearchSpace().grid())
        for e in log:
            assert (e.dropout_rate, e.learning_rate, e.weight_decay) in grid
            assert e.status in ("ok", "diverged")
            if e.status == "ok":
                assert e.train_mae_seconds >= 0
                assert e.val_mae_seconds >= 0
        # sampled without replacement
        combos = [(e.dropout_rate, e.learning_rate, e.weight_decay) for e in log]
        assert len(set(combos)) == len(combos)

    def test_training_mre_on_parametric_corpus(self, small_pretrained):
        """Pre-training on a two-context parametric corpus fits it well."""
        state, _, records = small_pretrained
        rel = [abs(predict(state, r.scale_out, r.properties).runtime_seconds
                   - r.runtime_seconds) / r.runtime_seconds for r in records]
        assert float(np.mean(rel)) < 0.10

    def test_reconstruction_improves_over_initialization(self, small_pretrained):
        state, _, records = small_pretrained
        fresh = ModelState.new(SYNTH_SCHEMA, state.normalizer,
                               np.random.default_rng(0))
        _, _, recon_trained = joint_loss(state, records)
        _, _, recon_fresh = joint_loss(fresh, records)
        assert recon_trained < recon_fresh

    def test_deterministic_under_seed(self):
        contexts = make_contexts(2, seed=3)
        records = corpus(contexts, repetitions=1, seed=3)
        space = SearchSpace(sample_count=2)
        a, log_a = pretrain(records, SYNTH_SCHEMA, space=space, seed=7, epochs=40)
        b, log_b = pretrain(records, SYNTH_SCHEMA, space=space, seed=7, epochs=40)
        assert a.fingerprint() == b.fingerprint()
        assert [e.chosen for e in log_a] == [e.chosen for e in log_b]

    def test_single_context_corpus_runs(self):
        ctx = make_contexts(1, seed=5)[0]
        records = context_records(ctx, repetitions=1, seed=5)
        state, _ = pretrain(records, SYNTH_SCHEMA,
                            space=SearchSpace(sample_count=2), seed=0, epochs=40)
        assert np.isfinite(predict(state, 6, records[0].properties).runtime_seconds)

    def test_two_records_train_on_one_and_validate_on_the_other(self):
        """The held-out split takes max(1, round(20%)) records, fewer than
        the corpus for any corpus of at least 2: each split gets one of 2."""
        ctx = make_contexts(1, seed=5)[0]
        records = context_records(ctx, repetitions=1, seed=5)[:2]
        search = training._Search(records, 0, SYNTH_SCHEMA, SearchSpace().grid(), 1, 0.0)
        train, val = search.train_batch.runtimes, search.val_batch.runtimes
        assert len(train) == len(val) == 1
        assert sorted([*train, *val]) == sorted(r.runtime_seconds for r in records)
        _, log = pretrain(records, SYNTH_SCHEMA, space=SearchSpace(sample_count=1),
                          epochs=5)
        assert [e.status for e in log] == ["ok"]
        assert np.isfinite(log[0].val_mae_seconds)


class TestFinetune:
    def test_zero_samples_returns_state_unchanged(self, small_pretrained):
        state, _, _ = small_pretrained
        tuned, report = finetune(state, [], seed=1)
        assert tuned.fingerprint() == state.fingerprint()
        assert report.stopping_reason == "no_data"
        assert report.epochs_run == 0

    def test_reuse_none_is_pure_reuse(self, small_pretrained, target_context):
        state, _, _ = small_pretrained
        _, samples = target_context
        tuned, report = finetune(state, samples[:3], reuse="none", seed=1)
        assert tuned.fingerprint() == state.fingerprint()
        assert report.epochs_run == 0

    def test_autoencoder_never_changes(self, small_pretrained, target_context):
        state, _, _ = small_pretrained
        _, samples = target_context
        for reuse in ("partial-unfreeze", "full-unfreeze", "partial-reset",
                      "full-reset"):
            tuned, _ = finetune(state, samples[:2], reuse=reuse, seed=3,
                                epochs=60)
            np.testing.assert_array_equal(tuned.g.w1, state.g.w1)
            np.testing.assert_array_equal(tuned.g.w2, state.g.w2)
            np.testing.assert_array_equal(tuned.h.w1, state.h.w1)
            np.testing.assert_array_equal(tuned.h.w2, state.h.w2)

    @pytest.mark.parametrize("reuse", ["partial-unfreeze", "full-reset"])
    def test_optimizer_steps_only_live_segments(self, small_pretrained,
                                                target_context, monkeypatch,
                                                reuse):
        """Over a whole fine-tune no optimizer ever steps g or h: the stack
        that trains it holds only f's and z's columns, z's optimizer steps
        from the first epoch, and f's first steps at its unfreeze epoch with
        zero moments and a count of 0. The frozen g/h slices come back
        bitwise equal: no weight decay."""
        state, _, _ = small_pretrained
        first = target_context[1][0]
        # contradictory runtimes at one scale-out keep the MAE above target
        samples = [first, RunRecord(first.scale_out, 3 * first.runtime_seconds,
                                    first.properties, first.context)]
        stacks, calls = [], []
        init, step = training._Stack.__init__, Adam.step

        def spy_init(stack, *args, **kwargs):
            init(stack, *args, **kwargs)
            stacks.append(stack)

        def component(params):
            """The component whose columns of the stack's params ``params``
            is: f's are the first ``cut``, z's the rest."""
            [stack] = stacks
            layout = {"f": slice(None, stack.cut), "z": slice(stack.cut, None)}
            [c] = [c for c, cols in layout.items()
                   if np.shares_memory(params, stack.params[:, cols])]
            assert params.shape == stack.params[:, layout[c]].shape
            return c

        def spy(optim, params, grads):
            calls.append((optim, component(params), optim.t, optim.m.any()))
            step(optim, params, grads)

        monkeypatch.setattr(training._Stack, "__init__", spy_init)
        monkeypatch.setattr(Adam, "step", spy)
        tuned, report = finetune(state, samples, reuse=reuse, seed=3,
                                 epochs=260)
        join = 0 if reuse == "full-reset" else unfreeze_epoch(2)
        assert report.epochs_run > join
        [stack] = stacks
        np.testing.assert_array_equal(stack.cols, np.r_[state.segments["f"],
                                                        state.segments["z"]])

        seen = [(c, t, moved) for _, c, t, moved in calls]
        expect = []
        for epoch in range(report.epochs_run):
            if epoch >= join:
                expect.append(("f", epoch - join, epoch > join))
            expect.append(("z", epoch, epoch > 0))
        assert seen == expect
        optims = {c: {id(o) for o, oc, _, _ in calls if oc == c} for c in "fz"}
        assert [len(ids) for ids in optims.values()] == [1, 1]
        for c in ("g", "h"):
            seg = state.segments[c]
            np.testing.assert_array_equal(tuned.vector[seg], state.vector[seg])

    @pytest.mark.parametrize("reuse", ["partial-unfreeze", "full-reset"])
    def test_trains_z_and_f_on_frozen_codes_alone(self, small_pretrained,
                                                  target_context, monkeypatch, reuse):
        """Fine-tuning never reads the decoder h: a state whose h is all NaN
        tunes to the same report and the same f/g/z weights. The frozen
        codes come from one g.forward per fine-tune, and the epochs drive z
        and f directly, never forward_batch or backward_batch."""
        state, _, _ = small_pretrained
        first = target_context[1][0]
        # contradictory runtimes at one scale-out keep the MAE above target
        samples = [first, RunRecord(first.scale_out, 3 * first.runtime_seconds,
                                    first.properties, first.context)]
        clean, clean_report = finetune(state, samples, reuse=reuse, seed=3, epochs=260)
        assert clean_report.epochs_run > (0 if reuse == "full-reset" else unfreeze_epoch(2))

        broken = state.copy()
        broken.vector[broken.segments["h"]] = np.nan
        blocks, joint = [], []
        forward = TwoLayerBlock.forward

        def spy_forward(block, x, *args, **kwargs):
            blocks.append((block.in_dim, block.out_dim))
            return forward(block, x, *args, **kwargs)

        def refuse(name):
            def spy(*args, **kwargs):
                joint.append(name)
            return spy

        monkeypatch.setattr(TwoLayerBlock, "forward", spy_forward)
        for module in (model, training):
            for name in ("forward_batch", "backward_batch"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse(name))
        tuned, report = finetune(broken, samples, reuse=reuse, seed=3, epochs=260)

        assert joint == []
        assert blocks.count((VECTOR_SIZE, model.CODE_DIM)) == 1  # g
        assert blocks.count((model.CODE_DIM, VECTOR_SIZE)) == 0  # h
        assert vars(report) | {"wall_time_s": 0} == vars(clean_report) | {"wall_time_s": 0}
        for c in ("f", "g", "z"):
            seg = state.segments[c]
            np.testing.assert_array_equal(tuned.vector[seg], clean.vector[seg])
        assert np.isnan(tuned.vector[state.segments["h"]]).all()

    def test_f_frozen_before_unfreeze_epoch(self, small_pretrained, target_context):
        """With k=2 samples the scale-out block may only move from epoch
        200 on; a run capped earlier must leave it bitwise untouched."""
        state, _, _ = small_pretrained
        _, samples = target_context
        tuned, report = finetune(state, samples[:2], seed=3,
                                 epochs=150)
        if report.epochs_run >= 150:  # did not stop before the cap
            np.testing.assert_array_equal(tuned.f.w1, state.f.w1)
            np.testing.assert_array_equal(tuned.f.w2, state.f.w2)
        assert not np.array_equal(tuned.z.w2, state.z.w2)

    def test_full_unfreeze_moves_f_immediately(self, small_pretrained,
                                               target_context):
        state, _, _ = small_pretrained
        _, samples = target_context
        tuned, report = finetune(state, samples[:2], reuse="full-unfreeze",
                                 seed=3, epochs=20)
        if report.epochs_run > 0 and report.best_epoch > 0:
            assert not np.array_equal(tuned.f.w1, state.f.w1)

    def test_partial_reset_reinitializes_z_keeps_f(self, small_pretrained,
                                                   target_context):
        state, _, _ = small_pretrained
        _, samples = target_context
        tuned, report = finetune(state, samples[:2], reuse="partial-reset",
                                 seed=3, epochs=10)
        assert not np.array_equal(tuned.z.w1, state.z.w1)
        np.testing.assert_array_equal(tuned.f.w1, state.f.w1)

    def test_full_reset_reinitializes_f_and_z(self, small_pretrained,
                                              target_context):
        state, _, _ = small_pretrained
        _, samples = target_context
        tuned, report = finetune(state, samples[:2], reuse="full-reset",
                                 seed=3, epochs=10)
        assert not np.array_equal(tuned.z.w1, state.z.w1)
        assert not np.array_equal(tuned.f.w1, state.f.w1)

    def test_local_overfits_five_points(self, target_context):
        """From-scratch fine-tuning on 5 points of one context reaches the
        5-second MAE target within the epoch cap."""
        _, samples = target_context
        five = [samples[i] for i in range(0, 10, 2)]
        tuned, report = finetune(SYNTH_SCHEMA, five, seed=11)
        assert report.stopping_reason == "mae_threshold"
        assert report.best_mae_seconds <= 5.0
        assert report.epochs_run <= 2500

    def test_local_single_sample_totality(self, target_context):
        _, samples = target_context
        _, report = finetune(SYNTH_SCHEMA, samples[:1], seed=2)
        assert report.stopping_reason in ("mae_threshold", "patience", "epoch_cap")

    def test_epoch_cap_reason(self, small_pretrained, target_context):
        state, _, _ = small_pretrained
        _, samples = target_context
        _, report = finetune(state, samples[:2], seed=3, epochs=3)
        assert report.stopping_reason in ("epoch_cap", "mae_threshold")
        assert report.epochs_run <= 3

    def test_patience_reason(self):
        """Two contradictory targets at one scale-out have a flat MAE
        optimum, so improvement stalls and patience fires."""
        props = {name: PropertyValue.text("v") if kind == "text"
                 else PropertyValue.natural(4)
                 for name, kind in SYNTH_SCHEMA.essential + SYNTH_SCHEMA.optional}
        ctx = ContextKey(tuple((n, props[n].value) for n, _ in SYNTH_SCHEMA.essential))
        samples = [RunRecord(4, 100.0, props, ctx),
                   RunRecord(4, 500.0, props, ctx)]
        _, report = finetune(SYNTH_SCHEMA, samples, seed=0)
        assert report.stopping_reason == "patience"
        assert report.epochs_run - report.best_epoch >= 1000

    def test_best_state_dominance(self, small_pretrained, target_context, maes):
        state, _, _ = small_pretrained
        _, samples = target_context
        tuned, report = finetune(state, samples[:3], seed=5, epochs=400)
        assert report.best_mae_seconds <= min(maes(tuned)) + 1e-12
        assert report.best_epoch <= report.epochs_run <= 2500

    def test_deterministic_report(self, small_pretrained, target_context):
        state, _, _ = small_pretrained
        _, samples = target_context
        a_state, a = finetune(state, samples[:2], seed=9)
        b_state, b = finetune(state, samples[:2], seed=9)
        assert (a.epochs_run, a.best_epoch, a.best_mae_seconds,
                a.stopping_reason) == \
               (b.epochs_run, b.best_epoch, b.best_mae_seconds,
                b.stopping_reason)
        assert a_state.fingerprint() == b_state.fingerprint()

    def test_full_reset_recovers_local_quality(self, small_pretrained,
                                               target_context):
        """Re-initializing f and z and fine-tuning on ground-truth samples
        lands within tolerance of a freshly trained local model: both hit
        the 5-second MAE target, so their training-point predictions agree
        to within twice that."""
        state, _, _ = small_pretrained
        _, samples = target_context
        five = [samples[i] for i in range(0, 10, 2)]
        reset_state, reset_rep = finetune(state, five, reuse="full-reset",
                                          seed=13)
        local_state, local_rep = finetune(SYNTH_SCHEMA, five, seed=13)
        assert reset_rep.stopping_reason == "mae_threshold"
        assert local_rep.stopping_reason == "mae_threshold"
        for rec in five:
            a = predict(reset_state, rec.scale_out, rec.properties).runtime_seconds
            b = predict(local_state, rec.scale_out, rec.properties).runtime_seconds
            assert abs(a - b) <= 10.0

    def test_pretrained_converges_fast_on_seen_context(self, small_pretrained):
        """Fine-tuning on samples from a pre-training context stops via the
        MAE threshold well before the epoch cap."""
        state, _, records = small_pretrained
        samples = [records[0], records[3], records[7]]
        _, report = finetune(state, samples, seed=4)
        assert report.stopping_reason == "mae_threshold"
        assert report.epochs_run < 1000

    def test_invalid_arguments(self, small_pretrained):
        state, _, _ = small_pretrained
        with pytest.raises(ValueError):
            finetune(state, [], reuse="sideways")
        with pytest.raises(DataError):
            finetune(SYNTH_SCHEMA, [])
