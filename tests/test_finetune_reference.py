"""Fine-tuning against a reference loop built on cached block passes.

``training.finetune`` trains one row of the stacked fine-tune engine
(``training._Stack``), which binds each trained block's arrays once and
then runs a fixed sequence of numpy calls per epoch. The reference below
is one fine-tune's loop written over generic pieces: the cached block
passes of ``cached_passes`` with their new arrays, ``huber_grad`` on every
epoch, and ``_mean_abs_error``. This is the one independent check of the
engine's arithmetic. Both must agree bit for bit on every MAE they compute
(the engine's as the ``maes`` fixture records them), on where and why they
stop (the target, patience or the cap, the first at the start too) and on
the model they return, and must fail alike, with the same class and
message.
"""

import functools
import math

import numpy as np
import pytest

import cached_passes as cached
from jobcast import evalharness, training
from jobcast.encoding import Normalizer
from jobcast.errors import NumericsError, TrainingError
from jobcast.model import F_DIM, ModelState, PropertySchema, encode_batch
from jobcast.nn import Adam, huber_grad
from jobcast.synthetic import SYNTH_SCHEMA, context_records, corpus, make_contexts
from jobcast.training import (FINETUNE_WEIGHT_DECAY, MAE_TARGET_SECONDS,
                              PATIENCE_EPOCHS, PATIENCE_TOLERANCE, FineTuneReport,
                              SearchSpace, _mean_abs_error, finetune, lr_at, pretrain,
                              unfreeze_epoch)

REUSE_MODES = ("partial-unfreeze", "full-unfreeze", "partial-reset", "full-reset")
STRATEGIES = ("pretrained", "local")
EPOCHS = 250  # f joins within it at n = 1 and 2 in the partial modes


def reference_finetune(state, samples, reuse, seed, epochs):
    """``finetune``'s loop over the cached block passes, for samples to
    train on and a reuse mode that trains: its ``(state, report)`` and
    every MAE it computed, the starting one first."""
    samples = list(samples)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if isinstance(state, PropertySchema):
        state = ModelState.new(state, Normalizer.fit(r.scale_out for r in samples), rng)
    work = state.copy()
    if reuse == "partial-reset":
        work.z.init(rng)
    elif reuse == "full-reset":
        work.f.init(rng)
        work.z.init(rng)
    f_join = 0 if reuse in ("full-unfreeze", "full-reset") \
        else unfreeze_epoch(len(samples))

    batch = encode_batch(work.schema, work.normalizer, samples)
    codes, _ = cached.forward(work.g, batch.pvecs)
    e, _ = cached.forward(work.f, batch.sfeat)
    r = cached.assemble(work.schema, e, codes, batch.ess_rows, batch.opt_weights)
    grad = np.zeros_like(work.vector)

    def trainer(c):
        sl = work.segments[c]
        return (Adam(lr_at(0), work.vector[sl].shape,
                     lambda i: work.param_name(sl.start + i),
                     weight_decay=FINETUNE_WEIGHT_DECAY), work.vector[sl], grad[sl])

    trainers = [trainer("z")]
    y2, z_cache = cached.forward(work.z, r)
    y = y2[:, 0]
    best_mae = _mean_abs_error(y, batch.runtimes)
    best_epoch, best, history = 0, work.vector.copy(), [best_mae]
    reason, epochs_run, budget = "epoch_cap", 0, epochs
    if best_mae <= MAE_TARGET_SECONDS:
        reason, budget = "mae_threshold", 0
    for epoch in range(budget):
        f_trains = epoch >= f_join
        if epoch == f_join:
            trainers.insert(0, trainer("f"))
            _, f_cache = cached.forward(work.f, batch.sfeat)
        dy = huber_grad(y, batch.runtimes)
        dr = cached.backward(work.z, z_cache, dy[:, None], grad[work.segments["z"]],
                             need_dx=f_trains)
        if f_trains:
            cached.backward(work.f, f_cache, dr[:, :F_DIM], grad[work.segments["f"]],
                            need_dx=False)
        for optim, params, grads in trainers:
            optim.lr = lr_at(epoch)
            optim.step(params, grads)
        epochs_run = epoch + 1
        if f_trains:
            r[:, :F_DIM], f_cache = cached.forward(work.f, batch.sfeat)
        y2, z_cache = cached.forward(work.z, r)
        y = y2[:, 0]
        mae = _mean_abs_error(y, batch.runtimes)
        if not math.isfinite(mae):
            raise TrainingError("fine-tuning diverged (non-finite MAE)")
        history.append(mae)
        if mae < best_mae - PATIENCE_TOLERANCE:
            best_mae, best_epoch = mae, epochs_run
            np.copyto(best, work.vector)
        if best_mae <= MAE_TARGET_SECONDS:
            reason = "mae_threshold"
            break
        if epochs_run - best_epoch >= PATIENCE_EPOCHS:
            reason = "patience"
            break
    np.copyto(work.vector, best)
    return work, FineTuneReport(epochs_run, best_epoch, best_mae, reason), history


@pytest.fixture
def maes(monkeypatch):
    """Every MAE the fine-tune engine computes, row by row. Wraps
    ``training._Stack.__init__``, which gives each stack one list per row,
    and ``_Stack._mae``, which appends each value to the list of the row it
    belongs to, found through the stack's ``ids``. Returns the lookup from
    a fine-tune's returned state (its row's ``work``) to that row's list,
    the starting MAE first."""
    lists = {}  # stack -> one list per row it started with
    init, mae = training._Stack.__init__, training._Stack._mae

    def recording_init(stack, rows, *args):
        init(stack, rows, *args)
        lists[stack] = [[] for _ in rows]

    def recording_mae(stack):
        values = mae(stack)
        for row, value in zip(stack.ids.tolist(), values.tolist()):
            lists[stack][row].append(value)
        return values

    monkeypatch.setattr(training._Stack, "__init__", recording_init)
    monkeypatch.setattr(training._Stack, "_mae", recording_mae)

    def of(tuned):
        [found] = [rows[i] for stack, rows in lists.items()
                   for i, work in enumerate(stack.works) if work is tuned]
        return found

    return of


@functools.lru_cache(maxsize=None)
def _setup():
    contexts = make_contexts(4, seed=4)
    state, _ = pretrain(corpus(contexts[:3], repetitions=1, seed=4), SYNTH_SCHEMA,
                        space=SearchSpace(sample_count=2), seed=11, epochs=40)
    # 20% noise keeps the MAE target out of reach: these run to the cap.
    noisy = context_records(contexts[3], scale_outs=(2, 4, 6, 8, 10), repetitions=1,
                            noise=0.2, seed=6)
    clean = context_records(contexts[3], repetitions=1, seed=5)
    return state, noisy, clean


def _outcome(tuned, report, history):
    return (report.epochs_run, report.best_epoch, report.stopping_reason,
            [float(v).hex() for v in history], tuned.fingerprint())


def _recorded(maes, result):
    """A ``finetune`` result with the MAEs ``maes`` recorded for it."""
    tuned, report = result
    return tuned, report, maes(tuned)


def _cases():
    cases = [(s, r, "noisy", n) for s in STRATEGIES for r in REUSE_MODES
             for n in range(1, 6)]
    return cases + [(s, r, "clean", 3) for s in STRATEGIES for r in REUSE_MODES]


@pytest.mark.parametrize("case", _cases(), ids=lambda case: "-".join(map(str, case)))
def test_finetune_matches_the_reference_loop(maes, case):
    strategy, reuse, which, n = case
    state, noisy, clean = _setup()
    samples = {"noisy": noisy, "clean": clean}[which][:n]
    start = state if strategy == "pretrained" else SYNTH_SCHEMA
    got = _outcome(*_recorded(maes, finetune(start, samples, reuse=reuse, seed=3,
                                             epochs=EPOCHS)))
    assert got == _outcome(*reference_finetune(start, samples, reuse, 3, EPOCHS))


def test_some_cases_train_f_from_a_later_epoch():
    """In the partial modes f joins at epoch 100 * n: among the cases above,
    n = 2 runs past that and trains f."""
    state, noisy, _ = _setup()
    tuned, report = finetune(state, noisy[:2], reuse="partial-unfreeze", seed=3,
                             epochs=EPOCHS)
    assert report.epochs_run > unfreeze_epoch(2)
    f = state.segments["f"]
    assert not np.array_equal(tuned.vector[f], state.vector[f])


def test_a_stalled_start_stops_on_patience_as_the_reference(maes):
    """z's output never moves, so the best epoch stays 0 and patience
    stops the fine-tune PATIENCE_EPOCHS in, well before the cap."""
    state, noisy, _ = _setup()
    stalled = state.copy()
    _stalled(stalled.z)
    epochs = PATIENCE_EPOCHS + 60
    got = _outcome(*_recorded(maes, finetune(stalled, noisy[:5], seed=3, epochs=epochs)))
    assert got == _outcome(*reference_finetune(stalled, noisy[:5], "partial-unfreeze", 3,
                                               epochs))
    assert got[:3] == (PATIENCE_EPOCHS, 0, "patience")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_zero_epochs_match_the_reference(maes, strategy):
    state, noisy, _ = _setup()
    start = state if strategy == "pretrained" else SYNTH_SCHEMA
    got = _outcome(*_recorded(maes, finetune(start, noisy[:3], seed=3, epochs=0)))
    assert got == _outcome(*reference_finetune(start, noisy[:3], "partial-unfreeze", 3, 0))
    assert got[:3] == (0, 0, "epoch_cap")


def test_a_start_that_meets_the_target_trains_no_epoch_as_the_reference(maes):
    """A model tuned to the target on some samples starts there again on
    them: the fine-tune stops before its first epoch."""
    state, _, clean = _setup()
    tuned, report = finetune(state, clean[:3], seed=3)
    assert report.stopping_reason == "mae_threshold"
    got = _outcome(*_recorded(maes, finetune(tuned, clean[:3], seed=3, epochs=EPOCHS)))
    assert got == _outcome(*reference_finetune(tuned, clean[:3], "partial-unfreeze", 3,
                                               EPOCHS))
    assert got[:3] == (0, 0, "mae_threshold")


def _nan_output(z):
    z.b2[...] = np.nan


def _overflowing_gradient(z):
    """z's output is 0 for every input, and the gradient of its first
    layer overflows: the hidden deltas pass through w2 = 1.5e308."""
    z.w1[...] = z.b1[...] = z.b2[...] = 0.0
    z.w2[...] = 1.5e308


def _overflowing_mae(z):
    """Every output is finite but about 1.5e308: their sum is not."""
    z.b2[...] = 1.4e308


def _overflowing_f_gradient(f):
    """f's output is 0 for every input, and the gradient of its first
    layer overflows through w2 = 1.5e308 once f trains."""
    f.w1[...] = f.b1[...] = f.b2[...] = 0.0
    f.w2[...] = 1.5e308


def _stalled(z):
    """z's output saturates at SELU's floor for every input: its gradient
    is exactly 0, so the MAE never moves and patience runs out."""
    z.b2[...] = -1e4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("block, craft, reuse, error, message", [
    ("z", _nan_output, "partial-unfreeze", NumericsError,
     "two-layer block produced a non-finite output"),
    ("z", _overflowing_gradient, "partial-unfreeze", TrainingError,
     "non-finite gradient for parameter 'z.w1'"),
    ("z", _overflowing_mae, "partial-unfreeze", TrainingError,
     "fine-tuning diverged (non-finite MAE)"),
    ("f", _overflowing_f_gradient, "full-unfreeze", TrainingError,
     "non-finite gradient for parameter 'f.w1'"),
])
def test_divergence_fails_as_the_reference_and_is_excluded(block, craft, reuse, error,
                                                           message):
    state, noisy, _ = _setup()
    crafted = state.copy()
    craft(getattr(crafted, block))
    samples = noisy[:2]
    with pytest.raises(TrainingError) as ours:
        finetune(crafted, samples, reuse=reuse, seed=3, epochs=EPOCHS)
    with pytest.raises(TrainingError) as theirs:
        reference_finetune(crafted, samples, reuse, 3, EPOCHS)
    assert (type(ours.value), str(ours.value)) == (type(theirs.value), str(theirs.value))
    assert (type(ours.value), str(ours.value)) == (error, message)

    rows, = evalharness._n_train_task(
        ([(noisy, "c", {"full": crafted})], 2, ("full",), SYNTH_SCHEMA, reuse, EPOCHS, 1, 0))
    assert rows and {row.flag for row in rows} == {f"excluded: {message}"}
