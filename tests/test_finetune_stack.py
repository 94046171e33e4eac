"""A stacked fine-tune row against the same row trained alone.

``training._finetune_rows`` trains fine-tunes that share a sample count as
the rows of one stack (``training._Stack``), which drops each row in the
epoch it stops; ``finetune`` trains a stack of one row. So these tests
check that rows are independent: every row must get exactly what
``finetune`` gives it alone: its epochs, best epoch, stopping reason and
every MAE it computes, as hex; its final weights and predictions, byte for
byte; or the same error, class and message. The engine's arithmetic is
checked against an independent loop in ``test_finetune_reference.py``.
``evaluate`` fine-tunes each n_train's rows through it, and its output
files must not depend on whether groups stack or on the worker count.
Every check here compares two runs on one host, so it holds under any
numeric kernels.
"""

import csv
import itertools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from jobcast import cli, training
from jobcast.errors import TrainingError
from jobcast.model import predict_batch
from jobcast.synthetic import SYNTH_SCHEMA
from jobcast.training import MAX_EPOCHS, _finetune_rows, finetune
from test_finetune_reference import (EPOCHS, REUSE_MODES, _nan_output,
                                     _overflowing_f_gradient, _overflowing_gradient,
                                     _overflowing_mae, _setup, _stalled, maes)

DATA = Path(__file__).parent / "data"
STOPPING_REASONS = {"mae_threshold", "patience", "epoch_cap"}


@pytest.fixture
def stack_every_group(monkeypatch):
    """Every group stacks, however small, so the engine trains each row."""
    monkeypatch.setattr(training, "MIN_STACK_ROWS", 1)


def _outcome(result, maes):
    """A fine-tune's report, wall time aside, every MAE it computed (as
    ``maes`` recorded them) as hex, its weights' bytes and its predictions
    at scale-outs 1-16, as hex; or its error."""
    if isinstance(result, Exception):
        return type(result), str(result)
    tuned, report = result
    _, _, clean = _setup()
    preds = predict_batch(tuned, range(1, 17), clean[0].properties)
    return (report.epochs_run, report.best_epoch, report.stopping_reason,
            [float(v).hex() for v in maes(tuned)], tuned.vector.tobytes(),
            [float(v).hex() for v in preds])


def _alone(row, epochs):
    try:
        return finetune(*row, epochs=epochs)
    except TrainingError as exc:
        return exc


def _rows(n, reuse):
    """Pre-trained and local starts, on noisy samples that keep the MAE
    target out of reach (these run to the cap) and on clean ones that meet
    it, two seeds each."""
    state, noisy, clean = _setup()
    return [(start, samples[:n], reuse, seed)
            for start, samples, seed in itertools.product((state, SYNTH_SCHEMA),
                                                          (noisy, clean), (3, 4))]


@pytest.mark.parametrize("n, reuse", list(itertools.product((1, 3, 5), REUSE_MODES)),
                         ids=lambda v: str(v))
def test_stacked_rows_equal_their_own_finetune(stack_every_group, maes, n, reuse):
    rows = _rows(n, reuse)
    got = _finetune_rows(rows, EPOCHS)
    assert [_outcome(r, maes) for r in got] == \
        [_outcome(_alone(row, EPOCHS), maes) for row in rows]


def test_a_row_that_stalls_leaves_on_patience(stack_every_group, maes):
    """A stalled row leaves after PATIENCE_EPOCHS while the others carry on:
    the stack holds rows that stop at the target, at patience and at the
    cap, each equal to its own run."""
    state, noisy, _ = _setup()
    stalled = state.copy()
    _stalled(stalled.z)
    epochs = training.PATIENCE_EPOCHS + 60
    rows = _rows(5, "partial-unfreeze") + [(stalled, noisy[:5], "partial-unfreeze", 3)]
    got = _finetune_rows(rows, epochs)
    assert [_outcome(r, maes) for r in got] == \
        [_outcome(_alone(row, epochs), maes) for row in rows]
    assert [r[1].stopping_reason for r in got].count("patience") == 1
    assert {r[1].stopping_reason for r in got} == STOPPING_REASONS


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("block, craft, reuse", [
    ("z", _nan_output, "partial-unfreeze"),
    ("z", _overflowing_gradient, "partial-unfreeze"),
    ("z", _overflowing_mae, "partial-unfreeze"),
    ("f", _overflowing_f_gradient, "full-unfreeze"),
], ids=lambda v: getattr(v, "__name__", v))
def test_a_diverging_row_fails_as_alone_and_the_others_carry_on(stack_every_group, maes,
                                                                 block, craft, reuse):
    """The crafted row gets finetune's error, class and message; the
    healthy rows around it in the stack equal their own runs."""
    state, noisy, _ = _setup()
    crafted = state.copy()
    craft(getattr(crafted, block))
    healthy = [(start, noisy[:2], reuse, seed)
               for start, seed in itertools.product((state, SYNTH_SCHEMA), (3, 4))]
    rows = healthy[:2] + [(crafted, noisy[:2], reuse, 3)] + healthy[2:]
    got = _finetune_rows(rows, EPOCHS)
    alone = [_alone(row, EPOCHS) for row in rows]
    assert isinstance(alone[2], TrainingError)
    assert [_outcome(r, maes) for r in got] == [_outcome(r, maes) for r in alone]


def _evaluate(tmp_path, name, *flags, n_train="1-3", contexts="2", max_splits="2"):
    """An in-process ``jobcast evaluate`` on the sort fixture; returns its
    three output files, metrics.csv without its wall_time_s column."""
    out_dir = tmp_path / name
    assert cli.main(["evaluate", "--data", str(DATA / "sort_runs.csv"),
                     "--manifest", str(DATA / "sort_manifest.txt"),
                     "--methods", "nnls,local,full", "--n-train", n_train,
                     "--contexts", contexts, "--max-splits", max_splits,
                     "--pretrain-epochs", "20", "--search-samples", "1",
                     *flags, "--out-dir", str(out_dir)]) == 0
    with open(out_dir / "metrics.csv", newline="", encoding="utf-8") as fh:
        metrics = [row[:8] + row[9:] for row in csv.reader(fh)]
    return metrics, (out_dir / "ecdf.csv").read_bytes(), \
        (out_dir / "contexts.csv").read_bytes()


def test_evaluate_writes_the_same_files_stacked_or_not_at_any_worker_count(
        tmp_path, monkeypatch, capsys):
    """Each n_train's 8 model rows (2 contexts x 2 splits x local, full)
    train as one stack, as rows one by one with MIN_STACK_ROWS above every
    group, and in pools of 2 and 3 workers: the same files every time.
    The stacked rows stop as finetune stops, within the epoch cap."""
    stacked = []

    def spying(rows, epochs=MAX_EPOCHS):
        results = original(rows, epochs)
        stacked.extend(results)
        return results

    original, default = training._finetune_rows, training.MIN_STACK_ROWS
    monkeypatch.setattr(training, "_finetune_rows", spying)
    calls = []
    monkeypatch.setattr(training, "finetune",
                        lambda *a, **k: calls.append(1) or finetune(*a, **k))
    once = _evaluate(tmp_path, "stacked")
    assert len(stacked) == 24 and calls == []
    for _, report in stacked:
        assert report.stopping_reason in STOPPING_REASONS
        assert 0 <= report.best_epoch <= report.epochs_run <= MAX_EPOCHS

    monkeypatch.setattr(training, "MIN_STACK_ROWS", 10**9)
    assert _evaluate(tmp_path, "rows") == once
    assert len(calls) == 24
    monkeypatch.setattr(training, "MIN_STACK_ROWS", default)

    if "fork" not in multiprocessing.get_all_start_methods():
        return
    monkeypatch.setattr(training, "_process_pool", lambda n: ProcessPoolExecutor(
        n, mp_context=multiprocessing.get_context("fork")))
    for workers in ("2", "3"):
        monkeypatch.setattr(training, "_cpus", lambda: int(workers))
        assert _evaluate(tmp_path, f"w{workers}", "--workers", workers) == once
    assert multiprocessing.active_children() == []


def test_a_run_shaped_like_the_tiny_evaluate_calls_finetune_once_per_row(
        tmp_path, monkeypatch, capsys):
    """One context, one split, local and full: each n_train's group holds
    two rows, fewer than MIN_STACK_ROWS, so every row trains alone."""
    calls = []
    monkeypatch.setattr(training, "finetune",
                        lambda *a, **k: calls.append(1) or finetune(*a, **k))
    metrics, _, _ = _evaluate(tmp_path, "tiny", n_train="1-5", contexts="1",
                              max_splits="1")
    model_fits = {(r[1], r[3]) for r in metrics[1:] if r[0] == "model"}
    assert len(model_fits) == 10
    assert len(calls) == 10
