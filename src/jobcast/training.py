"""Pre-training with random hyperparameter search, and fine-tuning.

Pre-training samples configurations from a fixed grid, trains them all in
lockstep on the joint runtime+reconstruction loss for the full epoch budget,
and keeps the state with the lowest held-out runtime MAE. Fine-tuning
continues training on runtime error only, under a fixed recipe (a cyclical
learning rate and a fixed weight decay), with the autoencoder always
frozen, the predictor trainable from the start, and the scale-out block
joining after an epoch threshold that grows with the number of samples.
Fine-tuning stops early once the training MAE drops to the target or
stalls past the patience window, and always returns the best snapshot seen.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .encoding import Normalizer
from .errors import ConfigError, DataError, NumericsError, TrainingError
from .model import COMPONENTS, EncodedBatch, ModelState, PropertySchema, \
    encode_batch, diverged_rows, forward_batch, backward_batch, _joint_terms
from .nn import Adam, huber_grad

MAX_EPOCHS = 2500
MAE_TARGET_SECONDS = 5.0
PATIENCE_EPOCHS = 1000
PATIENCE_TOLERANCE = 1e-6

REUSE_STRATEGIES = ("none", "partial-unfreeze", "full-unfreeze",
                    "partial-reset", "full-reset")

# Fine-tuning's fixed recipe: a triangular learning-rate wave that starts at
# LR_HIGH, dips to LR_LOW at half a period and climbs back, and decoupled
# weight decay.
LR_LOW = 1e-3
LR_HIGH = 1e-2
LR_PERIOD = 200
FINETUNE_WEIGHT_DECAY = 1e-3


@dataclass(frozen=True)
class SearchSpace:
    dropout_rates: tuple = (0.05, 0.10, 0.20)
    learning_rates: tuple = (1e-1, 1e-2, 1e-3)
    weight_decays: tuple = (1e-2, 1e-3, 1e-4)
    sample_count: int = 12

    def grid(self):
        return [
            (d, lr, wd)
            for d in self.dropout_rates
            for lr in self.learning_rates
            for wd in self.weight_decays
        ]


@dataclass
class SearchEntry:
    """One row of the pre-training search log.

    All configs train together, so ``wall_time_s`` is the time from the start
    of the shared run (initialization included) until this config finished,
    or left the run by diverging; it is not the config's own cost.
    """

    config_id: int
    dropout_rate: float
    learning_rate: float
    weight_decay: float
    epochs: int
    final_train_loss: float
    train_mae_seconds: float
    val_mae_seconds: float
    wall_time_s: float
    status: str = "ok"  # ok | diverged
    chosen: bool = False


@dataclass
class FineTuneReport:
    epochs_run: int
    best_epoch: int
    best_mae_seconds: float
    stopping_reason: str  # mae_threshold | patience | epoch_cap | no_data | not_trained
    wall_time_s: float = 0.0
    mae_history: list = field(default_factory=list)


def lr_at(epoch: int) -> float:
    """Fine-tuning's learning rate at a (0-based) epoch."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    frac = (epoch % LR_PERIOD) / LR_PERIOD
    tri = 2.0 * frac if frac <= 0.5 else 2.0 * (1.0 - frac)
    return (1.0 - tri) * LR_HIGH + tri * LR_LOW


class _Lockstep:
    """The search's configs still training, one per row of a stacked model.

    Row ``i`` trains config ``ids[i]`` on ``batch`` with that config's rng
    stream, record order, learning rate, weight decay and dropout rate;
    ``loss[i]`` is its last epoch loss and ``total[i]`` the current epoch's
    running sum.
    """

    def __init__(self, states, configs, rngs, batch: EncodedBatch):
        size = len(states)
        dropout, lr, wd = (np.array(column) for column in zip(*configs))
        first = states[0]
        self.state = ModelState(np.stack([s.vector for s in states]), first.normalizer,
                                first.schema, dropout)
        self.optim = Adam(lr[:, None], self.state.segments, self.state.param_name,
                          weight_decay=wd[:, None])
        self.grad = np.zeros_like(self.state.vector)
        self.rngs = list(rngs)
        self.batch = batch
        self.ids = np.arange(size)
        self.orders = np.tile(np.arange(len(batch.runtimes)), (size, 1))
        self.offsets = len(batch.pvecs) * np.arange(size)[:, None, None]
        self.loss = np.full(size, np.nan)
        self.total = np.zeros(size)

    def gradients(self, start: int, size: int):
        """Joint loss and gradient (into ``grad``) of every row on the
        records at positions ``start:start + size`` of its own order.

        Returns each row's loss and :func:`~jobcast.model.diverged_rows`.
        """
        idx, b = self.orders[:, start : start + size], self.batch
        minibatch = EncodedBatch(sfeat=b.sfeat[idx], pvecs=b.pvecs,
                                 ess_rows=b.ess_rows[idx] + self.offsets,
                                 opt_weights=b.opt_weights[idx], usage=b.usage[idx],
                                 runtimes=b.runtimes[idx])
        loss, _, _, detail = _joint_terms(self.state, minibatch, train=True,
                                          rng=self.rngs, grad=self.grad)
        # Hold this step's arrays until the next step has made its own. Freed
        # at once, these few MB (at S=12) would sit at the top of the heap,
        # go back to the OS and be page-faulted in again every step: with
        # glibc, about 1,050 minor faults per epoch of the 12-config search
        # without the hold and about 330 with it.
        self.held = (minibatch, detail)
        return loss, diverged_rows(detail, loss, self.grad)

    def keep(self, rows) -> None:
        """Drop every row not in ``rows``; the kept rows carry on unchanged."""
        self.state = self.state.take(rows)
        self.optim.keep_rows(rows)
        self.rngs = [self.rngs[i] for i in rows]
        self.offsets = self.offsets[: len(rows)]
        for name in ("grad", "ids", "orders", "loss", "total"):
            setattr(self, name, getattr(self, name)[rows])


def _mae(state, batch) -> float:
    y, _ = forward_batch(state, batch, train=False, need_recon=False)
    return float(np.mean(np.abs(y - batch.runtimes)))


def pretrain(records, schema: PropertySchema, space: SearchSpace | None = None,
             seed: int = 0, epochs: int = MAX_EPOCHS, batch_size: int = 64):
    """Random-search pre-training over a historical corpus.

    Returns ``(best_state, search_log)``. Every sampled configuration is
    trained for the full epoch budget with all four components trainable;
    selection takes the lowest runtime MAE on a held-out 20% split that is
    shared across configurations. Configurations that diverge are logged
    and skipped; if all diverge, :class:`TrainingError` is raised.

    The configurations train in lockstep, as the rows of one stacked model
    that takes one optimizer step per minibatch. Each keeps its own rng
    stream (initialization, then per epoch the shuffle and per minibatch
    the dropout masks of ``g`` and ``h``), so each row computes what it
    would compute alone. A row whose block output, gradient or epoch loss
    turns non-finite leaves the stack; the others carry on untouched.
    """
    records = list(records)
    if len(records) < 2:
        raise DataError(f"pre-training needs at least 2 records, got {len(records)}")
    space = space or SearchSpace()
    grid = space.grid()
    k = min(space.sample_count, len(grid))
    if k < 1:
        raise ConfigError(f"the search samples no configuration: sample_count "
                          f"{space.sample_count}, {len(grid)} in the grid")
    split_seq, pick_seq, *config_seeds = np.random.SeedSequence(seed).spawn(2 + k)

    split_rng = np.random.default_rng(split_seq)
    perm = split_rng.permutation(len(records))
    n_val = max(1, int(round(0.2 * len(records))))
    val_records = [records[i] for i in perm[:n_val]]
    train_records = [records[i] for i in perm[n_val:]]
    if not train_records:
        train_records, val_records = val_records, val_records

    normalizer = Normalizer.fit(r.scale_out for r in train_records)
    pick_rng = np.random.default_rng(pick_seq)
    picks = pick_rng.choice(len(grid), size=k, replace=False)

    train_batch = encode_batch(schema, normalizer, train_records)
    val_batch = encode_batch(schema, normalizer, val_records)

    configs = [grid[pick] for pick in picks]
    log: list = [None] * k
    started = time.perf_counter()

    def enter(cid, ran, loss, train_mae=float("nan"), val_mae=float("inf"),
              status="diverged"):
        log[cid] = SearchEntry(cid, *configs[cid], ran, float(loss), train_mae, val_mae,
                               time.perf_counter() - started, status=status)

    rngs = [np.random.default_rng(cseed) for cseed in config_seeds]
    run = _Lockstep([ModelState.new(schema, normalizer, rng, dropout_rate=dropout)
                     for (dropout, _, _), rng in zip(configs, rngs)],
                    configs, rngs, train_batch)

    def leave(bad, ran):
        for i in np.flatnonzero(bad):
            enter(int(run.ids[i]), ran, run.loss[i])
        run.keep(np.flatnonzero(~bad))

    for epoch in range(epochs):
        if not run.ids.size:
            break
        for rng, order in zip(run.rngs, run.orders):
            rng.shuffle(order)
        run.total[:] = 0.0
        for start in range(0, len(train_records), batch_size):
            loss, bad = run.gradients(start, batch_size)
            if bad is not None:
                leave(bad, epoch)
                if not run.ids.size:
                    break
                loss = loss[~bad]
            run.optim.step(run.state.vector, run.grad, COMPONENTS)
            run.total += loss * min(batch_size, len(train_records) - start)
        run.loss = run.total / len(train_records)
        if not np.isfinite(run.loss).all():
            leave(~np.isfinite(run.loss), epoch + 1)

    states = {}
    for i, cid in enumerate(run.ids.tolist()):
        states[cid] = state = run.state.take(i)
        train_mae, val_mae = float("nan"), float("inf")
        try:
            train_mae = _mae(state, train_batch)
            val_mae = _mae(state, val_batch)
        except NumericsError:
            pass
        enter(cid, epochs, run.loss[i], train_mae, val_mae,
              "ok" if np.isfinite(val_mae) else "diverged")

    ok = [e for e in log if e.status == "ok"]
    if not ok:
        raise TrainingError("all pre-training configurations diverged")
    best = min(ok, key=lambda e: e.val_mae_seconds)  # the first of equals
    best.chosen = True
    return states[best.config_id], log


def unfreeze_epoch(n_samples: int) -> int:
    """Epoch at which the scale-out block joins fine-tuning."""
    return min(100 * n_samples, 1000)


def finetune(state: ModelState | PropertySchema, samples,
             reuse: str = "partial-unfreeze", seed: int = 0, epochs: int = MAX_EPOCHS):
    """Adapt a model to one concrete context.

    ``state`` picks the strategy. A pre-trained :class:`ModelState`
    continues from its weights; a :class:`PropertySchema` trains locally:
    a fresh state initialized from ``seed``, with the normalizer fitted on
    the samples themselves. The autoencoder is never updated. Training
    minimizes runtime Huber error only, at the learning rate :func:`lr_at`
    gives each epoch and weight decay ``FINETUNE_WEIGHT_DECAY``. It stops at
    the MAE target, the patience window, or after ``epochs`` epochs,
    returning the best snapshot rather than the last.

    With zero samples (or ``reuse="none"``) the input state is returned
    unchanged together with an inference-only report whose
    ``stopping_reason`` is ``"no_data"`` / ``"not_trained"``.
    """
    if reuse not in REUSE_STRATEGIES:
        raise ValueError(f"unknown reuse strategy {reuse!r}")
    samples = list(samples)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    if isinstance(state, PropertySchema):
        if not samples:
            raise DataError("the local strategy needs at least one sample")
        state = ModelState.new(state, Normalizer.fit(r.scale_out for r in samples), rng)

    work = state.copy()
    if not samples or reuse == "none":
        reason = "no_data" if not samples else "not_trained"
        return work, FineTuneReport(0, 0, float("nan"), reason)

    started = time.perf_counter()
    if reuse == "partial-reset":
        work.reset("z", rng)
    elif reuse == "full-reset":
        work.reset("f", rng)
        work.reset("z", rng)
    f_join = 0 if reuse in ("full-unfreeze", "full-reset") \
        else unfreeze_epoch(len(samples))

    batch = encode_batch(work.schema, work.normalizer, samples)
    codes, _ = work.g.forward(batch.pvecs, train=False)
    e_frozen, _ = work.f.forward(batch.sfeat, train=False)

    optim = Adam(lr_at(0), work.segments, weight_decay=FINETUNE_WEIGHT_DECAY,
                 name_of=work.param_name)
    grad = np.zeros_like(work.vector)

    y, detail = forward_batch(work, batch, need_recon=False,
                              cached_codes=codes, cached_e=e_frozen)
    best_mae = float(np.mean(np.abs(y - batch.runtimes)))
    best_epoch = 0
    best = work.vector.copy()
    history = [best_mae]
    reason = "epoch_cap"
    epochs_run = 0
    budget = epochs
    live = ("z",)  # the autoencoder never trains; f joins at f_join
    if best_mae <= MAE_TARGET_SECONDS:
        # the starting state already meets the target on these samples
        reason = "mae_threshold"
        budget = 0
    for epoch in range(budget):
        if epoch == f_join:
            live = ("f", "z")
            # first epoch after the unfreeze: redo the forward with f live
            y, detail = forward_batch(work, batch, need_recon=False,
                                      cached_codes=codes)
        dy = huber_grad(y, batch.runtimes)
        backward_batch(work, batch, detail, dy, grad)
        optim.lr = lr_at(epoch)
        optim.step(work.vector, grad, live)
        epochs_run = epoch + 1

        y, detail = forward_batch(work, batch, need_recon=False,
                                  cached_codes=codes,
                                  cached_e=None if "f" in live else e_frozen)
        mae = float(np.mean(np.abs(y - batch.runtimes)))
        if not np.isfinite(mae):
            raise TrainingError("fine-tuning diverged (non-finite MAE)")
        history.append(mae)
        if mae < best_mae - PATIENCE_TOLERANCE:
            best_mae = mae
            best_epoch = epochs_run
            np.copyto(best, work.vector)
        if best_mae <= MAE_TARGET_SECONDS:
            reason = "mae_threshold"
            break
        if epochs_run - best_epoch >= PATIENCE_EPOCHS:
            reason = "patience"
            break

    np.copyto(work.vector, best)
    report = FineTuneReport(epochs_run, best_epoch, best_mae, reason,
                            wall_time_s=time.perf_counter() - started,
                            mae_history=history)
    return work, report
