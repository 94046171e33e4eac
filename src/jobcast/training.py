"""Pre-training with random hyperparameter search, and fine-tuning.

Pre-training samples configurations from a fixed grid, trains them all in
lockstep on the joint runtime+reconstruction loss for the full epoch budget,
and keeps the state with the lowest held-out runtime MAE; several corpora
may pre-train in one call, their configs stacked where shapes match. Fine-tuning
continues training on runtime error only, under a fixed recipe (a cyclical
learning rate and a fixed weight decay), with the autoencoder always
frozen, the predictor trainable from the start, and the scale-out block
joining after an epoch threshold that grows with the number of samples.
Fine-tuning stops early once the training MAE drops to the target or
stalls past the patience window, and always returns the best snapshot seen.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .encoding import Normalizer
from .errors import ConfigError, DataError, NumericsError, TrainingError
from .model import F_DIM, EncodedBatch, ModelState, PropertySchema, \
    encode_batch, diverged_rows, forward_batch, _assemble, _joint_terms
from .nn import Adam, _Buffers, huber_grad

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

    Every config of every corpus in one :func:`pretrain_corpora` call trains
    in one shared run, so ``wall_time_s`` is measured from the start of that
    run (every corpus's split, encoding and initialization included) until
    this config finished, or left the run by diverging; it is not the
    config's own cost.
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
    """The rows of one stack still training: every config of some searches.

    Row ``i`` trains config ``cid`` of search ``search``, where
    ``(search, cid) = rows[ids[i]]``, with that config's rng stream, record
    order, learning rate, weight decay and dropout rate; ``loss[i]`` is its
    last epoch loss and ``total[i]`` the current epoch's running sum. The
    searches' training batches have the same record count and the same
    unique-vector count ``U``: ``batch`` is their union, ``orders[i]``
    indexes row ``i``'s own records in it and ``pvecs[i]`` holds its own
    unique vectors.

    Every step writes its minibatch, forward pass, loss terms and backward
    pass into the arrays of one buffer holder, ``buf``, which the stack owns.
    When rows leave, the next step asks for fewer rows and gets a prefix of
    the same arrays.
    """

    def __init__(self, searches):
        self.rows = [(search, cid) for search in searches
                     for cid in range(len(search.configs))]
        owner = np.array([j for j, search in enumerate(searches) for _ in search.configs])
        size = len(self.rows)
        states = [state for search in searches for state in search.initial_states()]
        dropout, lr, wd = (np.array(column) for column in
                           zip(*(search.configs[cid] for search, cid in self.rows)))
        first = states[0]
        self.state = ModelState(np.stack([s.vector for s in states]), first.normalizer,
                                first.schema, dropout)
        self.optim = Adam(lr[:, None], self.state.vector.shape, self.state.param_name,
                          weight_decay=wd[:, None])
        self.grad = np.zeros_like(self.state.vector)
        self.rngs = [search.rngs[cid] for search, cid in self.rows]
        batches = [search.train_batch for search in searches]
        n, u = searches[0].shape

        def union(name):
            return np.concatenate([getattr(b, name) for b in batches])

        self.batch = EncodedBatch(union("sfeat"), None, union("ess_rows"),
                                  union("opt_weights"), union("usage"), union("runtimes"))
        self.pvecs = np.stack([b.pvecs for b in batches])[owner]
        self.ids = np.arange(size)
        self.orders = np.arange(n) + n * owner[:, None]
        self.offsets = u * np.arange(size)[:, None, None]
        self.loss = np.full(size, np.nan)
        self.total = np.zeros(size)
        self.buf = _Buffers()
        self._minibatch_widths = (self.batch.sfeat.shape[1:], (u,), (u,), ())

    def gradients(self, start: int, size: int):
        """Joint loss and gradient (into ``grad``) of every row on the
        records at positions ``start:start + size`` of its own order.

        Returns each row's loss and :func:`~jobcast.model.diverged_rows`.
        """
        b, buf = self.batch, self.buf
        order = self.orders[:, start : start + size]
        (idx,) = buf.arrays("order", order.shape, ((),), np.intp)
        np.copyto(idx, order)  # np.take copies indices that are not contiguous
        sfeat, opt_weights, usage, runtimes = buf.arrays("minibatch", idx.shape,
                                                         self._minibatch_widths)
        (ess_rows,) = buf.arrays("ess_rows", idx.shape, (b.ess_rows.shape[1:],), np.intp)
        for source, out in ((b.sfeat, sfeat), (b.ess_rows, ess_rows),
                            (b.opt_weights, opt_weights), (b.usage, usage),
                            (b.runtimes, runtimes)):
            source.take(idx, axis=0, out=out, mode="clip")  # clip: no copy of out
        ess_rows += self.offsets
        minibatch = EncodedBatch(sfeat, self.pvecs, ess_rows, opt_weights, usage,
                                 runtimes)
        loss, _, _, detail = _joint_terms(self.state, minibatch, train=True,
                                          rng=self.rngs, grad=self.grad, buf=buf)
        return loss, diverged_rows(detail, loss, self.grad)

    def leave(self, bad, ran) -> None:
        """Log the rows marked in ``bad`` as diverged after ``ran`` epochs
        and drop them; the other rows carry on unchanged."""
        for i in np.flatnonzero(bad):
            search, cid = self.rows[self.ids[i]]
            search.enter(cid, ran, self.loss[i])
        rows = np.flatnonzero(~bad)
        self.state = self.state.take(rows)
        self.optim.keep_rows(rows)
        self.rngs = [self.rngs[i] for i in rows]
        self.offsets = self.offsets[: len(rows)]
        for name in ("grad", "pvecs", "ids", "orders", "loss", "total"):
            setattr(self, name, getattr(self, name)[rows])

    def train(self, epochs: int, batch_size: int) -> None:
        """Train every row for ``epochs`` epochs, then score the rows left."""
        n = self.orders.shape[1]
        for epoch in range(epochs):
            if not self.ids.size:
                break
            for rng, order in zip(self.rngs, self.orders):
                rng.shuffle(order)
            self.total[:] = 0.0
            for start in range(0, n, batch_size):
                loss, bad = self.gradients(start, batch_size)
                if bad is not None:
                    self.leave(bad, epoch)
                    if not self.ids.size:
                        break
                    loss = loss[~bad]
                self.optim.step(self.state.vector, self.grad)
                self.total += loss * min(batch_size, n - start)
            self.loss = self.total / n
            if not np.isfinite(self.loss).all():
                self.leave(~np.isfinite(self.loss), epoch + 1)
        for i, r in enumerate(self.ids.tolist()):
            search, cid = self.rows[r]
            search.finish(cid, self.state.take(i), epochs, self.loss[i])


def _mean_abs_error(y, runtimes) -> float:
    """``np.mean(np.abs(y - runtimes))``, without np.mean's wrapper."""
    return float(np.add.reduce(np.abs(y - runtimes)) / len(runtimes))


def _mae(state, batch) -> float:
    return _mean_abs_error(forward_batch(state, batch)[0], batch.runtimes)


class _Search:
    """One corpus's search: its held-out split, normalizer, config picks and
    rng streams, encoded batches, trained states and log."""

    def __init__(self, records, seed, schema, grid, k, started):
        split_seq, pick_seq, *config_seeds = np.random.SeedSequence(seed).spawn(2 + k)
        split_rng = np.random.default_rng(split_seq)
        perm = split_rng.permutation(len(records))
        n_val = max(1, int(round(0.2 * len(records))))
        val_records = [records[i] for i in perm[:n_val]]
        train_records = [records[i] for i in perm[n_val:]]
        if not train_records:
            train_records, val_records = val_records, val_records

        self.normalizer = Normalizer.fit(r.scale_out for r in train_records)
        pick_rng = np.random.default_rng(pick_seq)
        picks = pick_rng.choice(len(grid), size=k, replace=False)
        self.train_batch = encode_batch(schema, self.normalizer, train_records)
        self.val_batch = encode_batch(schema, self.normalizer, val_records)
        self.configs = [grid[pick] for pick in picks]
        self.rngs = [np.random.default_rng(cseed) for cseed in config_seeds]
        self.schema = schema
        self.started = started
        self.log: list = [None] * k
        self.states: dict = {}

    @property
    def shape(self) -> tuple:
        """Training records and unique property vectors: rows stack only
        when these match."""
        return len(self.train_batch.runtimes), len(self.train_batch.pvecs)

    def initial_states(self):
        return [ModelState.new(self.schema, self.normalizer, rng, dropout_rate=dropout)
                for (dropout, _, _), rng in zip(self.configs, self.rngs)]

    def enter(self, cid, ran, loss, train_mae=float("nan"), val_mae=float("inf"),
              status="diverged"):
        self.log[cid] = SearchEntry(cid, *self.configs[cid], ran, float(loss), train_mae,
                                    val_mae, time.perf_counter() - self.started,
                                    status=status)

    def finish(self, cid, state, ran, loss):
        """Score a config that trained all ``ran`` epochs."""
        state.normalizer = self.normalizer  # the stack carried its first row's
        self.states[cid] = state
        train_mae, val_mae = float("nan"), float("inf")
        try:
            train_mae = _mae(state, self.train_batch)
            val_mae = _mae(state, self.val_batch)
        except NumericsError:
            pass
        self.enter(cid, ran, loss, train_mae, val_mae,
                   "ok" if np.isfinite(val_mae) else "diverged")

    def result(self):
        """``(best_state, log)``, or the :class:`TrainingError` of a search
        whose configs all diverged."""
        ok = [e for e in self.log if e.status == "ok"]
        if not ok:
            return TrainingError("all pre-training configurations diverged")
        best = min(ok, key=lambda e: e.val_mae_seconds)  # the first of equals
        best.chosen = True
        return self.states[best.config_id], self.log


def pretrain_corpora(jobs, schema: PropertySchema, space: SearchSpace | None = None,
                     epochs: int = MAX_EPOCHS, batch_size: int = 64) -> list:
    """Random-search pre-training over several corpora at once.

    ``jobs`` is a sequence of ``(records, seed)``. Returns one entry per
    job: the ``(best_state, search_log)`` that
    ``pretrain(records, schema, space, seed, epochs, batch_size)`` returns,
    or the :class:`DataError` (fewer than 2 records) or
    :class:`TrainingError` (every config diverged) it raises, as a value.
    A search space that samples nothing raises :class:`ConfigError` when
    any job has records to train on.

    Every job keeps its own held-out split, normalizer, config picks, rng
    streams and encoded records, so it computes what its own call would.
    The rows of all jobs whose training sets have the same number of
    records and of unique property vectors train as one stacked model;
    such groups train one after another.
    """
    space = space or SearchSpace()
    grid = space.grid()
    k = min(space.sample_count, len(grid))
    jobs = [(list(records), seed) for records, seed in jobs]
    results: list = [DataError(f"pre-training needs at least 2 records, got {len(r)}")
                     if len(r) < 2 else None for r, _ in jobs]
    if k < 1 and None in results:
        raise ConfigError(f"the search samples no configuration: sample_count "
                          f"{space.sample_count}, {len(grid)} in the grid")
    started = time.perf_counter()
    searches = {j: _Search(records, seed, schema, grid, k, started)
                for j, (records, seed) in enumerate(jobs) if results[j] is None}

    groups: dict = {}
    for search in searches.values():
        groups.setdefault(search.shape, []).append(search)
    for group in groups.values():
        _Lockstep(group).train(epochs, batch_size)

    for j, search in searches.items():
        results[j] = search.result()
    return results


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
    This is the one-corpus case of :func:`pretrain_corpora`.
    """
    [result] = pretrain_corpora([(records, seed)], schema, space=space, epochs=epochs,
                                batch_size=batch_size)
    if isinstance(result, Exception):
        raise result
    return result


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
        work.z.init(rng)
    elif reuse == "full-reset":
        work.f.init(rng)
        work.z.init(rng)
    f_join = 0 if reuse in ("full-unfreeze", "full-reset") \
        else unfreeze_epoch(len(samples))

    batch = encode_batch(work.schema, work.normalizer, samples)
    # The autoencoder is frozen, so z's input r is assembled once: the codes
    # never change, and f's columns change only once f trains.
    codes, _ = work.g.forward(batch.pvecs)
    e, _ = work.f.forward(batch.sfeat)
    r = _assemble(work.schema, e, codes, batch.ess_rows, batch.opt_weights)
    grad = np.zeros_like(work.vector)

    def trainer(c):
        """A fresh optimizer for component ``c`` with the views it steps."""
        sl = work.segments[c]
        return (Adam(lr_at(0), work.vector[sl].shape,
                     lambda i: work.param_name(sl.start + i),
                     weight_decay=FINETUNE_WEIGHT_DECAY), work.vector[sl], grad[sl])

    # The autoencoder never trains: it gets no optimizer. z trains from the
    # start, and f joins at f_join with one of its own.
    trainers = [trainer("z")]
    y2, z_cache = work.z.forward(r)
    y = y2[:, 0]
    best_mae = _mean_abs_error(y, batch.runtimes)
    best_epoch = 0
    best = work.vector.copy()
    history = [best_mae]
    reason = "epoch_cap"
    epochs_run = 0
    budget = epochs
    if best_mae <= MAE_TARGET_SECONDS:
        # the starting state already meets the target on these samples
        reason = "mae_threshold"
        budget = 0
    for epoch in range(budget):
        f_trains = epoch >= f_join
        if epoch == f_join:
            trainers.insert(0, trainer("f"))  # in vector order
            _, f_cache = work.f.forward(batch.sfeat)  # f has not moved: r and y stand
        dy = huber_grad(y, batch.runtimes)
        dr = work.z.backward(z_cache, dy[:, None], grad[work.segments["z"]],
                             need_dx=f_trains)
        if f_trains:
            work.f.backward(f_cache, dr[:, :F_DIM], grad[work.segments["f"]],
                            need_dx=False)
        for optim, params, grads in trainers:
            optim.lr = lr_at(epoch)
            optim.step(params, grads)
        epochs_run = epoch + 1

        if f_trains:
            r[:, :F_DIM], f_cache = work.f.forward(batch.sfeat)
        y2, z_cache = work.z.forward(r)
        y = y2[:, 0]
        mae = _mean_abs_error(y, batch.runtimes)
        if not math.isfinite(mae):
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
