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

Both trainings run on stacks whose rows leave in one place
(:class:`_RowSet`), and both bind the arrays they touch (see
:class:`jobcast.nn._Bound`) once, and again only when rows leave, so an
epoch is a fixed sequence of numpy calls. Pre-training's stack binds its
joint step once per minibatch length. Fine-tuning sets each row of a
group up once and trains the group as one stack of ``f`` and ``z`` weights
(:func:`_finetune_group`), which drops each row in the epoch it stops:
:func:`finetune` is a group of one row, and :func:`_finetune_rows`, which
``evaluate`` calls, groups the fine-tunes that share a sample count,
giving every row the bits of its own :func:`finetune` call.

A stack's rows are independent, so pre-training may split them into
contiguous parts across processes (``workers``): this process trains the
first part and a process pool the others, which send back each row's
epochs, last loss, finishing time and final weights. This process alone
scores and logs every row, so the results are those of one stack, bit for
bit.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .encoding import Normalizer
from .errors import ConfigError, DataError, NumericsError, TrainingError, WorkerError
from .model import F_DIM, EncodedBatch, ModelState, PropertySchema, \
    encode_batch, diverged_rows, forward_batch, _assemble, _block_dims, _joint_terms, \
    _JointStep
from .nn import Adam, TwoLayerBlock, _Bound, _huber_slope

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
    this config finished training, or left the run by diverging, in
    whichever process trained it; it is not the config's own cost.
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


def lr_at(epoch: int) -> float:
    """Fine-tuning's learning rate at a (0-based) epoch."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    frac = (epoch % LR_PERIOD) / LR_PERIOD
    tri = 2.0 * frac if frac <= 0.5 else 2.0 * (1.0 - frac)
    return (1.0 - tri) * LR_HIGH + tri * LR_LOW


# The learning-rate wave repeats every period: lr_at(e) is _LR_WAVE[e % LR_PERIOD].
_LR_WAVE = tuple(map(lr_at, range(LR_PERIOD)))


class _Arena:
    """``np.empty`` for the bindings of a stack: the i-th array a binding
    asks for is a contiguous prefix of the arena's i-th flat array. The
    first binding, a full minibatch of every row, sizes them; a short
    minibatch's binding, or one after rows leave, asks for the same arrays,
    none larger, and so reuses that memory. A request its flat array cannot
    hold gets a new one in that place: when the rows that drop leave, the
    dropout arrays drop out of the sequence."""

    def __init__(self):
        self._flats: list = []
        self._next = 0

    def rewind(self) -> "_Arena":
        self._next = 0
        return self

    def __call__(self, shape, dtype=np.float64):
        size, i = math.prod(shape), self._next
        flat = self._flats[i] if i < len(self._flats) else None
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = np.empty(size, dtype)
            self._flats[i : i + 1] = [flat]
        self._next += 1
        return flat[:size].reshape(shape)


class _RowSet:
    """The rows of a stack still training, which leave it in one place.

    ``ids[i]`` is row ``i``'s index among the rows the stack started with.
    Each attribute named in ``per_row`` holds one entry per row, along the
    first axis of an array or in a list, and each optimizer in ``optims``
    one row of moments; :meth:`keep` subsets them all.
    """

    per_row: tuple = ()
    ids: np.ndarray
    optims: list

    def keep(self, rows) -> None:
        """Keep only ``rows``, ascending indices of the current rows."""
        for name in ("ids", *self.per_row):
            value = getattr(self, name)
            setattr(self, name, [value[i] for i in rows] if isinstance(value, list)
                    else value[rows])
        for optim in self.optims:
            optim.keep_rows(rows)


class _Lockstep(_RowSet):
    """The rows of one stack still training: every config of some searches.

    Row ``i`` trains config ``cid`` of search ``search``, where
    ``(search, cid) = rows[ids[i]]``, with that config's rng stream, record
    order, learning rate, weight decay and dropout rate; ``loss[i]`` is its
    last epoch loss and ``total[i]`` the current epoch's running sum. The
    searches' training batches have the same record count and the same
    unique-vector count ``U``: ``batch`` is their union, ``orders[i]``
    indexes row ``i``'s own records in it and ``pvecs[i]`` holds its own
    unique vectors. A search is a :class:`_Search` or a :class:`_Part` of
    one.

    ``steps`` maps each minibatch length to its binding: the index array
    and minibatch arrays a step gathers into, and the joint step bound over
    them (:class:`~jobcast.model._JointStep`), all from the stack's arena.
    Rows leaving drop the bindings, and the next step binds again in the
    same arena.

    ``outcomes[r]`` is what became of ``rows[r]``: ``(epochs run, last
    loss, perf_counter when it finished or left, final vector)``, with no
    vector for a row that left by diverging.
    """

    per_row = ("grad", "pvecs", "orders", "loss", "total", "rngs")

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
        self.optims = [self.optim]
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
        self.outcomes: list = [None] * size
        self.steps, self._arena = {}, _Arena()

    def _bind(self, size: int):
        """The binding of minibatches of ``size`` records of every row."""
        empty, b = self._arena.rewind(), self.batch
        lead = (len(self.ids), size)
        idx = empty(lead, np.intp)
        names = ("sfeat", "ess_rows", "opt_weights", "usage", "runtimes")
        parts = {name: empty((*lead, *getattr(b, name).shape[1:]), getattr(b, name).dtype)
                 for name in names}
        minibatch = EncodedBatch(pvecs=self.pvecs, **parts)
        gathers = [(getattr(b, name), parts[name]) for name in names]
        return idx, gathers, _JointStep(self.state, minibatch, self.grad, self.rngs, empty)

    def gradients(self, start: int, size: int):
        """Joint loss and gradient (into ``grad``) of every row on the
        records at positions ``start:start + size`` of its own order.

        Returns each row's loss and :func:`~jobcast.model.diverged_rows`.
        """
        order = self.orders[:, start : start + size]
        length = order.shape[1]
        if length not in self.steps:
            self.steps[length] = self._bind(length)
        idx, gathers, step = self.steps[length]
        np.copyto(idx, order)  # np.take copies indices that are not contiguous
        for source, out in gathers:
            source.take(idx, axis=0, out=out, mode="clip")  # clip: no copy of out
        step.batch.ess_rows += self.offsets
        loss, _, _ = _joint_terms(self.state, step.batch, self.grad, step)
        return loss, diverged_rows(step.detail, loss, self.grad)

    def leave(self, bad, ran) -> None:
        """Record the rows marked in ``bad`` as diverged after ``ran`` epochs
        and drop them; the other rows carry on unchanged."""
        at = time.perf_counter()
        for i in np.flatnonzero(bad):
            self.outcomes[self.ids[i]] = (ran, float(self.loss[i]), at, None)
        rows = np.flatnonzero(~bad)
        self.state = self.state.take(rows)
        self.offsets = self.offsets[: len(rows)]
        self.keep(rows)
        self.steps = {}

    def train(self, epochs: int, batch_size: int) -> list:
        """Train every row for ``epochs`` epochs; returns ``outcomes``."""
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
        at = time.perf_counter()
        for i, r in enumerate(self.ids.tolist()):
            self.outcomes[r] = (epochs, float(self.loss[i]), at, self.state.vector[i].copy())
        return self.outcomes


def _mean_abs_error(y, runtimes) -> float:
    """``np.mean(np.abs(y - runtimes))``, without np.mean's wrapper."""
    return float(np.add.reduce(np.abs(y - runtimes)) / len(runtimes))


def _mae(state, batch) -> float:
    return _mean_abs_error(forward_batch(state, batch), batch.runtimes)


class _Part:
    """Some configs of one search, and what a stack needs to train them:
    their picks and rng streams and the search's encoded training records.
    It pickles, so a pool worker can be sent one."""

    def __init__(self, schema, normalizer, train_batch, configs, rngs):
        self.schema = schema
        self.normalizer = normalizer
        self.train_batch = train_batch
        self.configs = configs
        self.rngs = rngs

    @property
    def shape(self) -> tuple:
        """Training records and unique property vectors: rows stack only
        when these match."""
        return len(self.train_batch.runtimes), len(self.train_batch.pvecs)

    def initial_states(self):
        return [ModelState.new(self.schema, self.normalizer, rng, dropout_rate=dropout)
                for (dropout, _, _), rng in zip(self.configs, self.rngs)]


class _Search(_Part):
    """One corpus's search: its held-out split, normalizer, config picks and
    rng streams, encoded batches, trained states and log."""

    def __init__(self, records, seed, schema, grid, k, started):
        split_seq, pick_seq, *config_seeds = np.random.SeedSequence(seed).spawn(2 + k)
        split_rng = np.random.default_rng(split_seq)
        perm = split_rng.permutation(len(records))
        n_val = max(1, int(round(0.2 * len(records))))
        val_records = [records[i] for i in perm[:n_val]]
        train_records = [records[i] for i in perm[n_val:]]

        normalizer = Normalizer.fit(r.scale_out for r in train_records)
        pick_rng = np.random.default_rng(pick_seq)
        picks = pick_rng.choice(len(grid), size=k, replace=False)
        super().__init__(schema, normalizer, encode_batch(schema, normalizer, train_records),
                         [grid[pick] for pick in picks],
                         [np.random.default_rng(cseed) for cseed in config_seeds])
        self.val_batch = encode_batch(schema, normalizer, val_records)
        self.started = started
        self.log: list = [None] * k
        self.states: dict = {}

    def part(self, cids) -> _Part:
        return _Part(self.schema, self.normalizer, self.train_batch,
                     [self.configs[c] for c in cids], [self.rngs[c] for c in cids])

    def record(self, cid, ran, loss, at, vector) -> None:
        """Log config ``cid`` from its stack's outcome (see
        :class:`_Lockstep`): scored on both splits if it trained all ``ran``
        epochs into ``vector``, else diverged."""
        train_mae, val_mae, status = float("nan"), float("inf"), "diverged"
        if vector is not None:
            state = ModelState(vector, self.normalizer, self.schema, self.configs[cid][0])
            self.states[cid] = state
            try:
                train_mae = _mae(state, self.train_batch)
                val_mae = _mae(state, self.val_batch)
            except NumericsError:
                pass
            status = "ok" if np.isfinite(val_mae) else "diverged"
        self.log[cid] = SearchEntry(cid, *self.configs[cid], ran, loss, train_mae, val_mae,
                                    at - self.started, status=status)

    def result(self):
        """``(best_state, log)``, or the :class:`TrainingError` of a search
        whose configs all diverged."""
        ok = [e for e in self.log if e.status == "ok"]
        if not ok:
            return TrainingError("all pre-training configurations diverged")
        best = min(ok, key=lambda e: e.val_mae_seconds)  # the first of equals
        best.chosen = True
        return self.states[best.config_id], self.log


# A stack splits across processes by default only when it runs at least
# this many optimizer steps. Forking a one-worker pool, sending it its
# part and joining it cost about 20 ms, some ten steps of a 12-row stack
# (1.5-2 ms each), on a 2-vCPU x86-64 host (Python 3.11, numpy 2.4): a
# 12-config search of 1 epoch (2 steps) took 10-12 ms in one process and
# 27-32 ms split in two, one of 100 epochs 419 and 309 ms.
MIN_SPLIT_STEPS = 1000

# The parts a stack splits into by default: the one split measured, 12
# rows as 6 + 6 on that host, took 0.57-0.65x the wall time of one stack.
# Each part pays a step's fixed cost (553 us for one row, 1,980 us for 12),
# so more parts cost more CPU, and more than two have not been measured.
DEFAULT_PARTS = 2


def _cpus() -> int:
    """The number of CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks (macOS, Windows)
        return os.cpu_count() or 1


def _forks() -> bool:
    """Whether a new process pool forks its workers. Under any other start
    method (spawn on macOS and Windows, forkserver on Linux from Python
    3.14) each worker imports the main module, which fails in a script
    that pre-trains outside an ``if __name__ == "__main__":`` guard."""
    import multiprocessing

    method = multiprocessing.get_start_method(allow_none=True)
    return (method or multiprocessing.get_all_start_methods()[0]) == "fork"


def _process_pool(workers: int):
    """A process pool of ``workers`` processes. Imported here, on first
    use, so that importing the package loads no multiprocessing machinery."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _train_part(task) -> list:
    """Train ``(parts, epochs, batch_size)`` as one stack and return its
    rows' outcomes; a pool worker's task. ``perf_counter`` reads one clock
    in every process of a host, so the outcomes' times are the parent's."""
    parts, epochs, batch_size = task
    return _Lockstep(parts).train(epochs, batch_size)


def _split(group, epochs, batch_size, workers) -> list:
    """The rows of a shape group, as ``(search, cid)``, in contiguous runs:
    one per part it trains in, never more than ``workers``, rows or CPUs.
    ``workers=None`` splits only a stack of at least ``MIN_SPLIT_STEPS``
    optimizer steps, where the pool forks, into ``DEFAULT_PARTS``."""
    rows = [(search, cid) for search in group for cid in range(len(search.configs))]
    if workers is None:
        steps = epochs * -(-group[0].shape[0] // batch_size)
        long = len(rows) > 1 and steps >= MIN_SPLIT_STEPS
        workers = DEFAULT_PARTS if long and _forks() else 1
    count = min(workers, len(rows), _cpus())
    cuts = [len(rows) * p // count for p in range(count + 1)]
    return [rows[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _collect(futures, names) -> list:
    """The results of a pool's ``futures``, in order. A pool whose worker
    died fails every task it had not finished: then this raises
    :class:`WorkerError`, naming each such task by its ``names`` entry."""
    if not futures:  # no pool: load none of its machinery
        return []
    from concurrent.futures.process import BrokenProcessPool

    results, lost = [], []
    for future, name in zip(futures, names):
        try:
            results.append(future.result())
        except BrokenProcessPool:
            lost.append(name)
    if lost:
        raise WorkerError(f"a worker process died; lost: {'; '.join(lost)}")
    return results


def _named(run, jobs) -> str:
    """A run of rows, as ``(search, cid)``, named by corpus and configs."""
    names = []
    for search, rows in itertools.groupby(run, key=lambda row: row[0]):
        cids = [cid for _, cid in rows]
        names.append(f"corpus {jobs[search]} configs {cids[0]}-{cids[-1]}")
    return ", ".join(names)


def _task(run, epochs, batch_size) -> tuple:
    """The task of one run of rows: its searches' parts, in row order."""
    parts = [search.part([cid for _, cid in rows])
             for search, rows in itertools.groupby(run, key=lambda row: row[0])]
    return parts, epochs, batch_size


def pretrain_corpora(jobs, schema: PropertySchema, space: SearchSpace | None = None,
                     epochs: int = MAX_EPOCHS, batch_size: int = 64,
                     workers: int | None = None) -> list:
    """Random-search pre-training over several corpora at once.

    ``jobs`` is a sequence of ``(records, seed)``. Returns one entry per
    job: the ``(best_state, search_log)`` that
    ``pretrain(records, schema, space, seed, epochs, batch_size)`` returns,
    or the :class:`DataError` (fewer than 2 records) or
    :class:`TrainingError` (every config diverged) it raises, as a value.
    A search space that samples nothing raises :class:`ConfigError` when
    any job has records to train on, and so does ``workers`` below 1.

    Every job keeps its own held-out split, normalizer, config picks, rng
    streams and encoded records, so it computes what its own call would.
    The rows of all jobs whose training sets have the same number of
    records and of unique property vectors train as one stacked model;
    such groups train one after another.

    A group's rows split into contiguous parts, never more than
    ``workers``, rows or CPUs this process may use. ``workers=None`` splits
    only a group that runs at least ``MIN_SPLIT_STEPS`` optimizer steps,
    into ``DEFAULT_PARTS``, and only where the pool forks its workers, so
    a script needs no main-module guard unless it asks for ``workers``
    above 1. This process trains the first part of every group, and a
    pool of processes the others; the pool is shut down before the call
    returns. A pool worker that dies raises :class:`WorkerError`, naming
    the corpora and configs it lost. Rows are independent, so every split
    gives the same results, bit for bit, and this process alone scores and
    logs them.
    """
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
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
    plans = [_split(group, epochs, batch_size, workers) for group in groups.values()]
    others = max((len(runs) - 1 for runs in plans), default=0)
    pool = _process_pool(others) if others else None
    try:
        futures = [pool.submit(_train_part, _task(run, epochs, batch_size))
                   for runs in plans for run in runs[1:]]
        own = [_train_part(_task(runs[0], epochs, batch_size)) for runs in plans]
        jobs = {search: j for j, search in searches.items()}
        parts = iter(_collect(futures, [_named(run, jobs)
                                        for runs in plans for run in runs[1:]]))
        for runs, outcomes in zip(plans, own):
            for _ in runs[1:]:
                outcomes = outcomes + next(parts)
            for (search, cid), outcome in zip(itertools.chain(*runs), outcomes):
                search.record(cid, *outcome)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    for j, search in searches.items():
        results[j] = search.result()
    return results


def pretrain(records, schema: PropertySchema, space: SearchSpace | None = None,
             seed: int = 0, epochs: int = MAX_EPOCHS, batch_size: int = 64,
             workers: int | None = None):
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
    The stack's rows may split across ``workers`` processes, with the same
    results. This is the one-corpus case of :func:`pretrain_corpora`.
    """
    [result] = pretrain_corpora([(records, seed)], schema, space=space, epochs=epochs,
                                batch_size=batch_size, workers=workers)
    if isinstance(result, Exception):
        raise result
    return result


def unfreeze_epoch(n_samples: int) -> int:
    """Epoch at which the scale-out block joins fine-tuning."""
    return min(100 * n_samples, 1000)


def _f_join(reuse: str, n_samples: int) -> int:
    """The epoch at which ``f`` joins a fine-tune under ``reuse``; an
    unknown strategy raises ValueError."""
    if reuse not in REUSE_STRATEGIES:
        raise ValueError(f"unknown reuse strategy {reuse!r}")
    return 0 if reuse in ("full-unfreeze", "full-reset") else unfreeze_epoch(n_samples)


# How fine-tuning words a non-finite MAE, and how a single block's pass
# (nn._check_finite) and Adam.step word the other divergences.
_DIVERGED = "fine-tuning diverged (non-finite MAE)"
_NON_FINITE_OUTPUT = "two-layer block produced a non-finite output"


def _set_up(state, samples, reuse, seed):
    """One fine-tune's set-up from :func:`finetune`'s arguments: the copy
    ``work`` and its resets. Returns the finished ``(state, report)`` of a
    fine-tune that does not train (no samples, or ``reuse="none"``), else
    the ``(work, sfeat, r, runtimes)`` row its :class:`_Stack` trains: the
    samples' scale-out features and runtimes, and ``z``'s input ``r``. The
    autoencoder is frozen, so ``r``'s codes are assembled once, here; its
    first ``F_DIM`` columns are ``f``'s, which the stack writes.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if isinstance(state, PropertySchema):
        if not samples:
            raise DataError("the local strategy needs at least one sample")
        state = ModelState.new(state, Normalizer.fit(r.scale_out for r in samples), rng)
    work = state.copy()
    if not samples or reuse == "none":
        reason = "no_data" if not samples else "not_trained"
        return work, FineTuneReport(0, 0, float("nan"), reason)
    if reuse == "partial-reset":
        work.z.init(rng)
    elif reuse == "full-reset":
        work.f.init(rng)
        work.z.init(rng)
    batch = encode_batch(work.schema, work.normalizer, samples)
    r = _assemble(work.schema, np.zeros((len(samples), F_DIM)), work.g.forward(batch.pvecs),
                  batch.ess_rows, batch.opt_weights)
    return work, batch.sfeat, r, batch.runtimes


def _finetune_group(rows, f_join, epochs) -> list:
    """Fine-tune rows ``(state, samples, reuse, seed)`` of one schema,
    sample count and unfreeze epoch ``f_join``: set each up, then train
    those that train as one :class:`_Stack`. Returns, per row, its
    ``(state, report)``, or the :class:`DataError` or :class:`TrainingError`
    its set-up or training raised, as a value. A report's ``wall_time_s``
    counts from the start of the group's set-up until the row left.
    """
    started = time.perf_counter()
    results, trained = [], []
    for i, row in enumerate(rows):
        try:
            result = _set_up(*row)
        except (DataError, TrainingError) as exc:
            result = exc
        else:
            if len(result) == 4:  # a row to train, not a finished (state, report)
                trained.append(i)
        results.append(result)
    if trained:
        outcomes = _Stack([results[i] for i in trained], f_join, epochs, started).train()
        for i, outcome in zip(trained, outcomes):
            results[i] = outcome
    return results


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
    ``stopping_reason`` is ``"no_data"`` / ``"not_trained"``. An unknown
    ``reuse`` raises ValueError first.

    The fine-tune is a group of one row (:func:`_finetune_group`), its
    ``wall_time_s`` counted from the start of its set-up; many fine-tunes
    of one sample count may train as one stack instead, with the same
    results (:func:`_finetune_rows`).
    """
    samples = list(samples)
    [outcome] = _finetune_group([(state, samples, reuse, seed)],
                                _f_join(reuse, len(samples)), epochs)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# Fine-tunes that share a schema, a sample count and an unfreeze epoch
# train as one stack when at least this many train together; a smaller
# group calls finetune row by row. On evaluate's rows (two 7-context
# corpora, one split, each context's full-variant model pre-trained for
# 2,500 epochs, a local and a full row per context), a stack of 2 took
# 0.99x the time of two finetune calls at one sample and 0.61-0.77x at 2
# to 5, and a stack of 3 took 0.53-0.66x the time of three calls at every
# sample count from 1 to 5 (2-vCPU x86-64 host, Python 3.11, numpy 2.4).
# Stacks of 2 would not pay at one sample; at 3, an evaluate of one context
# and one split, whose groups hold two rows, still calls finetune, which
# perfbench's traced smoke run expects to reach.
MIN_STACK_ROWS = 3


class _Stack(_RowSet):
    """Fine-tunes of one schema, one sample count ``B`` and one unfreeze
    epoch, trained as the rows of one stack that shrinks as they stop; one
    fine-tune is a stack of one row.

    Only ``f`` and ``z`` train, so only their weights stack: ``params``
    holds each row's ``f`` slice, its first ``cut`` columns, then its ``z``
    slice (``cols`` of its vector), and ``grad``, ``best`` and both
    optimizers' moments match it. ``sfeat`` ``(S, B, 3)``, ``r``
    ``(S, B, W)`` and ``runtimes`` ``(S, B)`` are the rows' inputs. ``f``
    and ``z`` are bound over them (:class:`~jobcast.nn._Bound`), and bound
    again whenever rows leave; each pass of ``f`` writes ``r``'s first
    ``F_DIM`` columns, and the first passes are checked as later ones are.
    Each epoch computes the residual ``y - t`` once: it gives both the MAE
    and the next epoch's Huber gradient.

    Every row takes the epoch's learning rate, and ``f`` joins every row at
    ``f_join``, so each component has one :class:`~jobcast.nn.Adam` with a
    scalar rate and one step counter; the autoencoder has none. Each row
    keeps its own best snapshot, best MAE and best epoch, and no other MAE,
    and leaves in the epoch it meets the MAE target, runs out of patience or
    reaches the cap, or turns non-finite. ``outcomes[r]`` is then the row's
    ``(state, report)``, its ``work`` state holding its best snapshot, or
    the :class:`TrainingError` that a single block's pass or optimizer step
    raises on its arrays. A report's ``wall_time_s`` counts from
    ``started`` until the row left.

    Every pass and reduction runs per row over the same shapes, and every
    row is checked on its own, so rows are independent and each gets the
    bits it gets alone.
    """

    per_row = ("params", "grad", "best", "best_mae", "best_epoch", "sfeat", "r",
               "runtimes")

    def __init__(self, rows, f_join, epochs, started):
        """``rows`` holds ``(work, sfeat, r, runtimes)`` per row, as
        :func:`_set_up` returns it."""
        self.works = [work for work, *_ in rows]
        first = self.works[0]
        seg = first.segments
        self.cols = np.r_[seg["f"], seg["z"]]
        self.cut = seg["f"].stop - seg["f"].start
        dims = {c: d for c, d, _ in _block_dims(first.schema)}
        self.dims = dims["f"], dims["z"]
        self.params = np.stack([work.vector[self.cols] for work in self.works])
        self.sfeat, self.r, self.runtimes = (np.stack(column) for column in
                                             list(zip(*rows))[1:])
        self.grad = np.zeros_like(self.params)
        self.ids = np.arange(len(rows))
        self.optims = [Adam(lr_at(0), self.params[:, cols].shape,
                            lambda i, at=seg[c].start: first.param_name(at + i),
                            weight_decay=FINETUNE_WEIGHT_DECAY)
                       for c, cols in (("f", slice(None, self.cut)),
                                       ("z", slice(self.cut, None)))]
        self.f_join, self.epochs, self.started = f_join, epochs, started
        self.outcomes: list = [None] * len(rows)

    def _bind(self) -> None:
        """Bind ``f`` and ``z`` over the current rows and run both forward,
        ``f``'s output into ``r``'s first ``F_DIM`` columns, so their arrays
        hold the pass the next backward pass reads."""
        cut = self.cut
        self.views = ((self.params[:, :cut], self.grad[:, :cut]),
                      (self.params[:, cut:], self.grad[:, cut:]))
        self.f, self.z = (_Bound(TwoLayerBlock(params, *dims), x, grad)
                          for (params, grad), dims, x
                          in zip(self.views, self.dims, (self.sfeat, self.r)))
        self.r_f, self.dr_f = self.r[..., :F_DIM], self.z.dx[..., :F_DIM]
        self.f.forward()
        np.copyto(self.r_f, self.f.out)
        self.z.forward()
        self.y = self.z.out[..., 0]
        self.residual, self.dy, self.abs_err = np.empty((3, *self.runtimes.shape))
        self.dout = self.dy[..., None]
        np.subtract(self.y, self.runtimes, out=self.residual)

    def _unbind(self) -> None:
        """Drop the bindings, which hold views of the per-row arrays that
        :meth:`keep` replaces, so the old arrays go before the new come."""
        self.views = self.f = self.z = self.y = self.r_f = self.dr_f = None
        self.residual = self.dy = self.abs_err = self.dout = None

    def _mae(self) -> np.ndarray:
        """Each row's MAE of z's output, leaving its residual in ``residual``."""
        np.subtract(self.y, self.runtimes, out=self.residual)
        mae = np.add.reduce(np.abs(self.residual, out=self.abs_err), -1)
        mae /= self.runtimes.shape[-1]
        return mae

    def _output_errors(self, failed, out, mae=None) -> None:
        """Add to ``failed`` every row whose block output ``out`` is
        non-finite, as a single block's pass raises it, or, given ``mae``,
        whose MAE alone is; a row keeps its first error."""
        blocks = ~np.isfinite(out).reshape(len(out), -1).all(axis=1)
        bad = blocks if mae is None else ~np.isfinite(mae)
        for i in np.flatnonzero(bad).tolist():
            failed.setdefault(i, NumericsError(_NON_FINITE_OUTPUT) if blocks[i]
                              else TrainingError(_DIVERGED))

    def _gradient_errors(self, f_trains) -> dict:
        """The rows whose gradient is non-finite, each with the error the
        first of its optimizers to step raises, ``f``'s then ``z``'s; their
        gradients are zeroed, so the optimizers step the stack."""
        failed: dict = {}
        finite = np.isfinite(self.grad)
        for i in np.flatnonzero(~finite.all(axis=1)).tolist():
            work = self.works[self.ids[i]]
            for c, cols in (("f", slice(None, self.cut)), ("z", slice(self.cut, None))):
                bad = np.flatnonzero(~finite[i, cols])
                if bad.size and (c == "z" or f_trains):
                    name = work.param_name(work.segments[c].start + int(bad[0]))
                    failed[i] = TrainingError(f"non-finite gradient for parameter {name!r}")
                    break
            self.grad[i] = 0.0
        return failed

    def train(self) -> list:
        """Train every row until it stops; returns ``outcomes``."""
        self._bind()
        mae, failed = self._mae(), {}
        for out in (self.f.out, self.y):  # f's first pass, then z's
            if not math.isfinite(np.add.reduce(out, axis=None)):
                self._output_errors(failed, out)
        self.best = self.params.copy()
        self.best_mae = mae
        self.best_epoch = np.zeros(len(mae), dtype=np.intp)
        self._track()
        self._settle(0, failed, mae)
        for epoch in range(self.epochs):
            if not self.ids.size:
                break
            f_trains = epoch >= self.f_join
            _huber_slope(self.residual, self.dy)
            self.z.backward(self.dout, f_trains)
            if f_trains:
                self.f.backward(self.dr_f, False)
            lr, failed = _LR_WAVE[epoch % LR_PERIOD], {}
            first = 0 if f_trains else 1  # f steps first, once it trains
            for optim, views in zip(self.optims[first:], self.views[first:]):
                optim.lr = lr
                try:
                    optim.step(*views)
                except TrainingError:  # raised before any update: blame rows, zero them
                    failed.update(self._gradient_errors(f_trains))
                    optim.step(*views)

            if f_trains:
                self.f.forward()
                if not math.isfinite(np.add.reduce(self.f.out, axis=None)):
                    self._output_errors(failed, self.f.out)
                np.copyto(self.r_f, self.f.out)
            self.z.forward()
            self._settle(epoch + 1, failed, self._mae())
        return self.outcomes

    def _track(self) -> None:
        """Refresh the two scalars that tell :meth:`_settle`, without a pass
        over the rows, whether one may stop: ``met``, whether some row
        meets the MAE target, and ``oldest``, the earliest best epoch of
        any row. A row's best epoch only grows, so between refreshes
        ``oldest`` is never later than the true one."""
        self.met = np.fmin.reduce(self.best_mae) <= MAE_TARGET_SECONDS
        self.oldest = int(np.minimum.reduce(self.best_epoch))

    def _settle(self, ran, failed, mae) -> None:
        """Book the MAEs of epoch ``ran`` and let the rows that stop leave:
        those in ``failed``, or whose MAE is non-finite, with their error,
        and those that meet the target, run out of patience or reach the cap
        with their report."""
        if ran:
            improved = np.less(mae, self.best_mae - PATIENCE_TOLERANCE)
            count = np.count_nonzero(improved)
            if count == len(mae):  # as a lone row does whenever it improves
                np.copyto(self.best, self.params)
                self.best_mae, self.best_epoch[:] = mae, ran
            else:  # an MAE that improved is finite: only the others need the check
                if not math.isfinite(np.add.reduce(mae)):
                    self._output_errors(failed, self.y, mae)
                if count:
                    np.copyto(self.best, self.params, where=improved[:, None])
                    np.copyto(self.best_mae, mae, where=improved)
                    self.best_epoch[improved] = ran
            if count:
                self.met = np.fmin.reduce(self.best_mae) <= MAE_TARGET_SECONDS
            if ran - self.oldest >= PATIENCE_EPOCHS:
                self._track()
        if not (failed or self.met or ran - self.oldest >= PATIENCE_EPOCHS
                or ran >= self.epochs):
            return
        met = self.best_mae <= MAE_TARGET_SECONDS
        stalled = ran - self.best_epoch >= PATIENCE_EPOCHS
        stops = met | stalled
        if ran >= self.epochs:
            stops[:] = True
        stops[list(failed)] = True
        at = time.perf_counter()
        for i in np.flatnonzero(stops).tolist():
            row = self.ids[i]
            if i in failed:
                self.outcomes[row] = failed[i]
                continue
            reason = "mae_threshold" if met[i] else "patience" if stalled[i] else "epoch_cap"
            work = self.works[row]
            work.vector[self.cols] = self.best[i]
            self.outcomes[row] = work, FineTuneReport(
                ran, int(self.best_epoch[i]), float(self.best_mae[i]), reason,
                wall_time_s=at - self.started)
        self._unbind()
        self.keep(np.flatnonzero(~stops))
        if self.ids.size:
            self._track()
            self._bind()


def _finetune_rows(rows, epochs: int = MAX_EPOCHS) -> list:
    """Fine-tune many models, each row ``(state, samples, reuse, seed)`` as
    :func:`finetune` takes them. Returns, per row, the ``(state, report)``
    that ``finetune(state, samples, reuse, seed, epochs)`` returns, or the
    :class:`DataError` or :class:`TrainingError` it raises, as a value; an
    unknown reuse strategy raises ValueError before any row is set up.

    Rows that train with one schema, sample count and unfreeze epoch form a
    group. A group of at least ``MIN_STACK_ROWS`` rows trains as one
    :func:`_finetune_group`, whose rows leave its stack as they stop; a
    smaller one calls ``finetune`` row by row. Rows are independent, so
    every row gets the bits of its own ``finetune`` call. A row's
    ``wall_time_s`` counts from the start of its group's set-up until the
    row left its stack.
    """
    rows = [(state, list(samples), reuse, seed) for state, samples, reuse, seed in rows]
    groups: dict = {}
    for i, (state, samples, reuse, _) in enumerate(rows):
        schema = state if isinstance(state, PropertySchema) else state.schema
        key = schema, len(samples), _f_join(reuse, len(samples))
        groups.setdefault(key, []).append(i)

    results: dict = {}
    for (_, _, f_join), members in groups.items():
        if len(members) >= MIN_STACK_ROWS:
            group = _finetune_group([rows[i] for i in members], f_join, epochs)
            results.update(zip(members, group))
            continue
        for i in members:
            try:
                results[i] = finetune(*rows[i], epochs=epochs)
            except (DataError, TrainingError) as exc:
                results[i] = exc
    return [results[i] for i in range(len(rows))]
