"""Random sub-sampling evaluation of prediction methods.

For one execution context, a split draws training records whose scale-outs
are pairwise different, one interpolation test record (scale-out strictly
inside the trained range), and one extrapolation test record (strictly
outside). Methods are fitted per split and scored by relative and absolute
runtime error; method failures (too few points, no pre-training corpus)
are recorded as excluded rows rather than dropped.

:func:`run_comparison` runs one task per n_train over every chosen context.
The model rows of every context, split and variant fine-tune together, as
the rows of one stack that shrinks as they stop
(:func:`jobcast.training._finetune_rows`). Each split's method tokens are
then scored in order by :func:`_score`, and the baselines fit there. A
model row's ``wall_time_s`` is the time from its stack's start until it
left, not its own cost.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import training
from .baselines import bell_fit, bell_predict, ernest_fit, ernest_predict
from .dataio import ContextKey, filter_for_variant, group_by_context
from .encoding import fnv1a_64
from .errors import ConfigError, DataError, TrainingError
from .model import PropertySchema, predict_batch as model_predict_batch
from .training import SearchSpace, pretrain_corpora

MODEL_METHOD = "model"
BASELINE_TOKENS = ("nnls", "bell")
VARIANT_TOKENS = ("local", "filtered", "full")
# choose_contexts covers every value of this property before filling up.
STRATIFY_PROPERTY = "node_type"


@dataclass(frozen=True)
class EvalSplit:
    """Index triple into one context's record list."""

    train: tuple[int, ...]
    interp_test: int | None
    extrap_test: int | None

    @property
    def n_train(self) -> int:
        return len(self.train)


def generate_splits(records, n_train: int, max_splits: int = 200,
                    seed: int = 0) -> list[EvalSplit]:
    """Up to ``max_splits`` unique splits, deterministic under ``seed``.

    With fewer than two training points no interpolation test exists and
    splits are extrapolation-only. Retries are capped at 50x the requested
    count, so sparse grids simply yield fewer splits.
    """
    records = list(records)
    xs = sorted({r.scale_out for r in records})
    if n_train < 0:
        raise DataError("n_train must be >= 0")
    if n_train > len(xs) - 1:
        raise DataError(
            f"n_train={n_train} leaves no test scale-out on a grid of {len(xs)}"
        )
    by_x = {x: [i for i, r in enumerate(records) if r.scale_out == x] for x in xs}
    rng = np.random.default_rng(np.random.SeedSequence((seed, n_train)))
    seen = set()
    splits = []
    attempts = 0
    while len(splits) < max_splits and attempts < 50 * max_splits:
        attempts += 1
        train_xs = sorted(rng.choice(xs, size=n_train, replace=False)) if n_train else []
        train_idx = tuple(sorted(
            int(by_x[x][rng.integers(len(by_x[x]))]) for x in train_xs
        ))
        if n_train:
            lo, hi = train_xs[0], train_xs[-1]
            interp = [i for i, r in enumerate(records)
                      if lo < r.scale_out < hi and r.scale_out not in train_xs]
            extrap = [i for i, r in enumerate(records)
                      if r.scale_out < lo or r.scale_out > hi]
        else:
            interp = []
            extrap = list(range(len(records)))
        interp_pick = int(rng.choice(interp)) if interp else None
        extrap_pick = int(rng.choice(extrap)) if extrap else None
        if interp_pick is None and extrap_pick is None:
            continue
        key = (train_idx, interp_pick, extrap_pick)
        if key in seen:
            continue
        seen.add(key)
        splits.append(EvalSplit(train_idx, interp_pick, extrap_pick))
    return splits


def validate_split(records, split: EvalSplit) -> None:
    """Independent range check; raises ValueError on violations."""
    train_xs = [records[i].scale_out for i in split.train]
    if len(set(train_xs)) != len(train_xs):
        raise ValueError(f"duplicate training scale-outs: {train_xs}")
    if split.interp_test is None and split.extrap_test is None:
        raise ValueError("split has no test point")
    if split.interp_test is not None:
        x = records[split.interp_test].scale_out
        if not train_xs or not (min(train_xs) < x < max(train_xs)):
            raise ValueError(f"interpolation scale-out {x} not inside {train_xs}")
        if x in train_xs:
            raise ValueError(f"interpolation scale-out {x} collides with training")
    if split.extrap_test is not None and train_xs:
        x = records[split.extrap_test].scale_out
        if min(train_xs) <= x <= max(train_xs):
            raise ValueError(f"extrapolation scale-out {x} not outside {train_xs}")


def ecdf(values) -> list[tuple[float, float]]:
    """Right-continuous empirical CDF as (value, cumulative fraction) steps."""
    values = sorted(values)
    if not values:
        raise ValueError("ecdf needs at least one value")
    n = len(values)
    out = []
    for i, v in enumerate(values):
        if i + 1 == n or values[i + 1] != v:
            out.append((v, (i + 1) / n))
    return out


@dataclass
class MetricRow:
    method: str
    variant: str
    context: str
    n_train: int
    task: str  # interp | extrap
    actual: float | None = None
    predicted: float | None = None
    rel_err: float | None = None
    abs_err: float | None = None
    epochs: int | None = None
    wall_time_s: float | None = None
    flag: str = "ok"
    split: EvalSplit | None = None  # a fit's rows share their split


@dataclass
class MetricsTable:
    rows: list = field(default_factory=list)

    def aggregate(self) -> dict:
        """(method, variant, n_train, task) -> dict(mre, mae, count)."""
        sums: dict = {}
        for r in self.rows:
            if r.rel_err is None:
                continue
            key = (r.method, r.variant, r.n_train, r.task)
            agg = sums.setdefault(key, [0.0, 0.0, 0])
            agg[0] += r.rel_err
            agg[1] += r.abs_err
            agg[2] += 1
        return {
            key: {"mre": s[0] / s[2], "mae": s[1] / s[2], "count": s[2]}
            for key, s in sums.items()
        }

    def epochs_of(self, variant: str) -> list[int]:
        """The epochs of every ``variant`` fit that was not excluded, once
        per fit, whichever test tasks its split has."""
        fits = {(r.context, r.n_train, r.split): r.epochs for r in self.rows
                if r.method == MODEL_METHOD and r.variant == variant
                and r.epochs is not None}
        return list(fits.values())


def context_id(key: ContextKey) -> str:
    return f"{fnv1a_64(str(key).encode('utf-8')):016x}"[:8]


def choose_contexts(records, count: int = 7, seed: int = 0) -> list[ContextKey]:
    """Pick evaluation contexts, covering every value of
    ``STRATIFY_PROPERTY`` at least once before filling up uniformly."""
    contexts = sorted(group_by_context(records), key=str)
    if count >= len(contexts):
        return contexts
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC7)))
    names = {name for ctx in contexts for name, _ in ctx.items}
    picked: list[ContextKey] = []
    if STRATIFY_PROPERTY in names:
        groups: dict = {}
        for ctx in contexts:
            groups.setdefault(ctx.get(STRATIFY_PROPERTY), []).append(ctx)
        for value in sorted(groups, key=str):
            group = groups[value]
            if len(picked) < count:
                picked.append(group[int(rng.integers(len(group)))])
    rest = [c for c in contexts if c not in picked]
    extra = count - len(picked)
    if extra > 0:
        idx = rng.choice(len(rest), size=extra, replace=False)
        picked.extend(rest[int(i)] for i in sorted(idx))
    return picked[:count]


def _baseline(token) -> tuple:
    """A baseline token's ``(fit, predict)``. ``fit`` takes a split's
    ``(scale_out, runtime)`` points and raises :class:`DataError` where it
    cannot fit them. The names resolve at each call, so a tracer that
    rebinds them sees every fit."""
    return {"nnls": (ernest_fit, ernest_predict), "bell": (bell_fit, bell_predict)}[token]


def _score(records, split, token, fitted, label) -> list[MetricRow]:
    """The metric rows of one method token on one split's test tasks.

    ``fitted`` is the token's fit outcome: a variant's ``(state, report)``
    from :func:`training._finetune_rows`, a baseline's fitted model, or the
    error that excludes it. A baseline fitted on one point is flagged
    ``degenerate``."""
    method, variant = (token, "") if token in BASELINE_TOKENS else (MODEL_METHOD, token)
    tests = [(task, idx) for task, idx in
             (("interp", split.interp_test), ("extrap", split.extrap_test))
             if idx is not None]
    recs = [records[idx] for _, idx in tests]
    if isinstance(fitted, Exception):
        return [MetricRow(method, variant, label, split.n_train, task,
                          actual=rec.runtime_seconds, flag=f"excluded: {fitted}",
                          split=split)
                for (task, _), rec in zip(tests, recs)]
    epochs = wall_time_s = None
    if method == MODEL_METHOD:
        state, report = fitted
        epochs, wall_time_s = report.epochs_run, report.wall_time_s
        props = recs[0].properties
        if any(r.properties != props for r in recs):  # optional properties differ
            preds = [model_predict_batch(state, [r.scale_out], r.properties)[0]
                     for r in recs]
        else:
            preds = model_predict_batch(state, [r.scale_out for r in recs], props)
    else:
        predict = _baseline(token)[1]
        preds = [predict(fitted, r.scale_out) for r in recs]
    flag = "degenerate" if method != MODEL_METHOD and split.n_train < 2 else "ok"
    rows = []
    for (task, _), rec, pred in zip(tests, recs, preds):
        pred = float(pred)
        rows.append(MetricRow(
            method, variant, label, split.n_train, task,
            actual=rec.runtime_seconds, predicted=pred,
            rel_err=abs(pred - rec.runtime_seconds) / rec.runtime_seconds,
            abs_err=abs(pred - rec.runtime_seconds),
            epochs=epochs, wall_time_s=wall_time_s, flag=flag, split=split))
    return rows


@dataclass
class ComparisonConfig:
    methods: tuple = ("nnls", "bell", "local", "full")
    n_train_values: tuple = (1, 2, 3, 4, 5)
    contexts: int | list = 7
    max_splits: int = 200
    seed: int = 0
    reuse: str = "partial-unfreeze"
    pretrain_space: SearchSpace | None = None
    pretrain_epochs: int = training.MAX_EPOCHS
    finetune_epochs: int = training.MAX_EPOCHS
    workers: int = 1


def _variant_seed(config, variant, target) -> int:
    return int(np.random.SeedSequence(
        (config.seed, fnv1a_64(f"{variant}|{target}".encode()) & 0xFFFF)
    ).generate_state(1)[0])


def check_methods(tokens) -> tuple:
    """The method tokens as a tuple, each one known and none repeated: the
    rule for ``--methods`` and for :attr:`ComparisonConfig.methods`."""
    tokens = tuple(tokens)
    known = BASELINE_TOKENS + VARIANT_TOKENS
    unknown = sorted({t for t in tokens if t not in known})
    if unknown or not tokens:
        raise ConfigError(f"method tokens must come from {', '.join(known)}; "
                          f"got {list(tokens)}")
    repeated = sorted({t for t in tokens if tokens.count(t) > 1})
    if repeated:
        raise ConfigError(f"method tokens are repeated: {repeated}")
    return tokens


def _n_train_task(task) -> list:
    """The metric rows of every cell of one n_train, one list per context.

    ``task`` is ``(contexts, n_train, tokens, schema, reuse, epochs,
    max_splits, seed)``, each context ``(records, label, states)``. Each
    cell draws its splits from its own seed. Every model row of every cell,
    one per split and variant that has a model to start from, fine-tunes in
    one :func:`training._finetune_rows` call; a variant without one is
    excluded. Then each split's tokens are scored in order, and the
    baselines fit there, one split at a time.
    """
    contexts, n_train, tokens, schema, reuse, epochs, max_splits, seed = task
    variants = [token for token in tokens if token in VARIANT_TOKENS]
    cells, keys, requests, fitted = [], [], [], {}
    for c, (records, label, states) in enumerate(contexts):
        cell_seed = int(np.random.SeedSequence(
            (seed, fnv1a_64(label.encode()) & 0xFFFF, n_train)
        ).generate_state(1)[0])
        splits = generate_splits(records, n_train, max_splits, seed=cell_seed)
        for s, split in enumerate(splits):
            validate_split(records, split)
            fit_seed = int(np.random.SeedSequence((cell_seed, s)).generate_state(1)[0])
            train = [records[i] for i in split.train]
            for token in variants:
                start = schema if token == "local" else states.get(token)
                if start is None:
                    fitted[c, s, token] = DataError(
                        f"no pre-trained model for variant {token!r}")
                else:
                    keys.append((c, s, token))
                    requests.append((start, train, reuse, fit_seed))
        cells.append((records, label, splits))

    fitted.update(zip(keys, training._finetune_rows(requests, epochs)))
    out = []
    for c, (records, label, splits) in enumerate(cells):
        rows = []
        for s, split in enumerate(splits):
            points = [(records[i].scale_out, records[i].runtime_seconds)
                      for i in split.train]
            for token in tokens:
                if token in BASELINE_TOKENS:
                    try:
                        outcome = _baseline(token)[0](points)
                    except (DataError, TrainingError) as exc:
                        outcome = exc
                else:
                    outcome = fitted.pop((c, s, token))
                rows += _score(records, split, token, outcome, label)
        out.append(rows)
    return out


def run_comparison(records, schema: PropertySchema,
                   config: ComparisonConfig | None = None) -> MetricsTable:
    """Run the full protocol over chosen contexts and sample counts.

    With ``config.workers`` above 1 the n_train tasks run in a process pool
    of at most that many workers, never more than tasks or CPUs; a pool
    worker that dies raises :class:`WorkerError`, naming the tasks lost.
    The rows do not depend on the worker count, wall times aside. An int
    ``contexts``, ``max_splits`` or ``workers`` below 1 raises
    :class:`ConfigError` before any pre-training."""
    config = config or ComparisonConfig()
    for name in ("contexts", "max_splits", "workers"):
        value = getattr(config, name)
        if isinstance(value, int) and value < 1:  # contexts may be a list
            raise ConfigError(f"{name} must be at least 1, got {value}")
    records = list(records)
    by_context = group_by_context(records)
    if isinstance(config.contexts, int):
        chosen = choose_contexts(records, config.contexts, config.seed)
    else:
        chosen = list(config.contexts)
    tokens = check_methods(config.methods)
    # Check every context and every cell's n_train against its grid before
    # any pre-training.
    for ctx in chosen:
        if ctx not in by_context:
            raise ConfigError(f"context {ctx} has no records")
        grid = len({r.scale_out for r in by_context[ctx]})
        bad = [n for n in config.n_train_values if not 0 <= n <= grid - 1]
        if bad:
            raise ConfigError(f"n_train {bad} leaves no test scale-out on the "
                              f"{grid}-point grid of context {context_id(ctx)}")

    # Every (context, variant) corpus pre-trains in one engine call, in this
    # process: split into parts, its small shape groups cost more CPU and
    # no less wall time. A corpus that cannot pre-train (too few records,
    # every config diverged) leaves its variant without a model, and that
    # variant's rows are excluded.
    corpora = [(ctx, variant) for ctx in chosen for variant in ("filtered", "full")
               if variant in tokens]
    results = pretrain_corpora(
        [(filter_for_variant(records, ctx, variant), _variant_seed(config, variant, ctx))
         for ctx, variant in corpora],
        schema, space=config.pretrain_space, epochs=config.pretrain_epochs, workers=1)
    states: dict = {ctx: {} for ctx in chosen}
    for (ctx, variant), result in zip(corpora, results):
        states[ctx][variant] = None if isinstance(result, Exception) else result[0]

    # One task per n_train: its model rows, from every context, split and
    # variant, fine-tune together (see _n_train_task).
    contexts = [(by_context[ctx], context_id(ctx), states[ctx]) for ctx in chosen]
    tasks = [(contexts, n_train, tokens, schema, config.reuse, config.finetune_epochs,
              config.max_splits, config.seed) for n_train in config.n_train_values]
    if config.workers > 1 and tasks:
        # Under fork, Python 3.10 and 3.11 start every worker at the first
        # submit: never more workers than tasks, nor than CPUs.
        workers = min(config.workers, len(tasks), training._cpus())
        with training._process_pool(workers) as pool:
            futures = [pool.submit(_n_train_task, task) for task in tasks]
            done = training._collect(futures, [f"n_train {n}" for n in
                                               config.n_train_values])
    else:
        done = [_n_train_task(task) for task in tasks]
    table = MetricsTable()
    for c in range(len(contexts)):  # cells in context order, then n_train order
        for cells in done:
            table.rows.extend(cells[c])
    return table


def write_metrics_csv(table: MetricsTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "variant", "context", "n_train", "task",
                         "mre", "mae", "epochs", "wall_time_s", "flag"])
        for r in table.rows:
            writer.writerow([
                r.method, r.variant, r.context, r.n_train, r.task,
                "" if r.rel_err is None else repr(r.rel_err),
                "" if r.abs_err is None else repr(r.abs_err),
                "" if r.epochs is None else r.epochs,
                "" if r.wall_time_s is None else f"{r.wall_time_s:.4f}",
                r.flag,
            ])


def write_ecdf_csv(table: MetricsTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "variant", "epochs", "cumulative_fraction"])
        for variant in VARIANT_TOKENS:
            epochs = table.epochs_of(variant)
            if not epochs:
                continue
            for value, fraction in ecdf(epochs):
                writer.writerow([MODEL_METHOD, variant, int(value),
                                 repr(fraction)])


def write_context_legend(records, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["context", "key"])
        for ctx in sorted(group_by_context(records), key=str):
            writer.writerow([context_id(ctx), str(ctx)])
