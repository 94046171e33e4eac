"""A per-split reference for ``evalharness.run_comparison``.

A plain loop over cells (a context and an n_train) and their splits: each
(context, variant) corpus pre-trains with its own ``pretrain`` call, each
variant fine-tunes with its own ``finetune`` call, each baseline fits with
``ernest_fit`` or ``bell_fit``, and each fit is scored at once on its
split's test records. ``run_comparison`` stacks the fine-tunes of one
n_train and pre-trains every corpus in one call; this loop shares with it
only the split drawing and the library calls it is built from, and
derives every seed itself.

A model is scored with ``predict_batch`` over the split's test records in
one call when they share their properties, as ``_score`` batches them: a
one-row product may differ in the last bits from the same row in a larger
one.
"""

import numpy as np

from jobcast.baselines import bell_fit, bell_predict, ernest_fit, ernest_predict
from jobcast.dataio import filter_for_variant, group_by_context
from jobcast.encoding import fnv1a_64
from jobcast.errors import DataError, TrainingError
from jobcast.evalharness import choose_contexts, context_id, generate_splits
from jobcast.model import predict_batch
from jobcast.training import finetune, pretrain

BASELINES = {"nnls": (ernest_fit, ernest_predict), "bell": (bell_fit, bell_predict)}


def _seed(*entropy) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _hash16(text: str) -> int:
    return fnv1a_64(text.encode()) & 0xFFFF


def reference_rows(records, schema, config) -> list:
    """The metric rows ``run_comparison(records, schema, config)`` gives, as
    tuples ``(method, variant, context, n_train, task, actual, predicted,
    rel_err, abs_err, epochs, flag)``, floats as hex and wall time left
    out; in context order, then n_train, split and method order."""
    records = list(records)
    by_context = group_by_context(records)
    chosen = (choose_contexts(records, config.contexts, config.seed)
              if isinstance(config.contexts, int) else list(config.contexts))
    models = {}
    for ctx in chosen:
        for variant in ("filtered", "full"):
            if variant not in config.methods:
                continue
            try:
                models[ctx, variant], _ = pretrain(
                    filter_for_variant(records, ctx, variant), schema,
                    space=config.pretrain_space,
                    seed=_seed(config.seed, _hash16(f"{variant}|{ctx}")),
                    epochs=config.pretrain_epochs, workers=1)
            except (DataError, TrainingError):
                pass

    rows = []
    for ctx in chosen:
        own, label = by_context[ctx], context_id(ctx)
        for n_train in config.n_train_values:
            cell_seed = _seed(config.seed, _hash16(label), n_train)
            splits = generate_splits(own, n_train, config.max_splits, seed=cell_seed)
            for s, split in enumerate(splits):
                fit_seed = _seed(cell_seed, s)
                train = [own[i] for i in split.train]
                tests = [(task, own[i]) for task, i in (("interp", split.interp_test),
                                                        ("extrap", split.extrap_test))
                         if i is not None]
                for token in config.methods:
                    if token in BASELINES:
                        method, variant = token, ""
                    else:
                        method, variant = "model", token
                    try:
                        preds, epochs = _fit_and_predict(
                            token, models.get((ctx, token)), schema, train, tests,
                            config.reuse, fit_seed, config.finetune_epochs)
                    except (DataError, TrainingError) as exc:
                        preds, epochs, flag = [None] * len(tests), None, f"excluded: {exc}"
                    else:
                        flag = "degenerate" if token in BASELINES and n_train < 2 else "ok"
                    for (task, rec), pred in zip(tests, preds):
                        rows.append(_row(method, variant, label, n_train, task,
                                         rec.runtime_seconds, pred, epochs, flag))
    return rows


def _fit_and_predict(token, model, schema, train, tests, reuse, seed, epochs):
    """``(predictions, epochs)`` of one method token's fit on one split."""
    scale_outs = [rec.scale_out for _, rec in tests]
    if token in BASELINES:
        fit, predict = BASELINES[token]
        fitted = fit([(r.scale_out, r.runtime_seconds) for r in train])
        return [predict(fitted, x) for x in scale_outs], None
    if token == "local":
        model = schema
    elif model is None:
        raise DataError(f"no pre-trained model for variant {token!r}")
    tuned, report = finetune(model, train, reuse=reuse, seed=seed, epochs=epochs)
    props = tests[0][1].properties
    if all(rec.properties == props for _, rec in tests):
        preds = predict_batch(tuned, scale_outs, props)
    else:
        preds = [predict_batch(tuned, [rec.scale_out], rec.properties)[0]
                 for _, rec in tests]
    return preds, report.epochs_run


def _row(method, variant, label, n_train, task, actual, pred, epochs, flag) -> tuple:
    if pred is None:
        errors = (None, None, None)
    else:
        pred = float(pred)
        errors = (pred.hex(), (abs(pred - actual) / actual).hex(),
                  abs(pred - actual).hex())
    return (method, variant, label, n_train, task, actual.hex(), *errors, epochs, flag)


def library_rows(table) -> list:
    """``run_comparison``'s rows in :func:`reference_rows`' form."""
    def hexed(value):
        return None if value is None else value.hex()

    return [(r.method, r.variant, r.context, r.n_train, r.task, r.actual.hex(),
             hexed(r.predicted), hexed(r.rel_err), hexed(r.abs_err), r.epochs, r.flag)
            for r in table.rows]
