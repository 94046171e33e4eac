"""``run_comparison`` against the per-split reference of ``reference_eval``.

Evaluate stacks the fine-tunes of each n_train and pre-trains every corpus
in one call; the reference fits and scores one split at a time. Both must
give the same rows, wall time aside: predictions and errors as hex,
epochs, flags and exclusions. Both run on one host, so this holds under
any numeric kernels.
"""

import dataclasses
import functools

import pytest

from jobcast.evalharness import ComparisonConfig, run_comparison
from jobcast.synthetic import SYNTH_SCHEMA, context_records, corpus, make_contexts
from jobcast.training import REUSE_STRATEGIES, SearchSpace
from reference_eval import library_rows, reference_rows

METHODS = ("nnls", "bell", "local", "filtered", "full")


@functools.lru_cache(maxsize=None)
def _corpus(name):
    """``(records, contexts to evaluate)``. ``three``: three contexts on
    six scale-outs, two of them evaluated. ``overflowing``: a normal
    context and one whose runtimes are all 1e308, both evaluated. Any two
    of the latter's samples overflow a fine-tune's MAE, so its model rows
    from n_train 2 on diverge; and the normal context's ``filtered`` and
    ``full`` corpora are those runtimes alone, whose pre-training diverges
    in every config, so those variants have no pre-trained model."""
    if name == "three":
        contexts = make_contexts(3, seed=21)
        return tuple(corpus(contexts, repetitions=1, seed=21)), \
            [c.key for c in contexts[:2]]
    normal, huge = make_contexts(2, seed=22)
    records = context_records(normal, repetitions=1, seed=22) + [
        dataclasses.replace(r, runtime_seconds=1e308)
        for r in context_records(huge, repetitions=1, seed=23)]
    return tuple(records), [normal.key, huge.key]


def _config(contexts, reuse):
    return ComparisonConfig(methods=METHODS, n_train_values=tuple(range(6)),
                            contexts=contexts, max_splits=2, seed=5, reuse=reuse,
                            pretrain_space=SearchSpace(sample_count=1),
                            pretrain_epochs=10, finetune_epochs=40)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, reuse", [("three", reuse) for reuse in REUSE_STRATEGIES]
                         + [("overflowing", "partial-unfreeze")])
def test_run_comparison_gives_the_reference_rows(name, reuse):
    records, contexts = _corpus(name)
    config = _config(contexts, reuse)
    got = library_rows(run_comparison(records, SYNTH_SCHEMA, config))
    assert got == reference_rows(records, SYNTH_SCHEMA, config)
    flags = {row[-1] for row in got}
    assert "ok" in flags and "degenerate" in flags
    assert {row[1] for row in got} == {"", "local", "filtered", "full"}
    assert {row[3] for row in got} == set(range(6))
    if name == "overflowing":
        assert {"excluded: fine-tuning diverged (non-finite MAE)",
                "excluded: no pre-trained model for variant 'full'",
                "excluded: no pre-trained model for variant 'filtered'"} <= flags
