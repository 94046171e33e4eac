"""Training steps write into arrays they bind; callers get arrays of their own.

A stacked pre-training step writes every array into its binding of the joint
step, one per minibatch length, so once both lengths are bound a step
allocates next to nothing. Inference keeps no cache, so it peaks far below
the arrays a training pass binds. And no array handed to a caller is written
by a later call: each public call below runs twice, and the first result
stays bit for bit what it was, in memory of its own.
"""

import dataclasses
import functools
import time
import tracemalloc

import numpy as np
import pytest

import cached_passes as cached
from jobcast import model
from jobcast.model import encode_batch, forward_batch, predict_batch
from jobcast.synthetic import SYNTH_SCHEMA, context_records, corpus, make_contexts
from jobcast.training import (SearchSpace, _Arena, _Lockstep, _Search, finetune,
                              pretrain_corpora)

# A step that allocates its arrays allocates (12, 64, 16), (12, 27, 40) or
# (12, 64, 36) ones, 100-220 KB each, about 2.3 MB in all.
STEP_ALLOCATION_LIMIT = 64 * 1024


@functools.lru_cache(maxsize=None)
def _search_corpus():
    """The pre-training search's corpus: 7 contexts x 6 scale-outs x 3
    repetitions, 126 records, so 101 training records in minibatches of 64
    and 37 with 27 unique property vectors."""
    return tuple(corpus(make_contexts(7, seed=1), repetitions=3, seed=1))


def _step(lock, start, batch_size=64):
    """One stacked training step, as ``_Lockstep.train`` takes it."""
    loss, bad = lock.gradients(start, batch_size)
    assert bad is None
    lock.optim.step(lock.state.vector, lock.grad)
    return loss


def _traced(fn):
    """``(peak bytes, bytes numpy kept)`` while ``fn`` runs.

    tracemalloc keeps one peak over every domain: numpy's arrays, Python's
    objects, and the raw scratch a ufunc's iterator takes for broadcasting
    or casting (up to numpy's buffer size, 8192 elements, each time). That
    scratch is shrunk to 64 elements here, so the peak is numpy's arrays
    and a few small objects. The snapshots, filtered to numpy's domain, give
    what numpy still holds after ``fn``.
    """
    numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    bufsize = np.setbufsize(64)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(numpy_only)
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
        after = tracemalloc.take_snapshot().filter_traces(numpy_only)
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    kept = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    return peak - base, kept


def test_a_stacked_step_allocates_nothing_large():
    space = SearchSpace()
    search = _Search(list(_search_corpus()), 0, SYNTH_SCHEMA, space.grid(),
                     space.sample_count, time.perf_counter())
    assert search.shape == (101, 27)
    lock = _Lockstep([search])
    assert lock.state.vector.shape[0] == 12
    for start in (0, 64):  # warm-up: both minibatch shapes once
        _step(lock, start)
    for start in (0, 64):
        peak, kept = _traced(lambda: _step(lock, start))
        assert peak < STEP_ALLOCATION_LIMIT, f"step at {start} peaked at {peak} bytes"
        assert kept < STEP_ALLOCATION_LIMIT


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_stack_binds_each_minibatch_length_once_per_row_set():
    """Each minibatch length binds the joint step once, and a new binding
    comes only after rows leave. Every binding takes its arrays from the
    stack's one arena: a short minibatch's arrays are prefixes of a full
    one's, the number of flat arrays never grows after the first step, and
    while no row leaves no step carves a new one."""
    # test_lockstep's DIVERGING space: three of its five rows blow up, one
    # within three epochs and two after 18.
    space = SearchSpace(dropout_rates=(0.0, 0.2), learning_rates=(1e-2, 1e5, 1e20),
                        weight_decays=(1e-3,), sample_count=5)
    records = corpus(make_contexts(4, seed=4)[:3], repetitions=1, seed=4)
    search = _Search(records, 3, SYNTH_SCHEMA, space.grid(), space.sample_count,
                     time.perf_counter())
    lock = _Lockstep([search])
    n = lock.orders.shape[1]
    assert n == 14  # minibatches of 8 and 6
    arena, steps, gradients = lock._arena, [], lock.gradients

    def spy(start, size):
        result = gradients(start, size)
        length = min(size, n - start)
        steps.append((lock.ids.size, length, lock.steps[length], list(arena._flats)))
        return result

    lock.gradients = spy
    lock.train(30, 8)
    assert lock._arena is arena
    assert {(rows, size) for rows, size, *_ in steps} >= {(5, 8), (5, 6), (2, 8), (2, 6)}
    bindings = {}
    for rows, size, binding, flats in steps:
        assert bindings.setdefault((rows, size), binding) is binding
        assert len(flats) == len(steps[0][3])
        if rows == 5:
            assert all(a is b for a, b in zip(flats, steps[0][3]))
    assert len({id(b) for b in bindings.values()}) == len(bindings)
    for rows in {rows for rows, _ in bindings}:
        full, short = (bindings[rows, size][2] for size in (8, 6))
        assert short.r.ctypes.data == full.r.ctypes.data
        assert short.r.flags.c_contiguous and short.r.size < full.r.size


@pytest.mark.parametrize("leaving", ["one row", "every row that drops"])
def test_rows_leaving_on_a_full_minibatch_leave_later_steps_right(leaving):
    """Rows that leave on a full minibatch, before the short one, let the
    short minibatch bind first and the next epoch's full one after it. Both
    steps compute, bit for bit, what a binding in a fresh arena computes,
    also when no row left drops and the dropout arrays are gone."""
    space = SearchSpace(dropout_rates=(0.0, 0.2), sample_count=5)
    records = corpus(make_contexts(4, seed=4)[:3], repetitions=1, seed=4)
    search = _Search(records, 3, SYNTH_SCHEMA, space.grid(), space.sample_count,
                     time.perf_counter())
    lock = _Lockstep([search])
    assert lock.orders.shape[1] == 14  # minibatches of 8 and 6
    rates = lock.state.g.dropout_rate
    bad = np.arange(rates.size) == 0 if leaving == "one row" else rates > 0
    assert bad.any() and not bad.all()
    lock.gradients(0, 8)
    lock.leave(bad, 0)
    for start in (8, 0):  # the short minibatch, then the next epoch's full one
        streams = [gen.bit_generator.state for gen in lock.rngs]
        loss, _ = lock.gradients(start, 8)
        ours = _hex(loss), _hex(lock.grad)
        kept = lock.steps, lock._arena
        lock.steps, lock._arena = {}, _Arena()
        for gen, state in zip(lock.rngs, streams):
            gen.bit_generator.state = state
        loss, _ = lock.gradients(start, 8)
        assert (_hex(loss), _hex(lock.grad)) == ours
        lock.steps, lock._arena = kept


INFERENCE_LIMIT = 40_000_000
PREDICT_BATCH_LIMIT = 45_000_000
CANDIDATES = [1 + i % 201 for i in range(100_000)]


def test_inference_keeps_no_cache(monkeypatch):
    """Over 100,000 candidates the forward pass peaks below 40 MB beyond
    its inputs (a pass that kept the backward caches peaked at 80 MB), and
    its outputs are bit for bit the cached pass's."""
    state, records = _pretrained()
    caught = []  # the batch predict_batch forwards
    with monkeypatch.context() as m:
        m.setattr(model, "forward_batch", lambda s, batch: caught.append(batch))
        predict_batch(state, CANDIDATES, records[0].properties)
    [batch] = caught
    out = []
    peak, _ = _traced(lambda: out.append(forward_batch(state, batch)))
    assert peak < INFERENCE_LIMIT, f"inference peaked at {peak} bytes"
    assert out[0].tobytes() == cached.forward_batch(state, batch).tobytes()


def test_predict_batch_encodes_one_mapping():
    """predict_batch over 100,000 candidates, encoding included, peaks below
    45 MB (about 38 MB; 53 MB when it encoded one record per candidate and
    gathered each one's rows)."""
    state, records = _pretrained()
    peak, _ = _traced(lambda: predict_batch(state, CANDIDATES, records[0].properties))
    assert peak < PREDICT_BATCH_LIMIT, f"predict_batch peaked at {peak} bytes"


@functools.lru_cache(maxsize=None)
def _pretrained():
    records = corpus(make_contexts(3, seed=4), repetitions=1, seed=4)
    [(state, _)] = pretrain_corpora([(records, 2)], SYNTH_SCHEMA,
                                    space=SearchSpace(sample_count=2), epochs=20,
                                    batch_size=8)
    return state, records


def _hex(a):
    return [float(x).hex() for x in np.ravel(a)]


def _arrays(obj):
    """Every numpy array inside nested tuples, lists and dicts."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _arrays(item)]
    return []


def _twice(call, inputs=()):
    """Run ``call`` twice: every array of the first result, the caller's
    own ``inputs`` aside, keeps its values and shares no memory with the
    second result."""

    def outputs(result):
        return [a for a in _arrays(result)
                if not any(np.shares_memory(a, x) for x in inputs)]

    first = outputs(call())
    kept = [_hex(a) for a in first]
    second = outputs(call())
    assert len(first) == len(second) > 0
    assert [_hex(a) for a in first] == kept
    for a in first:
        for b in second:
            assert not np.shares_memory(a, b)


def test_predict_batch_results_are_the_callers():
    state, records = _pretrained()
    _twice(lambda: predict_batch(state, [2, 4, 8], records[0].properties))


def test_single_state_forward_batch_results_are_the_callers():
    state, records = _pretrained()
    batch = encode_batch(state.schema, state.normalizer, records[:5])
    _twice(lambda: forward_batch(state, batch), inputs=_arrays(vars(batch)))


@pytest.mark.parametrize("reuse", ["partial-unfreeze", "full-reset"])
def test_finetune_results_are_the_callers(reuse):
    state, _ = _pretrained()
    samples = context_records(make_contexts(4, seed=4)[3], repetitions=1, seed=5)[:3]
    tuned, report = finetune(state, samples, reuse=reuse, seed=3, epochs=300)
    assert report.epochs_run > 0
    kept = _hex(tuned.vector), _hex(report.mae_history)
    again, again_report = finetune(state, samples, reuse=reuse, seed=3, epochs=300)
    assert (_hex(tuned.vector), _hex(report.mae_history)) == kept
    assert not np.shares_memory(tuned.vector, again.vector)
    assert report.mae_history is not again_report.mae_history


def test_pretrain_corpora_results_are_the_callers():
    _, records = _pretrained()

    def call():
        return pretrain_corpora([(records, 2), (records[:12], 3)], SYNTH_SCHEMA,
                                space=SearchSpace(sample_count=2), epochs=15,
                                batch_size=8)

    def values(results):
        return [(_hex(state.vector), [dataclasses.astuple(e) for e in log])
                for state, log in results]

    first = call()
    kept = values(first)
    second = call()
    assert values(first) == kept
    for (state, log), (state2, log2) in zip(first, second):
        assert not np.shares_memory(state.vector, state2.vector)
        assert log is not log2
        assert all(e is not e2 for e, e2 in zip(log, log2))
