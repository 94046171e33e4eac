"""A search's rows split across processes and give the same bits.

``pretrain_corpora`` trains each shape group's first part of rows in this
process and the other parts in a process pool. Rows are independent, so at
any worker count every search-log field (wall times aside), the chosen
config and the chosen model's bytes equal those of one stack. The CPU count
is patched so that two and three parts run on any host.
"""

import csv
import dataclasses
import functools
import multiprocessing
import os
import signal
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from jobcast import cli, evalharness, model, training
from jobcast.errors import ConfigError, WorkerError
from jobcast.evalharness import ComparisonConfig, run_comparison
from jobcast.synthetic import SYNTH_SCHEMA, corpus, make_contexts
from jobcast.training import SearchSpace, pretrain, pretrain_corpora

DATA = Path(__file__).parent / "data"

# test_lockstep's diverging space: three of five rows blow up, one within
# three epochs and two after 18.
DIVERGING = SearchSpace(dropout_rates=(0.0, 0.2), learning_rates=(1e-2, 1e5, 1e20),
                        weight_decays=(1e-3,), sample_count=5)


@functools.lru_cache(maxsize=None)
def _bench_records():
    """The pre-training benchmark's corpus: 7 contexts x 6 scale-outs x 3
    repetitions, 126 records."""
    return tuple(corpus(make_contexts(7, seed=1), repetitions=3, seed=1))


@functools.lru_cache(maxsize=None)
def _diverging_records():
    return tuple(corpus(make_contexts(4, seed=4)[:3], repetitions=1, seed=4))


def _outcome(result):
    """A search's log, floats as hex and wall times aside, its chosen
    config and the chosen model's bytes; or the error's type."""
    if isinstance(result, Exception):
        return type(result)
    state, log = result
    rows = [tuple(v.hex() if isinstance(v, float) else v
                  for k, v in dataclasses.asdict(e).items() if k != "wall_time_s")
            for e in log]
    return rows, [e.config_id for e in log if e.chosen], model.serialize(state)


def _pools(monkeypatch):
    """The worker counts every pool is asked for."""
    asked, original = [], training._process_pool
    monkeypatch.setattr(training, "_process_pool",
                        lambda n: asked.append(n) or original(n))
    return asked


def _at_each_worker_count(monkeypatch, call):
    monkeypatch.setattr(training, "_cpus", lambda: 3)
    asked = _pools(monkeypatch)
    outcomes = {workers: [_outcome(r) for r in call(workers)] for workers in (1, 2, 3)}
    assert asked == [1, 2]  # the parent trains one part itself
    assert outcomes[2] == outcomes[1]
    assert outcomes[3] == outcomes[1]
    assert multiprocessing.active_children() == []
    return outcomes[1]


def test_the_bench_search_splits_bitwise(monkeypatch):
    [(rows, chosen, _)] = _at_each_worker_count(monkeypatch, lambda workers: [
        pretrain(_bench_records(), SYNTH_SCHEMA, seed=2, epochs=15, workers=workers)])
    assert len(rows) == 12 and len(chosen) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_rows_split_bitwise(monkeypatch):
    [(rows, _, _)] = _at_each_worker_count(monkeypatch, lambda workers: [
        pretrain(_diverging_records(), SYNTH_SCHEMA, space=DIVERGING, seed=3, epochs=30,
                 batch_size=8, workers=workers)])
    assert [r[-2] for r in rows] == ["ok", "diverged", "diverged", "diverged", "ok"]


def test_two_shape_groups_split_bitwise(monkeypatch):
    """Six rows of two corpora in one group, three of one corpus in the
    other: three parts cut the first group inside a corpus."""
    records = _diverging_records()
    jobs = [(records, 2), (records, 5), (records[:12], 3)]
    outcomes = _at_each_worker_count(monkeypatch, lambda workers: pretrain_corpora(
        jobs, SYNTH_SCHEMA, space=SearchSpace(sample_count=3), epochs=12, batch_size=8,
        workers=workers))
    assert len(outcomes) == 3 and all(len(rows) == 3 for rows, _, _ in outcomes)


def test_spawned_workers_split_bitwise(monkeypatch):
    """Parts and outcomes pickle, so a pool that does not fork computes
    the same bits."""
    monkeypatch.setattr(training, "_cpus", lambda: 2)
    monkeypatch.setattr(training, "_process_pool", lambda n: ProcessPoolExecutor(
        n, mp_context=multiprocessing.get_context("spawn")))
    one, two = (_outcome(pretrain(_diverging_records(), SYNTH_SCHEMA,
                                  space=SearchSpace(sample_count=4), seed=3, epochs=10,
                                  batch_size=8, workers=workers))
                for workers in (1, 2))
    assert two == one
    assert multiprocessing.active_children() == []


def test_the_default_splits_only_a_long_stack_of_rows_in_two(monkeypatch):
    monkeypatch.setattr(training, "_cpus", lambda: 8)
    monkeypatch.setattr(training, "_forks", lambda: True)
    monkeypatch.setattr(training, "MIN_SPLIT_STEPS", 40)
    asked = _pools(monkeypatch)
    records = _bench_records()  # 101 training records: two steps per epoch

    def search(samples, epochs):
        return pretrain(records, SYNTH_SCHEMA, space=SearchSpace(sample_count=samples),
                        epochs=epochs)

    search(12, 19)  # 38 steps
    search(1, 20)  # one row
    assert asked == []
    search(12, 20)
    assert asked == [training.DEFAULT_PARTS - 1] == [1]
    assert multiprocessing.active_children() == []


def test_the_default_trains_in_process_where_the_pool_would_not_fork(monkeypatch):
    monkeypatch.setattr(training, "_cpus", lambda: 2)
    monkeypatch.setattr(training, "_forks", lambda: False)
    monkeypatch.setattr(training, "MIN_SPLIT_STEPS", 1)
    asked = _pools(monkeypatch)
    pretrain(_diverging_records(), SYNTH_SCHEMA, space=SearchSpace(sample_count=3),
             epochs=2, batch_size=8)
    assert asked == []


@pytest.mark.parametrize("method", [m for m in ("spawn", "forkserver")
                                    if m in multiprocessing.get_all_start_methods()])
def test_an_unguarded_script_pretrains_by_default_under_a_non_fork_start_method(
        tmp_path, method):
    """Such a method makes every worker import the main module, which would
    pre-train again at import: the default starts no pool there."""
    script = tmp_path / "unguarded.py"
    script.write_text(
        "import multiprocessing, sys\n"
        "from jobcast import training\n"
        "from jobcast.synthetic import SYNTH_SCHEMA, corpus, make_contexts\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "training.MIN_SPLIT_STEPS = 1\n"
        "training._cpus = lambda: 2\n"
        "records = corpus(make_contexts(4, seed=4)[:3], repetitions=1, seed=4)\n"
        "training.pretrain(records, SYNTH_SCHEMA, space=training.SearchSpace(sample_count=3),\n"
        "                  epochs=2, batch_size=8)\n"
        "print('concurrent.futures.process' in sys.modules)\n")
    src = Path(training.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_one_worker_or_one_cpu_trains_in_process(monkeypatch):
    asked = _pools(monkeypatch)
    pretrain(_diverging_records(), SYNTH_SCHEMA, space=SearchSpace(sample_count=3),
             epochs=2, batch_size=8, workers=1)
    monkeypatch.setattr(training, "_cpus", lambda: 1)
    pretrain(_diverging_records(), SYNTH_SCHEMA, space=SearchSpace(sample_count=3),
             epochs=2, batch_size=8, workers=8)
    assert asked == []


def test_a_failing_worker_fails_the_call_and_leaves_no_process(monkeypatch):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the failure is patched into forked workers")
    monkeypatch.setattr(training, "_cpus", lambda: 2)
    monkeypatch.setattr(training, "_process_pool", lambda n: ProcessPoolExecutor(
        n, mp_context=multiprocessing.get_context("fork")))
    parent, train = os.getpid(), training._Lockstep.train

    def failing(self, epochs, batch_size):
        if os.getpid() != parent:
            raise RuntimeError("the worker failed")
        return train(self, epochs, batch_size)

    monkeypatch.setattr(training._Lockstep, "train", failing)
    with pytest.raises(RuntimeError, match="the worker failed"):
        pretrain(_diverging_records(), SYNTH_SCHEMA, space=SearchSpace(sample_count=4),
                 epochs=3, batch_size=8, workers=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_is_a_config_error(workers):
    with pytest.raises(ConfigError, match="workers"):
        pretrain(_diverging_records(), SYNTH_SCHEMA, epochs=1, workers=workers)


def test_the_cli_writes_the_same_model_and_log_at_any_worker_count(tmp_path, monkeypatch):
    monkeypatch.setattr(training, "_cpus", lambda: 2)
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.jcm"
        assert cli.main(["pretrain", "--data", str(DATA / "sort_runs.csv"),
                         "--manifest", str(DATA / "sort_manifest.txt"), "--epochs", "5",
                         "--search-samples", "4", "--workers", workers,
                         "--out", str(out)]) == 0
        with open(out.with_suffix(".search.csv"), newline="", encoding="utf-8") as fh:
            log = [row[:8] + row[9:] for row in csv.reader(fh)]  # wall_time_s aside
        outputs.append((out.read_bytes(), log))
    assert outputs[0] == outputs[1]


# The process running the tests, and the pool tasks as the package defines
# them: the stand-ins below kill only a process other than this one, and
# only the one running them.
_TEST_PROCESS = os.getpid()
_TRAIN_PART = training._train_part
_N_TRAIN_TASK = evalharness._n_train_task


def _train_part_dies_in_a_worker(task):
    """``_train_part``, except that a pool worker sends itself SIGKILL, the
    signal the out-of-memory killer sends. Module-level, so a task that
    names it pickles."""
    if os.getpid() != _TEST_PROCESS:
        os.kill(os.getpid(), signal.SIGKILL)
    return _TRAIN_PART(task)


def _n_train_task_dies_in_a_worker(task):
    """``evalharness._n_train_task``, except that a pool worker kills itself."""
    if os.getpid() != _TEST_PROCESS:
        os.kill(os.getpid(), signal.SIGKILL)
    return _N_TRAIN_TASK(task)


@pytest.fixture
def forked_pools(monkeypatch):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the stand-ins reach the workers by forking")
    monkeypatch.setattr(training, "_cpus", lambda: 2)
    monkeypatch.setattr(training, "_process_pool", lambda n: ProcessPoolExecutor(
        n, mp_context=multiprocessing.get_context("fork")))


def test_a_worker_that_dies_fails_pretraining_naming_the_rows_it_lost(forked_pools,
                                                                      monkeypatch):
    """Four configs split 2 + 2: this process trains configs 0-1, and the
    worker given configs 2-3 dies."""
    monkeypatch.setattr(training, "_train_part", _train_part_dies_in_a_worker)
    with pytest.raises(WorkerError) as caught:
        pretrain(_diverging_records(), SYNTH_SCHEMA, space=SearchSpace(sample_count=4),
                 epochs=3, batch_size=8, workers=2)
    assert str(caught.value) == "a worker process died; lost: corpus 0 configs 2-3"
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_fails_evaluate_naming_the_tasks_it_lost(forked_pools,
                                                                    monkeypatch):
    """Every worker dies on its first n_train task, so no task comes back."""
    monkeypatch.setattr(evalharness, "_n_train_task", _n_train_task_dies_in_a_worker)
    records = corpus(make_contexts(1, seed=3), repetitions=1, seed=3)
    config = ComparisonConfig(methods=("nnls",), n_train_values=(1, 2), max_splits=1,
                              workers=2)
    with pytest.raises(WorkerError) as caught:
        run_comparison(records, SYNTH_SCHEMA, config)
    assert str(caught.value) == "a worker process died; lost: n_train 1; n_train 2"
    assert multiprocessing.active_children() == []


def test_the_cli_reports_a_worker_that_died_without_a_traceback(forked_pools, monkeypatch,
                                                                tmp_path, capfd):
    monkeypatch.setattr(training, "_train_part", _train_part_dies_in_a_worker)
    out = tmp_path / "m.jcm"
    code = cli.main(["pretrain", "--data", str(DATA / "sort_runs.csv"),
                     "--manifest", str(DATA / "sort_manifest.txt"), "--epochs", "3",
                     "--search-samples", "4", "--workers", "2", "--out", str(out)])
    err = capfd.readouterr().err
    assert code == cli.EXIT_WORKER == 6
    assert err == "worker error: a worker process died; lost: corpus 0 configs 2-3\n"
    assert "Traceback" not in err
    assert not out.exists() and not out.with_suffix(".search.csv").exists()
    assert multiprocessing.active_children() == []
