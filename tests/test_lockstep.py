"""The lockstep pre-training search, pinned bit for bit.

Every sampled config trains as one row of a stacked model, with its own rng
stream, record order, learning rate and weight decay. The search logs and
fingerprints below were recorded from a search that trained the configs one
after another; the stacked search must reproduce them exactly, including
the rows of configs that diverge and leave the stack early.
"""

import functools

import pytest

from jobcast import nn
from jobcast.synthetic import SYNTH_SCHEMA, corpus, make_contexts
from jobcast.training import SearchSpace, pretrain

# Learning rates of 1e5 and 1e20 blow up after 18 and 2-3 epochs; the
# dropout rate 0.0 puts rows without dropout into a stack with dropout.
DIVERGING = SearchSpace(dropout_rates=(0.0, 0.2), learning_rates=(1e-2, 1e5, 1e20),
                        weight_decays=(1e-3,), sample_count=5)
# The same grid with tame learning rates: the same picks and config seeds.
TAME = SearchSpace(dropout_rates=(0.0, 0.2), learning_rates=(1e-2, 1e-3, 1e-4),
                   weight_decays=(1e-3,), sample_count=5)


@functools.lru_cache(maxsize=None)
def _records():
    return tuple(corpus(make_contexts(4, seed=4)[:3], repetitions=1, seed=4))


def _search(space, seed):
    # 14 training records in minibatches of 8: two steps per epoch.
    return pretrain(_records(), SYNTH_SCHEMA, space=space, seed=seed, epochs=30,
                    batch_size=8)


def _rows(log):
    return [(e.config_id, e.dropout_rate, e.learning_rate, e.weight_decay,
             e.epochs, e.final_train_loss.hex(), e.train_mae_seconds.hex(),
             e.val_mae_seconds.hex(), e.status, e.chosen) for e in log]


GOLDEN_DIVERGING = {
    "fingerprint": "6478704bc8b3eb2c355296655998bc96d4e80e52034dc07a84580c906ae63769",
    "log": [
        (0, 0.0, 0.01, 0.001, 30, '0x1.ba619b8b5a110p+5', '0x1.ae7d82d8fd4b1p+5', '0x1.50b439820e948p+4', 'ok', True),
        (1, 0.0, 100000.0, 0.001, 18, '0x1.6e48c55c370b3p+971', 'nan', 'inf', 'diverged', False),
        (2, 0.2, 100000.0, 0.001, 18, '0x1.2a5eae055cc78p+963', 'nan', 'inf', 'diverged', False),
        (3, 0.2, 1e+20, 0.001, 2, '0x1.bb68ce43b5e29p+718', 'nan', 'inf', 'diverged', False),
        (4, 0.2, 0.01, 0.001, 30, '0x1.6239a0f2a4b53p+6', '0x1.282cf5cf6cbfdp+7', '0x1.330184130170ap+7', 'ok', False),
    ],
}

GOLDEN_SINGLE = {
    "fingerprint": "819da2b4869a93b06565b7a2c0774e5ef82662979e14a3c33018fd6aec7a4245",
    "log": [
        (0, 0.1, 0.01, 0.0001, 30, '0x1.176155044b673p+6', '0x1.cdca9f4c0f308p+5', '0x1.29522a4323723p+5', 'ok', True),
    ],
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_configs_leave_with_the_sequential_log():
    state, log = _search(DIVERGING, seed=3)
    assert _rows(log) == GOLDEN_DIVERGING["log"]
    assert state.fingerprint() == GOLDEN_DIVERGING["fingerprint"]


def test_single_config_search():
    state, log = _search(SearchSpace(sample_count=1), seed=5)
    assert _rows(log) == GOLDEN_SINGLE["log"]
    assert state.fingerprint() == GOLDEN_SINGLE["fingerprint"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_config_leaving_the_stack_changes_no_other_row():
    _, diverging = _search(DIVERGING, seed=3)
    _, tame = _search(TAME, seed=3)
    kept = [e.config_id for e in diverging if e.learning_rate == 1e-2]
    assert kept == [0, 4]
    assert [_rows(diverging)[c][4:8] for c in kept] == [_rows(tame)[c][4:8] for c in kept]
    assert all(e.status == "ok" for e in tame)


def test_one_optimizer_step_per_minibatch_for_all_configs(monkeypatch):
    steps = []
    original = nn.Adam.step

    def spy(self, params, grads, live):
        steps.append(params.shape)
        return original(self, params, grads, live)

    monkeypatch.setattr(nn.Adam, "step", spy)
    state, log = _search(TAME, seed=3)
    assert [e.status for e in log] == ["ok"] * 5
    # 30 epochs of two minibatches, each one step of the (5, n) stack.
    assert steps == [(5, state.vector.size)] * 60
