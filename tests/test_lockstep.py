"""The lockstep pre-training search, pinned bit for bit.

Every sampled config trains as one row of a stacked model, with its own rng
stream, record order, learning rate and weight decay. The search logs and
fingerprints below were recorded from a search that trained the configs one
after another; the stacked search must reproduce them exactly, including
the rows of configs that diverge and leave the stack early.

Several corpora train as the rows of shape-matched stacks; each corpus's
goldens below were recorded from its own one-corpus search.
"""

import functools
import itertools

import pytest

from jobcast import nn
from jobcast.dataio import filter_for_variant
from jobcast.errors import DataError, TrainingError
from jobcast.synthetic import SYNTH_SCHEMA, corpus, make_contexts
from jobcast.training import SearchSpace, pretrain, pretrain_corpora

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

    def spy(self, params, grads):
        steps.append(params.shape)
        return original(self, params, grads)

    monkeypatch.setattr(nn.Adam, "step", spy)
    state, log = _search(TAME, seed=3)
    assert [e.status for e in log] == ["ok"] * 5
    # 30 epochs of two minibatches, each one step of the (5, n) stack.
    assert steps == [(5, state.vector.size)] * 60


# Two configs per corpus from a grid where half the learning rates blow up
# within two epochs: tame and diverging rows train side by side, and a
# corpus whose two picks both diverge fails alone.
MIXED = SearchSpace(dropout_rates=(0.0, 0.2), learning_rates=(1e-2, 1e20),
                    weight_decays=(1e-3,), sample_count=2)


@functools.lru_cache(maxsize=None)
def _corpora():
    """Nine corpora of a 5-context corpus, as ``(records, seed)``.

    ``full`` corpora have 24 records (19 train) and ``filtered`` ones 18 or
    24, and their training sets hold 20, 18 or 15 unique property vectors:
    three shape groups of four, two and two corpora. The seed 5 corpus picks
    two diverging configs; the last has a single record.
    """
    contexts = make_contexts(5, seed=4)
    records = corpus(contexts, repetitions=1, seed=4)
    spec = [("full", 0, 0), ("full", 1, 3), ("full", 2, 1), ("full", 3, 5),
            ("full", 4, 13), ("filtered", 0, 2), ("filtered", 1, 24),
            ("filtered", 2, 17)]
    return tuple([(filter_for_variant(records, contexts[i].key, variant), seed)
                  for variant, i, seed in spec] + [(records[:1], 0)])


GOLDEN_CORPORA = [  # fingerprint and log, or the error raised
    ('8bce41a567bcf9b600e153c4d7cd5eb10952cb4c1f15227441caeaf6696a52d4', [
        (0, 0.2, 0.01, 0.001, 30, '0x1.65efc2831e131p+6', '0x1.b8e3d47be8400p+6', '0x1.f5d8c7b603aadp+6', 'ok', True),
        (1, 0.0, 1e+20, 0.001, 1, '0x1.8eaf40a00d193p+492', 'nan', 'inf', 'diverged', False),
    ]),
    ('9ff16b2d4c65d10e2a8e8f6dd8cfda5d803375cbcf989700997f9ed89c47cedb', [
        (0, 0.0, 0.01, 0.001, 30, '0x1.854fab57ac553p+5', '0x1.75f4f00d71bdep+5', '0x1.836877de083b8p+6', 'ok', True),
        (1, 0.2, 0.01, 0.001, 30, '0x1.573926358c2b3p+6', '0x1.99d9c12ccbda2p+6', '0x1.16a6a792f2ce0p+7', 'ok', False),
    ]),
    ('be9524c4ed460fd4be3f1993ae93b2faa9fd357410e076d1c0e72440dccf2afc', [
        (0, 0.0, 1e+20, 0.001, 1, '0x1.59a71d10e5cccp+495', 'nan', 'inf', 'diverged', False),
        (1, 0.2, 0.01, 0.001, 30, '0x1.b1312ddd02305p+6', '0x1.0dd292590cf3cp+7', '0x1.a86367bbf4b46p+6', 'ok', True),
    ]),
    TrainingError,
    ('2a77faff83cb30f57dac2323f4d800c11407d8c88737dc8b3ebaa92a6d806b6e', [
        (0, 0.0, 0.01, 0.001, 30, '0x1.2aca830f93d4dp+6', '0x1.2919707d303e2p+6', '0x1.55d9a33c8450dp+4', 'ok', True),
        (1, 0.2, 0.01, 0.001, 30, '0x1.3c70cc05ea798p+6', '0x1.490e1bb7ae706p+6', '0x1.1874b8a7d5481p+6', 'ok', False),
    ]),
    ('da46e25b67539eaede3b0fc0c983819c78c014c339b16ab5eaeff192e59c032b', [
        (0, 0.2, 0.01, 0.001, 30, '0x1.8c93dd6f7329ep+7', '0x1.f7451c48acc60p+6', '0x1.506aac0e927b2p+5', 'ok', True),
        (1, 0.2, 1e+20, 0.001, 2, '0x1.179d664282606p+495', 'nan', 'inf', 'diverged', False),
    ]),
    ('6d6a7bdb83f25300a06ffb4c6749865af5e619fbe0d26c58b7ffd939c4260f65', [
        (0, 0.0, 0.01, 0.001, 30, '0x1.33943710ab9ebp+6', '0x1.1acb11ddd3ddep+6', '0x1.ce87746a2dd10p+4', 'ok', True),
        (1, 0.2, 0.01, 0.001, 30, '0x1.3eeaf64cc7d9fp+6', '0x1.840d5196eccdfp+6', '0x1.89c073dafe406p+5', 'ok', False),
    ]),
    ('fc5eca2aaf721e1df16c2b9dcd7f931bc69fb218d8c77bc74d5a16c4cc3ec142', [
        (0, 0.0, 0.01, 0.001, 30, '0x1.1bccfe1f42dddp+6', '0x1.11c8d7ecb9296p+6', '0x1.d777f6552ce96p+5', 'ok', True),
        (1, 0.0, 1e+20, 0.001, 1, '0x1.e9e096ee48776p+494', 'nan', 'inf', 'diverged', False),
    ]),
    DataError,
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_corpora_train_as_their_own_searches():
    results = pretrain_corpora(_corpora(), SYNTH_SCHEMA, space=MIXED, epochs=30,
                               batch_size=8)
    assert len(results) == len(GOLDEN_CORPORA)
    for result, golden in zip(results, GOLDEN_CORPORA):
        if isinstance(golden, type):
            assert type(result) is golden
        else:
            state, log = result
            assert (state.fingerprint(), _rows(log)) == golden


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_one_step_per_minibatch_per_shape_group(monkeypatch):
    steps = []
    original = nn.Adam.step

    def spy(self, params, grads):
        steps.append(params.shape[0])
        return original(self, params, grads)

    monkeypatch.setattr(nn.Adam, "step", spy)
    pretrain_corpora(_corpora(), SYNTH_SCHEMA, space=MIXED, epochs=30, batch_size=8)
    # Three stacks, one after another, each one step per minibatch: 19, 19
    # and 14 training records in minibatches of 8 give 90, 90 and 60 steps.
    # Each stack starts with two rows per corpus; the diverging rows leave
    # within the first two epochs.
    runs = [(rows, len(list(run))) for rows, run in itertools.groupby(steps)]
    assert runs == [(8, 5), (5, 85), (4, 5), (2, 85), (4, 5), (3, 55)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pretrain_raises_what_the_engine_returns():
    records, seed = _corpora()[3]
    with pytest.raises(TrainingError):
        pretrain(records, SYNTH_SCHEMA, space=MIXED, seed=seed, epochs=30, batch_size=8)
    with pytest.raises(DataError):
        pretrain(_corpora()[-1][0], SYNTH_SCHEMA, space=MIXED, epochs=30)
