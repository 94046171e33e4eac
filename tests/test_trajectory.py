"""Golden training trajectories, pinned bit for bit.

A short pre-training search and a grid of fine-tunes are run from fixed
seeds; their search log, stopping decisions, best MAE (as a float hex
string) and model fingerprints must equal the values recorded below. Any
change to the optimizer, the parameter store or the snapshot path that
reorders floating-point arithmetic shows up here as a changed value.
"""

import functools

import pytest

from jobcast.synthetic import SYNTH_SCHEMA, context_records, corpus, make_contexts
from jobcast.training import SearchSpace, finetune, pretrain

REUSE_MODES = ("partial-unfreeze", "full-unfreeze", "partial-reset", "full-reset")
STRATEGIES = ("pretrained", "local")


@functools.lru_cache(maxsize=None)
def _setup():
    contexts = make_contexts(4, seed=4)
    records = corpus(contexts[:3], repetitions=1, seed=4)
    state, log = pretrain(records, SYNTH_SCHEMA,
                          space=SearchSpace(sample_count=2), seed=11, epochs=40)
    clean = context_records(contexts[3], repetitions=1, seed=5)
    # Rows at two scale-outs with 20% noise: the MAE target is out of
    # reach, so these fine-tunes stop on patience or the epoch cap.
    noisy = context_records(contexts[3], scale_outs=(4, 8), repetitions=3,
                            noise=0.2, seed=6)[:5]
    return state, log, clean, noisy


def pretrain_outcome():
    state, log, _, _ = _setup()
    rows = [(e.config_id, e.dropout_rate, e.learning_rate, e.weight_decay,
             e.epochs, e.final_train_loss.hex(), e.train_mae_seconds.hex(),
             e.val_mae_seconds.hex(), e.status, e.chosen) for e in log]
    return state.fingerprint(), rows


def finetune_outcome(case):
    """``(epochs_run, best_epoch, stopping_reason, best MAE hex, fingerprint)``."""
    strategy, reuse, which, n = case
    state, _, clean, noisy = _setup()
    samples = {"clean": clean, "noisy": noisy}[which][:n]
    start = state if strategy == "pretrained" else SYNTH_SCHEMA
    tuned, rep = finetune(start, samples, reuse=reuse, seed=3)
    return (rep.epochs_run, rep.best_epoch, rep.stopping_reason,
            rep.best_mae_seconds.hex(), tuned.fingerprint())


def finetune_cases():
    """``(strategy, reuse, sample set, n)`` for every pinned fine-tune."""
    cases = [(s, r, "clean", n) for s in STRATEGIES for r in REUSE_MODES
             for n in (1, 3, 5)]
    cases += [(s, r, "noisy", 5) for s in STRATEGIES
              for r in ("partial-unfreeze", "full-reset")]
    return cases


GOLDEN_PRETRAIN = {
    "fingerprint": "e2c7fb4f04f9bead3ee7bbdd276c4f536960efcbbdb12f1f34caedd01366c44c",
    "log": [
        (0, 0.1, 0.001, 0.001, 40, '0x1.14f642b9061ffp+8', '0x1.13b1c038a2e8ap+8', '0x1.522d73b274c63p+8', 'ok', False),
        (1, 0.2, 0.01, 0.01, 40, '0x1.4e40efe9ba7d6p+6', '0x1.ca455ca444952p+5', '0x1.efe519ecfe2eep+6', 'ok', True),
    ],
}

GOLDEN_FINETUNE = {
    ('pretrained', 'partial-unfreeze', 'clean', 1):
        (37, 37, 'mae_threshold', '0x1.05ffde6777000p-1', '4dbc7a8ab9aba560372a16401182acbb5d1f0a286597425c3f9cd08da492d4d1'),
    ('pretrained', 'partial-unfreeze', 'clean', 3):
        (603, 603, 'mae_threshold', '0x1.3269c77e70715p+2', 'ff4fe46f9c467a16f7fbe13252e31f96873ddba69d715551248a9af08709feeb'),
    ('pretrained', 'partial-unfreeze', 'clean', 5):
        (642, 642, 'mae_threshold', '0x1.3c644016f8d0dp+2', '711ae81fe77200496f439463865d2631ee5e481f613a7f36d579ef2ffde3da14'),
    ('pretrained', 'full-unfreeze', 'clean', 1):
        (20, 20, 'mae_threshold', '0x1.3af376209c000p-2', '0448754768186b0048bdc927091ba713e7ada0149478c31548082ccdfd36da22'),
    ('pretrained', 'full-unfreeze', 'clean', 3):
        (391, 391, 'mae_threshold', '0x1.3ba1e3246c5abp+2', '30fe74ed40c98b0f218b252b35bb43d22eff96be4f2d8b1254f0090448dc7f2f'),
    ('pretrained', 'full-unfreeze', 'clean', 5):
        (366, 366, 'mae_threshold', '0x1.3f12e581a0dc0p+2', '867737ab07e75066811aafbc8421125d66e92a845037eb772290f080bcf3d8cb'),
    ('pretrained', 'partial-reset', 'clean', 1):
        (171, 171, 'mae_threshold', '0x1.c8c946b725200p+1', '5d87297d93810c81e8bbfb5fa8c40315f706ecf4815443c91463eb26f345f546'),
    ('pretrained', 'partial-reset', 'clean', 3):
        (543, 543, 'mae_threshold', '0x1.3e62711f32080p+2', '35c5a1f26c1758da1af166608f489fd15434810a4d524c62e20cfb9ee86f794d'),
    ('pretrained', 'partial-reset', 'clean', 5):
        (644, 644, 'mae_threshold', '0x1.3532fb5d3ab1ap+2', 'f9982aa185aaa6b9e47949600cc85b0db77cec601395bf342c9e20363e7e60ea'),
    ('pretrained', 'full-reset', 'clean', 1):
        (83, 83, 'mae_threshold', '0x1.f28204133da00p+0', '87a794c1643aa6dca7b041ad95a8d61ca8d89600cee31d666b1f96c789e54514'),
    ('pretrained', 'full-reset', 'clean', 3):
        (424, 424, 'mae_threshold', '0x1.36260d91facc0p+2', 'f8d4e3b61f443840106d6839af9fb78c064dd592bbf2abb06f97df2728a35aff'),
    ('pretrained', 'full-reset', 'clean', 5):
        (235, 235, 'mae_threshold', '0x1.3d9143af3329ap+2', '5d1e28c092fc656ba4c02aad40deeaaed0d91f5e9fa4b69420a1495e7e105dcc'),
    ('local', 'partial-unfreeze', 'clean', 1):
        (181, 181, 'mae_threshold', '0x1.01016bf230600p+1', '4ed43d08f6c71e5dbf1859a82a32c788041699cec2131ec100cf7aa4864afd02'),
    ('local', 'partial-unfreeze', 'clean', 3):
        (399, 399, 'mae_threshold', '0x1.39d4cc2cf7d55p+2', '56fe2fe6004410e7257d32fdf1c6f3007860ae0c91078c685cab5bf40d7f7e9f'),
    ('local', 'partial-unfreeze', 'clean', 5):
        (550, 550, 'mae_threshold', '0x1.3fbc233fef25ap+2', '7eda18eee50fec8adfa242bc2aadf699159c2ec4f215ec242c3c2ea7c7372399'),
    ('local', 'full-unfreeze', 'clean', 1):
        (173, 173, 'mae_threshold', '0x1.01a9892d64400p+0', '5dba994ca2ee685b8a724e911f03f34b6703892b0c348d45481406b6e7833641'),
    ('local', 'full-unfreeze', 'clean', 3):
        (244, 244, 'mae_threshold', '0x1.321bcb76f3580p+2', '05323f1d1a796134e537ce80d5a1da8bd6392f87f12c678357473c9bb5a34aff'),
    ('local', 'full-unfreeze', 'clean', 5):
        (353, 353, 'mae_threshold', '0x1.3a2aa8e3f65e6p+2', '57b83fc2eb454e06b1560cf2391c1e8fb221b3612eac3e1f0d0f9f8a0ea00945'),
    ('local', 'partial-reset', 'clean', 1):
        (183, 183, 'mae_threshold', '0x1.5173661096d00p+1', 'd09d0b4274b1e95b24d2e624c292b017648efcd96ef23f3325cb9d4a69b3b9ae'),
    ('local', 'partial-reset', 'clean', 3):
        (388, 388, 'mae_threshold', '0x1.0b0364f3949ebp+2', '70596631b36609f44bfd0a1ccb5a310abc2aefc0b675369d1f3a93457160655b'),
    ('local', 'partial-reset', 'clean', 5):
        (542, 542, 'mae_threshold', '0x1.3998042b622a6p+2', '3e7686b92ddd85600a4b070c0653c6bbaf498c32fcb59a29311fb76323e5256c'),
    ('local', 'full-reset', 'clean', 1):
        (86, 86, 'mae_threshold', '0x1.26b5f998e3000p-3', '9940a4379c32d3e7535ffd2e4f13641add1c1dd197cc86312a647be7d87e11e4'),
    ('local', 'full-reset', 'clean', 3):
        (224, 224, 'mae_threshold', '0x1.3a4900345c42bp+2', '4dc462e33a13741685cdf35682d336074e23df955a849d9978344b3e99f74e02'),
    ('local', 'full-reset', 'clean', 5):
        (322, 322, 'mae_threshold', '0x1.3fa4eefdce233p+2', '797783506e55c1dabdf7aaab0c5b608ac28a27a464c7d8702ea732da1d989f00'),
    ('pretrained', 'partial-unfreeze', 'noisy', 5):
        (2500, 1515, 'epoch_cap', '0x1.58e9f429e7803p+5', 'fd01b2f3d4c410d5ee04dd34d2a463e89f6d246c2f1b384ad0077cb38e945ba9'),
    ('pretrained', 'full-reset', 'noisy', 5):
        (1277, 277, 'patience', '0x1.58e9f407d6bf2p+5', 'e6ba7c4b28ff922a5929cc15a932e7f4ce35ac107bb451b9b7378d0f69dda841'),
    ('local', 'partial-unfreeze', 'noisy', 5):
        (2126, 1126, 'patience', '0x1.58e9f47c94760p+5', '765806c8f9e3c91c33677d58453e3afe44e12572b01d2afb9a49f9e98bfa5e9f'),
    ('local', 'full-reset', 'noisy', 5):
        (2206, 1206, 'patience', '0x1.58e9f446bf9a0p+5', '287c2eed81c751bac126d2d4a3c2799a475063f223b3ff53cf0ff209ce6b87e2'),
}


def test_pretrain_search_log_and_fingerprint():
    fingerprint, log = pretrain_outcome()
    assert log == GOLDEN_PRETRAIN["log"]
    assert fingerprint == GOLDEN_PRETRAIN["fingerprint"]


def test_grid_covers_every_stopping_reason():
    reasons = {GOLDEN_FINETUNE[case][2] for case in finetune_cases()}
    assert reasons == {"mae_threshold", "patience", "epoch_cap"}


@pytest.mark.parametrize("case", finetune_cases(),
                         ids=lambda case: "-".join(map(str, case)))
def test_finetune_outcome(case):
    assert finetune_outcome(case) == GOLDEN_FINETUNE[case]
