"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest tests/test_acceptance.py
-v -s`` to see them inline). Criteria 7 and 8 depend on the published
experiment CSVs; point ``JOBCAST_C3O_DIR`` at a directory of
``<algo>.csv`` + ``<algo>.manifest`` pairs to enable them, otherwise they
skip.
"""

import math
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from jobcast.baselines import bell_fit, ernest_fit
from jobcast.dataio import filter_for_variant, load_dataset, \
    parse_manifest, summarize
from jobcast.encoding import PropertyValue, encode_property, clean_text
from jobcast.errors import DataError, ModelFileError
from jobcast.evalharness import ComparisonConfig, generate_splits, run_comparison
from jobcast.model import ModelState, _joint_terms, encode_batch, load, predict, save
from jobcast.nn import _split
from jobcast.synthetic import SYNTH_SCHEMA, corpus, make_contexts
from jobcast.training import finetune, pretrain

from test_baselines import enumerated_nnls, kkt_holds, objective
from test_serialization import build_state, random_inputs

C3O_DIR = os.environ.get("JOBCAST_C3O_DIR")


def report(criterion: int, ok: bool, detail: str) -> bool:
    marker = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {marker} - {detail}")
    return ok


# -----------------------------------------------------------------------
# Synthetic cross-context suite shared by criteria 3-6.
# -----------------------------------------------------------------------

@dataclass
class SuiteRow:
    variant: str
    n_train: int
    split: int
    task: str
    rel_err: float
    epochs_run: int
    best_epoch: int
    stopping_reason: str


@pytest.fixture(scope="module")
def synthetic_suite():
    """Pre-train on 5 parametric contexts, fine-tune on the 6th.

    Training-set sizes 0-3; sizes 2 and 3 get enough splits that well over
    50 of them carry an interpolation test point.
    """
    contexts = make_contexts(6, seed=0)
    target = contexts[5]
    all_records = corpus(contexts, repetitions=2, noise=0.05, seed=0)
    target_records = [r for r in all_records if r.context == target.key]
    assert len(target_records) == 12
    pretrain_corpus = filter_for_variant(all_records, target.key, "full")
    assert len(pretrain_corpus) == 60

    started = time.perf_counter()
    full_state, _ = pretrain(pretrain_corpus, SYNTH_SCHEMA, seed=0)

    rows = []
    for n in (0, 1, 2, 3):
        max_splits = 40 if n >= 2 else 25
        splits = generate_splits(target_records, n, max_splits=max_splits,
                                 seed=11)
        for i, split in enumerate(splits):
            train = [target_records[j] for j in split.train]
            seed_i = 1000 * n + i
            tuned = {"full": finetune(full_state, train, seed=seed_i)}
            if n >= 1:
                tuned["local"] = finetune(SYNTH_SCHEMA, train, seed=seed_i)
            for variant, (state, rep) in tuned.items():
                for task, idx in (("interp", split.interp_test),
                                  ("extrap", split.extrap_test)):
                    if idx is None:
                        continue
                    rec = target_records[idx]
                    pred = predict(state, rec.scale_out,
                                   rec.properties).runtime_seconds
                    rows.append(SuiteRow(
                        variant, n, i, task,
                        abs(pred - rec.runtime_seconds) / rec.runtime_seconds,
                        rep.epochs_run, rep.best_epoch, rep.stopping_reason))
    wall = time.perf_counter() - started
    return rows, wall


def _mre(rows, variant, task, n=None):
    vals = [r.rel_err for r in rows
            if r.variant == variant and r.task == task
            and (n is None or r.n_train == n)]
    return float(np.mean(vals)), len(vals)


class TestCriterion1:
    def test_gradient_correctness(self):
        """Analytic joint-loss gradients match central finite differences
        (rel. error < 1e-4) for all four blocks over 100 random seeds."""
        started = time.perf_counter()
        worst = 0.0
        h = 1e-5
        contexts = make_contexts(3, seed=2)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            records = corpus(contexts, repetitions=1, noise=0.05,
                             seed=seed)[: int(rng.integers(2, 7))]
            from jobcast.encoding import Normalizer
            state = ModelState.new(
                SYNTH_SCHEMA,
                Normalizer.fit(r.scale_out for r in records),
                rng)
            grads = np.zeros_like(state.vector)
            _joint_terms(state, encode_batch(SYNTH_SCHEMA, state.normalizer, records),
                         grad=grads)

            def loss():
                from jobcast.model import joint_loss as jl
                return jl(state, records)[0]

            for block in ("f", "g", "h", "z"):
                # one random array of the block (weights, then biases), with
                # its gradient: both views into the flat vectors
                blk = getattr(state, block)
                gw1, gb1, gw2, gb2 = _split(grads[state.segments[block]], blk.in_dim,
                                            blk.w1.shape[0], blk.out_dim,
                                            blk.b1 is not None)
                arrays = [(a.reshape(-1), g.reshape(-1)) for a, g in
                          ((blk.w1, gw1), (blk.w2, gw2), (blk.b1, gb1), (blk.b2, gb2))
                          if a is not None]
                flat, gflat = arrays[int(rng.integers(len(arrays)))]
                picks = rng.choice(flat.size, size=min(3, flat.size),
                                   replace=False)
                for idx in picks:
                    orig = flat[idx]
                    flat[idx] = orig + h
                    lp = loss()
                    flat[idx] = orig - h
                    lm = loss()
                    flat[idx] = orig
                    num = (lp - lm) / (2 * h)
                    rel = abs(gflat[idx] - num) / max(1.0, abs(gflat[idx]), abs(num))
                    worst = max(worst, rel)
        wall = time.perf_counter() - started
        ok = worst < 1e-4 and wall < 60
        assert report(1, ok, f"worst FD rel. error {worst:.2e} over 100 seeds "
                             f"({wall:.1f}s)")


class TestCriterion2:
    def test_nnls_oracle_equivalence(self):
        """On 500 random 4-column instances the active-set objective matches
        an exact reference (every support enumerated) within 1e-6 and KKT
        holds."""
        from jobcast.baselines import nnls
        started = time.perf_counter()
        rng = np.random.default_rng(19)
        worst_gap = -math.inf
        kkt_failures = 0
        for _ in range(500):
            k = int(rng.integers(4, 16))
            a = rng.normal(size=(k, 4)) * rng.uniform(0.5, 3.0)
            b = rng.normal(size=k) * 10
            x = nnls(a, b)
            ref = enumerated_nnls(a, b)
            scale = max(1.0, objective(a, b, np.zeros(4)))
            gap = (objective(a, b, x) - objective(a, b, ref)) / scale
            worst_gap = max(worst_gap, gap)
            if not kkt_holds(a, b, x):
                kkt_failures += 1
        wall = time.perf_counter() - started
        ok = worst_gap <= 1e-6 and kkt_failures == 0 and wall < 60
        assert report(2, ok, f"worst objective gap {worst_gap:.2e}, "
                             f"{kkt_failures} KKT failures over 500 instances "
                             f"({wall:.1f}s)")


class TestCriterion3:
    def test_pretraining_interpolates_better_than_local(self, synthetic_suite):
        """Full-variant interpolation MRE strictly below the local variant,
        averaged over >= 50 splits on the held-out context."""
        rows, wall = synthetic_suite
        full_mre, n_full = _mre(rows, "full", "interp")
        local_mre, n_local = _mre(rows, "local", "interp")
        per_n = {n: (_mre(rows, 'full', 'interp', n)[0],
                     _mre(rows, 'local', 'interp', n)[0]) for n in (2, 3)}
        ok = full_mre < local_mre and n_full >= 50 and n_local >= 50 \
            and wall < 20 * 60
        assert report(3, ok,
                      f"interp MRE full {full_mre:.3f} < local {local_mre:.3f} "
                      f"over {n_full} splits (per n: {per_n}; suite {wall:.0f}s)")


class TestCriterion4:
    def test_zero_shot_extrapolation(self, synthetic_suite):
        """The pre-trained model predicts with finite MRE at 0 samples;
        the baselines are inapplicable below their minimum point counts."""
        rows, _ = synthetic_suite
        zero_shot = [r for r in rows if r.variant == "full" and r.n_train == 0]
        finite = all(math.isfinite(r.rel_err) for r in zero_shot)
        with pytest.raises(DataError):
            ernest_fit([])
        with pytest.raises(DataError):
            bell_fit([(2, 10.0), (6, 12.0)])
        mre = float(np.mean([r.rel_err for r in zero_shot]))
        ok = finite and len(zero_shot) >= 10
        assert report(4, ok,
                      f"zero-shot extrap MRE {mre:.3f} over {len(zero_shot)} "
                      f"splits; NNLS needs >= 1 point, hybrid needs >= 3")


class TestCriterion5:
    def test_pretrained_converges_in_fewer_epochs(self, synthetic_suite):
        """Median fine-tuning epochs: pre-trained < local (>= 50 runs each)."""
        rows, _ = synthetic_suite
        seen = set()
        epochs = {"full": [], "local": []}
        for r in rows:
            key = (r.variant, r.n_train, r.split)
            if r.n_train >= 1 and key not in seen:
                seen.add(key)
                epochs[r.variant].append(r.epochs_run)
        med_full = statistics.median(epochs["full"])
        med_local = statistics.median(epochs["local"])
        ok = med_full < med_local and len(epochs["full"]) >= 50 \
            and len(epochs["local"]) >= 50
        assert report(5, ok,
                      f"median epochs pre-trained {med_full} < local "
                      f"{med_local} ({len(epochs['full'])}/"
                      f"{len(epochs['local'])} runs)")


class TestCriterion6:
    def test_stopping_rule_conformance(self, synthetic_suite):
        """Every fine-tuning run ends via the MAE target, the patience
        window, or the epoch cap, within the epoch budget."""
        rows, _ = synthetic_suite
        trained = [r for r in rows if r.n_train >= 1]
        reasons = {r.stopping_reason for r in trained}
        ok = reasons <= {"mae_threshold", "patience", "epoch_cap"} \
            and all(r.best_epoch <= r.epochs_run <= 2500 for r in trained)
        counts = {reason: sum(1 for r in trained if r.stopping_reason == reason)
                  for reason in sorted(reasons)}
        assert report(6, ok, f"stopping reasons over the suite: {counts}")


EXPECTED_C3O = {"sort": 21, "grep": 27, "sgd": 30, "kmeans": 30, "pagerank": 47}


def _c3o_pairs():
    if not C3O_DIR:
        return None
    pairs = {}
    for algo in EXPECTED_C3O:
        csv_path = Path(C3O_DIR) / f"{algo}.csv"
        manifest_path = Path(C3O_DIR) / f"{algo}.manifest"
        if csv_path.exists() and manifest_path.exists():
            pairs[algo] = (csv_path, manifest_path)
    return pairs or None


class TestCriterion7:
    def test_c3o_dataset_conformance(self):
        """Context counts, the scale-out grid, and repetition counts of the
        published files match the documented experiment layout."""
        pairs = _c3o_pairs()
        if not pairs:
            pytest.skip("set JOBCAST_C3O_DIR to a directory of <algo>.csv + "
                        "<algo>.manifest pairs to run the conformance check")
        started = time.perf_counter()
        problems = []
        for algo, (csv_path, manifest_path) in pairs.items():
            records = load_dataset(csv_path, parse_manifest(manifest_path))
            summary = summarize(records)
            if summary.context_count != EXPECTED_C3O[algo]:
                problems.append(f"{algo}: {summary.context_count} contexts, "
                                f"expected {EXPECTED_C3O[algo]}")
            for ctx, grid in summary.scale_out_grid.items():
                if grid != [2, 4, 6, 8, 10, 12]:
                    problems.append(f"{algo}: bad grid {grid}")
                    break
                if set(summary.repetitions[ctx].values()) != {5}:
                    problems.append(f"{algo}: repetitions != 5")
                    break
        wall = time.perf_counter() - started
        ok = not problems and wall < 10
        assert report(7, ok, f"checked {sorted(pairs)} in {wall:.1f}s"
                             + (f"; problems: {problems}" if problems else ""))


class TestCriterion8:
    def test_c3o_desk_scale_replication(self):
        """Directional reproduction on a non-trivial algorithm: full-variant
        interpolation MAE <= local at n_train <= 2."""
        pairs = _c3o_pairs()
        wanted = [a for a in ("sgd", "kmeans") if pairs and a in pairs]
        if not wanted:
            pytest.skip("needs JOBCAST_C3O_DIR with sgd or kmeans files")
        if not os.environ.get("JOBCAST_DESK_SCALE"):
            pytest.skip("set JOBCAST_DESK_SCALE=1 to opt into the long "
                        "(< 2 h) replication run")
        algo = wanted[0]
        csv_path, manifest_path = pairs[algo]
        manifest = parse_manifest(manifest_path)
        records = load_dataset(csv_path, manifest)
        from jobcast.cli import _schema_from_manifest
        schema = _schema_from_manifest(manifest)
        started = time.perf_counter()
        config = ComparisonConfig(methods=("local", "full"),
                                  n_train_values=(2,), contexts=3,
                                  max_splits=50, seed=0)
        table = run_comparison(records, schema, config)
        agg = table.aggregate()
        full_mae = agg[("model", "full", 2, "interp")]["mae"]
        local_mae = agg[("model", "local", 2, "interp")]["mae"]
        splits = agg[("model", "full", 2, "interp")]["count"]
        wall = time.perf_counter() - started
        ok = full_mae <= local_mae and splits >= 100 and wall < 2 * 3600
        assert report(8, ok, f"{algo}: interp MAE full {full_mae:.1f}s vs "
                             f"local {local_mae:.1f}s over {splits} splits "
                             f"({wall:.0f}s)")


class TestCriterion9:
    def test_encoding_golden_files(self):
        """Twenty fixture vectors match the committed golden file bit-exactly
        and hashed vectors sit on the unit sphere."""
        import csv as csv_mod
        golden = Path(__file__).parent / "golden" / "encoding_vectors.csv"
        with open(golden) as fh:
            rows = list(csv_mod.DictReader(fh))
        mismatches = 0
        norm_violations = 0
        for row in rows:
            value = int(row["value"]) if row["kind"] == "natural" else row["value"]
            got = encode_property(PropertyValue(row["kind"], value))
            expect = [float(row["method"])] + [float(row[f"v{i}"])
                                               for i in range(39)]
            if got.tolist() != expect:
                mismatches += 1
            if row["kind"] == "text" and clean_text(str(value)):
                if abs(np.linalg.norm(got[1:]) - 1.0) > 1e-9:
                    norm_violations += 1
        ok = len(rows) == 20 and mismatches == 0 and norm_violations == 0
        assert report(9, ok, f"{len(rows)} fixtures, {mismatches} mismatches, "
                             f"{norm_violations} norm violations")


class TestCriterion10:
    def test_serialization_round_trip(self, tmp_path):
        """Save/load preserves predictions bitwise on 100 random inputs;
        corrupt and version-bumped files are rejected."""
        state = build_state(seed=31)
        path = tmp_path / "model.jcm"
        save(state, path)
        loaded = load(path)
        drift = sum(
            predict(state, x, props).runtime_seconds
            != predict(loaded, x, props).runtime_seconds
            for x, props in random_inputs(100, seed=31))

        blob = bytearray(path.read_bytes())
        blob[len(blob) // 3] ^= 0x01
        corrupt_path = tmp_path / "corrupt.jcm"
        corrupt_path.write_bytes(bytes(blob))
        corrupt_rejected = False
        try:
            load(corrupt_path)
        except ModelFileError:
            corrupt_rejected = True

        import struct
        from jobcast.model import _FORMAT_VERSION, _MAGIC
        from test_serialization import rewrite_with_valid_checksum
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(_MAGIC), _FORMAT_VERSION + 9)
        version_path = tmp_path / "future.jcm"
        version_path.write_bytes(rewrite_with_valid_checksum(bytes(blob)))
        version_rejected = False
        try:
            load(version_path)
        except ModelFileError:
            version_rejected = True

        ok = drift == 0 and corrupt_rejected and version_rejected
        assert report(10, ok, f"{drift} prediction drifts over 100 inputs; "
                              f"corrupt rejected: {corrupt_rejected}; "
                              f"version rejected: {version_rejected}")
