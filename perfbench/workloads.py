"""The benchmark's workloads: inputs from a seed, one timed operation, checks.

Each workload builds its inputs in ``setup`` from the benchmark seed alone;
the program runs with its own defaults (its ``--seed`` stays 0). ``request``
makes the input of the i-th operation outside the timed region, ``execute``
is the timed operation, and ``check`` verifies one operation's outputs after
its timer has stopped. Operations run closed-loop: the next starts only after
the previous one returns.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from jobcast import cli, dataio, evalharness, model, synthetic, training
from jobcast.encoding import PropertyValue
from jobcast.synthetic import SYNTH_SCHEMA

import spans

CONTEXTS = 7
STOPPING_REASONS = {"mae_threshold", "patience", "epoch_cap"}


@dataclass
class Tally:
    """Outcome counts and the numbers a run reports besides its timings."""

    attempted: int = 0
    failed: int = 0
    inapplicable: int = 0
    errors: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


def _cli(argv) -> int:
    """``cli.main`` in-process; argparse errors exit, and become the code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def _manifest_text(schema) -> str:
    lines = ["algorithm = kmeans", "column.scale_out = scale_out",
             "column.runtime = runtime_seconds"]
    for role, props in (("essential", schema.essential),
                        ("optional", schema.optional)):
        for name, kind in props:
            lines += [f"property.{name}.role = {role}",
                      f"property.{name}.kind = {kind}",
                      f"property.{name}.column = {name}"]
    return "\n".join(lines) + "\n"


class PretrainSearch:
    """What ``jobcast pretrain`` does: one ``training.pretrain`` call with the
    paper's search (12 configs x 2500 epochs) over 7 contexts x 6 scale-outs
    x 3 repetitions (126 records, two minibatches of 64 per epoch), then
    ``model.save`` of the chosen model."""

    name = "pretrain-search"
    min_ops = 1

    def __init__(self, tiny: bool = False):
        self.space = training.SearchSpace(sample_count=2) if tiny else training.SearchSpace()
        self.epochs = 20 if tiny else training.MAX_EPOCHS

    def setup(self, work: Path, seed: int):
        work.mkdir(parents=True, exist_ok=True)
        contexts = synthetic.make_contexts(CONTEXTS, seed=seed)
        return work, synthetic.corpus(contexts, repetitions=3, seed=seed)

    def request(self, inputs, i: int):
        work, records = inputs
        return records, work / f"model{i}.jcm"

    def execute(self, inputs, request):
        records, path = request
        state, log = training.pretrain(records, SYNTH_SCHEMA, space=self.space,
                                       epochs=self.epochs)
        model.save(state, path)
        return state, log

    def check(self, inputs, request, result, tally: Tally) -> None:
        state, log = result
        tally.attempted += len(log)
        tally.failed += sum(e.status != "ok" for e in log)
        if len(log) != self.space.sample_count:
            tally.error(f"search log has {len(log)} entries, expected "
                        f"{self.space.sample_count}")
        chosen = [e for e in log if e.chosen]
        if len(chosen) != 1:
            tally.error(f"{len(chosen)} search entries are chosen, expected 1")
        elif not math.isfinite(chosen[0].val_mae_seconds):
            tally.error(f"chosen config has val_mae {chosen[0].val_mae_seconds}")
        else:
            tally.quality.setdefault("pretrain_val_mae_s", []).append(
                chosen[0].val_mae_seconds)
        if model.load(request[1]).fingerprint() != state.fingerprint():
            tally.error("the saved model does not load back to the same weights")


class Evaluate:
    """``jobcast evaluate`` run in-process through ``cli.main`` on a CSV and
    manifest of 7 contexts x 6 scale-outs x 2 repetitions."""

    name = "evaluate"
    methods = "nnls,bell,local,full"
    # Fine-tune epochs, and with them the time of one evaluate, vary by
    # about 12% between corpora; each run evaluates two corpora drawn from
    # its seed, one operation each, so the median averages two draws.
    min_ops = 2

    def __init__(self, tiny: bool = False):
        self.contexts = 1 if tiny else CONTEXTS
        self.max_splits = 1 if tiny else 4
        self.pretrain_epochs = 20 if tiny else training.MAX_EPOCHS
        self.recorder = Recorder()

    def setup(self, work: Path, seed: int):
        work.mkdir(parents=True, exist_ok=True)
        for j in range(self.min_ops):
            corpus_seed = seed * self.min_ops + j
            contexts = synthetic.make_contexts(CONTEXTS, seed=corpus_seed)
            records = synthetic.corpus(contexts, repetitions=2, seed=corpus_seed)
            dataio.write_records_csv(records, work / f"runs{j}.csv")
        (work / "runs.manifest").write_text(_manifest_text(SYNTH_SCHEMA),
                                            encoding="utf-8")
        return work

    def request(self, work: Path, i: int):
        return ["evaluate", "--data", str(work / f"runs{i % self.min_ops}.csv"),
                "--manifest", str(work / "runs.manifest"),
                "--methods", self.methods, "--n-train", "1-5",
                "--contexts", str(self.contexts),
                "--max-splits", str(self.max_splits),
                "--search-samples", "1",
                "--pretrain-epochs", str(self.pretrain_epochs),
                "--workers", "1", "--out-dir", str(work / f"out{i}")]

    def execute(self, work: Path, request):
        self.recorder.reset()
        with contextlib.redirect_stdout(io.StringIO()):
            code = _cli(request)
        return code, self.recorder.take()

    def check(self, work: Path, request, result, tally: Tally) -> None:
        code, (split_calls, reports) = result
        if code != 0:
            tally.attempted += 1
            tally.failed += 1
            tally.error(f"evaluate exited with code {code}")
            return
        out_dir = Path(request[request.index("--out-dir") + 1])
        with open(out_dir / "metrics.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        tally.attempted += len(rows)
        for r in rows:
            excluded = r["flag"].startswith("excluded")
            if r["method"] == evalharness.MODEL_METHOD:
                tally.failed += excluded
                if r["epochs"] and not 0 <= int(r["epochs"]) <= training.MAX_EPOCHS:
                    tally.error(f"epochs_run {r['epochs']} outside [0, {training.MAX_EPOCHS}]")
            elif excluded or r["flag"] == "degenerate":
                tally.inapplicable += 1

        if split_calls is None:
            tally.notes.append("check skipped: evalharness.generate_splits is absent")
        else:
            expected_rows = 0
            for records, splits in split_calls:
                for split in splits:
                    try:
                        evalharness.validate_split(records, split)
                    except ValueError as exc:
                        tally.error(f"invalid split {split}: {exc}")
                    expected_rows += (split.interp_test is not None) + \
                        (split.extrap_test is not None)
            expected_rows *= len(self.methods.split(","))
            if expected_rows != len(rows):
                tally.error(f"metrics.csv has {len(rows)} rows, the generated "
                            f"splits give {expected_rows}")
        if reports is None:
            tally.notes.append("check skipped: training.finetune is absent")
        else:
            tally.quality.setdefault("finetune_epochs", []).append(
                sum(rep.epochs_run for rep in reports))
            for rep in reports:
                if rep.stopping_reason not in STOPPING_REASONS:
                    tally.error(f"stopping_reason {rep.stopping_reason!r}")
                if not 0 <= rep.best_epoch <= rep.epochs_run <= training.MAX_EPOCHS:
                    tally.error(f"best_epoch {rep.best_epoch}, epochs_run "
                                f"{rep.epochs_run}")

        def interp(method, variant, column):
            return [float(r[column]) for r in rows
                    if r["method"] == method and r["variant"] == variant
                    and r["task"] == "interp" and r[column]]

        q = tally.quality
        for key, method, variant in (("full", "model", "full"),
                                     ("local", "model", "local"),
                                     ("nnls", "nnls", "")):
            maes = interp(method, variant, "mae")
            if maes:
                q.setdefault(f"interp_mae_{key}_s", []).append(statistics.fmean(maes))
            epochs = interp(method, variant, "epochs")
            if method == "model" and epochs:
                q.setdefault(f"epochs_p50_{key}", []).append(statistics.median(epochs))
        # Pre-training should help interpolation, but over these 7 contexts
        # it does not on every corpus (seed 6, first corpus: MAE 18.9 s full,
        # 17.6 s local), so a loss is noted rather than failed.
        full, local = q.get("interp_mae_full_s"), q.get("interp_mae_local_s")
        if full and local and full[-1] > local[-1]:
            tally.notes.append(f"interpolation MAE of model/full {full[-1]:.2f} s "
                               f"exceeds model/local {local[-1]:.2f} s")


class Recorder:
    """Captures the splits and fine-tune reports of an evaluate run.

    Installed for untraced runs too: it wraps two boundaries called a few
    hundred times per run and keeps their results, which the checks need
    and ``metrics.csv`` does not carry.
    """

    def __init__(self):
        self.splits: list = []
        self.reports: list = []
        self.present: set = set()
        for boundary, keep in (("evalharness.generate_splits", self._on_splits),
                               ("training.finetune", self._on_finetune)):
            if spans.patch(boundary, lambda fn, keep=keep: _observing(fn, keep)):
                self.present.add(boundary)

    def _on_splits(self, args, kwargs, result):
        records = args[0] if args else kwargs["records"]
        self.splits.append((list(records), result))

    def _on_finetune(self, args, kwargs, result):
        self.reports.append(result[1])

    def reset(self) -> None:
        self.splits, self.reports = [], []

    def take(self):
        return (self.splits if "evalharness.generate_splits" in self.present else None,
                self.reports if "training.finetune" in self.present else None)


def _observing(fn, keep):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        keep(args, kwargs, result)
        return result
    return wrapper


@dataclass
class ServeInputs:
    path: Path
    state: object
    contexts: list
    seed: int


def _serve_setup(work: Path, seed: int, tiny: bool) -> ServeInputs:
    """Pre-train a small model on the corpus and save it. Serving latency
    does not depend on the weights, so one short config stands in for the
    full search here."""
    work.mkdir(parents=True, exist_ok=True)
    contexts = synthetic.make_contexts(CONTEXTS, seed=seed)
    records = synthetic.corpus(contexts, repetitions=2, seed=seed)
    state, _ = training.pretrain(records, SYNTH_SCHEMA,
                                 space=training.SearchSpace(sample_count=1),
                                 epochs=20 if tiny else 200)
    path = work / "served.jcm"
    model.save(state, path)
    return ServeInputs(path, state, contexts, seed)


_WORDS = ("uniform", "skewed", "sorted", "zipf", "text", "mixed", "dense",
          "sparse", "graph", "tabular", "images", "logs")


class ServePredict:
    """One in-process ``jobcast predict``: ``model.load`` of the saved file,
    then ``model.predict`` on a configuration whose every property value is
    new in the run."""

    name = "serve-predict"
    min_ops = 1

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def setup(self, work: Path, seed: int):
        return _serve_setup(work, seed, self.tiny)

    def request(self, inputs: ServeInputs, i: int):
        rng = np.random.default_rng((inputs.seed, 0x5E, i))
        # Each value carries the request index, so none repeats in a run;
        # the natural ranges are disjoint per property for the same reason.
        words = rng.choice(_WORDS, size=3)
        props = {
            "dataset_size": PropertyValue.natural(int(rng.integers(1, 1 << 20)) * (1 << 18) + i),
            "dataset_characteristics": PropertyValue.text(f"{words[0]}-{words[1]} {i}"),
            "job_parameters": PropertyValue.text(
                f"--k {rng.integers(2, 20)} --iterations {rng.integers(5, 50)} --run {i}"),
            "node_type": PropertyValue.text(f"{words[2][:2]}{rng.integers(3, 8)}.x{i}large"),
            "memory_mb": PropertyValue.natural((1 << 34) + 2 * i),
            "cpu_cores": PropertyValue.natural((1 << 34) + 2 * i + 1),
            "job_name": PropertyValue.text(f"job-{i}-{words[0]}"),
        }
        return int(rng.integers(1, 65)), props

    def execute(self, inputs: ServeInputs, request):
        scale_out, props = request
        state = model.load(inputs.path)
        return model.predict(state, scale_out, props).runtime_seconds

    def check(self, inputs: ServeInputs, request, result, tally: Tally) -> None:
        tally.attempted += 1
        scale_out, props = request
        expected = model.predict(inputs.state, scale_out, props).runtime_seconds
        if float(result).hex() != float(expected).hex():
            tally.error(f"loaded model predicts {result!r}, saved state {expected!r}")


class ServeRecommend:
    """One in-process ``jobcast recommend`` through ``cli.main``: a sweep over
    64 candidate scale-outs for one of the 7 known contexts."""

    name = "serve-recommend"
    min_ops = 1

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self.candidates = 8 if tiny else 64

    def setup(self, work: Path, seed: int):
        return _serve_setup(work, seed, self.tiny)

    def request(self, inputs: ServeInputs, i: int):
        rng = np.random.default_rng((inputs.seed, 0x2E, i))
        ctx = inputs.contexts[int(rng.integers(len(inputs.contexts)))]
        target = ctx.true_runtime(int(rng.integers(1, self.candidates + 1))) \
            * float(rng.uniform(0.8, 1.2))
        props = [f"{name}={value.value}" for name, value in ctx.properties.items()]
        return ["recommend", "--model", str(inputs.path),
                "--target", repr(float(target)), "--range", f"1:{self.candidates}:1",
                "--props", *props]

    def execute(self, inputs: ServeInputs, request):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = _cli(request)
        return code, out.getvalue()

    def check(self, inputs: ServeInputs, request, result, tally: Tally) -> None:
        tally.attempted += 1
        code, text = result
        if code != 0:
            tally.failed += 1
            tally.error(f"recommend exited with code {code}")
            return
        target = float(request[request.index("--target") + 1])
        lines = text.strip().splitlines()
        try:
            curve = {int(x): float(r) for x, r in
                     (line.split(",") for line in lines[1:-1])}
            label, answer = lines[-1].split(":", 1)
        except ValueError:
            tally.error(f"unparsable recommend output {text[-200:]!r}")
            return
        if list(curve) != list(range(1, self.candidates + 1)) \
                or label != "recommended_scale_out":
            tally.error(f"recommend output {text[:80]!r}...{text[-80:]!r}")
            return
        # The curve is printed to 3 decimals, so a point within half a unit
        # of the target may fall either way.
        tol = 5e-4
        meets = [x for x, r in curve.items() if r <= target - tol]
        may_meet = [x for x, r in curve.items() if r <= target + tol]
        answer = answer.strip()
        if answer.startswith("none"):
            ok = not meets
        else:
            ok = answer.isdigit() and bool(may_meet) \
                and may_meet[0] <= int(answer) <= (meets or may_meet)[0] \
                and int(answer) in may_meet
        if not ok:
            tally.error(f"recommend answers {answer!r} for target {target}; "
                        f"the curve meets it first at {meets[:1] or may_meet[:1]}")


WORKLOADS = {w.name: w for w in (PretrainSearch, Evaluate, ServePredict, ServeRecommend)}
