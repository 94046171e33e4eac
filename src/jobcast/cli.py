"""Command-line interface.

Commands: ``pretrain``, ``finetune``, ``predict``, ``recommend``,
``evaluate``. All randomness flows from ``--seed`` (default 0), so every
command is reproducible by default. Output files are written to a
temporary path and renamed, so failures never leave partial artifacts.

Exit codes: 0 ok, 2 config/manifest error, 3 data error, 4 training
failure, 5 schema mismatch, 6 a pool worker process died, 130 interrupted
(Ctrl-C); an unusable output path is found up front.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path

from . import dataio, evalharness, model, training
from .dataio import load_dataset, parse_manifest
from .encoding import PAYLOAD_BITS, PropertyValue
from .errors import (CapacityError, ConfigError, DataError, SchemaError, TrainingError,
                     WorkerError)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4
EXIT_SCHEMA = 5
EXIT_WORKER = 6
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


def _atomic_write(path, write_fn):
    """Write via temp file + rename so failures leave nothing behind.

    The temporary file is created with mode 0666 less the umask, as a
    plain ``open`` creates a file, and the rename keeps that mode.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = str(path.parent / f".{path.name}.{os.urandom(6).hex()}")
        try:
            os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            break
        except FileExistsError:  # taken: draw another name
            pass
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_pairs(pairs, props_file=None) -> dict:
    """Raw name -> string value map from tokens and/or a key=value file."""
    raw: dict[str, str] = {}
    if props_file:  # a later line wins
        raw.update((key, value) for _, key, value in
                   dataio.read_pairs(props_file, "props file"))
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"property {pair!r} is not name=value")
        name, value = (p.strip() for p in pair.split("=", 1))
        raw[name] = value
    return raw


def _natural(name: str, value: str, unit: int = 1) -> int:
    """:func:`dataio.parse_natural`, failing as a config error naming the property."""
    try:
        return dataio.parse_natural(value, unit)
    except (ValueError, CapacityError):
        raise ConfigError(f"property {name!r} needs a natural number in "
                          f"[0, 2**{PAYLOAD_BITS} - 1], got {value!r}") from None


def _coerce_props(schema, raw: dict) -> dict:
    """Interpret raw strings according to the schema's property kinds."""
    kinds = dict(schema.essential + schema.optional)
    return {name: PropertyValue.natural(_natural(name, value))
            if kinds.get(name) == "natural" else PropertyValue.text(value)
            for name, value in raw.items()}


def _parse_context(spec: str, manifest) -> dataio.ContextKey:
    """Target context from name=value pairs, in manifest units."""
    raw = _parse_pairs([p for p in spec.split(",") if p.strip()])
    by_name = {p.name: p for p in manifest.essential}
    missing = set(by_name) - set(raw)
    if missing:
        raise ConfigError(f"--target-context is missing essential "
                          f"properties: {sorted(missing)}")
    unknown = set(raw) - set(by_name)
    if unknown:
        raise ConfigError(f"--target-context has non-essential properties: "
                          f"{sorted(unknown)}")
    return dataio.ContextKey(tuple(
        (p.name, _natural(p.name, raw[p.name], p.unit) if p.kind == "natural"
         else raw[p.name])
        for p in manifest.essential))


def _schema_from_manifest(manifest) -> model.PropertySchema:
    return model.PropertySchema(
        essential=tuple((p.name, p.kind) for p in manifest.essential),
        optional=tuple((p.name, p.kind) for p in manifest.optional),
    )


def _check_out(flag: str, path, directory=False) -> None:
    """``path`` can be written as a file (not naming a directory), or with
    ``directory=True`` as a directory: the first of its directory and that
    one's parents to exist is a directory this process may write into.
    Checked before any work starts; nothing is created."""
    path = Path(path)
    try:  # a stat can fail for more than a missing path: EACCES, say
        if not directory and path.is_dir():
            raise ConfigError(f"{flag} {path} names a directory")
        target = path if directory else path.parent
        nearest = next(p for p in (target, *target.parents) if p.exists())
        usable = nearest.is_dir() and os.access(nearest, os.W_OK | os.X_OK)
    except OSError as exc:
        raise ConfigError(f"{flag} {path}: {exc}") from None
    if not usable:
        raise ConfigError(f"{flag} {path}: {nearest} is not a directory "
                          f"that can be written into")


def _check_flags(args, *counts) -> None:
    """Each named count flag is at least 1, when given, and ``--seed`` at
    least 0, which numpy's seeding requires: checked before any work starts."""
    for flag in counts:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {args.seed}")


def cmd_pretrain(args) -> int:
    _check_flags(args, "--epochs", "--search-samples", "--workers")
    _check_out("--out", args.out)
    log_path = Path(args.out).with_suffix(".search.csv")
    _check_out("--out", log_path)
    manifest = parse_manifest(args.manifest)
    if args.algo and manifest.algorithm != args.algo:
        raise ConfigError(
            f"manifest is for {manifest.algorithm!r}, not {args.algo!r}")
    if args.variant == "local":
        raise ConfigError("the local variant has no pre-training corpus: it trains "
                          "a fresh model on the target context's samples alone")
    if args.variant == "filtered" and not args.target_context:
        raise ConfigError("the filtered variant needs --target-context: it keeps "
                          "only the records of contexts far from the target")
    records = load_dataset(args.data, manifest)
    print(dataio.summarize(records))
    if args.target_context:
        target = _parse_context(args.target_context, manifest)
        records = dataio.filter_for_variant(records, target, args.variant)
        print(f"variant {args.variant!r}: {len(records)} records after filtering")
    schema = _schema_from_manifest(manifest)
    space = training.SearchSpace(sample_count=args.search_samples)
    state, log = training.pretrain(records, schema, space=space,
                                   seed=args.seed, epochs=args.epochs,
                                   workers=args.workers)
    _atomic_write(args.out, lambda tmp: model.save(state, tmp))
    _atomic_write(log_path, lambda tmp: _write_search_log(log, tmp))
    chosen = next(e for e in log if e.chosen)
    print(f"chosen config: dropout={chosen.dropout_rate} "
          f"lr={chosen.learning_rate} weight_decay={chosen.weight_decay} "
          f"val_mae={chosen.val_mae_seconds:.3f}s")
    print(f"fingerprint: {state.fingerprint()}")
    print(f"model written to {args.out}")
    return 0


def _write_search_log(log, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config_id", "dropout_rate", "learning_rate",
                         "weight_decay", "epochs", "final_train_loss",
                         "train_mae_seconds", "val_mae_seconds",
                         "wall_time_s", "status", "chosen"])
        for e in log:
            writer.writerow([e.config_id, e.dropout_rate, e.learning_rate,
                             e.weight_decay, e.epochs, repr(e.final_train_loss),
                             repr(e.train_mae_seconds), repr(e.val_mae_seconds),
                             f"{e.wall_time_s:.3f}", e.status, int(e.chosen)])


def cmd_finetune(args) -> int:
    _check_flags(args)
    _check_out("--out", args.out)
    state = model.load(args.model)
    records = load_dataset(args.samples,
                           dataio.canonical_manifest_from_schema(state.schema))
    tuned, report = training.finetune(state, records, reuse=args.reuse, seed=args.seed)
    _atomic_write(args.out, lambda tmp: model.save(tuned, tmp))
    print(f"epochs: {report.epochs_run} best_epoch: {report.best_epoch} "
          f"best_mae: {report.best_mae_seconds:.3f}s "
          f"stopped: {report.stopping_reason}")
    print(f"fingerprint: {tuned.fingerprint()}")
    print(f"model written to {args.out}")
    return 0


# The largest scale-out the commands accept: a CSV scale-out cell's bound
# (see dataio.parse_natural), so every accepted value converts to a float.
MAX_SCALE_OUT = (1 << PAYLOAD_BITS) - 1


def _check_scale_out(what: str, x: int) -> None:
    if not 1 <= x <= MAX_SCALE_OUT:
        raise ConfigError(f"{what} must lie in [1, 2**{PAYLOAD_BITS} - 1], got {x}")


def cmd_predict(args) -> int:
    _check_scale_out("--scale-out", args.scale_out)
    state = model.load(args.model)
    props = _coerce_props(state.schema, _parse_pairs(args.props, args.props_file))
    pred = model.predict(state, args.scale_out, props)
    print(f"predicted_runtime_seconds: {pred.runtime_seconds:.3f}")
    if pred.negative_output:
        print("warning: model produced a negative runtime", file=sys.stderr)
    return 0


# The most candidate scale-outs one ``recommend`` scores. Each costs about
# 1 us and 0.4 KB, so a full range runs in about 0.3-0.45 s and 74 MB of
# peak RSS, process start included (one BLAS thread, 2-vCPU x86-64,
# Python 3.11, numpy 2.4).
MAX_CANDIDATES = 100_000


def _parse_range(text: str) -> range:
    """Candidate scale-outs from ``lo:hi:step``, counted before any is made."""
    try:
        lo, hi, step = (int(p) for p in text.split(":"))
    except ValueError:
        raise ConfigError(f"--range must be lo:hi:step, got {text!r}")
    if lo > hi or step < 1:
        raise ConfigError(f"invalid candidate range {text!r}")
    _check_scale_out("--range scale-outs", lo)
    _check_scale_out("--range scale-outs", hi)
    count = (hi - lo) // step + 1
    if count > MAX_CANDIDATES:
        raise ConfigError(f"--range {text!r} gives {count} candidates, "
                          f"more than the {MAX_CANDIDATES} allowed")
    return range(lo, hi + 1, step)


def cmd_recommend(args) -> int:
    candidates = _parse_range(args.range)
    if not 0 < args.target < math.inf:
        raise ConfigError(f"--target must be a finite number of seconds above 0, "
                          f"got {args.target!r}")
    state = model.load(args.model)
    props = _coerce_props(state.schema, _parse_pairs(args.props, args.props_file))
    runtimes = model.predict_batch(state, candidates, props).tolist()
    # Candidates ascend, so the first one that meets the target is the smallest.
    answer = next((x for x, runtime in zip(candidates, runtimes) if runtime <= args.target),
                  "none (target not achievable)")
    print("\n".join(["scale_out,predicted_runtime_seconds",
                     *map("{},{:.3f}".format, candidates, runtimes),
                     f"recommended_scale_out: {answer}"]))
    return 0


def cmd_evaluate(args) -> int:
    _check_flags(args, "--contexts", "--max-splits", "--pretrain-epochs",
                 "--search-samples", "--workers")
    methods = evalharness.check_methods(args.methods.split(","))
    _check_out("--out-dir", args.out_dir, directory=True)
    manifest = parse_manifest(args.manifest)
    records = load_dataset(args.data, manifest)
    schema = _schema_from_manifest(manifest)
    # No context can train on more scale-outs than its grid has minus one.
    widest = max(len(grid) for grid in dataio.summarize(records).scale_out_grid.values())
    config = evalharness.ComparisonConfig(
        methods=methods,
        n_train_values=tuple(_parse_int_list(args.n_train, widest - 1)),
        contexts=args.contexts,
        max_splits=args.max_splits,
        seed=args.seed,
        reuse=args.reuse,
        pretrain_epochs=args.pretrain_epochs,
        pretrain_space=training.SearchSpace(sample_count=args.search_samples),
        workers=args.workers,
    )
    table = evalharness.run_comparison(records, schema, config)
    out_dir = Path(args.out_dir)
    _atomic_write(out_dir / "metrics.csv",
                  lambda tmp: evalharness.write_metrics_csv(table, tmp))
    _atomic_write(out_dir / "ecdf.csv",
                  lambda tmp: evalharness.write_ecdf_csv(table, tmp))
    _atomic_write(out_dir / "contexts.csv",
                  lambda tmp: evalharness.write_context_legend(records, tmp))
    for key, agg in sorted(table.aggregate().items()):
        method, variant, n_train, task = key
        name = f"{method}/{variant}" if variant else method
        print(f"{name:>16} n={n_train} {task:>7}: "
              f"mre={agg['mre']:.3f} mae={agg['mae']:.1f}s ({agg['count']} splits)")
    print(f"results written to {out_dir}")
    return 0


def _parse_int_list(text: str, limit: int) -> list[int]:
    """Comma-separated integers and ``lo-hi`` ranges, each within [0, limit];
    a range is checked before it is expanded."""
    out = []
    for part in (p.strip() for p in text.split(",")):
        if not part:
            continue
        try:
            if "-" in part and not part.startswith("-"):
                lo, hi = (int(p) for p in part.split("-", 1))
            else:
                lo = hi = int(part)
        except ValueError:
            raise ConfigError(f"--n-train must list integers or lo-hi ranges, "
                              f"got {text!r}") from None
        if not 0 <= lo <= hi <= limit:
            raise ConfigError(f"--n-train value {part!r} must lie in [0, {limit}], "
                              f"low to high: no scale-out grid here serves more")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ConfigError(f"--n-train lists no values: {text!r}")
    return out


def build_parser() -> argparse.ArgumentParser:
    """A new argparse tree for every command."""
    parser = argparse.ArgumentParser(
        prog="jobcast",
        description="Runtime prediction for distributed dataflow jobs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="pre-train a model on historical data")
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--algo", default=None)
    p.add_argument("--variant", choices=("local", "filtered", "full"),
                   default="full")
    p.add_argument("--target-context", default=None,
                   help="comma-separated name=value pairs identifying the "
                        "context to exclude / filter against")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=training.MAX_EPOCHS)
    p.add_argument("--search-samples", type=int, default=12)
    p.add_argument("--workers", type=int, default=None,
                   help="processes the search's configs train in (default: "
                        "two where the platform forks, for a search of at "
                        "least 1,000 optimizer steps; else one)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("finetune", help="adapt a pre-trained model to samples")
    p.add_argument("--model", required=True)
    p.add_argument("--samples", required=True,
                   help="CSV with scale_out, runtime_seconds, and one column "
                        "per schema property")
    p.add_argument("--reuse", choices=training.REUSE_STRATEGIES,
                   default="partial-unfreeze")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("predict", help="predict a runtime")
    p.add_argument("--model", required=True)
    p.add_argument("--scale-out", type=int, required=True)
    p.add_argument("--props", nargs="*", default=())
    p.add_argument("--props-file", default=None)

    p = sub.add_parser("recommend", help="smallest scale-out meeting a target")
    p.add_argument("--model", required=True)
    p.add_argument("--target", type=float, required=True,
                   help="runtime target in seconds")
    p.add_argument("--range", required=True, help="candidate scale-outs lo:hi:step")
    p.add_argument("--props", nargs="*", default=())
    p.add_argument("--props-file", default=None)

    p = sub.add_parser("evaluate", help="run the comparison protocol")
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--methods", default="nnls,bell,local,full")
    p.add_argument("--n-train", default="1,2,3,4,5")
    p.add_argument("--contexts", type=int, default=7)
    p.add_argument("--max-splits", type=int, default=200)
    p.add_argument("--pretrain-epochs", type=int, default=training.MAX_EPOCHS)
    p.add_argument("--search-samples", type=int, default=12)
    p.add_argument("--reuse", choices=training.REUSE_STRATEGIES,
                   default="partial-unfreeze")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    return parser


# The parser ``main`` builds on its first call and reuses: parsing never
# changes it, and every default in it is immutable.
_parser = None


def main(argv=None) -> int:
    """Run one command. Callable any number of times in one process; the
    command's ``cmd_<name>`` function is looked up on each call."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except WorkerError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return EXIT_WORKER
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
