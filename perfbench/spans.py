"""Span tracer that times jobcast's layers from outside the package.

A traced run wraps the public functions listed in ``BOUNDARIES`` and records
one span per call: the boundary's name, its start and end (``perf_counter``
seconds) and the index of the enclosing span, or -1 for a root. Spans stay
in flat arrays in memory and are written out once, when the run ends.

A wrapper is installed at every name a caller binds. ``from .training import
finetune`` in ``evalharness`` makes ``evalharness.finetune`` the same
function object as ``training.finetune``, so every module attribute that is
that object is replaced; methods are replaced on their class. A boundary
that no longer exists is reported as absent, and its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# One entry per layer boundary: "<module>.<function>" or
# "<module>.<Class>.<method>", relative to the jobcast package.
BOUNDARIES = (
    "encoding.encode_property",
    "encoding.hash_text",
    "encoding.Normalizer.transform",
    "model.predict",
    "model.load",
    "model.save",
    "model.encode_batch",
    "model.forward_batch",
    "model.backward_batch",
    "model.ModelState.copy",
    "nn.TwoLayerBlock.forward",
    "nn.TwoLayerBlock.backward",
    "nn.Adam.step",
    "training.pretrain",
    "training.finetune",
    "baselines.nnls",
    "baselines.ernest_fit",
    "baselines.bell_fit",
    "evalharness.run_comparison",
    "evalharness.generate_splits",
    "dataio.parse_manifest",
    "dataio.load_dataset",
    "cli.main",
)

PACKAGE = "jobcast"


def patch(boundary: str, make_wrapper, undo: list | None = None) -> bool:
    """Replace a boundary with ``make_wrapper(original)`` wherever it is bound.

    Returns False, changing nothing, when the boundary does not exist.
    Each replacement is appended to ``undo`` as ``(owner, attr, old)``.
    """
    modname, _, qualname = boundary.partition(".")
    try:
        module = importlib.import_module(f"{PACKAGE}.{modname}")
    except ImportError:
        return False
    *owner_path, attr = qualname.split(".")
    owner = module
    for part in owner_path:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    original = getattr(owner, attr, None)
    if not callable(original):
        return False
    wrapper = make_wrapper(original)
    if owner_path:
        # A method: the one class object serves every caller.
        targets = [(owner, attr)]
    else:
        targets = [(mod, key)
                   for mod in list(sys.modules.values())
                   if getattr(mod, "__name__", "").partition(".")[0] == PACKAGE
                   for key, value in list(vars(mod).items())
                   if value is original]
    for target, key in targets:
        if undo is not None:
            undo.append((target, key, vars(target).get(key)))
        setattr(target, key, wrapper)
    return True


class Counters:
    """Work counts observed at the boundaries, beside the spans."""

    def __init__(self):
        self.seen_values: set = set()
        self.encode_calls = 0
        self.encode_repeats = 0
        self.pretrain_epochs = 0
        self.diverged_configs = 0
        self.val_mae = []
        self.finetune_epochs = 0
        self.finetune_best_epochs = 0
        self.finetune_epochs_by_strategy: dict[str, list[int]] = {}
        self.splits = 0

    def on_encode_property(self, args, kwargs, result):
        value = args[0] if args else kwargs.get("v")
        self.encode_calls += 1
        if value in self.seen_values:
            self.encode_repeats += 1
        else:
            self.seen_values.add(value)

    def on_pretrain(self, args, kwargs, result):
        _, log = result
        self.pretrain_epochs += sum(e.epochs for e in log)
        self.diverged_configs += sum(e.status != "ok" for e in log)
        self.val_mae.extend(e.val_mae_seconds for e in log if e.chosen)

    def on_finetune(self, args, kwargs, result):
        _, report = result
        self.finetune_epochs += report.epochs_run
        self.finetune_best_epochs += report.best_epoch
        strategy = kwargs.get("strategy", args[2] if len(args) > 2 else "pretrained")
        self.finetune_epochs_by_strategy.setdefault(strategy, []).append(report.epochs_run)

    def on_generate_splits(self, args, kwargs, result):
        self.splits += len(result)

    def observers(self) -> dict:
        """Boundary -> callback on its ``(args, kwargs, result)``."""
        return {"encoding.encode_property": self.on_encode_property,
                "training.pretrain": self.on_pretrain,
                "training.finetune": self.on_finetune,
                "evalharness.generate_splits": self.on_generate_splits}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list = []
        self.absent: list[str] = []
        self.unobserved: set[str] = set()
        self.counters = Counters()
        self._active = [True]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, observe=None):
        nid = self._intern(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        unobserved = self.unobserved
        active = self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                try:
                    observe(args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    unobserved.add(name)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one request."""
        nid = self._intern(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Calls made inside this block pass through unrecorded."""
        self._active[0] = False
        try:
            yield
        finally:
            self._active[0] = True

    def install(self) -> None:
        observers = self.counters.observers()
        for boundary in BOUNDARIES:
            observe = observers.get(boundary)
            if not patch(boundary,
                         lambda fn, b=boundary, o=observe: self._wrap(b, fn, o),
                         self._undo):
                self.absent.append(boundary)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def arrays(self):
        return (np.array(self.name, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))

    def per_name(self) -> dict[str, dict]:
        """calls, inclusive seconds and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children, so each instant is charged to the innermost open span.
        """
        name, parent, start, end = self.arrays()
        n = len(start)
        dur = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        own = dur - children
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=own, minlength=k)
        return {nm: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                     "self_s": float(selfs[i])}
                for i, nm in enumerate(self.names)}

    def write(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)

    def layer_metrics(self, overhead_share: float) -> dict[str, float]:
        """The per-layer metrics, keyed as listed in BENCHMARK.json."""
        stats = self.per_name()
        c = self.counters
        out: dict[str, float] = {}
        for boundary in BOUNDARIES:
            s = stats.get(boundary, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            out[f"{boundary}.calls"] = s["calls"]
            out[f"{boundary}.self_s"] = s["self_s"]
        out["encoding.encode_property.repeat_share"] = (
            c.encode_repeats / c.encode_calls if c.encode_calls else 0.0)
        pre = stats.get("training.pretrain", {"incl_s": 0.0})
        out["training.pretrain.epochs"] = c.pretrain_epochs
        out["training.pretrain.us_per_epoch"] = (
            1e6 * pre["incl_s"] / c.pretrain_epochs if c.pretrain_epochs else 0.0)
        out["training.pretrain.diverged_configs"] = c.diverged_configs
        out["training.pretrain.val_mae_s"] = (
            float(np.median(c.val_mae)) if c.val_mae else 0.0)
        fin = stats.get("training.finetune", {"incl_s": 0.0})
        out["training.finetune.epochs"] = c.finetune_epochs
        out["training.finetune.us_per_epoch"] = (
            1e6 * fin["incl_s"] / c.finetune_epochs if c.finetune_epochs else 0.0)
        out["training.finetune.useful_epoch_share"] = (
            c.finetune_best_epochs / c.finetune_epochs if c.finetune_epochs else 0.0)
        for strategy in ("pretrained", "local"):
            epochs = c.finetune_epochs_by_strategy.get(strategy, [])
            out[f"training.finetune.epochs_p50.{strategy}"] = (
                float(np.median(epochs)) if epochs else 0.0)
        out["evalharness.splits"] = c.splits
        out["trace.overhead_share"] = overhead_share
        return out


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    leaf = metric.rsplit(".", 1)[-1]
    if "share" in leaf:
        return "share"
    if leaf == "us_per_epoch":
        return "us"
    if leaf.endswith("_s") or ".interp_mae_s." in metric:
        return "s"
    return "count"
