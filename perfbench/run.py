"""jobcast benchmark: run one workload under one seed and print one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload serve-predict --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
beyond the evaluate workload's result recorder. ``--trace 1`` first runs the
workload untraced for half of ``--seconds``, then replays the same number of
operations with every layer boundary wrapped, and prints the per-layer
metrics, including the traced time over the untraced time minus one. The
last line of standard output is the result object; the lines before it
describe the environment, the sample counts and the quality numbers.
Everything the run writes goes under ``.perfbench_out/`` in the checkout.

Exit codes: 0 when every check passed, 1 when a check failed or the run
broke, 2 when the checkout holds no jobcast sources.
"""

from __future__ import annotations

import os

# One BLAS thread: the model's matrices are tiny, and threads would only
# add scheduling noise. Must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Set-up is repeated and its median reported: 5 to 50 times, until the
# repetitions fill half a second. Five sub-millisecond set-ups right after
# start-up read anywhere from 0.5 to 1.1 ms between runs of one workload.
SETUP_REPEATS = (5, 50)
SETUP_SECONDS = 0.5

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def _import_program():
    """Import jobcast from this checkout's ``src`` and nowhere else."""
    package = SRC / "jobcast"
    if not (package / "__init__.py").is_file():
        print(f"error: no jobcast sources at {package}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import jobcast

    if Path(jobcast.__file__).resolve().parent != package.resolve():
        print(f"error: imported jobcast from {jobcast.__file__}, not {package}",
              file=sys.stderr)
        return False
    return True


def _environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "system": platform.system(),
    }


def run_phase(workload, inputs, tally, first: int, seconds: float | None = None,
              count: int | None = None, tracer=None) -> list[float]:
    """Run operations closed-loop from request index ``first``.

    Stops after ``count`` operations, or once ``workload.min_ops`` have
    run and starting another would overrun ``seconds``. Each operation is
    checked right after its timer stops; under a tracer the check's own
    calls into the program are not recorded.
    """
    latencies: list[float] = []
    started = time.perf_counter()
    i = first
    while True:
        request = workload.request(inputs, i)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = workload.execute(inputs, request)
            else:
                with tracer.span(f"op.{workload.name}"):
                    result = workload.execute(inputs, request)
        except Exception as exc:  # a failed operation is counted, not fatal
            latencies.append(time.perf_counter() - t0)
            tally.attempted += 1
            tally.failed += 1
            tally.error(f"operation {i}: {type(exc).__name__}: {exc}")
        else:
            latencies.append(time.perf_counter() - t0)
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                workload.check(inputs, request, result, tally)
        i += 1
        now = time.perf_counter()
        if count is not None:
            if len(latencies) >= count:
                break
        elif len(latencies) >= workload.min_ops \
                and (now - started) + (now - t0) > seconds:
            break
    return latencies


def _quality_summary(quality: dict) -> dict:
    return {k: statistics.median(v) for k, v in sorted(quality.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a smoke-test size")
    args = parser.parse_args(argv)

    if not _import_program():
        return 2
    import numpy as np

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    env = _environment(args)
    print("env: " + json.dumps(env, sort_keys=True))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS[0] or (
                len(setup_times) < SETUP_REPEATS[1] and sum(setup_times) < SETUP_SECONDS):
            # A fresh directory each time: on ext4, rewriting an existing
            # file flushes it on close, which cost 170 ms per set-up.
            fresh = work / f"setup{len(setup_times)}"
            t0 = time.perf_counter()
            inputs = workload.setup(fresh, args.seed)
            setup_times.append(time.perf_counter() - t0)

        tally = workloads.Tally()
        if args.trace == 0:
            latencies = run_phase(workload, inputs, tally, 0, seconds=args.seconds)
            ms = np.array(latencies) * 1e3
            metrics = {
                "setup_s": statistics.median(setup_times),
                "op_p50_ms": float(np.percentile(ms, 50)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
            # Tails are reported, not bounded: on a shared 2-vCPU host the
            # p90 of the same workload moved by 40% between runs.
            detail = {"ops": len(latencies), "op_ms": {
                "p50": metrics["op_p50_ms"], "p90": float(np.percentile(ms, 90)),
                "p99": float(np.percentile(ms, 99)), "min": float(ms.min()),
                "max": float(ms.max())}}
        else:
            untraced = run_phase(workload, inputs, tally, 0, seconds=args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_phase(workload, inputs, tally, len(untraced),
                                   count=len(untraced), tracer=tracer)
            finally:
                tracer.uninstall()
            overhead = sum(traced) / sum(untraced) - 1.0
            metrics = tracer.layer_metrics(overhead)
            quality = _quality_summary(tally.quality)
            for name in ("full", "local", "nnls"):
                metrics[f"evalharness.interp_mae_s.{name}"] = \
                    quality.get(f"interp_mae_{name}_s", 0.0)
            units = {name: spans.unit_of(name) for name in metrics}
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.write(OUT / f"spans-{tag}.npz")
            detail = {"ops": len(untraced), "spans": len(tracer.start),
                      "absent_boundaries": tracer.absent,
                      "unobserved_boundaries": sorted(tracer.unobserved)}
            if tracer.absent:
                print("trace: absent boundaries: " + ", ".join(tracer.absent))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not tally.errors
    quality = _quality_summary(tally.quality)
    detail.update(attempted=tally.attempted, failed=tally.failed,
                  inapplicable=tally.inapplicable, quality=quality,
                  setups=len(setup_times), notes=tally.notes,
                  errors=tally.errors)
    print("detail: " + json.dumps(detail, sort_keys=True))
    for message in tally.errors:
        print(f"check failed: {message}", file=sys.stderr)
    OUT.mkdir(parents=True, exist_ok=True)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "detail": detail, **result}, fh, indent=1,
                  sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
