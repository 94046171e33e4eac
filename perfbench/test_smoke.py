"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced with ``--tiny``. The
untraced run must print exactly the end-to-end metrics of BENCHMARK.json
and the traced run exactly its per-layer metrics; together the traced runs
must reach every layer boundary the tracer knows.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import spans  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT, tiny: bool = True):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            assert "absent boundaries" not in proc.stdout
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def _check_metrics(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(results, workload):
    result = results[workload, 0]
    _check_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(results, workload):
    _check_metrics(results[workload, 1], SPEC["per_layer"])


def test_traced_runs_reach_every_boundary(results):
    reached = {b for b in spans.BOUNDARIES
               for w in WORKLOADS
               if results[w, 1]["metrics"][f"{b}.calls"]["value"] > 0}
    assert reached == set(spans.BOUNDARIES)


def test_missing_boundary_is_absent_not_fatal():
    tracer = spans.Tracer()
    assert not spans.patch("model.no_such_function", lambda fn: fn)
    assert not spans.patch("no_such_module.f", lambda fn: fn)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == []
    assert tracer.layer_metrics(0.0)["model.predict.calls"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path, tiny=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
