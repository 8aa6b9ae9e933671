"""Smoke tests of the benchmark harness: one-second traced `bound` and
`quasibound` runs.

The traced run intercepts each rk4_path call and reads a scalar n, h and
stop from it, and checks every find_bound_state shot count against the
bisection's; this keeps that contract between the library and perfbench/.
The `quasibound` run checks every estimate, its spread and gamma with the
workload's own oracles.
"""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_bound_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import harness
    from perfbench.run import THREAD_VARS

    env = harness.environment(os.cpu_count(), THREAD_VARS)
    result, detail = harness.run("bound", 1, 1.0, True, tmp_path, ROOT, env)
    assert result["correct"], detail["failures"]
    assert result["attempted"] > 0 and result["failed"] == 0
    assert detail["shot_count_mismatches"] == 0
    metrics = result["metrics"]
    assert metrics["shooting.find_bound_state.shots_mismatch"]["value"] == 0
    assert metrics["kernels.rk4_path.calls_per_op"]["value"] > 0
    assert [p.name for p in tmp_path.iterdir()] == ["spans_bound_seed1.jsonl"]


def test_traced_quasibound_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import harness
    from perfbench.run import THREAD_VARS

    env = harness.environment(os.cpu_count(), THREAD_VARS)
    result, detail = harness.run("quasibound", 1, 1.0, True, tmp_path, ROOT, env)
    assert result["correct"], detail["failures"]
    assert result["attempted"] > 0 and result["failed"] == 0
