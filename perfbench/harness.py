"""Timed and traced runs of one workload; see run.py for the command line."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np
import scipy

import diraclinear
from diraclinear import _kernels, analytic, cli, shooting, tunneling
from diraclinear.model import PotentialMix, RadialGrid
from perfbench.hostspeed import PROBE_REF_S, HostClock
from perfbench.tracing import Tracer, layer_metrics
from perfbench.workloads import WORKLOADS

SETUP_REPEATS = 3
SETUP_CODE = ("import diraclinear.cli\n"
              "from diraclinear import _kernels\n"
              "_kernels.warm_up()\n")

MODULES = dict(shooting=shooting, cli=cli, analytic=analytic, tunneling=tunneling)



def environment(nproc, thread_vars):
    """What a result depends on besides the code: a numba-backed number is
    never comparable with a pure-Python one."""
    return dict(
        nproc=nproc, cpu_count=os.cpu_count(),
        python=platform.python_version(), numpy=np.__version__, scipy=scipy.__version__,
        numba_available=bool(_kernels.NUMBA_AVAILABLE),
        threads={v: os.environ.get(v) for v in thread_vars},
        platform=platform.platform(), machine=platform.machine(),
        diraclinear_version=diraclinear.__version__,
    )


def _loop(wl, reqs, seconds, ctx, tracer=None):
    """Closed loop over the request list until `seconds` have passed and a
    cycle is complete.  Each op is timed by the host clock (hostspeed.py),
    and its oracle runs after the clock stops.  Returns [(reference seconds,
    ok, wall seconds)], failure messages."""
    records, failures = [], []
    cycle = wl["cycle"]
    start = time.perf_counter()
    clock = HostClock()
    i = 0
    while True:
        req = reqs[i % len(reqs)]
        if tracer is not None:
            tracer.op = i
        with clock.op():
            try:
                res = wl["run"](req, ctx)
                err = None
            except Exception:  # an op that raises is a failed op, not a crash
                err = traceback.format_exc(limit=3)
        bad = [err] if err else wl["check"](req, res, ctx)
        records.append((clock.ref, not bad, clock.wall))
        failures += [f"op {i}: {b}" for b in bad]
        i += 1
        if i % cycle == 0 and time.perf_counter() - start >= seconds:
            return records, failures


def _throughput(records, cycle):
    """Correct ops per second of a typical cycle: the median time of each
    position in the cycle over the run, summed.  A burst of host noise then
    moves one sample per position, not the result."""
    per_position = [statistics.median(rec[0] for rec in records[j::cycle])
                    for j in range(cycle)]
    ok = sum(rec[1] for rec in records) / len(records)
    return ok * cycle / sum(per_position)


def _self_check(wl, req, res, ctx):
    """Feed corrupted results through the oracle; each must be rejected."""
    caught, missed = [], []
    for label, bad_res in wl["corrupt"](req, res, ctx):
        (caught if wl["check"](req, bad_res, dict(ctx)) else missed).append(label)
    return caught, missed


def _setup_seconds(root):
    """Wall time of a fresh interpreter importing the CLI and warming the
    kernel; median of SETUP_REPEATS runs.  Not scaled by the host-speed
    probe: the child may run on another CPU than the probe, and scaling
    widened the spread of this metric instead of narrowing it."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=root, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def _gate_probes():
    """The acceptance gates' own measurements: criterion 01 times
    equal_mix_energy (gate 1 ms), criterion 02 one find_bound_state on the
    acceptance grid (gate 1 s)."""
    analytic.equal_mix_energy(1.0, 0.2, 1)
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        analytic.equal_mix_energy(1.0, 0.2, 1)
        times.append(time.perf_counter() - t0)
    g01 = statistics.median(times)
    grid = RadialGrid(r_min=25e-6, r_max=25.0, n=20000)
    t0 = time.perf_counter()
    shooting.find_bound_state(1.0, PotentialMix(0.2, 0.5), -1, (1.1, 2.5), grid)
    g02 = time.perf_counter() - t0
    return {"gate01.equal_mix_energy.ms": 1e3 * g01, "gate01.headroom": 1e-3 / g01,
            "gate02.find_bound_state.s": g02, "gate02.headroom": 1.0 / g02}


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def run(name, seed, seconds, traced, out_dir, root, env):
    """One benchmark run; returns (result line, detail record)."""
    wl = WORKLOADS[name]
    reqs = wl["requests"](seed)
    workdir = tempfile.mkdtemp(prefix=f"{name}_", dir=out_dir)
    try:
        ctx = {"reqs": reqs, "workdir": workdir}
        if "prepare" in wl:
            wl["prepare"](reqs, workdir)
        try:  # untimed: pays any one-time lazy set-up
            warm = wl["run"](reqs[0], ctx)
        except Exception:  # reported as a failed run below, like a timed op
            warm_bad, caught, missed = [traceback.format_exc(limit=3)], [], ["no warm-up result"]
        else:
            warm_bad = wl["check"](reqs[0], warm, ctx)
            caught, missed = _self_check(wl, reqs[0], warm, ctx)
        detail = dict(workload=name, seed=seed, seconds=seconds, trace=int(traced),
                      env=env, warmup_failures=warm_bad,
                      selfcheck_caught=caught, selfcheck_missed=missed)
        if traced:
            metrics, records, failures, extra = _traced(wl, reqs, seconds, ctx, name,
                                                        seed, out_dir, root)
            detail.update(extra)
        else:
            records, failures = _loop(wl, reqs, seconds, ctx)
            metrics = _end_to_end(wl, records, root, detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(records)
    failed = sum(1 for rec in records if not rec[1])
    detail.update(attempted=attempted, failed=failed, failures=failures[:20],
                  op_seconds=[rec[0] for rec in records],
                  op_wall_seconds=[rec[2] for rec in records])
    correct = (failed == 0 and not warm_bad and not missed
               and detail.get("shot_count_mismatches", 0) == 0)
    return (dict(correct=correct, attempted=attempted, failed=failed, metrics=metrics),
            detail)


def _end_to_end(wl, records, root, detail):
    durations = np.array([rec[0] for rec in records])
    wall = np.array([rec[2] for rec in records])
    pct = wl["tail_pct"]
    tail = float(np.percentile(durations, pct))
    setup, setup_all = _setup_seconds(root)
    detail.update(tail_percentile=pct, tail_samples_beyond=int(np.sum(durations > tail)),
                  samples=len(durations), setup_runs_s=setup_all,
                  probe_ref_s=PROBE_REF_S,
                  host_slowdown=float(np.median(wall / durations)),
                  wall=dict(ops_per_s=len(wall) / float(wall.sum()),
                            op_p50_s=float(np.median(wall)),
                            op_tail_s=float(np.percentile(wall, pct))))
    return {
        "ops_per_s": _metric(_throughput(records, wl["cycle"]), "1/s"),
        "op_p50_s": _metric(np.median(durations), "s"),
        "op_tail_s": _metric(tail, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                               "MB"),
        "setup_s": _metric(setup, "s"),
    }


def _traced(wl, reqs, seconds, ctx, name, seed, out_dir, root):
    plain, plain_fail = _loop(wl, reqs, 0.5 * seconds, ctx)
    ctx["csv_bytes"] = 0
    tracer = Tracer()
    with tracer.installed(MODULES):
        records, failures = _loop(wl, reqs, 0.5 * seconds, ctx, tracer)
    layers = layer_metrics(tracer.spans, len(records))
    layers["cli.csv_bytes_per_op"] = ctx["csv_bytes"] / len(records)
    layers["trace.overhead"] = 1.0 - (_throughput(records, wl["cycle"])
                                      / _throughput(plain, wl["cycle"]))
    layers.update(_gate_probes())
    all_records = plain + records
    layers["bench.fail_ratio"] = (sum(1 for rec in all_records if not rec[1])
                                  / len(all_records))
    with open(out_dir / f"spans_{name}_seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for sp in tracer.spans:
            fh.write(json.dumps(sp) + "\n")
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    metrics = {m["name"]: _metric(layers[m["name"]], m["unit"]) for m in declared}
    extra = dict(shot_count_mismatches=int(layers["shooting.find_bound_state.shots_mismatch"]),
                 untraced_ops=len(plain),
                 traced_ops=len(records), spans=len(tracer.spans))
    return metrics, all_records, plain_fail + failures, extra
