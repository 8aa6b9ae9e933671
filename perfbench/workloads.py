"""Seeded request lists, operations and oracles for each workload.

A workload's request list is a sequence of identical *cycles*: every cycle
holds the same kinds of operation in the same order, and the seed draws the
parameters (continuous ones, and k and the node count in `bound`) inside each
cycle.  The runner only stops at a cycle boundary, so every run measures
the same mix of operation kinds and runs differ only in timing and draws.

Each workload provides:
  requests(seed)        -> list of request dicts (whole cycles)
  run(req, ctx)         -> the operation; the only code that is timed
  check(req, res, ctx)  -> list of oracle failures (empty when correct)
  corrupt(req, res, ctx) -> (label, corrupted result) pairs that check()
                           must reject; the oracle self-check
  prepare(reqs, workdir) -> optional untimed set-up, such as input files
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import random

import numpy as np

from diraclinear import analytic, cli, shooting, tunneling
from diraclinear.model import PotentialMix, RadialGrid

CYCLES = 64  # request list length in cycles; the runner replays it from the start

AI_ZERO_1 = -2.338107410459767  # first negative zero of Ai


def _airy_level(m, lam, E):
    """|beta| implied by an equal-mix energy: (E^2 - m^2) / [lam (m+E)]^(2/3)."""
    return (E * E - m * m) / (lam * (m + E)) ** (2.0 / 3.0)


# --------------------------------------------------------------------- bound
# cycle: small-grid base, its scaled twin, small base, twin, large base, twin.
# Two thirds of the ops run on the small grid, so the median and the p80 tail
# each sit inside one grid size rather than on the boundary between the two.
BOUND_N = (1000, 1000, 4000)
BOUND_R = 10.0  # grid radius in units of 1/sqrt(lambda): scales with the twins


def bound_requests(seed):
    rng = random.Random(f"bound:{seed}")
    reqs = []
    for _ in range(CYCLES):
        for j, n in enumerate(BOUND_N):
            m, lam = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
            if j == 0:  # one base per cycle sits exactly at the equal mix
                s, k = 0.5, -1
            else:
                s, k = rng.uniform(0.5, 1.0), rng.choice((-1, 1, -2))
            nodes = rng.choice((0, 1))
            c = rng.uniform(0.8, 1.25)
            base = dict(m=m, lam=lam, s=s, k=k, nodes=nodes, n=n,
                        rmax=BOUND_R / math.sqrt(lam), index=len(reqs), twin_of=None, c=1.0)
            if s == 0.5 and k == -1:
                base["airy"] = analytic.equal_mix_energy(m, lam, nodes + 1)
            twin = dict(base, m=c * m, lam=c * c * lam, rmax=base["rmax"] / c,
                        twin_of=len(reqs), c=c)
            if "airy" in base:
                twin["airy"] = analytic.equal_mix_energy(c * m, c * c * lam, nodes + 1)
            reqs += [base, twin]
    return reqs


def bound_run(req, ctx):
    grid = RadialGrid(1e-6 * req["rmax"], req["rmax"], req["n"])
    mix = PotentialMix(req["lam"], req["s"])
    bracket = shooting.suggest_bracket(req["m"], mix, req["k"], grid, nodes=req["nodes"])
    return shooting.find_bound_state(req["m"], mix, req["k"], bracket, grid,
                                     nodes=req["nodes"])


def bound_check(req, sol, ctx):
    bad = []
    if sol.node_count != req["nodes"]:
        bad.append(f"node count {sol.node_count} != {req['nodes']}")
    norm = float(np.trapezoid(sol.u ** 2 + sol.v ** 2, sol.r))
    if not abs(norm - 1.0) <= 1e-9:
        bad.append(f"norm {norm!r} != 1")
    if "airy" in req and not abs(sol.E - req["airy"]) <= 1e-6:
        bad.append(f"E {sol.E!r} misses equal-mix {req['airy']!r}")
    if req["twin_of"] is None:
        ctx["last_base"] = (req["index"], sol.E)
    elif ctx.get("last_base", (None,))[0] == req["twin_of"]:
        base_e = ctx["last_base"][1]
        if not abs(sol.E / (req["c"] * base_e) - 1.0) <= 1e-6:
            bad.append(f"twin E {sol.E!r} != {req['c']!r} * {base_e!r}")
    return bad


def bound_corrupt(req, sol, ctx):
    return [("perturbed energy", dataclasses.replace(sol, E=sol.E * (1.0 + 1e-4))),
            ("wrong node count", dataclasses.replace(sol, node_count=sol.node_count + 1))]


# ---------------------------------------------------------------- quasibound
# cycle: s just below 1/2 (Airy continuity oracle), pure vector, a mixed s
QB_N = 500
QB_GRID_RMAX = 25.0


def quasibound_requests(seed):
    rng = random.Random(f"quasibound:{seed}")
    reqs = []
    for _ in range(CYCLES):
        for s in (0.5 - 1e-6, 0.0, None):
            m, lam = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
            req = dict(m=m, lam=lam, s=rng.uniform(0.05, 0.45) if s is None else s,
                       k=-1, n=QB_N)
            if s == 0.5 - 1e-6:
                req["airy"] = analytic.equal_mix_energy(m, lam, 1)
            reqs.append(req)
    return reqs


def quasibound_run(req, ctx):
    """The `lifetime` report: the estimate, its truncation spread, gamma."""
    m, k = req["m"], req["k"]
    mix = PotentialMix(req["lam"], req["s"])
    grid = RadialGrid(1e-6 * QB_GRID_RMAX, QB_GRID_RMAX, req["n"])
    energies = [shooting.estimate_quasibound_energy(m, mix, k, grid, midpoint_scale=c)
                for c in (1.0, 0.9, 1.1)]
    return energies, tunneling.gamma_mixed(m, mix, energies[0])


def _mixed_barrier_oracle(m, lam, E, r3):
    """Closed form of the r2..r3 barrier integral (acceptance criterion 06)."""
    def antideriv(w):
        root = math.sqrt(max(w * w - m * m, 0.0))
        return 0.5 * w * root - 0.5 * m * m * math.log(w + root)

    return (antideriv(max(lam * r3 - E, m)) - antideriv(m)) / lam


def quasibound_check(req, res, ctx):
    energies, rep = res
    m, lam = req["m"], req["lam"]
    bad = [f"estimate {e!r} <= m" for e in energies if not e > m]
    q = rep.gamma - math.pi * m * m / (2.0 * lam)
    oracle = _mixed_barrier_oracle(m, lam, rep.E, rep.r3)
    if not abs(q - oracle) <= 1e-8 * oracle + 1e-12 * rep.gamma:
        bad.append(f"barrier integral {q!r} != antiderivative {oracle!r}")
    if "airy" in req and not abs(energies[0] - req["airy"]) <= 0.01:
        bad.append(f"estimate {energies[0]!r} not within 0.01 of Airy {req['airy']!r}")
    return bad


def quasibound_corrupt(req, res, ctx):
    energies, rep = res
    return [("perturbed energy", ([energies[0] + 0.02] + energies[1:], rep)),
            ("energy below the mass", ([req["m"]] + energies[1:], rep)),
            ("perturbed gamma", (energies, dataclasses.replace(rep, gamma=rep.gamma * 1.001)))]


# ------------------------------------------------------------------ analytic
AN_CYCLE = 4  # ops per cycle: one throughput sample
AN_LEVELS = 3
AN_WF_POINTS = 10_000
AN_PROFILE_POINTS = 50_000  # per profile; two profiles make 1e5 points per op


def analytic_requests(seed):
    rng = random.Random(f"analytic:{seed}")
    return [dict(m=rng.uniform(0.5, 1.0), lam=rng.uniform(0.5, 1.0))
            for _ in range(AN_CYCLE * CYCLES)]


def analytic_run(req, ctx):
    """A spectrum table for one (m, lambda)."""
    m, lam = req["m"], req["lam"]
    energies = [analytic.equal_mix_energy(m, lam, i) for i in range(1, AN_LEVELS + 1)]
    top = energies[-1]
    r_hi = (top - m) / lam + 12.0 / (lam * (m + top)) ** (1.0 / 3.0)
    r = np.linspace(0.0, r_hi, AN_WF_POINTS)
    waves = [analytic.equal_mix_wavefunction(m, lam, e, r) for e in energies]
    e0 = energies[0]
    # continuum-edge coordinate straddling x = 0, with the join points exact
    x = np.concatenate((np.linspace(-4.0 * m, 4.0 * m, AN_PROFILE_POINTS - 3),
                        (-1e-12, 0.0, 1e-12)))
    edge = analytic.vector_profile_continuum_edge(e0, m, 1.0, x)
    xt = np.linspace(1e-3 * m, 4.0 * m, AN_PROFILE_POINTS)
    turn = analytic.vector_profile_turning_point(
        e0, m, analytic.LocalProfileCoefficients(B=1.0, C=0.5), xt)
    gamma = tunneling.gamma_barrier_quadrature(m, lam)
    return dict(energies=energies, nodes=[w.node_count for w in waves],
                edge_join=edge[-3:].copy(), turn_finite=bool(np.all(np.isfinite(turn))),
                gamma=gamma)


def analytic_check(req, res, ctx):
    m, lam = req["m"], req["lam"]
    bad = []
    beta = _airy_level(m, lam, res["energies"][0])
    if not abs(beta + AI_ZERO_1) <= 1e-6:
        bad.append(f"first level implies Ai zero {-beta!r}, not {AI_ZERO_1}")
    for i, nodes in enumerate(res["nodes"], 1):
        if nodes != i - 1:
            bad.append(f"level {i} has {nodes} nodes, not {i - 1}")
    left, centre, right = res["edge_join"]
    if not (centre == 1.0 and abs(left - 1.0) <= 1e-9 and abs(right - 1.0) <= 1e-9):
        bad.append(f"J0/I0 branches do not join at x = 0: {left!r}, {centre!r}, {right!r}")
    if not res["turn_finite"]:
        bad.append("turning-point profile is not finite")
    exact = math.pi * m * m / (2.0 * lam)
    if not abs(res["gamma"] / exact - 1.0) <= 1e-8:
        bad.append(f"quadrature {res['gamma']!r} != pi m^2 / (2 lambda) = {exact!r}")
    return bad


def analytic_corrupt(req, res, ctx):
    energies = list(res["energies"])
    energies[0] *= 1.0 + 1e-4
    nodes = list(res["nodes"])
    nodes[-1] += 1
    return [("perturbed energy", dict(res, energies=energies)),
            ("wrong node count", dict(res, nodes=nodes))]


# ----------------------------------------------------------------------- cli
# cycle of in-process `dirac-linear` invocations; the three solve-sized ops
# keep the median inside one cost class
CLI_SMALL_N = 1000
CLI_PROFILE_N = 20000
SWEEP_HEADER = "param,value,E,gamma,tau_ratio,r1,r2,r3,binding"
PROFILE_HEADER = "r,u,v,V,S"


def _flags(m, lam, s, n, rmax):
    return ["--m", repr(m), "--lambda", repr(lam), "--s", repr(s),
            "--n", str(n), "--rmax", repr(rmax)]


def _draw(rng):
    lam = rng.uniform(0.5, 1.0)
    return rng.uniform(0.5, 1.0), lam, BOUND_R / math.sqrt(lam)


def cli_requests(seed):
    rng = random.Random(f"cli:{seed}")
    reqs = []
    for c in range(CYCLES):
        m, lam, rmax = _draw(rng)
        lo, hi = rng.uniform(0.40, 0.48), rng.uniform(0.52, 0.60)
        reqs.append(dict(kind="sweep_s", csv=f"sweep_s_{c}.csv", rows=3, argv=[
            "sweep", "--param", "s", "--range", repr(lo), repr(hi), "--steps", "3",
            *_flags(m, lam, 0.5, CLI_SMALL_N, rmax)]))
        m, lam, rmax = _draw(rng)
        reqs.append(dict(kind="sweep_lambda", csv=f"sweep_l_{c}.csv", rows=3, argv=[
            "sweep", "--param", "lambda", "--range", repr(lam), repr(lam * 1.2),
            "--steps", "3", *_flags(m, lam, rng.uniform(0.6, 1.0), CLI_SMALL_N, rmax)]))
        # the profile dominates the cycle; its cost depends on (m, lambda)
        # only through m / sqrt(lambda), so hold that ratio near 1 to keep
        # every seed's cycle equally expensive
        _, lam, rmax = _draw(rng)
        m = math.sqrt(lam) * rng.uniform(0.95, 1.05)
        reqs.append(dict(kind="profile", csv=f"profile_{c}.csv", rows=CLI_PROFILE_N + 1,
                         argv=["profile", *_flags(m, lam, rng.uniform(0.5, 0.55),
                                                  CLI_PROFILE_N, rmax)]))
        m, lam, rmax = _draw(rng)
        config = f"solve_{c}.cfg"
        reqs.append(dict(kind="solve_config", config=config, config_text=(
            f"# seeded solve\nm={m!r}\nlambda={lam!r}\ns={rng.uniform(0.5, 1.0)!r}\n"
            f"k={rng.choice((-1, 1, -2))}\nn={CLI_SMALL_N}\nrmax={rmax!r}\n"),
            argv=["solve", "--config", "{dir}/" + config]))
        m, lam, rmax = _draw(rng)
        flags = _flags(m, lam, 0.5, CLI_SMALL_N, rmax)
        dump = f"dump_{c}.cfg"
        reqs.append(dict(kind="roundtrip", flags=flags, dump=dump, argv=[
            "solve", *flags, "--dump-config", "--out", "{dir}/" + dump],
            then=["solve", "--config", "{dir}/" + dump]))
        m, lam, rmax = _draw(rng)
        reqs.append(dict(kind="lifetime", argv=[
            "lifetime", *_flags(m, lam, rng.uniform(0.0, 0.45), CLI_SMALL_N, rmax),
            "--energy", repr(m * rng.uniform(1.2, 2.0))]))
        m, lam, rmax = _draw(rng)
        reqs.append(dict(kind="solve", argv=["solve", *_flags(
            m, lam, rng.uniform(0.5, 1.0), CLI_SMALL_N, rmax)]))
    for req in reqs:
        if "csv" in req:
            req["argv"] += ["--out", "{dir}/" + req["csv"]]
    return reqs


def cli_prepare(reqs, workdir):
    """Write the config files the `solve --config` ops read (untimed)."""
    for req in reqs:
        if "config_text" in req:
            with open(os.path.join(workdir, req["config"]), "w", encoding="utf-8") as fh:
                fh.write(req["config_text"])


def _main(argv, workdir):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main([a.replace("{dir}", workdir) for a in argv])
    return rc, out.getvalue()


def cli_run(req, ctx):
    codes, texts = [], []
    for argv in (req["argv"], req.get("then")):
        if argv is not None:
            rc, text = _main(argv, ctx["workdir"])
            codes.append(rc)
            texts.append(text)
    return dict(codes=codes, stdout=texts,
                csv=os.path.join(ctx["workdir"], req["csv"]) if "csv" in req else None)


def _report(text):
    pairs = {}
    for line in text.splitlines():
        key, sep, val = line.partition(": ")
        if sep:
            pairs[key] = val
    return pairs


def cli_check(req, res, ctx):
    bad = [f"exit code {rc}" for rc in res["codes"] if rc != 0]
    if bad:
        return bad
    kind = req["kind"]
    if res["csv"] is not None:
        with open(res["csv"], "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        ctx["csv_bytes"] = ctx.get("csv_bytes", 0) + os.path.getsize(res["csv"])
        header = SWEEP_HEADER if kind.startswith("sweep") else PROFILE_HEADER
        if not lines or not lines[0].startswith("#") or lines[1:2] != [header]:
            bad.append(f"{kind}: bad CSV preamble {lines[:2]!r}")
        if len(lines) - 2 != req["rows"]:
            bad.append(f"{kind}: {len(lines) - 2} CSV rows, expected {req['rows']}")
    report = _report(res["stdout"][-1])
    if kind in ("solve_config", "solve") and "shooting_energy_gev" not in report:
        bad.append(f"{kind}: no shooting energy in report")
    if kind == "roundtrip":
        with open(os.path.join(ctx["workdir"], req["dump"]), encoding="utf-8") as fh:
            dumped = fh.read()
        flags = req["flags"]
        for key, flag in (("m", "--m"), ("lambda", "--lambda"), ("s", "--s")):
            if f"{key}={float(flags[flags.index(flag) + 1])!r}" not in dumped:
                bad.append(f"roundtrip: {key} not preserved in dumped config")
        if not float(report.get("difference_gev", "inf")) <= 1e-6:
            bad.append(f"roundtrip: shooting misses equal-mix energy: {report}")
    if kind == "lifetime" and report.get("energy_source") != "user":
        bad.append(f"lifetime: bad report {report}")
    return bad


def cli_corrupt(req, res, ctx):
    corrupted = [("nonzero exit code", dict(res, codes=[1] + res["codes"][1:]))]
    if res["csv"] is not None:
        short = res["csv"] + ".short"
        with open(res["csv"], "r", encoding="utf-8") as src, \
                open(short, "w", encoding="utf-8") as dst:
            dst.writelines(src.readlines()[:-1])
        corrupted.append(("missing CSV row", dict(res, csv=short)))
    return corrupted


WORKLOADS = {
    "bound": dict(requests=bound_requests, run=bound_run, check=bound_check,
                  corrupt=bound_corrupt, cycle=2 * len(BOUND_N), tail_pct=80),
    "quasibound": dict(requests=quasibound_requests, run=quasibound_run,
                       check=quasibound_check, corrupt=quasibound_corrupt,
                       cycle=3, tail_pct=75),
    "analytic": dict(requests=analytic_requests, run=analytic_run, check=analytic_check,
                     corrupt=analytic_corrupt, cycle=AN_CYCLE, tail_pct=75),
    "cli": dict(requests=cli_requests, run=cli_run, check=cli_check,
                corrupt=cli_corrupt, cycle=7, tail_pct=50, prepare=cli_prepare),
}
