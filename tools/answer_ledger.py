"""The answer ledger: the benchmark's answers, committed and compared.

    python3 tools/answer_ledger.py           # compare with the reference
    python3 tools/answer_ledger.py --write   # rewrite the reference

Runs the first cycles of the seed-7 request lists of the `bound`,
`analytic` and `cli` workloads, and the whole seed-7 and seed-11 lists of
the `quasibound` workload (perfbench/workloads.py, read only), untimed, and
records each request's answer: for `bound` E as a repr
float, the node count and a sha256 of (u, v); for `quasibound` the three
estimates and gamma; for `analytic` the three equal-mix energies, their
node counts, the J0/I0 join values `edge_join` (the two I0 values come
from a threaded I0 call on machines with two CPUs or more), whether the
turning-point profile is finite, gamma, floats as repr, and a sha256 of
each wavefunction's (u, v) and of each 50,000-point profile, arrays the
tool rebuilds from the request and its energies with the workload's
grids, since the workload returns only summaries; for `cli` the
exit codes, stdout with the work directory written as {dir}, and each
CSV's sha256.  A request that raises
records the exception's type and message.  The comparison is exact and
prints how many answers are identical, per workload and in total, then
names every request whose answer moved, giving a quasi-bound estimate's
absolute shift |dE| and its shift as a fraction of the reference's
truncation spread |E(1.1) - E(0.9)|, which alone overstates the move
when that spread is tiny; it exits 1 when any moved.  The
reference, tests/data/answers.json, changes only through --write.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "data" / "answers.json"
SEED = 7
# (workload, seed, cycles run, all when None); a list of another seed than
# SEED is recorded under "<workload> seed <seed>"
LISTS = (("bound", SEED, 4), ("quasibound", SEED, None), ("quasibound", 11, None),
         ("analytic", SEED, 4), ("cli", SEED, 2))


def _sha256(*parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _analytic_digests(req, energies):
    """sha256 of the three wavefunctions' (u, v) and of the two profiles,
    on the grids and coefficients of perfbench's analytic_run."""
    from diraclinear import analytic
    from perfbench import workloads as wl

    m, lam = req["m"], req["lam"]
    top = energies[-1]
    r_hi = (top - m) / lam + 12.0 / (lam * (m + top)) ** (1.0 / 3.0)
    r = np.linspace(0.0, r_hi, wl.AN_WF_POINTS)
    waves = [analytic.equal_mix_wavefunction(m, lam, e, r) for e in energies]
    x = np.concatenate((np.linspace(-4.0 * m, 4.0 * m, wl.AN_PROFILE_POINTS - 3),
                        (-1e-12, 0.0, 1e-12)))
    edge = analytic.vector_profile_continuum_edge(energies[0], m, 1.0, x)
    xt = np.linspace(1e-3 * m, 4.0 * m, wl.AN_PROFILE_POINTS)
    turn = analytic.vector_profile_turning_point(
        energies[0], m, analytic.LocalProfileCoefficients(B=1.0, C=0.5), xt)
    return dict(uv_sha256=[_sha256(w.u.astype("<f8").tobytes(), w.v.astype("<f8").tobytes())
                           for w in waves],
                edge_sha256=_sha256(edge.astype("<f8").tobytes()),
                turn_sha256=_sha256(turn.astype("<f8").tobytes()))


def _answer(name, req, res, workdir):
    if name == "bound":
        return dict(E=repr(res.E), nodes=res.node_count,
                    uv_sha256=_sha256(res.u.astype("<f8").tobytes(),
                                      res.v.astype("<f8").tobytes()))
    if name == "quasibound":
        energies, report = res
        return dict(estimates=[repr(e) for e in energies], gamma=repr(report.gamma))
    if name == "analytic":
        return dict(energies=[repr(e) for e in res["energies"]], nodes=res["nodes"],
                    edge_join=[repr(float(v)) for v in res["edge_join"]],
                    turn_finite=res["turn_finite"], gamma=repr(res["gamma"]),
                    **_analytic_digests(req, res["energies"]))
    answer = dict(kind=req["kind"], codes=res["codes"],
                  stdout=[text.replace(workdir, "{dir}") for text in res["stdout"]])
    if res["csv"] is not None:
        answer["csv_sha256"] = _sha256(Path(res["csv"]).read_bytes())
    return answer


def answers():
    """{workload: [answer per request]} for the ledger's requests."""
    from perfbench.workloads import WORKLOADS

    ledger = {}
    for name, seed, cycles in LISTS:
        spec = WORKLOADS[name]
        reqs = spec["requests"](seed)[:None if cycles is None else cycles * spec["cycle"]]
        with tempfile.TemporaryDirectory() as workdir:
            if "prepare" in spec:
                spec["prepare"](reqs, workdir)
            rows = []
            for req in reqs:
                try:
                    rows.append(_answer(name, req, spec["run"](req, dict(workdir=workdir)),
                                        workdir))
                except (ValueError, RuntimeError) as exc:  # a refusal is an answer too
                    rows.append(dict(error=f"{type(exc).__name__}: {exc}"))
            ledger[name if seed == SEED else f"{name} seed {seed}"] = rows
    return ledger


def _shifts(old, new):
    """Each quasi-bound estimate's shift, old -> new: the absolute |dE|,
    and as a fraction of the reference's truncation spread
    |E(1.1) - E(0.9)|."""
    deltas = [abs(float(b) - float(a)) for a, b in zip(old, new)]
    absolute = ", ".join(f"{d:.3g}" for d in deltas)
    spread = abs(float(old[2]) - float(old[1]))
    if spread == 0.0:
        return f" (|dE| {absolute}; the reference spread is 0)"
    shifts = ", ".join(f"{d / spread:.3g}" for d in deltas)
    return f" (|dE| {absolute}; shifts {shifts} of the reference spread {spread:.3g})"


def moved(reference, current):
    """One line per request whose answer differs between the two ledgers;
    a moved quasi-bound estimate also gives its shifts, absolute and in
    spreads."""
    lines = []
    for name in sorted(set(reference) | set(current)):
        old, new = reference.get(name, []), current.get(name, [])
        if len(old) != len(new):
            lines.append(f"{name}: {len(old)} requests in the reference, {len(new)} now")
        for i, (a, b) in enumerate(zip(old, new)):
            for key in sorted(set(a) | set(b)):
                if a.get(key) != b.get(key):
                    line = f"{name}[{i}] {key}: {a.get(key)!r} -> {b.get(key)!r}"
                    if key == "estimates" and key in a and key in b:
                        line += _shifts(a[key], b[key])
                    lines.append(line)
    return lines


def summary(reference, current):
    """One line: how many of the reference's answers are identical now, in
    total and per workload."""
    counts = {name: (sum(a == b for a, b in zip(rows, current.get(name, []))), len(rows))
              for name, rows in sorted(reference.items())}
    same = sum(n for n, _ in counts.values())
    total = sum(t for _, t in counts.values())
    per = ", ".join(f"{name} {n}/{t}" for name, (n, t) in counts.items())
    return f"{same} of {total} answers identical ({per})"


def read_reference():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    current = answers()
    if args == ["--write"]:
        REFERENCE.parent.mkdir(parents=True, exist_ok=True)
        REFERENCE.write_text(json.dumps(current, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {REFERENCE}")
        return 0
    if args:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    reference = read_reference()
    lines = moved(reference, current)
    print("\n".join([summary(reference, current), *lines]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
