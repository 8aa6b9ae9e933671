"""The answer ledger: the benchmark's answers, committed and compared.

    python3 tools/answer_ledger.py           # compare with the reference
    python3 tools/answer_ledger.py --write   # rewrite the reference

Runs the first cycles of the seed-7 request lists of the `bound`,
`quasibound` and `cli` workloads (perfbench/workloads.py, read only),
untimed, and records each request's answer: for `bound` E as a repr float,
the node count and a sha256 of (u, v); for `quasibound` the three
estimates and gamma; for `cli` the exit codes, stdout with the work
directory written as {dir}, and each CSV's sha256.  A request that raises
records the exception's type and message.  The comparison is exact and
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

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "data" / "answers.json"
SEED = 7
CYCLES = {"bound": 4, "quasibound": 13, "cli": 2}


def _sha256(*parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _answer(name, req, res, workdir):
    if name == "bound":
        return dict(E=repr(res.E), nodes=res.node_count,
                    uv_sha256=_sha256(res.u.astype("<f8").tobytes(),
                                      res.v.astype("<f8").tobytes()))
    if name == "quasibound":
        energies, report = res
        return dict(estimates=[repr(e) for e in energies], gamma=repr(report.gamma))
    answer = dict(kind=req["kind"], codes=res["codes"],
                  stdout=[text.replace(workdir, "{dir}") for text in res["stdout"]])
    if res["csv"] is not None:
        answer["csv_sha256"] = _sha256(Path(res["csv"]).read_bytes())
    return answer


def answers():
    """{workload: [answer per request]} for the ledger's requests."""
    from perfbench.workloads import WORKLOADS

    ledger = {}
    for name, cycles in CYCLES.items():
        spec = WORKLOADS[name]
        reqs = spec["requests"](SEED)[:cycles * spec["cycle"]]
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
            ledger[name] = rows
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
    lines = moved(read_reference(), current)
    print("\n".join(lines) if lines else "every answer is identical to the reference")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
