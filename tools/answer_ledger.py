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
names every request whose answer moved; it exits 1 when any did.  The
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
CYCLES = {"bound": 4, "quasibound": 4, "cli": 2}


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


def moved(reference, current):
    """One line per request whose answer differs between the two ledgers."""
    lines = []
    for name in sorted(set(reference) | set(current)):
        old, new = reference.get(name, []), current.get(name, [])
        if len(old) != len(new):
            lines.append(f"{name}: {len(old)} requests in the reference, {len(new)} now")
        for i, (a, b) in enumerate(zip(old, new)):
            for key in sorted(set(a) | set(b)):
                if a.get(key) != b.get(key):
                    lines.append(f"{name}[{i}] {key}: {a.get(key)!r} -> {b.get(key)!r}")
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
