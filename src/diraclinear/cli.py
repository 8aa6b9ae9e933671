"""Command-line front end: eigenvalue solves, wavefunction profiles,
tunneling-lifetime reports, and parameter sweeps.

Reports are line-oriented ``name: value`` pairs; tabular output is CSV
with ``#``-prefixed comment lines, a header row, and full-precision
decimal floats.  The wavefunction profile is formatted and written a
slice of rows at a time, so the whole file is never held in memory.
Energies are in GeV, radii in GeV^-1 (natural units), and the linear
slope lambda in GeV^2.  A key=value config file can seed any run;
explicit flags override file values.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field, fields, replace
from itertools import chain

import numpy as np

from .analytic import equal_mix_energy
from .errors import ScanError, integer
from .model import (
    BindingClass,
    Particle,
    PotentialMix,
    QuantumNumbers,
    RadialGrid,
    classify_binding,
    potentials,
    turning_points,
)
from .shooting import (
    estimate_quasibound_energy,
    find_bound_state,
    integrate_radial,
    suggest_bracket,
)
from .tunneling import gamma_mixed


class UsageError(ValueError):
    """Bad flags or config entries; maps to exit code 2."""


def _setting(default, key, cast, text, command=None, metavar=None):
    """A `RunConfig` field with its config key, cast and help text, the
    one command that takes it (None: all) and its flag metavar."""
    if default is not None:
        text += f" (default {default})"
    return field(default=default, metadata=dict(
        key=key, cast=cast, help=text, command=command, metavar=metavar))


@dataclass(frozen=True)
class RunConfig:
    """Effective run parameters after merging defaults, config file, flags.
    Each field is one setting: config key `key`, flag `--key` (`_` as `-`)."""

    m: float = _setting(1.0, "m", float, "fermion mass in GeV")
    lam: float = _setting(0.2, "lambda", float, "linear slope in GeV^2")
    s: float = _setting(0.5, "s", float, "scalar fraction in [0, 1]")
    k: int = _setting(-1, "k", int, "Dirac quantum number")
    zero_index: int = _setting(1, "zero_index", int,
                               "bound level for s >= 0.5, 1 = ground state; "
                               "the Airy zero index at s = 0.5")
    r_max: float = _setting(25.0, "rmax", float, "outer grid radius in GeV^-1")
    n: int = _setting(20000, "n", int, "number of grid steps")
    out: str | None = _setting(None, "out", str,
                               "CSV output path; with --dump-config, the dump's path",
                               metavar="PATH")
    energy: float | None = _setting(None, "energy", float,
                                    "evaluate the barrier at this energy instead "
                                    "of the quasi-bound estimate",
                                    command="lifetime")

    def validate(self) -> "RunConfig":
        Particle(self.m)
        PotentialMix(self.lam, self.s)
        QuantumNumbers(self.k)
        integer("RunConfig", "zero_index", self.zero_index, 1)
        self.grid()  # validates r_max and n
        return self

    def mix(self) -> PotentialMix:
        return PotentialMix(self.lam, self.s)

    def grid(self) -> RadialGrid:
        return RadialGrid(r_min=1e-6 * self.r_max, r_max=self.r_max, n=self.n)


_SETTINGS = {f.metadata["key"]: f for f in fields(RunConfig)}


def read_config(path: str) -> dict:
    """Parse a key=value config file; '#' starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        setting = _SETTINGS.get(key)
        if setting is None:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[setting.name] = setting.metadata["cast"](val.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def dump_config(cfg: RunConfig) -> str:
    lines = ["# dirac-linear run configuration"]
    for key, setting in _SETTINGS.items():
        val = getattr(cfg, setting.name)
        if val is not None:
            lines.append(f"{key}={val}")
    return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, BindingClass):
        return x.value
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write(path, chunks):
    """Write the strings `chunks` to `path`; failing to is a usage error."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _write_csv(path, comment_fields, header, lines):
    """Write the comment line, the header and the data `lines`, strings of
    one or more whole lines, each ending in a newline."""
    comment = "# " + " ".join(f"{k}={_fmt(v)}" for k, v in comment_fields) + "\n"
    _write(path, chain([comment, ",".join(header) + "\n"], lines))


def _report(pairs):
    for name, value in pairs:
        print(f"{name}: {_fmt(value)}")


def _level(cfg: RunConfig, spread=False):
    """(E, eigenstate or None, truncation spread or None) of `cfg`'s level,
    the one place the CLI picks a solver: for s >= 1/2 the bound state with
    zero_index - 1 nodes, else the quasi-bound estimate and, with `spread`,
    the gap between the estimates at 0.9 and 1.1 of its Dirichlet point."""
    mix, grid = cfg.mix(), cfg.grid()
    if classify_binding(mix) is BindingClass.STRICTLY_BOUND:
        nodes = cfg.zero_index - 1
        bracket = suggest_bracket(cfg.m, mix, cfg.k, grid, nodes=nodes)
        sol = find_bound_state(cfg.m, mix, cfg.k, bracket, grid, nodes=nodes)
        return sol.E, sol, None
    e = estimate_quasibound_energy(cfg.m, mix, cfg.k, grid)
    if not spread:
        return e, None, None
    lo = estimate_quasibound_energy(cfg.m, mix, cfg.k, grid, midpoint_scale=0.9)
    hi = estimate_quasibound_energy(cfg.m, mix, cfg.k, grid, midpoint_scale=1.1)
    return e, None, abs(hi - lo)


def _comment_fields(cfg: RunConfig):
    return [("m", cfg.m), ("lambda", cfg.lam), ("s", cfg.s), ("k", cfg.k)]


def _float_lines(cols):
    """The CSV lines of equal-length float arrays `cols`, one column each,
    as one string: repr of the Python floats is what _fmt writes, without
    its per-cell type dispatch."""
    cells = (map(repr, c.tolist()) for c in cols)
    return "\n".join(map(",".join, zip(*cells))) + "\n"


# Rows the profile writer formats at a time: joining a slice's lines in
# one call costs less than a join per row, and the slice's strings stay a
# small fraction of the file (1024 rows is about 100 kB).
_PROFILE_ROWS = 1024


def _write_profile(cfg: RunConfig, e, sol):
    """Write the r, u, v, V, S profile CSV of the level at `e` to cfg.out,
    shooting it when `sol` is None, formatted _PROFILE_ROWS rows at a time."""
    if sol is None:
        sol = integrate_radial(cfg.m, cfg.mix(), cfg.k, e, cfg.grid())
    cols = (sol.r, sol.u, sol.v, *potentials(cfg.mix(), sol.r))
    _write_csv(cfg.out, _comment_fields(cfg) + [("E", e)], ["r", "u", "v", "V", "S"],
               (_float_lines(c[i:i + _PROFILE_ROWS] for c in cols)
                for i in range(0, sol.r.size, _PROFILE_ROWS)))


def cmd_solve(cfg: RunConfig, args) -> int:
    pairs = [("binding", classify_binding(cfg.mix()))]
    e, sol, spread = _level(cfg, spread=True)
    if sol is None:
        pairs += [("quasibound_energy_gev", e), ("truncation_spread_gev", spread)]
    elif cfg.s == 0.5:
        e_analytic = equal_mix_energy(cfg.m, cfg.lam, cfg.zero_index)
        pairs += [("analytic_energy_gev", e_analytic),
                  ("shooting_energy_gev", e),
                  ("difference_gev", abs(e - e_analytic))]
    else:
        pairs += [("shooting_energy_gev", e)]
    tp = turning_points(cfg.m, e, cfg.mix())
    pairs += [("r1", tp.r1)]
    if tp.r2 is not None:
        pairs += [("r2", tp.r2), ("r3", tp.r3)]
    _report(pairs)
    if cfg.out:
        _write_profile(cfg, e, sol)
    return 0


def cmd_profile(cfg: RunConfig, args) -> int:
    if not cfg.out:
        raise UsageError("profile requires --out <path> for the CSV")
    e, sol, _ = _level(cfg)
    _write_profile(cfg, e, sol)
    print(f"wrote {cfg.out} ({cfg.n + 1} rows), E = {e!r} GeV")
    return 0


def cmd_lifetime(cfg: RunConfig, args) -> int:
    binding = classify_binding(cfg.mix())
    if binding is BindingClass.STRICTLY_BOUND:
        raise ValueError("state is strictly bound (s >= 0.5); no tunneling")
    if cfg.energy is not None:
        if not (cfg.m < cfg.energy < np.inf):
            raise UsageError("--energy must be finite and exceed the mass m")
        e, source, spread = cfg.energy, "user", None
    else:
        e, _, spread = _level(cfg, spread=True)
        source = "estimated"
    rep = gamma_mixed(cfg.m, cfg.mix(), e)
    pairs = [("binding", binding), ("energy_gev", e), ("energy_source", source)]
    if spread is not None:
        pairs.append(("truncation_spread_gev", spread))
    pairs += [("gamma", rep.gamma),
              ("tau_over_tau0", rep.tau_ratio),
              ("r1", rep.r1), ("r2", rep.r2), ("r3", rep.r3)]
    _report(pairs)
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    param, (lo, hi), steps = args.param, args.range, args.steps
    if not cfg.out:
        raise UsageError("sweep requires --out <path> for the CSV")
    if steps < 2:
        raise UsageError("sweep needs at least 2 steps")
    if not np.isfinite([lo, hi]).all():
        raise UsageError(f"sweep range ({lo}, {hi}) must be finite")
    attr = _SETTINGS[param].name
    rows = []
    for value in np.linspace(lo, hi, steps):
        row_cfg = replace(cfg, **{attr: float(value)})
        try:
            row_cfg.validate()
        except ValueError as exc:
            raise UsageError(f"sweep value {param}={value} out of domain: {exc}") from exc
        mix = row_cfg.mix()
        e, sol, _ = _level(row_cfg)
        gamma = tau = None
        if sol is None:
            rep = gamma_mixed(row_cfg.m, mix, e)
            gamma, tau = rep.gamma, rep.tau_ratio
        tp = turning_points(row_cfg.m, e, mix)
        rows.append([param, float(value), e, gamma, tau, tp.r1, tp.r2, tp.r3,
                     classify_binding(mix)])
    _write_csv(cfg.out, _comment_fields(cfg) + [("param", param)],
               ["param", "value", "E", "gamma", "tau_ratio", "r1", "r2", "r3", "binding"],
               (",".join(_fmt(c) for c in row) + "\n" for row in rows))
    print(f"wrote {cfg.out} ({steps} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value config file")
    parser = argparse.ArgumentParser(
        prog="dirac-linear",
        description="One-body radial Dirac equation with a linear confining "
                    "potential of arbitrary Lorentz vector/scalar mix "
                    "(natural units; energies in GeV).")
    sub = parser.add_subparsers(dest="command", required=True)
    only = {"lifetime": argparse.ArgumentParser(add_help=False)}
    for key, setting in _SETTINGS.items():
        meta = setting.metadata
        only.get(meta["command"], common).add_argument(
            "--" + key.replace("_", "-"), dest=setting.name, type=meta["cast"],
            help=meta["help"], metavar=meta["metavar"])
    common.add_argument("--dump-config", action="store_true",
                        help="print the effective configuration and exit")

    sub.add_parser("solve", parents=[common],
                   help="eigenvalue report (analytic and/or shooting)"
                   ).set_defaults(run=cmd_solve)
    sub.add_parser("profile", parents=[common],
                   help="write the radial wavefunction profile as CSV"
                   ).set_defaults(run=cmd_profile)
    sub.add_parser("lifetime", parents=[common, only["lifetime"]],
                   help="Gamow barrier integral and lifetime ratio"
                   ).set_defaults(run=cmd_lifetime)
    sweep = sub.add_parser("sweep", parents=[common],
                           help="sweep s, lambda, or m and tabulate")
    sweep.set_defaults(run=cmd_sweep)
    sweep.add_argument("--param", required=True, choices=["s", "lambda", "m"])
    sweep.add_argument("--range", nargs=2, type=float, required=True,
                       metavar=("LO", "HI"))
    sweep.add_argument("--steps", type=int, default=25,
                       help="number of rows (default 25)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built by the first main call: a
    parse leaves the parser as it found it, so calls can share it."""
    return build_parser()


def make_config(args) -> RunConfig:
    values = read_config(args.config) if args.config else {}
    for f in fields(RunConfig):
        only = f.metadata["command"]
        if f.name in values and only not in (None, args.command):
            raise UsageError(f"{args.config}: config key {f.metadata['key']!r} "
                             f"is taken only by the {only} command")
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    try:
        return RunConfig(**values).validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = make_config(args)
        if args.dump_config:
            # --out names the dump, so the dump does not record it
            text = dump_config(replace(cfg, out=None))
            if cfg.out:
                _write(cfg.out, [text])
            else:
                sys.stdout.write(text)
            return 0
        return args.run(cfg, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ScanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
