"""Command-line interface: reports, CSV contracts, config round trips."""

import functools
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from diraclinear import (
    PotentialMix,
    RadialGrid,
    equal_mix_energy,
    estimate_quasibound_energy,
    find_bound_state,
    gamma_mixed,
    suggest_bracket,
    turning_points,
)
from diraclinear import cli
from diraclinear.cli import (
    RunConfig,
    build_parser,
    dump_config,
    main,
    make_config,
    read_config,
)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    pairs = {}
    for line in out.strip().splitlines():
        name, _, value = line.partition(":")
        pairs[name.strip()] = value.strip()
    return pairs


def read_strict_csv(path):
    """Strict reader: '#' comments, one header, constant column count,
    decimal-parseable cells (empty allowed)."""
    header, rows = None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            assert line.endswith("\n")
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            cells = line.split(",")
            if header is None:
                header = cells
                continue
            assert len(cells) == len(header), "ragged row"
            rows.append(cells)
    return header, rows


def cell_float(c):
    return math.nan if c == "" else float(c)


def test_dump_config_round_trip(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    code, _, _ = run_cli(capsys, "solve", "--m", "1.3", "--lambda", "0.33",
                         "--s", "0.2", "--k", "-2", "--n", "1234",
                         "--dump-config", "--out", str(path))
    assert code == 0
    reparsed = RunConfig(**read_config(str(path)))
    # --out names the dump itself, so the dump does not record it
    expected = RunConfig(m=1.3, lam=0.33, s=0.2, k=-2, n=1234)
    assert reparsed == expected
    # and dumping the reparsed config reproduces the same text
    assert dump_config(reparsed) == dump_config(expected)


def test_dumped_config_survives_its_reuse(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    code, _, _ = run_cli(capsys, "solve", "--n", "1000", "--rmax", "20",
                         "--dump-config", "--out", str(path))
    assert code == 0
    dumped = path.read_bytes()
    code, out, _ = run_cli(capsys, "solve", "--config", str(path))
    assert code == 0
    assert "shooting_energy_gev" in parse_report(out)
    assert path.read_bytes() == dumped


def _outcomes(capsys, argvs):
    """(exit code, stdout, stderr) of one main call per argv, in turn."""
    outcomes = []
    for argv in argvs:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's own exits: a bad flag, --help
            code = exc.code
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


def test_main_calls_share_one_parser(monkeypatch, tmp_path, capsys):
    dump = str(tmp_path / "run.cfg")
    argvs = [["solve", "--n", "2000", "--rmax", "20"],
             ["solve", "--m"],  # an argparse error: exit 2
             ["solve", "--help"],
             ["profile", "--n", "2000"],  # a UsageError: no --out
             ["lifetime", "--s", "0.7", "--n", "1000"],  # strictly bound: exit 1
             ["solve", "--s", "0.3", "--dump-config"],
             ["solve", "--n", "1000", "--dump-config", "--out", dump],
             ["solve", "--config", dump],
             ["sweep", "--param", "s", "--range", "0.5", "0.6", "--steps", "2"]]
    builds = []
    real = cli.build_parser

    def counting():
        builds.append(None)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    # an empty cache of its own, so that this process's parser is not reused
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
    shared = _outcomes(capsys, argvs)
    assert len(builds) == 1
    monkeypatch.setattr(cli, "_parser", counting)  # a fresh parser per call
    fresh = _outcomes(capsys, argvs)
    assert len(builds) == 1 + len(argvs)
    assert [code for code, _, _ in shared] == [0, 2, 0, 2, 1, 0, 0, 0, 2]
    assert shared == fresh
    assert build_parser() is not build_parser()


# a value other than the default for every setting
SETTING_VALUES = dict(m=1.3, lam=0.33, s=0.2, k=-2, zero_index=2, r_max=30.0,
                      n=1234, out="x.csv", energy=1.7)


@pytest.mark.parametrize("setting", fields(RunConfig), ids=lambda f: f.name)
def test_setting_as_flag_equals_setting_as_config_key(setting, tmp_path):
    value = SETTING_VALUES[setting.name]
    assert value != setting.default
    key = setting.metadata["key"]
    command = setting.metadata["command"] or "solve"
    cfg_path = tmp_path / "one.cfg"
    cfg_path.write_text(f"{key}={value}\n")
    parser = build_parser()
    by_flag = make_config(parser.parse_args(
        [command, "--" + key.replace("_", "-"), str(value)]))
    by_key = make_config(parser.parse_args([command, "--config", str(cfg_path)]))
    assert by_flag == by_key == RunConfig(**{setting.name: value})
    assert f"{key}={value}" in dump_config(by_key).splitlines()


def _readme_commands():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("dirac-linear ")]


def test_readme_commands_parse(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("")
    for argv in commands:
        code, _, err = run_cli(capsys, *argv[1:], "--dump-config")
        assert code == 0, (argv, err)


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("# comment line\nm=1.0\nlambda=0.2\ns=0.0\nn=2000\nrmax=20.0\n")
    code, out, _ = run_cli(capsys, "solve", "--config", str(cfg), "--s", "1.0",
                           "--dump-config")
    assert code == 0
    assert "s=1.0" in out          # flag wins
    assert "n=2000" in out         # file value survives


def test_non_utf8_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"m=1.0\n# caf\xe9\n")
    code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 2
    assert "cannot read config" in err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mass=1.0\n")
    code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 2
    assert "mass" in err


def test_invalid_flag_value_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--s", "1.5")
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1  # one-line diagnostic


def test_solve_equal_mix_reports_both_paths(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "4000", "--rmax", "20")
    assert code == 0
    rep = parse_report(out)
    assert rep["binding"] == "StrictlyBound"
    assert abs(float(rep["analytic_energy_gev"]) - 1.5828) < 5e-4
    assert abs(float(rep["shooting_energy_gev"]) - 1.5828) < 2e-3
    assert float(rep["difference_gev"]) < 1e-3
    assert "r2" not in rep


def test_solve_zero_index_targets_that_level(capsys):
    # the shooting solve must find the same level as the analytic zero index
    code, out, _ = run_cli(capsys, "solve", "--zero-index", "2", "--n", "4000")
    assert code == 0
    assert float(parse_report(out)["difference_gev"]) < 1e-3


def test_solve_level_above_the_scan_window(capsys):
    # level 28, E = 5.6787, lies above the scan window (1, 5.472) but its
    # turning point r1 = 23.4 lies on the default 25-long grid
    code, out, _ = run_cli(capsys, "solve", "--zero-index", "28")
    assert code == 0
    rep = parse_report(out)
    assert float(rep["analytic_energy_gev"]) == equal_mix_energy(1.0, 0.2, 28)
    # only 1.6 past r1 the grid ends before the tail has decayed, which
    # raises the box's level by 5.74e-4; a 32-long grid holds the tail
    assert float(rep["difference_gev"]) < 1e-3
    code, out, _ = run_cli(capsys, "solve", "--zero-index", "28", "--rmax", "32")
    assert code == 0
    assert float(parse_report(out)["difference_gev"]) < 1e-8


def test_solve_quasibound_reports_classification_and_radii(capsys):
    code, out, _ = run_cli(capsys, "solve", "--s", "0.2", "--n", "4000")
    assert code == 0
    rep = parse_report(out)
    assert rep["binding"] == "QuasiBound"
    for key in ("quasibound_energy_gev", "truncation_spread_gev", "r1", "r2", "r3"):
        assert key in rep


def test_solve_pure_scalar_omits_continuum_radii(capsys):
    code, out, _ = run_cli(capsys, "solve", "--s", "1.0", "--n", "4000", "--rmax", "20")
    assert code == 0
    rep = parse_report(out)
    assert "shooting_energy_gev" in rep
    assert "r1" in rep and "r2" not in rep and "r3" not in rep


def test_profile_equal_mix_csv(tmp_path, capsys):
    out_path = tmp_path / "profile.csv"
    code, _, _ = run_cli(capsys, "profile", "--n", "2000", "--rmax", "20",
                         "--out", str(out_path))
    assert code == 0
    header, rows = read_strict_csv(out_path)
    assert header == ["r", "u", "v", "V", "S"]
    assert len(rows) == 2001
    first_line = out_path.read_text().splitlines()[0]
    for token in ("m=", "lambda=", "s=", "k=", "E="):
        assert token in first_line
    u = np.array([cell_float(row[1]) for row in rows])
    s = np.sign(u[1:-1])
    s = s[s != 0]
    assert np.count_nonzero(s[1:] * s[:-1] < 0) == 0  # ground state: no node
    # V and S columns reproduce the split
    r = np.array([cell_float(row[0]) for row in rows])
    v_pot = np.array([cell_float(row[3]) for row in rows])
    assert np.allclose(v_pot, 0.5 * 0.2 * r)


def test_profile_pure_vector_oscillates_beyond_edge(tmp_path, capsys):
    out_path = tmp_path / "vector.csv"
    code, _, _ = run_cli(capsys, "profile", "--s", "0", "--n", "8000",
                         "--rmax", "30", "--out", str(out_path))
    assert code == 0
    _, rows = read_strict_csv(out_path)
    r = np.array([cell_float(row[0]) for row in rows])
    u = np.array([cell_float(row[1]) for row in rows])
    r2 = 13.0  # (E+m)/lambda for the estimated E ~ 1.6
    s = np.sign(u[r > r2])
    s = s[s != 0]
    assert np.count_nonzero(s[1:] * s[:-1] < 0) >= 1


def test_profile_requires_out(capsys):
    code, _, err = run_cli(capsys, "profile", "--n", "2000")
    assert code == 2
    assert "--out" in err


def test_lifetime_pure_vector(capsys):
    code, out, _ = run_cli(capsys, "lifetime", "--s", "0", "--n", "4000")
    assert code == 0
    rep = parse_report(out)
    assert abs(float(rep["gamma"]) - 7.854) < 1e-3
    assert float(rep["tau_over_tau0"]) == pytest.approx(6.63e6, rel=1e-2)
    assert rep["energy_source"] == "estimated"


def test_lifetime_gamma_three_and_a_half(capsys):
    lam = math.pi / 7.0
    code, out, _ = run_cli(capsys, "lifetime", "--s", "0", "--n", "4000",
                           "--lambda", repr(lam))
    assert code == 0
    rep = parse_report(out)
    assert float(rep["gamma"]) == pytest.approx(3.5, rel=1e-12)
    assert float(rep["tau_over_tau0"]) == pytest.approx(1.10e3, rel=1e-2)


def test_lifetime_user_energy_and_monotonicity(capsys):
    _, out0, _ = run_cli(capsys, "lifetime", "--s", "0", "--energy", "1.5828")
    _, out45, _ = run_cli(capsys, "lifetime", "--s", "0.45", "--energy", "1.5828")
    rep0, rep45 = parse_report(out0), parse_report(out45)
    assert rep0["energy_source"] == "user"
    assert float(rep45["gamma"]) > float(rep0["gamma"])


@pytest.mark.filterwarnings("error")
def test_lifetime_past_dbl_max_reports_an_infinite_lifetime(capsys):
    # gamma passes DBL_MAX: inf, with no quadrature warning on stderr
    code, out, err = run_cli(capsys, "lifetime", "--m", "1e200", "--energy", "2e200",
                             "--s", "0.25")
    assert code == 0 and err == ""
    report = parse_report(out)
    assert report["gamma"] == "inf" and report["tau_over_tau0"] == "inf"


def test_lifetime_strictly_bound_is_error(capsys):
    code, _, err = run_cli(capsys, "lifetime", "--s", "0.5")
    assert code == 1
    assert "strictly bound" in err and "no tunneling" in err


def test_sweep_scalar_fraction_monotone_gamma(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--param", "s", "--range", "0", "0.49",
                         "--steps", "6", "--n", "2000", "--out", str(out_path))
    assert code == 0
    header, rows = read_strict_csv(out_path)
    assert header == ["param", "value", "E", "gamma", "tau_ratio",
                      "r1", "r2", "r3", "binding"]
    gammas = [cell_float(row[3]) for row in rows]
    assert all(b >= a for a, b in zip(gammas, gammas[1:]))


def test_sweep_lambda_pure_vector_halves_gamma(tmp_path, capsys):
    out_path = tmp_path / "lam.csv"
    code, _, _ = run_cli(capsys, "sweep", "--param", "lambda", "--range",
                         "0.2", "0.4", "--steps", "2", "--s", "0",
                         "--n", "2000", "--out", str(out_path))
    assert code == 0
    _, rows = read_strict_csv(out_path)
    g_02, g_04 = cell_float(rows[0][3]), cell_float(rows[1][3])
    assert g_02 == pytest.approx(math.pi / 0.4, rel=1e-12)
    assert g_04 == pytest.approx(g_02 / 2.0, rel=1e-12)


def test_sweep_crossing_half_flips_binding(tmp_path, capsys):
    out_path = tmp_path / "cross.csv"
    code, _, _ = run_cli(capsys, "sweep", "--param", "s", "--range", "0.3", "0.7",
                         "--steps", "5", "--n", "2000", "--rmax", "20",
                         "--out", str(out_path))
    assert code == 0
    _, rows = read_strict_csv(out_path)
    bindings = [row[8] for row in rows]
    values = [cell_float(row[1]) for row in rows]
    for val, binding, row in zip(values, bindings, rows):
        if val >= 0.5:
            assert binding == "StrictlyBound"
            assert row[3] == "" and row[4] == ""  # empty gamma/tau cells
        else:
            assert binding == "QuasiBound"
            assert row[3] != ""


def test_sweep_zero_index_targets_that_level(tmp_path, capsys):
    out_path = tmp_path / "level2.csv"
    code, _, _ = run_cli(capsys, "sweep", "--param", "s", "--range", "0.5", "0.6",
                         "--steps", "2", "--zero-index", "2", "--n", "4000",
                         "--out", str(out_path))
    assert code == 0
    _, rows = read_strict_csv(out_path)
    # the second equal-mix level is 1.97236; the ground state is 1.58280
    assert abs(cell_float(rows[0][2]) - equal_mix_energy(1.0, 0.2, 2)) < 1e-3


def _reference_csv(comment_fields, header, rows):
    """The bytes of a CSV written one cell at a time: repr of each float,
    str of each int and string, and an empty cell for None."""
    def cell(c):
        if c is None:
            return ""
        if isinstance(c, (str, int)):
            return str(c)
        return repr(float(c))

    lines = ["# " + " ".join(f"{k}={cell(v)}" for k, v in comment_fields),
             ",".join(header)]
    lines += [",".join(cell(c) for c in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_profile_csv_bytes_golden(tmp_path, capsys):
    out_path = tmp_path / "golden.csv"
    code, _, _ = run_cli(capsys, "profile", "--n", "1500", "--rmax", "20",
                         "--s", "0.75", "--k", "1", "--out", str(out_path))
    assert code == 0
    mix, grid = PotentialMix(0.2, 0.75), RadialGrid(r_min=1e-6 * 20.0, r_max=20.0, n=1500)
    sol = find_bound_state(1.0, mix, 1, suggest_bracket(1.0, mix, 1, grid, nodes=0),
                           grid, nodes=0)
    rows = zip(sol.r, sol.u, sol.v, 0.25 * 0.2 * sol.r, 0.75 * 0.2 * sol.r)
    expected = _reference_csv([("m", 1.0), ("lambda", 0.2), ("s", 0.75), ("k", 1),
                               ("E", sol.E)], ["r", "u", "v", "V", "S"], rows)
    assert out_path.read_bytes() == expected


ROWS = cli._PROFILE_ROWS


@pytest.mark.parametrize("rows", [ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1, 101],
                         ids=["slice-minus-1", "one-slice", "slice-plus-1",
                              "two-slices-plus-1", "within-one-slice"])
def test_profile_csv_bytes_across_slice_boundaries(tmp_path, rows):
    # the writer formats a slice of rows at a time; a grid of n steps has
    # n + 1 rows
    out_path = tmp_path / "profile.csv"
    cfg = RunConfig(s=0.75, k=1, r_max=20.0, n=rows - 1, out=str(out_path)).validate()
    mix, grid = cfg.mix(), cfg.grid()
    sol = find_bound_state(1.0, mix, 1, suggest_bracket(1.0, mix, 1, grid, nodes=0),
                           grid, nodes=0)
    cli._write_profile(cfg, sol.E, sol)
    data = zip(sol.r, sol.u, sol.v, 0.25 * 0.2 * sol.r, 0.75 * 0.2 * sol.r)
    expected = _reference_csv([("m", 1.0), ("lambda", 0.2), ("s", 0.75), ("k", 1),
                               ("E", sol.E)], ["r", "u", "v", "V", "S"], data)
    assert out_path.read_bytes() == expected
    assert expected.count(b"\n") == rows + 2


def test_profile_writer_never_holds_the_whole_file(tmp_path):
    # at n = 20000 the writer's traced peak, its potentials included, stays
    # below half the size of the file it writes
    out_path = tmp_path / "profile.csv"
    cfg = RunConfig(n=20000, out=str(out_path)).validate()
    mix, grid = cfg.mix(), cfg.grid()
    sol = find_bound_state(1.0, mix, -1, suggest_bracket(1.0, mix, -1, grid), grid)
    tracemalloc.start()
    try:
        cli._write_profile(cfg, sol.E, sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out_path.stat().st_size
    assert size > 1_500_000
    assert peak < size / 2, f"peak {peak} bytes for a file of {size}"


def test_sweep_csv_bytes_golden(tmp_path, capsys):
    out_path = tmp_path / "golden.csv"
    code, _, _ = run_cli(capsys, "sweep", "--param", "s", "--range", "0.3", "0.7",
                         "--steps", "3", "--zero-index", "2", "--n", "1000",
                         "--rmax", "20", "--out", str(out_path))
    assert code == 0
    grid = RadialGrid(r_min=1e-6 * 20.0, r_max=20.0, n=1000)
    rows = []
    for s in np.linspace(0.3, 0.7, 3):
        mix = PotentialMix(0.2, float(s))
        if s < 0.5:
            e = estimate_quasibound_energy(1.0, mix, -1, grid)
            rep = gamma_mixed(1.0, mix, e)
            rows.append(["s", s, e, rep.gamma, rep.tau_ratio, rep.r1, rep.r2, rep.r3,
                         "QuasiBound"])
        else:
            bracket = suggest_bracket(1.0, mix, -1, grid, nodes=1)
            e = find_bound_state(1.0, mix, -1, bracket, grid, nodes=1).E
            rows.append(["s", s, e, None, None, turning_points(1.0, e, mix).r1,
                         None, None, "StrictlyBound"])
    expected = _reference_csv([("m", 1.0), ("lambda", 0.2), ("s", 0.5), ("k", -1),
                               ("param", "s")],
                              ["param", "value", "E", "gamma", "tau_ratio",
                               "r1", "r2", "r3", "binding"], rows)
    assert out_path.read_bytes() == expected


def test_sweep_requires_out(capsys):
    code, _, err = run_cli(capsys, "sweep", "--param", "s", "--range", "0", "0.4")
    assert code == 2
    assert "--out" in err


def test_sweep_range_outside_domain_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--param", "s", "--range",
                           "-0.2", "0.4", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "out of domain" in err


@pytest.mark.parametrize("argv", [["profile", "--n", "2000"], ["solve", "--dump-config"]],
                         ids=["profile", "dump"])
def test_unwritable_output_is_reported(argv, tmp_path, capsys):
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "missing-dir" / "x"))
    assert code == 2
    assert err.startswith("error: cannot write")


@pytest.mark.parametrize("argv, expected", [
    # the grid step is about 6e4 Airy lengths: refused before any shot
    # (the scan's bisection once closed on adjacent doubles there)
    (["solve", "--lambda", "1e12", "--n", "500"], 1),
    # every scan energy rounds to m
    (["solve", "--m", "1e300"], 1),
    (["sweep", "--param", "m", "--range", "1", "1e300", "--steps", "2",
      "--out", "{tmp}/x.csv"], 1),
    # past the scan window the energy indices exceed 2^52
    (["solve", "--lambda", "1e300", "--n", "100"], 1),
    # an extreme equal-mix point on the same unresolved grid: refused
    # before any shot, where it reported a level 5e4 times the Airy one
    (["solve", "--m", "1e-300", "--lambda", "1e12", "--n", "500"], 1),
    # E - m and E + m round to the same double: in every scan energy, and
    # in a given energy
    (["lifetime", "--lambda", "1e40", "--s", "0.25", "--n", "500"], 1),
    (["lifetime", "--s", "0.25", "--energy", "5e20"], 1),
], ids=["adjacent-doubles", "huge-mass", "huge-mass-sweep", "huge-slope", "analytic-bracket",
        "huge-slope-lifetime", "huge-energy-lifetime"])
def test_extreme_settings_end(argv, expected, tmp_path):
    # each of these ran forever before it was fixed, so it runs in a
    # process of its own under a timeout
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "diraclinear.cli",
                           *[a.format(tmp=tmp_path) for a in argv]],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == expected, proc.stderr
    if expected:
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    else:
        assert proc.stderr == ""


# a warning would print on stderr ahead of the error line
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, expected", [
    (["solve", "--rmax", "1e300", "--n", "100"], 1),  # r_min^2 overflows
    (["sweep", "--param", "s", "--range", "0", "inf", "--steps", "2"], 2),
], ids=["launch-overflow", "infinite-range"])
def test_extreme_settings_report_one_error_line(argv, expected, tmp_path, capsys):
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "x.csv"))
    assert code == expected
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, n", [
    (["solve", "--lambda", "1e12", "--n", "500"], 123419396),
    (["solve", "--m", "1e-300", "--lambda", "1e12", "--n", "500"], 123419363),
], ids=["adjacent-doubles", "analytic-bracket"])
def test_unresolved_grid_names_the_n_that_resolves_it(argv, n, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"(--n {n})" in err and "Airy length" in err


def test_huge_mass_coarse_grid_fails_in_the_scan(capsys):
    # at h E ~ 2.5e11 the node counts once depended on the shot before, so
    # the solve re-shot the scan's bracket and refuted it with a
    # BracketError; the grid's step is about 1800 Airy lengths, and the
    # scan now refuses it before any shot
    code, out, err = run_cli(capsys, "solve", "--m", "1e12", "--n", "100")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "tail shape is identical" not in err


@pytest.mark.parametrize("m, message", [
    # the scan's first energy rounds to m: the estimator's own guard
    ("1e16", "the scan step"),
    # resolved energies, but the first of them already counts a sign change
    ("1e12", "does not resolve the levels"),
], ids=["unresolved", "level-below-the-first-energy"])
def test_huge_mass_lifetime_fails_with_a_scan_error(m, message, capsys):
    code, out, err = run_cli(capsys, "lifetime", "--m", m, "--s", "0.25", "--n", "500")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err
    assert "turning points" not in err


@pytest.mark.parametrize("argv", [
    # the scan step crosses two Dirichlet levels: the estimate was the
    # second, binding 0.139 GeV against about 0.023
    ["lifetime", "--m", "2e4", "--s", "0.25"],
    # the first scan energy lies above three levels: the estimate was the
    # 6th level, binding 0.0716 GeV against 0.0186
    ["lifetime", "--m", "1e6", "--lambda", "1", "--s", "0.25", "--n", "500"],
    # the ground level lies below the first scan energy
    ["solve", "--m", "1e6", "--lambda", "1", "--s", "0.5"],
], ids=["lifetime-two-levels", "lifetime-below-first-energy", "solve-below-first-energy"])
def test_unresolved_scan_names_its_step(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "the scan step" in err and "does not resolve the levels" in err


def test_coarse_lifetime_grid_keeps_its_accurate_estimate(capsys):
    # the node scan's guard, a step over a quarter of the Airy length at
    # the WKB level, would refuse this estimator grid and name --n 113;
    # yet its estimate is 3.5e-9 from the n = 20000 one, 4.7982984387, so
    # the estimator's threshold must come from an accuracy property
    code, out, err = run_cli(capsys, "lifetime", "--k", "-30", "--s", "0.25", "--n", "100")
    assert code == 0 and err == ""
    assert "energy_gev: 4.7982984351" in out
    energy = float(out.split("energy_gev: ")[1].split()[0])
    assert abs(energy - 4.7982984387) <= 1e-8


def test_huge_slope_lifetime_names_lambda(capsys):
    # every scan energy E is so far above m that E - m and E + m round alike
    code, out, err = run_cli(capsys, "lifetime", "--lambda", "1e40", "--s", "0.25", "--n", "500")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "lambda = 1e+40" in err and "r1 < r2 <= r3" not in err


@pytest.mark.parametrize("command", ["solve", "profile"])
def test_turning_point_in_the_last_step_solves(command, tmp_path, capsys):
    # r1 = 3.2994 lies in the grid's last step; the level is the box's
    code, out, err = run_cli(capsys, command, "--rmax", "3.31", "--n", "100",
                             "--out", str(tmp_path / "x.csv"))
    assert code == 0 and err == ""
    assert "zero-size" not in out


@pytest.mark.parametrize("argv", [
    ["solve", "--m", "inf", "--n", "100"],
    ["solve", "--lambda", "inf", "--n", "100"],
    ["lifetime", "--s", "0.2", "--energy", "inf"],
], ids=["mass", "slope", "energy"])
def test_infinite_setting_is_usage_error(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "finite" in err


@pytest.mark.parametrize("command", ["solve", "profile", "sweep"])
def test_energy_config_key_outside_lifetime_is_usage_error(command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s=0.25\nn=1000\nenergy=1.6\n")
    extra = ["--param", "s", "--range", "0", "0.4"] if command == "sweep" else []
    code, out, err = run_cli(capsys, command, "--config", str(cfg), *extra,
                             "--out", str(tmp_path / "x.csv"))
    assert code == 2 and out == ""
    assert "'energy'" in err and "lifetime" in err
    assert err.startswith("error:") and err.count("\n") == 1
    code, out, _ = run_cli(capsys, "lifetime", "--config", str(cfg))
    assert code == 0 and parse_report(out)["energy_source"] == "user"


@pytest.mark.parametrize("s", ["0.75", "0.2"])
def test_solve_and_profile_write_the_same_profile(s, tmp_path, capsys):
    flags = ["--s", s, "--k", "1", "--n", "1500", "--rmax", "20"]
    code, _, _ = run_cli(capsys, "solve", *flags, "--out", str(tmp_path / "solve.csv"))
    assert code == 0
    code, _, _ = run_cli(capsys, "profile", *flags, "--out", str(tmp_path / "profile.csv"))
    assert code == 0
    assert (tmp_path / "solve.csv").read_bytes() == (tmp_path / "profile.csv").read_bytes()
