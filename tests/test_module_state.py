"""No module-level solver state: a solve leaves every diraclinear module's
globals as it found them, so that a shot's result depends only on its
arguments and the grid it is given, never on the calls made before it.
Nor does it leave a thread running: the Bessel functions' threads are
started and joined within each call."""

import os
import sys
import threading

import numpy as np

from diraclinear import (
    LocalProfileCoefficients,
    PotentialMix,
    RadialGrid,
    estimate_quasibound_energy,
    find_bound_state,
    suggest_bracket,
    vector_profile_continuum_edge,
    vector_profile_turning_point,
)
from diraclinear.cli import main


def _globals():
    """{module name: {global name: id}} for diraclinear and its submodules."""
    return {name: {k: id(v) for k, v in vars(mod).items()}
            for name, mod in sys.modules.items()
            if name == "diraclinear" or name.startswith("diraclinear.")}


def test_solves_leave_every_module_global_unchanged(tmp_path, capsys, monkeypatch):
    # two CPUs or more, so that the 50,000-point profiles split across threads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    threads = threading.active_count()
    before = _globals()
    assert "diraclinear.shooting" in before and "diraclinear._kernels" in before
    grid = RadialGrid(12e-6, 12.0, 2000)
    mix = PotentialMix(0.2, 0.5)
    find_bound_state(1.0, mix, -1, suggest_bracket(1.0, mix, -1, grid), grid)
    hint = RadialGrid(25e-6, 25.0, 500)
    for scale in (1.0, 0.9, 1.1):
        estimate_quasibound_energy(1.0, PotentialMix(0.2, 0.25), -1, hint, scale)
    assert main(["profile", "--n", "2000", "--rmax", "20",
                 "--out", str(tmp_path / "profile.csv")]) == 0
    capsys.readouterr()
    x = np.linspace(1e-3, 4.0, 50_000)
    vector_profile_turning_point(1.6, 1.0, LocalProfileCoefficients(B=1.0, C=0.5), x)
    vector_profile_continuum_edge(1.6, 1.0, 1.0, x - 2.0)
    assert _globals() == before
    assert threading.active_count() == threads
