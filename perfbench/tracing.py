"""Span tracer for the traced benchmark run.

The package imports its callees by name (``from ._kernels import rk4_path``),
so a call is intercepted by replacing the attribute at the module that looks
it up, not at the module that defines it.  Every target below is a public
function of the library; the wrappers live here and the library is unchanged.
Spans are kept in memory and turned into per-layer metrics at the end.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np


def _rk4_info(args, kwargs, result):
    # rk4_path(m, lam, s, k, E, r0, h, n, u0, v0) -> (u, v, stop, sign); the
    # loop runs n steps, or stop + 1 when it broke off at the overflow cap
    n, stop = args[7], result[2]
    return (int(n if stop >= n else stop + 1), bool(args[6] < 0))


def _first_arg_points(args, kwargs, result):
    return int(np.size(args[0]))


def _last_arg_points(args, kwargs, result):
    return int(np.size(args[-1]))


def _bracket_width(args, kwargs, result):
    lo, hi = args[3]
    return float(hi) - float(lo)


# (module, attribute looked up by callers there, span name, info extractor)
TARGETS = [
    ("shooting", "rk4_path", "kernels.rk4_path", _rk4_info),
    ("shooting", "integrate_radial", "shooting.integrate_radial", None),
    ("cli", "integrate_radial", "shooting.integrate_radial", None),
    ("shooting", "count_nodes", "model.count_nodes", None),
    ("analytic", "count_nodes", "model.count_nodes", None),
    ("shooting", "suggest_bracket", "shooting.suggest_bracket", None),
    ("cli", "suggest_bracket", "shooting.suggest_bracket", None),
    ("shooting", "find_bound_state", "shooting.find_bound_state", _bracket_width),
    ("cli", "find_bound_state", "shooting.find_bound_state", _bracket_width),
    ("shooting", "estimate_quasibound_energy", "shooting.estimate_quasibound_energy", None),
    ("cli", "estimate_quasibound_energy", "shooting.estimate_quasibound_energy", None),
    ("analytic", "equal_mix_energy", "analytic.equal_mix_energy", None),
    ("cli", "equal_mix_energy", "analytic.equal_mix_energy", None),
    ("analytic", "equal_mix_wavefunction", "analytic.equal_mix_wavefunction",
     _last_arg_points),
    ("analytic", "vector_profile_continuum_edge", "analytic.vector_profile",
     _last_arg_points),
    ("analytic", "vector_profile_turning_point", "analytic.vector_profile",
     _last_arg_points),
    ("analytic", "airy_ai", "specfun.airy_ai", _first_arg_points),
    ("analytic", "airy_ai_prime", "specfun.airy_ai_prime", _first_arg_points),
    ("analytic", "airy_ai_zero", "specfun.airy_ai_zero", None),
    ("analytic", "bessel_j0", "specfun.bessel", _first_arg_points),
    ("analytic", "bessel_i0", "specfun.bessel", _first_arg_points),
    ("analytic", "bessel_k0", "specfun.bessel", _first_arg_points),
    ("tunneling", "gamma_mixed", "tunneling.gamma_mixed", None),
    ("cli", "gamma_mixed", "tunneling.gamma_mixed", None),
    ("tunneling", "gamma_barrier_quadrature", "tunneling.gamma_barrier_quadrature", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """Records one span per intercepted call: (name, op id, parent span
    index, start, end, info).  ``op`` is set by the runner before each op."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def _wrap(self, fn, name, info_fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                info = info_fn(args, kwargs, result) if (info_fn and result is not None) else None
                self.spans[idx] = (name, self.op, parent, t0, t1, info)

        return traced

    @contextmanager
    def installed(self, modules):
        """Patch every target in ``modules`` (name -> module) for the
        duration of the block and restore the originals afterwards."""
        saved = []
        try:
            for mod_name, attr, name, info_fn in TARGETS:
                mod = modules[mod_name]
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(orig, name, info_fn))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)


def _expected_bisection_shots(width):
    """Shots find_bound_state spends on a bracket of this width: two
    endpoint shots, one per halving down to 1e-8, and the final shot."""
    return 2 + max(0, math.ceil(math.log2(width / 1e-8))) + 1


def layer_metrics(spans, n_ops):
    """Per-layer metrics from the spans of ``n_ops`` traced operations.

    A layer the workload never calls reports 0 for each of its metrics.
    ``shooting.find_bound_state.shots_mismatch`` counts the calls whose shot
    count differs from the count the bisection implies.
    """
    ops = max(n_ops, 1)
    by_name = {}
    children = [[] for _ in spans]
    for i, sp in enumerate(spans):
        by_name.setdefault(sp[0], []).append(i)
        if sp[2] >= 0:
            children[sp[2]].append(i)

    def dur(i):
        return spans[i][4] - spans[i][3]

    def self_time(i):
        return dur(i) - sum(dur(c) for c in children[i])

    def total(name):
        return sum(dur(i) for i in by_name.get(name, []))

    def count(name):
        return len(by_name.get(name, []))

    def info_sum(name):
        return sum(spans[i][5] or 0 for i in by_name.get(name, []))

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def median_dur(name):
        ds = [dur(i) for i in by_name.get(name, [])]
        return statistics.median(ds) if ds else 0.0

    def shots_of(i):
        return sum(1 for c in children[i] if spans[c][0] == "shooting.integrate_radial")

    def mean_shots(name):
        idx = by_name.get(name, [])
        return per(sum(shots_of(i) for i in idx), len(idx))

    rk = by_name.get("kernels.rk4_path", [])
    steps = sum(spans[i][5][0] for i in rk if spans[i][5])
    backward = sum(1 for i in rk if spans[i][5] and spans[i][5][1])
    shots = by_name.get("shooting.integrate_radial", [])
    fbs = by_name.get("shooting.find_bound_state", [])
    mismatch = sum(1 for i in fbs if spans[i][5] is not None
                   and shots_of(i) != _expected_bisection_shots(spans[i][5]))
    mains = by_name.get("cli.main", [])

    m = {
        "kernels.rk4_path.us_per_step": per(total("kernels.rk4_path"), steps, 1e6),
        "kernels.rk4_path.steps_per_op": per(steps, ops),
        "kernels.rk4_path.calls_per_op": per(len(rk), ops),
        "shooting.integrate_radial.calls_per_op": per(len(shots), ops),
        "shooting.integrate_radial.ms_per_shot": per(total("shooting.integrate_radial"),
                                                     len(shots), 1e3),
        "shooting.integrate_radial.self_ms_per_shot": per(
            sum(self_time(i) for i in shots), len(shots), 1e3),
        "shooting.suggest_bracket.s": median_dur("shooting.suggest_bracket"),
        "shooting.suggest_bracket.shots": mean_shots("shooting.suggest_bracket"),
        "shooting.find_bound_state.s": median_dur("shooting.find_bound_state"),
        "shooting.find_bound_state.shots": mean_shots("shooting.find_bound_state"),
        "shooting.find_bound_state.shots_mismatch": float(mismatch),
        "shooting.estimate_quasibound_energy.s": median_dur(
            "shooting.estimate_quasibound_energy"),
        "shooting.estimate_quasibound_energy.shots": mean_shots(
            "shooting.estimate_quasibound_energy"),
        "shooting.tail_rebuild_ratio": per(backward, len(fbs)),
        "model.count_nodes.us_per_call": per(total("model.count_nodes"),
                                             count("model.count_nodes"), 1e6),
        "model.count_nodes.calls_per_op": per(count("model.count_nodes"), ops),
        "analytic.equal_mix_energy.ms": 1e3 * median_dur("analytic.equal_mix_energy"),
        "analytic.equal_mix_wavefunction.ns_per_point": per(
            total("analytic.equal_mix_wavefunction"),
            info_sum("analytic.equal_mix_wavefunction"), 1e9),
        "analytic.vector_profile.ns_per_point": per(
            total("analytic.vector_profile"), info_sum("analytic.vector_profile"), 1e9),
        "specfun.airy_ai.ns_per_point": per(total("specfun.airy_ai"),
                                            info_sum("specfun.airy_ai"), 1e9),
        "specfun.airy_ai_prime.ns_per_point": per(total("specfun.airy_ai_prime"),
                                                  info_sum("specfun.airy_ai_prime"), 1e9),
        "specfun.airy_ai_zero.us": per(total("specfun.airy_ai_zero"),
                                       count("specfun.airy_ai_zero"), 1e6),
        "specfun.bessel.ns_per_point": per(total("specfun.bessel"),
                                           info_sum("specfun.bessel"), 1e9),
        "tunneling.gamma_mixed.us": 1e6 * median_dur("tunneling.gamma_mixed"),
        "tunneling.gamma_barrier_quadrature.us": 1e6 * median_dur(
            "tunneling.gamma_barrier_quadrature"),
        "cli.main.self_ms": per(sum(self_time(i) for i in mains), len(mains), 1e3),
        "trace.spans_per_op": per(len(spans), ops),
    }
    return m
