"""Exception types shared across the solver modules, and the rules that
refuse input outside the problem's domain.

The problem is defined for m > 0, lambda > 0, 0 <= s <= 1 and an integer
k != 0, on finite radii and energies.  Every module refuses a bad input
through the rules below, so a refusal is always a ValueError whose text
names the caller and the parameter: "<where> requires <what>", with the
value when it is a scalar.
"""

import math

import numpy as np


class ConsistencyError(ValueError):
    """Inputs are individually valid but mutually inconsistent
    (e.g. a wavefunction requested at a non-eigenvalue energy)."""


class BracketError(ValueError):
    """An energy bracket does not straddle an eigenvalue."""


class ScanError(RuntimeError):
    """An energy scan found no sign change in its search window."""


# how a refusal names the parameters that the library calls by one letter
_NAMES = {"m": "mass m", "lam": "slope lam"}


def require(where, ok, what):
    """Refuses unless ok, the caller's own test of its inputs, by what it requires."""
    if not ok:
        raise ValueError(f"{where} requires {what}")


def _refuse(where, what, value):
    # a scalar is quoted; an array, which may be large, is not
    got = "" if np.ndim(value) else f", got {value}"
    raise ValueError(f"{where} requires {what}{got}")


def finite(where, **named):
    """Refuses each named scalar or array that holds a NaN or an inf.  A
    Python float or int is tested without numpy, a float in range by one
    comparison."""
    for name, value in named.items():
        if type(value) is float and -math.inf < value < math.inf:  # the fast path
            continue
        if not (math.isfinite(value) if type(value) in (float, int) else np.isfinite(value).all()):
            _refuse(where, f"finite {_NAMES.get(name, name)}", value)


def _above_zero(where, named, strict):
    for value in named.values():  # plain floats in range return at once
        if not (type(value) is float and (value > 0.0 if strict else value >= 0.0)
                and value < math.inf):
            break
    else:
        return
    finite(where, **named)
    for name, value in named.items():
        low = value if type(value) in (float, int) else np.min(value, initial=math.inf)
        if not (low > 0 if strict else low >= 0):
            _refuse(where, f"{_NAMES.get(name, name)} {'>' if strict else '>='} 0", value)


def positive(where, **named):
    """Refuses each named scalar or array unless it is finite and > 0."""
    _above_zero(where, named, True)


def nonnegative(where, **named):
    """Refuses each named scalar or array unless it is finite and >= 0."""
    _above_zero(where, named, False)


def integer(where, name, value, least=None):
    """Refuses value unless it is an int or a numpy integer, not a bool,
    and not below `least` when that is given."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (least is not None and value < least)):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{where}: {name} must be an integer{bound}, got {value!r}")
