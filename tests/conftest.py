import sys
from pathlib import Path

import pytest
from hypothesis import settings

# Appended, not prepended, so that a diraclinear on PYTHONPATH (another
# checkout, say) is the one tested; a plain `python -m pytest` finds src here.
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from diraclinear._kernels import warm_up  # noqa: E402

# every property test: 30 reproducible examples, no per-example deadline
# (a first shot on a new grid pays for its coefficients); a test that
# needs another count says so with its own @settings(max_examples=...)
settings.register_profile("diraclinear", max_examples=30, derandomize=True, deadline=None)
settings.load_profile("diraclinear")


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # run the RK4 kernel once, and load the scipy subpackages the library
    # imports on first use, so timed tests measure the algorithms, not
    # first-call set-up
    warm_up()
    import scipy.integrate  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401
