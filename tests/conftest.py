import sys
from pathlib import Path

import pytest

# Appended, not prepended, so that a diraclinear on PYTHONPATH (another
# checkout, say) is the one tested; a plain `python -m pytest` finds src here.
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from diraclinear._kernels import warm_up  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # run the RK4 kernel once, and load the scipy subpackages the library
    # imports on first use, so timed tests measure the algorithms, not
    # first-call set-up
    warm_up()
    import scipy.integrate  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401
