import sys
from pathlib import Path

import pytest

# Appended, not prepended, so that a diraclinear on PYTHONPATH (another
# checkout, say) is the one tested; a plain `python -m pytest` finds src here.
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from diraclinear._kernels import warm_up  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # run the RK4 kernel once so timed tests measure the algorithms, not
    # first-call set-up
    warm_up()
