import sys
from pathlib import Path

import pytest

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).resolve().parent))

from gofpower import power, spectrum  # noqa: E402


@pytest.fixture(autouse=True)
def empty_caches():
    """Empty the one-entry caches before each test, so that no test depends
    on what an earlier one left there: a test of a cache fills it itself."""
    spectrum._recent = (None, None)
    power._recent_null = (None, None, None, None)
