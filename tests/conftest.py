import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from stablechar import cache  # noqa: E402


@pytest.fixture(autouse=True)
def _empty_memo_tables():
    """Start every test from empty memo tables: no test passes on entries
    another test derived, and its time does not depend on the test order."""
    cache.clear_all()
