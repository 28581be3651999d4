import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from stablechar import cache  # noqa: E402


@pytest.fixture(autouse=True)
def _empty_memo_tables():
    """Start every test from empty memo tables: no test passes on entries
    another test derived, and its time does not depend on the test order.
    ``cache.clear_all`` empties only the shared tables.  What it leaves
    alone carries over from one test to the next: the shape registry, whose
    ids name the same shapes for good, the partition lists of
    ``partitions._partitions_tuples``, and the memo of a series or table
    that a test module keeps at module level.  Any other series or table
    starts with an empty memo of its own."""
    cache.clear_all()
