import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Properties run on a shared, noisy host: no per-example deadline, and a
# failure prints the blob that replays it.
settings.register_profile("jordanloops", deadline=None, print_blob=True)
settings.load_profile("jordanloops")

from oracle import labelled_reference

_SEARCH_CACHE: dict = {}


@pytest.fixture(scope="session")
def searched():
    """Cached ``labelled_reference``, the labelled search from the blank
    table, so expensive orders run once per session."""

    def run(order: int, require_jordan: bool = True):
        key = (order, require_jordan)
        if key not in _SEARCH_CACHE:
            _SEARCH_CACHE[key] = labelled_reference(order, require_jordan)
        return _SEARCH_CACHE[key]

    return run
