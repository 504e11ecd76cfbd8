import os

import pytest


def pytest_collection_modifyitems(config, items):
    if os.environ.get("SYMQ_SLOW"):
        return
    skip = pytest.mark.skip(reason="set SYMQ_SLOW=1 to run the n = 6 oracle sweep")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
