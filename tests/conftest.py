import gc

import pytest

from starwheel.enumeration import enumerate_degree_bounded


@pytest.fixture(scope="session")
def corpus_by_order():
    """One representative per isomorphism class, keyed by order, for nu <= 8."""
    return {
        order: list(enumerate_degree_bounded(order, max(order - 1, 0)))
        for order in range(1, 9)
    }


@pytest.fixture
def no_gc():
    """The cyclic collector off, with nothing left for it to find: a test's
    own ``gc.collect()`` then counts only the cyclic garbage it made."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()
