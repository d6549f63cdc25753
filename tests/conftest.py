"""Suite-wide guards."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def _no_orphan_processes():
    """Fail any test that leaves a live multiprocessing child behind.

    Every pool must kill its workers on close, on error and on interrupt;
    a survivor here is a leak (it is killed so later tests start clean).
    """
    yield
    orphans = multiprocessing.active_children()
    for proc in orphans:
        proc.kill()
        proc.join(timeout=5.0)
    assert not orphans, f"test left live worker processes: {orphans}"
