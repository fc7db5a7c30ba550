"""Marks the three training-based acceptance tests as `slow` (they take
nearly all of the suite's time), so `pytest -m "not slow"` is a quick loop.
A plain `pytest` still runs every test."""

import pytest

SLOW = {"test_semi_supervised_direction", "test_overfit_sanity", "test_pretext_learnability"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.originalname in SLOW:
            item.add_marker(pytest.mark.slow)
