"""Shared fixtures for the experiment tests."""

import pytest

from repro.experiments import report


@pytest.fixture(scope="session")
def report_aggregates():
    """The fast report grids at the report seed, run once per session.

    Both the report's markdown tests and its golden fixture read them.
    """
    return report.collect_aggregates(fast=True, rng=report.REPORT_SEED)
