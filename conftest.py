"""Repo-level pytest configuration.

Lives at the repository root so its command-line option is registered
no matter which test directory an invocation targets (pytest only loads
*initial* conftests — those on the path from the rootdir to the given
test paths — before parsing options).
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help=(
            "Rewrite the golden-regression fixtures under "
            "tests/experiments/golden/ from the current code instead of "
            "comparing against them. Use after an *intentional* "
            "output-changing DSP or backend change, and commit the diff."
        ),
    )


@pytest.fixture
def regen_golden(request) -> bool:
    """Whether this run should regenerate golden fixtures."""
    return bool(request.config.getoption("--regen-golden"))
