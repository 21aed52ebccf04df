"""Shared test config: deterministic hypothesis profile, acceptance summary,
failing stand-ins."""

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# test_acceptance appends one formatted line per criterion here; printing them
# through the terminal-summary hook keeps them visible even though pytest
# captures per-test stdout.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def unreached():
    """unreached(name) is a stand-in for name that fails if it is called."""
    def make(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{name} was reached")
        return fail
    return make
