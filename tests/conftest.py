"""Shared pytest hooks: a fresh `transfer` memo for every test, and echo
acceptance criterion verdicts after the run."""

import pytest

from greengrowth import kernels

CRITERION_LINES = []


@pytest.fixture(autouse=True)
def fresh_transfer_memo():
    # a solution memoized by one test would spare the next its engine calls
    kernels._memo_transfer.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in sorted(CRITERION_LINES,
                       key=lambda s: int(s.split(":")[0].split()[1])):
        terminalreporter.write_line(line)
