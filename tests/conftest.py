import contextlib
import os

import pytest
from hypothesis import settings

from distrel._kernels import openblas_thread_controls

# CI runs replay the same examples each time and print the blob that
# reproduces a failure; local runs keep exploring at random.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")



@contextlib.contextmanager
def _openblas_threads(count):
    controls = openblas_thread_controls()
    original = [get() for get, _ in controls]
    try:
        for _, set_threads in controls:
            set_threads(count)
        yield
    finally:
        for (_, set_threads), n in zip(controls, original):
            set_threads(n)


@pytest.fixture(scope="session")
def openblas_threads():
    """``openblas_threads(n)`` sets every loaded OpenBLAS copy to n threads
    until the block exits, whatever count an earlier test left behind."""
    return _openblas_threads


_acceptance_outcomes = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "::test_criterion_" in report.nodeid:
        _acceptance_outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        name = nodeid.split("::")[-1]
        outcome = _acceptance_outcomes[nodeid]
        terminalreporter.write_line(f"{name}: {'PASS' if outcome == 'passed' else outcome.upper()}")
