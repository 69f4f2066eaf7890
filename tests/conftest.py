import os

from hypothesis import settings

# CI runs replay the same examples each time and print the blob that
# reproduces a failure; local runs keep exploring at random.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

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
