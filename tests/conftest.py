"""Shared test plumbing: collects the acceptance verdict lines and
prints them as an uncaptured section after the run summary, and counts
model enumerations."""

import pytest

from isinglearn import model as model_module

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def enumerations(monkeypatch):
    """The models model.enumerate_exponents runs on, in call order."""
    calls = []
    enumerate_all = model_module.enumerate_exponents

    def counting(model):
        calls.append(model)
        return enumerate_all(model)

    monkeypatch.setattr(model_module, "enumerate_exponents", counting)
    return calls
