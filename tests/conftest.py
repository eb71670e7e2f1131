"""Shared test plumbing: collects the acceptance verdict lines and
prints them as an uncaptured section after the run summary, and counts
model enumerations and the solver's passes over full designs."""

import numpy as np
import pytest

from isinglearn import model as model_module
from isinglearn import solver as solver_module

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


@pytest.fixture
def full_passes(monkeypatch):
    """The focal rows of each evaluate_rows call the solver makes on a
    full design (one shared row of weights, not a pattern table), in
    call order."""
    calls = []
    evaluate_rows = solver_module.evaluate_rows

    def counting(design, rows, theta):
        if design.weights.ndim == 1:
            calls.append(np.array(rows))
        return evaluate_rows(design, rows, theta)

    monkeypatch.setattr(solver_module, "evaluate_rows", counting)
    return calls
