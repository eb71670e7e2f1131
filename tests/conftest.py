"""Shared test plumbing: collects the acceptance verdict lines and
prints them as an uncaptured section after the run summary, and counts
model enumerations and the solver's passes over full designs."""

from typing import NamedTuple

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


class FullPass(NamedTuple):
    rows: np.ndarray
    hessian: bool


@pytest.fixture
def full_passes(monkeypatch):
    """The focal rows of each evaluate_rows and face_hessians call the
    solver makes on a full design (one shared row of weights, not a
    pattern table), and whether it was a face_hessians call, in call
    order."""
    calls = []

    def counting(function, hessian):
        def wrapped(design, rows, *args):
            if design.weights.ndim == 1:
                calls.append(FullPass(np.array(rows), hessian))
            return function(design, rows, *args)
        monkeypatch.setattr(solver_module, function.__name__, wrapped)

    counting(solver_module.evaluate_rows, False)
    counting(solver_module.face_hessians, True)
    return calls
