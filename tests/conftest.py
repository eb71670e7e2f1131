"""Shared test plumbing: collects the acceptance verdict lines and
prints them as an uncaptured section after the run summary, and counts
model enumerations, sample-set tallies, the solver's passes over full
designs and its pattern-table builds (these two also in one shared call
order)."""

from typing import NamedTuple

import numpy as np
import pytest

from isinglearn import model as model_module
from isinglearn import sampler as sampler_module
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
def solver_calls():
    """The records of full_passes and table_builds, whichever a test
    asks for, in one call order."""
    return []


@pytest.fixture
def full_passes(monkeypatch, solver_calls):
    """The focal rows of each evaluate_rows and face_hessians call the
    solver makes on a full design (one shared row of weights, not a
    pattern table), and whether it was a face_hessians call, in call
    order."""
    calls = []

    def counting(function, hessian):
        def wrapped(design, rows, *args):
            if design.weights.ndim == 1:
                calls.append(FullPass(np.array(rows), hessian))
                solver_calls.append(calls[-1])
            return function(design, rows, *args)
        monkeypatch.setattr(solver_module, function.__name__, wrapped)

    counting(solver_module.evaluate_rows, False)
    counting(solver_module.face_hessians, True)
    return calls


@pytest.fixture
def table_builds(monkeypatch, solver_calls):
    """The shape (rows, k) of the columns of each pattern_table call the
    solver makes, in call order."""
    calls = []
    pattern_table = solver_module.pattern_table

    def counting(design, rows, cols):
        calls.append(cols.shape)
        solver_calls.append(cols.shape)
        return pattern_table(design, rows, cols)

    monkeypatch.setattr(solver_module, "pattern_table", counting)
    return calls


@pytest.fixture
def tallies(monkeypatch):
    """The (n, p) of each sample-set tally, in call order."""
    calls = []
    tally_words = sampler_module._tally_words

    def counting(words, p):
        calls.append((words.shape[0], p))
        return tally_words(words, p)

    monkeypatch.setattr(sampler_module, "_tally_words", counting)
    return calls
