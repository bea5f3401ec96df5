"""Shared pytest plumbing: acceptance verdict lines in the final summary,
and a stand-in for the solver's BiCGSTAB."""

import numpy as np
import pytest

_verdicts = []


@pytest.fixture
def criterion_verdict():
    """Record one pass/fail line per acceptance criterion.

    The line is printed immediately (visible under -s or on failure) and
    repeated in the terminal summary so a plain ``pytest -v`` run always
    shows every criterion outcome.
    """
    def _record(number: int, ok: bool, note: str = "") -> bool:
        line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}"
        if note:
            line += f"  ({note})"
        print(line)
        _verdicts.append(line)
        return ok

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _verdicts:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in _verdicts:
        terminalreporter.write_line(line)


@pytest.fixture
def zero_krylov():
    """``zero_krylov(info)``: a stand-in for ``solver._bicgstab`` that returns
    a zero step with the given info after no iteration (1: BiCGSTAB fails,
    so every Newton step refactorizes its Jacobian and is solved directly by
    the fresh factors)."""
    return lambda info: lambda matrix, rhs, *args, **kwargs: (
        np.zeros_like(rhs), info, 0)
