"""Fixtures shared by the test modules."""
import pytest

from chemoflux import stepping


@pytest.fixture
def stall_after_first_step(monkeypatch):
    """Make the stepping loop's dt policy return the policy's dt once and
    1e-30 after that, so the second step cannot move t.  Yields the list of
    times at which the loop asked for a dt."""
    calls = []
    nominal = stepping._nominal_dt

    def stalling_dt(state, epsilon, grid, cfg):
        calls.append(state.t)
        return nominal(state, epsilon, grid, cfg) if len(calls) == 1 else 1e-30

    monkeypatch.setattr(stepping, "_nominal_dt", stalling_dt)
    return calls
