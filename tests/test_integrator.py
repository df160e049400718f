"""The shared step controller, driven by fake steps whose error is set by the test."""

import numpy as np
import pytest

from qacsim._integrator import adaptive_run, step_boundaries
from qacsim.dynamics import evolve_closed
from qacsim.errors import NumericalError
from qacsim.problem import AnnealSchedule, encode_problem, make_af_chain, schedule_linear

# one interior knot at s = 0.3, between the snapshots at 0.25 and 0.5
KNOTTED = AnnealSchedule(0.01, np.array([0.0, 0.3, 1.0]), np.array([2.0, 0.6, 0.0]), np.array([0.0, 1.1, 2.0]))


def unchanged(state):
    return state


def recording_step(err_of_h):
    """A step whose state is the tuple of accepted (t, h) steps so far."""

    def step(state, t, h):
        return state + ((t, h),), err_of_h(h)

    return step


def test_endless_rejection_raises():
    calls = []

    def step(state, t, h):
        calls.append(h)
        return state, 2.0

    with pytest.raises(NumericalError, match="underflow"):
        adaptive_run(step, None, KNOTTED, 5, 5, unchanged)
    assert len(calls) == 60
    assert all(b < a for a, b in zip(calls, calls[1:]))


@pytest.mark.parametrize("order", [4, 5])
def test_steps_end_on_snapshots_and_knots(order):
    t_f = KNOTTED.t_f_ns
    # a step longer than 0.007 t_f fails, so the controller rejects, shrinks and grows again
    s_points, states, report = adaptive_run(recording_step(lambda h: 3.0 if h > 0.007 * t_f else 0.0), (),
                                            KNOTTED, 5, order, unchanged)
    bounds, _ = step_boundaries(KNOTTED, 5)
    assert list(s_points) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert 0.3 in bounds
    steps = np.array(states[-1])
    assert len(steps) == report.accepted and report.rejected > 0
    ends = steps[:, 0] + steps[:, 1]
    # each step starts where the last ended, and none straddles a boundary
    assert np.allclose(steps[1:, 0], ends[:-1], rtol=0, atol=1e-9 * t_f)
    inside = (bounds[None, :] * t_f > steps[:, :1] + 1e-9 * t_f) & (bounds[None, :] * t_f < ends[:, None] - 1e-9 * t_f)
    assert not inside.any()
    for b in bounds[1:]:
        assert np.isclose(ends, b * t_f, rtol=0, atol=1e-9 * t_f).sum() == 1
    for b in bounds[1:-1]:
        assert (steps[:, 0] == b * t_f).sum() == 1  # the next segment starts exactly on it
    # the state at each snapshot holds the steps up to that snapshot
    for s, state in zip(s_points, states):
        assert (state[-1][0] + state[-1][1] if state else 0.0) == pytest.approx(s * t_f, abs=1e-9 * t_f)


def test_steps_never_exceed_two_percent_of_the_anneal():
    schedule = schedule_linear(1.0, 0.01)
    t_f = schedule.t_f_ns
    _, states, report = adaptive_run(recording_step(lambda h: 0.0), (), schedule, 2, 5, unchanged)
    h = np.array(states[-1])[:, 1]
    assert h.max() == pytest.approx(0.02 * t_f, rel=1e-12)
    assert np.all(h <= 0.02 * t_f * (1 + 1e-12))
    assert report.rejected == 0 and report.accepted == len(h) < 60


def test_min_step_ignores_landings():
    # C-encoded two-spin chain: 9 snapshots cut steps short to land on them,
    # 2 snapshots only at the end; the smallest chosen step is the same
    problem = encode_problem(make_af_chain(2), "C", 0.3)
    schedule = schedule_linear(2.0 * np.pi, 0.01)
    nine, two = (evolve_closed(problem, schedule, rtol=1e-6, snapshots=k).report for k in (9, 2))
    assert nine.min_step_ns == pytest.approx(two.min_step_ns, rel=0.05)
    assert 0.01 < nine.min_step_ns <= schedule.t_f_ns


def test_min_step_when_every_step_lands():
    # 1000 segments, each shorter than the first proposal of t_f / 400
    schedule = schedule_linear(1.0, 0.01)
    _, _, report = adaptive_run(recording_step(lambda h: 0.0), (), schedule, 1001, 5, unchanged)
    assert report.accepted == 1000 and report.rejected == 0
    assert report.min_step_ns == schedule.t_f_ns / 400
