"""Reference integrator: accuracy, dense output, accounting, failure modes."""

import numpy as np
import pytest

from lvim.core import OdeSystem
from lvim.errors import ConvergenceError, DomainViolationError
from lvim.rk45 import RkConfig, RkTrajectory, rk45_integrate, sample_at

DECAY = OdeSystem(dim=1, rhs=lambda t, x: -x, jac=None, name="decay")

OSC = OdeSystem(
    dim=2,
    rhs=lambda t, x: np.array([x[1], -x[0]]),
    jac=None,
    name="osc",
)


def test_decay_matches_exponential():
    tr = rk45_integrate(DECAY, 0.0, 5.0, np.array([1.0]), RkConfig())
    assert np.max(np.abs(tr.states[:, 0] - np.exp(-tr.times))) < 1e-12
    assert tr.times[0] == 0.0 and tr.times[-1] == 5.0


def test_oscillator_long_run_amplitude():
    tr = rk45_integrate(OSC, 0.0, 100.0, np.array([1.0, 0.0]),
                        RkConfig(rel_tol=1e-12, abs_tol=1e-14))
    energy = 0.5 * (tr.states[:, 0] ** 2 + tr.states[:, 1] ** 2)
    assert np.max(np.abs(energy - 0.5)) < 1e-10


def test_dense_output_between_steps():
    tr = rk45_integrate(OSC, 0.0, 10.0, np.array([1.0, 0.0]), RkConfig())
    t_query = np.linspace(0.0, 10.0, 401)
    vals = sample_at(tr, t_query)
    assert np.max(np.abs(vals[:, 0] - np.cos(t_query))) < 1e-10


def test_dense_output_exact_at_stored_steps():
    tr = rk45_integrate(DECAY, 0.0, 3.0, np.array([1.0]), RkConfig())
    vals = sample_at(tr, tr.times)
    assert np.array_equal(vals, tr.states)


def _sample_loop(traj, query):
    """Per-query reference: search, exact hit or quartic on the step."""
    out = np.empty((query.size, traj.states.shape[1]))
    for i, tq in enumerate(query):
        pos = int(np.searchsorted(traj.times, tq))
        if pos < traj.times.size and traj.times[pos] == tq:
            out[i] = traj.states[pos]
            continue
        idx = min(max(pos - 1, 0), traj.step_h.size - 1)
        h = traj.step_h[idx]
        theta = (tq - traj.times[idx]) / h
        tv = np.array([theta, theta ** 2, theta ** 3, theta ** 4])
        out[i] = traj.states[idx] + h * (traj.dense_q[idx] @ tv)
    return out


def test_sample_at_matches_per_query_loop():
    tr = rk45_integrate(OSC, 0.0, 10.0, np.array([1.0, 0.0]),
                        RkConfig(rel_tol=1e-8, abs_tol=1e-10))
    slack = 1e-12 * 10.0
    rng = np.random.default_rng(7)
    query = np.concatenate([
        rng.uniform(0.0, 10.0, 200),
        tr.times[::3],                      # step boundaries, both ends
        [0.0 - 0.5 * slack, 10.0 + 0.5 * slack],  # clamped extrapolation
        np.nextafter(tr.times[1:-1], np.inf),
        np.nextafter(tr.times[1:-1], -np.inf),
    ])
    rng.shuffle(query)
    got = sample_at(tr, query)
    ref = _sample_loop(tr, query)
    assert got.shape == ref.shape == (query.size, 2)
    assert np.max(np.abs(got - ref)) <= 4e-16
    hit = np.isin(query, tr.times)
    assert np.array_equal(got[hit], ref[hit])
    assert np.array_equal(sample_at(tr, np.array([0.0, 10.0])),
                          tr.states[[0, -1]])


def test_sample_outside_span_raises():
    tr = rk45_integrate(DECAY, 0.0, 1.0, np.array([1.0]), RkConfig())
    with pytest.raises(ValueError):
        sample_at(tr, np.array([1.5]))
    with pytest.raises(ValueError):
        sample_at(tr, np.array([-1e-9]))
    with pytest.raises(ValueError):
        sample_at(RkTrajectory(times=tr.times, states=tr.states,
                               segment_iterations=tr.segment_iterations,
                               total_rhs_evals=0, wall_time=0.0), tr.times)


def test_eval_accounting_exact():
    # first stage is reused across rejected retries of the same step and
    # one evaluation seeds the initial-step heuristic
    for cfg in (RkConfig(), RkConfig(rel_tol=1e-6, abs_tol=1e-9)):
        tr = rk45_integrate(OSC, 0.0, 20.0, np.array([1.0, 0.0]), cfg)
        assert tr.total_rhs_evals == \
            7 * tr.steps_accepted + 6 * tr.steps_rejected + 1


def test_tolerance_controls_error():
    errs = []
    for rel in (1e-6, 1e-9, 1e-12):
        tr = rk45_integrate(OSC, 0.0, 10.0, np.array([1.0, 0.0]),
                            RkConfig(rel_tol=rel, abs_tol=1e-15))
        errs.append(np.max(np.abs(tr.states[:, 0] - np.cos(tr.times))))
    assert errs[0] > errs[1] > errs[2]


def test_max_steps_exhaustion():
    with pytest.raises(ConvergenceError):
        rk45_integrate(OSC, 0.0, 1000.0, np.array([1.0, 0.0]),
                       RkConfig(max_steps=10))


@pytest.mark.filterwarnings("ignore:overflow")
def test_domain_violation_propagates():
    blowup = OdeSystem(dim=1, rhs=lambda t, x: x * x, jac=None, name="blowup")
    with pytest.raises((DomainViolationError, ConvergenceError)):
        rk45_integrate(blowup, 0.0, 5.0, np.array([1.0]), RkConfig())


def test_trajectory_is_core_trajectory():
    from lvim.core import Trajectory
    tr = rk45_integrate(DECAY, 0.0, 1.0, np.array([1.0]), RkConfig())
    assert isinstance(tr, Trajectory)
    assert isinstance(tr, RkTrajectory)
    assert len(tr.segment_iterations) == 0
