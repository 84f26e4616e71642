"""Iteration core: convergence, initial-condition handling, accounting."""

import math

import numpy as np
import pytest

from lvim.cheb import CollocationGrid, build_operators
from lvim.core import (
    OdeSystem,
    SolverConfig,
    iterate_segment,
    iterate_segment_frozen,
    march,
    residual,
)
from lvim.errors import ConvergenceError, DomainViolationError


def decay_system(rate=1.0):
    return OdeSystem(
        dim=1,
        rhs=lambda t, x: np.array([-rate * x[0]]),
        jac=lambda t, x: np.array([[-rate]]),
        name="decay",
    )


def rotation_system(w=1.0):
    a = np.array([[0.0, 1.0], [-w * w, 0.0]])
    return OdeSystem(dim=2, rhs=lambda t, x: a @ x, jac=lambda t, x: a,
                     name="rotation")


MATHIEU = OdeSystem(
    dim=2,
    rhs=lambda t, x: np.array([x[1], -(0.5 + 0.1 * math.cos(t)) * x[0]]),
    jac=lambda t, x: np.array([[0.0, 1.0],
                               [-(0.5 + 0.1 * math.cos(t)), 0.0]]),
    name="mathieu",
)


def test_segment_matches_exponential():
    ops = build_operators(CollocationGrid(13, 0.0, 1.0))
    res = iterate_segment(ops, decay_system(), np.array([1.0]),
                          SolverConfig(13, 1.0, 1e-12))
    assert res.converged
    exact = np.exp(-ops.grid.physical_nodes)
    assert np.max(np.abs(res.node_states[:, 0] - exact)) < 1e-13


def test_segment_preserves_initial_condition_exactly():
    ops = build_operators(CollocationGrid(7, 0.0, 0.5))
    x0 = np.array([0.7, -0.3])
    res = iterate_segment(ops, rotation_system(), x0, SolverConfig(7, 0.5, 1e-12))
    assert np.all(res.node_states[0] == x0)


def test_segment_mathieu_default_config_converges():
    ops = build_operators(CollocationGrid(5, 0.0, 0.5))
    cfg = SolverConfig(5, 0.5, 1e-10)
    res = iterate_segment(ops, MATHIEU, np.array([1.0, 0.0]), cfg)
    assert res.converged
    assert res.iterations <= cfg.max_iter
    assert res.final_correction < cfg.tol


def test_frozen_equals_full_for_constant_jacobian():
    """For a linear constant-coefficient system the two modes see the same
    Jacobian, so the iterates are identical."""
    ops = build_operators(CollocationGrid(7, 0.0, 0.8))
    x0 = np.array([1.0, 0.0])
    cfg = SolverConfig(7, 0.8, 1e-12)
    full = iterate_segment(ops, rotation_system(), x0, cfg)
    frozen = iterate_segment_frozen(ops, rotation_system(), x0, cfg)
    assert np.array_equal(full.node_states, frozen.node_states)
    assert full.iterations == frozen.iterations


def test_converged_segment_residual_is_defect_sized():
    # the fixed point zeroes the discretized update, so the collocation
    # defect at the nodes sits at interpolation-truncation scale, not at tol
    ops = build_operators(CollocationGrid(13, 0.0, 1.0))
    res = iterate_segment(ops, decay_system(), np.array([1.0]),
                          SolverConfig(13, 1.0, 1e-12))
    defect = residual(ops, decay_system(), res.node_states)
    assert np.max(np.abs(defect)) < 1e-11


def test_march_grid_structure_and_joins():
    cfg = SolverConfig(5, 0.25, 1e-10)
    tr = march(decay_system(), 0.0, 1.0, np.array([1.0]), cfg)
    # four segments of five nodes with shared joins removed
    assert len(tr.times) == 4 * (5 - 1) + 1
    assert tr.times[0] == 0.0
    assert tr.times[-1] == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.diff(tr.times) > 0)
    assert len(tr.segment_iterations) == 4


def test_march_truncates_final_segment():
    cfg = SolverConfig(7, 0.4, 1e-12)
    tr = march(decay_system(), 0.0, 1.0, np.array([1.0]), cfg)
    assert len(tr.segment_iterations) == 3
    assert tr.times[-1] == pytest.approx(1.0, abs=1e-14)
    assert tr.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_march_eval_accounting_exact():
    tr = march(MATHIEU, 0.0, 10.0, np.array([1.0, 0.0]),
               SolverConfig(5, 0.5, 1e-10))
    assert tr.total_rhs_evals == int(np.sum(tr.segment_iterations)) * 5


def test_march_accuracy_vs_closed_form():
    tr = march(rotation_system(), 0.0, 10.0, np.array([1.0, 0.0]),
               SolverConfig(13, 1.0, 1e-12))
    assert np.max(np.abs(tr.states[:, 0] - np.cos(tr.times))) < 1e-11


def test_march_raises_on_non_contractive_segment():
    # dt far beyond the contraction range of a stiff decay
    stiff = decay_system(rate=80.0)
    with pytest.raises(ConvergenceError):
        march(stiff, 0.0, 2.0, np.array([1.0]),
              SolverConfig(5, 2.0, 1e-10, max_iter=40))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(1, 0.5, 1e-10)
    with pytest.raises(ValueError):
        SolverConfig(5, -0.5, 1e-10)
    with pytest.raises(ValueError):
        SolverConfig(5, 0.5, 0.0)
    with pytest.raises(ValueError):
        SolverConfig(5, 0.5, 1e-10, jacobian_mode="sometimes")


def test_fd_jacobian_fallback():
    sys_no_jac = OdeSystem(dim=1, rhs=lambda t, x: np.array([-x[0] ** 3]),
                           jac=None, name="cubic")
    j = sys_no_jac.eval_jac(0.0, np.array([0.5]))
    assert j[0, 0] == pytest.approx(-3 * 0.25, rel=1e-6)


def test_eval_rhs_finiteness_check():
    """An overflowing sum of finite entries is not a domain exit; a NaN
    or an infinity in any entry is."""
    def constant(values):
        return OdeSystem(dim=2, rhs=lambda t, x: np.array(values), jac=None,
                         name="constant")

    g = constant([1e308, 1e308]).eval_rhs(0.0, np.zeros(2))
    assert np.array_equal(g, [1e308, 1e308])
    for bad in ([math.nan, 0.0], [math.inf, -math.inf]):
        with pytest.raises(DomainViolationError):
            constant(bad).eval_rhs(0.0, np.zeros(2))


@pytest.mark.filterwarnings("ignore:invalid value")
def test_nan_correction_never_converges():
    # at the zero state the residual is exactly zero, so inf * 0 puts NaN
    # in every second correction entry, behind finite zeros; a maximum
    # that skipped the NaN would call the sweep converged
    sys_ = OdeSystem(dim=2, rhs=lambda t, x: np.zeros(2),
                     jac=lambda t, x: np.array([[0.0, 0.0], [0.0, np.inf]]),
                     name="nan-jac")
    ops = build_operators(CollocationGrid(5, 0.0, 0.5))
    with pytest.raises(ConvergenceError):
        iterate_segment(ops, sys_, np.zeros(2),
                        SolverConfig(n_basis=5, dt=0.5, tol=1e-10, max_iter=3))
