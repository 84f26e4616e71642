"""Operator construction: node placement, exactness, pinned rows."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvim import cheb
from lvim.cheb import build_operators, cgl_nodes
from lvim.core import OdeSystem, SolverConfig, Trajectory, march
from lvim.rk45 import sample_at


def chebvals(tau, coef):
    return np.polynomial.chebyshev.chebval(tau, coef)


def one_segment(t_nodes, values):
    """A hand-assembled one-segment trajectory through the given nodes."""
    states = np.asarray(values, dtype=float).reshape(len(t_nodes), -1)
    return Trajectory(times=np.asarray(t_nodes, dtype=float), states=states,
                      segment_iterations=np.array([1]), total_rhs_evals=0)


def test_cgl_nodes_five_point():
    nodes = cgl_nodes(5)
    expected = np.array([-1.0, -np.sqrt(0.5), 0.0, np.sqrt(0.5), 1.0])
    assert np.allclose(nodes, expected, atol=1e-15)
    # sine construction keeps the grid exactly antisymmetric
    assert np.all(nodes + nodes[::-1] == 0.0)


def test_cgl_nodes_endpoints_and_order():
    for m in (2, 3, 8, 26):
        nodes = cgl_nodes(m)
        assert nodes[0] == -1.0 and nodes[-1] == 1.0
        assert np.all(np.diff(nodes) > 0)


def test_grid_validation():
    with pytest.raises(ValueError):
        build_operators(1, 1.0)
    with pytest.raises(ValueError):
        build_operators(5, 0.0)
    with pytest.raises(ValueError, match="^m must be an integer and >= 2, got 1$"):
        cgl_nodes(1)


@pytest.mark.parametrize("n", [2, 5, 7, 13, 26])
@pytest.mark.parametrize("dt", [0.1, 0.5, 1.0, 500.0])
def test_operator_exactness(n, dt):
    """q and p must reproduce derivative and running integral of every
    basis polynomial at the nodes.

    Residuals are measured relative to the exact result's magnitude.  The
    q residual's scale is floored at ``2/dt``, the slope of the degree-1
    polynomial: for the constant polynomial the exact derivative is zero,
    and ``q @ ones`` sums entries of size ``~N^2/dt``, so its roundoff
    grows like ``1/dt``; an absolute bound on it would fail at small dt
    however q is built."""
    ops = build_operators(n, dt)
    tau = cgl_nodes(n)
    tol = 1e-9 if (n, dt) == (26, 500.0) else 1e-12
    for k in range(n):
        coef = np.zeros(k + 1)
        coef[k] = 1.0
        v = chebvals(tau, coef)
        dv = chebvals(tau, np.polynomial.chebyshev.chebder(coef)) * (2.0 / dt)
        iv = chebvals(tau, np.polynomial.chebyshev.chebint(coef, lbnd=-1.0)) * (dt / 2.0)
        assert np.max(np.abs(ops.q_mat @ v - dv)) <= tol * max(1.0, 2.0 / dt, np.max(np.abs(dv)))
        assert np.max(np.abs(ops.p_mat @ v - iv)) <= tol * max(1.0, np.max(np.abs(iv)))


def test_first_rows_pinned_to_zero():
    for n in (2, 5, 13):
        ops = build_operators(n, 3.7)
        assert np.all(ops.p_mat[0] == 0.0)
        assert np.all(ops.h_mat[0] == 0.0)


def test_h_matches_commutator():
    """H is built from node time differences only; it must equal the
    commutator P T - T P, T = diag(t0 + offsets), wherever the segment
    starts."""
    for n in (2, 5, 13, 26):
        ops = build_operators(n, 1.3)
        for t0 in (0.0, 17.3, 1e4):
            t = t0 + ops.offsets
            commutator = ops.p_mat * t - t[:, np.newaxis] * ops.p_mat
            scale = np.max(np.abs(ops.p_mat)) * max(1.0, np.max(np.abs(t)))
            assert np.max(np.abs(ops.h_mat - commutator)) <= 1e-12 * scale


def test_operators_call_no_lapack(monkeypatch):
    """Operators and interpolation are closed-form sums and products, so
    no result depends on which LAPACK build rounds last."""
    def forbidden(*args, **kwargs):
        raise AssertionError("LAPACK call")

    for name in ("solve", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    cheb._ref_operators.cache_clear()
    try:
        for n in (2, 5, 7, 13, 26):
            ops = build_operators(n, 0.7)
            t = 0.3 + ops.offsets
            mid = 0.5 * (t[0] + t[1])
            got = sample_at(one_segment(t, 2.0 * t - 1.0), mid)[0, 0]
            assert got == pytest.approx(2.0 * mid - 1.0, rel=1e-14)
    finally:
        cheb._ref_operators.cache_clear()


@pytest.mark.parametrize("n", [2, 3, 5, 13, 26, 64, 257])
def test_integration_matrix_equals_the_recurrence_loop(n):
    """P from the T_k columns and antiderivatives built one column at a
    time, the loop ``_ref_operators`` replaced: bit for bit the same."""
    tau = cgl_nodes(n)
    c = np.ones(n)
    c[0] = c[-1] = 2.0
    t_all = np.empty((n, n + 1))
    t_all[:, 0], t_all[:, 1] = 1.0, tau
    for k in range(2, n + 1):
        t_all[:, k] = 2.0 * tau * t_all[:, k - 1] - t_all[:, k - 2]
    iphi = np.empty((n, n))
    iphi[:, 0], iphi[:, 1] = tau + 1.0, 0.5 * (tau * tau - 1.0)
    for k in range(2, n):
        iphi[:, k] = 0.5 * (t_all[:, k + 1] / (k + 1) - t_all[:, k - 1] / (k - 1)) \
            - (-1.0) ** k / (k * k - 1.0)
    iphi[0, :] = 0.0
    p_ref = iphi @ ((2.0 / (n - 1)) * t_all[:, :n].T / np.outer(c, c))
    assert np.array_equal(cheb._ref_operators(n)[0], p_ref)


def test_differentiation_matrix_equals_the_closed_form():
    """Q from the barycentric weights, ``(w_j / w_i) / dtau``, against the
    closed form it replaced, ``(c_i / c_j) (-1)^(i+j) / dtau`` with ``c = 2``
    at the ends and the negative-sum diagonal: bit for bit.  The uncached
    builder keeps one size in memory at a time."""
    for n in [*range(2, 260), 300, 512, 777, 1024]:
        c = np.ones(n)
        c[0] = c[-1] = 2.0
        i, j, m = np.arange(n)[:, np.newaxis], np.arange(n)[np.newaxis, :], n - 1
        dtau = 2.0 * np.sin(np.pi * (i + j) / (2 * m)) * np.sin(np.pi * (i - j) / (2 * m))
        np.fill_diagonal(dtau, 1.0)
        q_ref = (c[:, np.newaxis] / c[np.newaxis, :]) * (-1.0) ** (i + j) / dtau
        np.fill_diagonal(q_ref, 0.0)
        np.fill_diagonal(q_ref, -q_ref.sum(axis=1))
        assert np.array_equal(cheb._ref_operators.__wrapped__(n)[1], q_ref), n


def test_n2_operators_are_two_point_rules():
    # with two nodes the interpolant is the chord, so differentiation is
    # the finite difference and integration the trapezoid
    dt = 0.4
    ops = build_operators(2, dt)
    assert np.allclose(ops.q_mat, np.array([[-1.0, 1.0], [-1.0, 1.0]]) / dt)
    assert np.allclose(ops.p_mat, np.array([[0.0, 0.0], [0.5, 0.5]]) * dt)


# Interpolation inside a segment is rk45.sample_at on a marched (or
# hand-assembled) trajectory: the barycentric formula on the owning segment.

@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5))
def test_interpolate_reproduces_nodes(coef):
    t_nodes = 1.0 + build_operators(5, 2.0).offsets
    vals = chebvals(cgl_nodes(5), np.asarray(coef))
    traj = one_segment(t_nodes, vals)
    for t, v in zip(t_nodes, vals):
        assert sample_at(traj, float(t))[0, 0] == v
    assert np.array_equal(sample_at(traj, t_nodes)[:, 0], vals)


def test_interpolate_matches_polynomial_between_nodes():
    t_nodes = build_operators(7, 2.0).offsets
    poly = np.array([0.3, -1.2, 0.5, 0.0, 2.0, -0.7, 0.1])
    traj = one_segment(t_nodes, chebvals(cgl_nodes(7), poly))
    t = np.linspace(0.0, 2.0, 17)
    got = sample_at(traj, t)[:, 0]
    assert np.max(np.abs(got - chebvals(t - 1.0, poly))) <= 1e-12


def test_interpolate_vector_values_and_domain_check():
    t_nodes = build_operators(5, 1.0).offsets
    traj = one_segment(t_nodes, np.column_stack([t_nodes, t_nodes ** 2]))
    out = sample_at(traj, 0.5)
    assert out.shape == (1, 2)
    assert out[0, 0] == pytest.approx(0.5, abs=1e-13)
    assert out[0, 1] == pytest.approx(0.25, abs=1e-13)
    with pytest.raises(ValueError):
        sample_at(traj, 1.5)


def test_sample_at_segment_joins():
    """Each segment owns its interpolant.  Three hand-assembled segments
    carry three different quadratics that meet at the joins; a query on a
    join returns the stored state without reaching the barycentric
    division, and every other query reads the segment that owns it."""
    offsets = build_operators(5, 0.5).offsets
    joins = np.array([0.0, 0.5, 1.0, 1.5])

    def piece(k, t):
        return 0.3 * t + (1.0 - 2.0 * k) * (t - joins[k]) * (t - joins[k + 1])

    times = np.concatenate([joins[k] + offsets[min(k, 1):] for k in range(3)])
    states = np.concatenate([piece(k, joins[k] + offsets[min(k, 1):])
                             for k in range(3)])
    traj = Trajectory(times=times, states=states[:, np.newaxis],
                      segment_iterations=np.array([1, 1, 1]), total_rhs_evals=0)
    inner = np.concatenate([np.nextafter(joins[1:-1], -np.inf),
                            np.nextafter(joins[1:-1], np.inf),
                            np.linspace(0.0, 1.5, 31) + 0.01 * np.pi])
    inner = inner[inner < 1.5]
    owner = np.minimum((inner // 0.5).astype(int), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_joins = sample_at(traj, joins)[:, 0]
        got = sample_at(traj, inner)[:, 0]
    assert np.array_equal(at_joins, states[::4])
    expected = np.array([piece(k, t) for k, t in zip(owner, inner)])
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_sample_at_refuses_nodes_that_do_not_split_into_segments():
    """Eight nodes are not two segments of one N (7 = 2 (N - 1) has no
    integer N): a query between nodes is refused, not read off a bad split."""
    times = np.linspace(0.0, 1.0, 8)
    traj = Trajectory(times=times, states=times[:, np.newaxis],
                      segment_iterations=np.array([1, 1]), total_rhs_evals=0)
    with pytest.raises(ValueError, match="8 samples do not split into 2 segments"):
        sample_at(traj, np.array([0.05]))


def test_sample_at_reads_a_march():
    # march stores N nodes per segment, joins once: a cubic is reproduced
    cubic = OdeSystem(dim=1, rhs=lambda t, x: np.array([3.0 * t * t]),
                      jac=lambda t, x: np.zeros((len(t), 1, 1)))
    traj = march(cubic, 0.0, 2.0, np.array([0.0]), SolverConfig(5, 0.5, 1e-14))
    assert traj.segment_iterations.size == 4
    query = np.linspace(0.0, 2.0, 41) * (1.0 - 1e-3 * np.pi)
    assert np.max(np.abs(sample_at(traj, query)[:, 0] - query ** 3)) <= 1e-12
