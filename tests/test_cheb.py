"""Operator construction: node placement, exactness, pinned rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvim import cheb
from lvim.cheb import build_operators, cgl_nodes, interpolate


def chebvals(tau, coef):
    return np.polynomial.chebyshev.chebval(tau, coef)


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
            assert interpolate(t, 2.0 * t - 1.0, mid) == pytest.approx(
                2.0 * mid - 1.0, rel=1e-14)
    finally:
        cheb._ref_operators.cache_clear()


def test_n2_operators_are_two_point_rules():
    # with two nodes the interpolant is the chord, so differentiation is
    # the finite difference and integration the trapezoid
    dt = 0.4
    ops = build_operators(2, dt)
    assert np.allclose(ops.q_mat, np.array([[-1.0, 1.0], [-1.0, 1.0]]) / dt)
    assert np.allclose(ops.p_mat, np.array([[0.0, 0.0], [0.5, 0.5]]) * dt)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5))
def test_interpolate_reproduces_nodes(coef):
    t_nodes = 1.0 + build_operators(5, 2.0).offsets
    vals = chebvals(cgl_nodes(5), np.asarray(coef))
    for t, v in zip(t_nodes, vals):
        assert interpolate(t_nodes, vals, float(t)) == v


def test_interpolate_matches_polynomial_between_nodes():
    t_nodes = build_operators(7, 2.0).offsets
    poly = np.array([0.3, -1.2, 0.5, 0.0, 2.0, -0.7, 0.1])
    vals = chebvals(cgl_nodes(7), poly)
    for t in np.linspace(0.0, 2.0, 17):
        tau = t - 1.0
        assert interpolate(t_nodes, vals, t) == pytest.approx(
            chebvals(tau, poly), abs=1e-12)


def test_interpolate_vector_values_and_domain_check():
    t_nodes = build_operators(5, 1.0).offsets
    vals = np.column_stack([t_nodes, t_nodes ** 2])
    out = interpolate(t_nodes, vals, 0.5)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(0.5, abs=1e-13)
    assert out[1] == pytest.approx(0.25, abs=1e-13)
    with pytest.raises(ValueError):
        interpolate(t_nodes, vals, 1.5)
