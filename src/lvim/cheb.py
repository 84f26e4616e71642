"""Chebyshev-Gauss-Lobatto nodes and collocation operator matrices.

Each state component is represented on a time segment by the degree
``N - 1`` Chebyshev interpolant through its values at the ``N``
Gauss-Lobatto nodes.  Differentiating or integrating that interpolant is
then a dense ``N x N`` matrix product in node space.  This module builds
the three matrices the solver needs:

``q_mat``
    node values -> node values of the interpolant's time derivative,
``p_mat``
    node values -> node values of the running integral from the segment
    start (so its first row is identically zero),
``h_mat``
    the commutator ``P T - T P`` with ``T = diag(node times)``, which
    appears in the Jacobian feedback term of the iteration.  Its entries
    are ``P_ij (t_j - t_i)``, so only node time differences enter.

All three are closed-form products and sums: no linear solve, no
inverse.  The reference-domain matrices depend only on the node count
and are cached per ``N``; a segment of length ``dt`` rescales them, so
an operator set depends on ``(N, dt)`` only, never on where the segment
starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import checked

__all__ = [
    "OperatorSet",
    "cgl_nodes",
    "build_operators",
]

# Largest node count build_operators accepts.  The reference matrices cost
# O(N^2) memory and O(N^3) time (N = 1024: about 0.4 s and 70 MB; the stock
# problems use at most 26), so a larger N is refused before any allocation.
_MAX_N_BASIS = 1024

# Largest node count whose operator sets build_operators keeps: a set holds
# 3 N^2 floats (24 kB at N = 32), and larger grids spend far longer in their
# sweeps than in a rebuild.
_MAX_CACHED_N = 32


def cgl_nodes(m: int) -> np.ndarray:
    """Return the ``m`` Chebyshev-Gauss-Lobatto nodes on [-1, 1], ascending.

    The nodes are the extrema of ``T_{m-1}`` together with the interval
    endpoints, ``tau_j = -cos(pi * j / (m - 1))`` for ``j = 0 .. m-1``.
    They are evaluated through the equivalent sine form so the node set
    is exactly symmetric about zero and the endpoints are exactly +-1.
    """
    checked("m", m, 2, integer=True)
    j = np.arange(m)
    nodes = np.sin(np.pi * (2.0 * j - (m - 1)) / (2.0 * (m - 1)))
    nodes.setflags(write=False)
    return nodes


@dataclass(frozen=True)
class OperatorSet:
    """Differentiation, integration and commutator matrices for one
    segment length.

    ``offsets`` are the node times relative to the segment start,
    ``dt/2 * (tau + 1)``.  The first rows of ``p_mat`` and ``h_mat`` are
    exactly zero, which is what pins the initial condition during the
    iteration.  ``kernels`` holds the compiled sweep functions
    :mod:`lvim.core` binds to these matrices on first use, so each is
    bound once per operator set.
    """

    p_mat: np.ndarray
    q_mat: np.ndarray
    h_mat: np.ndarray
    offsets: np.ndarray
    kernels: dict = field(default_factory=dict, init=False, compare=False, repr=False)


@lru_cache(maxsize=None)
def _ref_operators(n: int):
    """Reference-domain ``P``, ``Q``, ``-P o dtau``, nodes and barycentric
    weights ``w`` for size n: ``w_j = (-1)^j``, halved at the two ends, the
    one statement of the CGL family, which the interpolant reads too.

    ``P = iphi @ V^-1``: ``iphi`` holds the antiderivatives of ``T_k``
    at the nodes, and the CGL Vandermonde matrix ``V[j, k] = T_k(tau_j)``
    has the explicit inverse ``V^-1[k, j] = 2 |w_k w_j| T_k(tau_j) / (n-1)``
    (discrete orthogonality).  ``Q`` is the barycentric differentiation
    matrix, off-diagonal ``(w_j / w_i) / (tau_i - tau_j)`` (Berrut &
    Trefethen, SIAM Review 2004, sec. 9).  The node differences are taken
    in the trigonometric form ``2 sin(pi(i+j)/2m) sin(pi(i-j)/2m)``,
    ``m = n - 1``, which avoids the cancellation of subtracting nearby
    nodes (Baltensperger & Trummer, SIAM J. Sci. Comput. 2003).

    Returned arrays are read-only and shared between callers.
    """
    tau = cgl_nodes(n)
    m = n - 1
    w = (-1.0) ** np.arange(n)
    w[[0, -1]] *= 0.5

    # T_0 .. T_n: one degree past the basis, for the antiderivative of T_{n-1}
    t_all = np.polynomial.chebyshev.chebvander(tau, n)

    # Antiderivatives normalized to vanish at tau = -1:
    # integral of T_0 is tau + 1, of T_1 is (tau^2 - 1)/2, and for k >= 2
    # 0.5 * (T_{k+1}/(k+1) - T_{k-1}/(k-1)) minus its value at -1.
    iphi = np.empty((n, n))
    iphi[:, 0] = tau + 1.0
    iphi[:, 1] = 0.5 * (tau * tau - 1.0)
    k = np.arange(2, n)
    iphi[:, 2:] = 0.5 * (t_all[:, 3:] / (k + 1) - t_all[:, 1:n - 1] / (k - 1)) \
        - (-1.0) ** k / (k * k - 1.0)
    # The first row is an integral from the left endpoint to itself; pin it
    # to exact zero so downstream operators keep an exactly zero first row.
    iphi[0, :] = 0.0
    v_inv = (2.0 / m) * t_all[:, :n].T * np.abs(np.outer(w, w))
    p_ref = iphi @ v_inv

    i = np.arange(n)[:, np.newaxis]
    j = np.arange(n)[np.newaxis, :]
    dtau = 2.0 * np.sin(np.pi * (i + j) / (2 * m)) * np.sin(np.pi * (i - j) / (2 * m))
    np.fill_diagonal(dtau, 1.0)
    q_ref = (w / w[:, np.newaxis]) / dtau
    # negative-sum trick: each row of a differentiation matrix annihilates
    # constants, so pin the diagonal to make that hold to the last bit
    np.fill_diagonal(q_ref, 0.0)
    np.fill_diagonal(q_ref, -q_ref.sum(axis=1))
    np.fill_diagonal(dtau, 0.0)
    h_ref = -p_ref * dtau

    for a in (p_ref, q_ref, h_ref, w):
        a.setflags(write=False)
    return p_ref, q_ref, h_ref, tau, w


def build_operators(n_basis: int, dt: float) -> OperatorSet:
    """Build the operator set for segments of ``n_basis`` nodes and length
    ``dt``.

    The reference-domain matrices are cached per node count; this call
    only rescales them: ``P = dt/2 P_ref``, ``Q = Q_ref / (dt/2)`` and
    ``H = (dt/2)^2 (-P_ref o dtau)``, which equals ``P T - T P`` for the
    node times of any segment of this length.  Sets of up to
    ``_MAX_CACHED_N`` nodes are cached too, the 64 most recent ``(N,
    dt)``: the matrices are read-only, so marches on one grid (the shots
    of a shooting search) share one set and the sweep kernels bound to it.
    """
    checked("n_basis", n_basis, 2, _MAX_N_BASIS, integer=True)
    checked("dt", dt, 0.0, strict=True)
    if n_basis <= _MAX_CACHED_N:
        return _cached_operator_set(n_basis, dt)
    return _operator_set(n_basis, dt)


def _operator_set(n_basis: int, dt: float) -> OperatorSet:
    p_ref, q_ref, h_ref, tau, _ = _ref_operators(n_basis)
    half = 0.5 * dt
    p_mat = half * p_ref
    q_mat = q_ref / half
    h_mat = (half * half) * h_ref
    offsets = half * (tau + 1.0)
    for a in (p_mat, q_mat, h_mat, offsets):
        a.setflags(write=False)
    return OperatorSet(p_mat=p_mat, q_mat=q_mat, h_mat=h_mat, offsets=offsets)


_cached_operator_set = lru_cache(maxsize=64)(_operator_set)
