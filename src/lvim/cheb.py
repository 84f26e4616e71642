"""Chebyshev-Gauss-Lobatto grids and collocation operator matrices.

Each state component is represented on a time segment by the degree
``N - 1`` Chebyshev interpolant through its values at the ``N``
Gauss-Lobatto nodes.  Differentiating or integrating that interpolant is
then a dense ``M x M`` matrix product in node space.  This module builds
the three matrices the solver needs:

``q_mat``
    node values -> node values of the interpolant's time derivative,
``p_mat``
    node values -> node values of the running integral from the segment
    start (so its first row is identically zero),
``h_mat``
    the commutator ``P T - T P`` with ``T = diag(physical nodes)``, which
    appears in the Jacobian feedback term of the iteration.

All reference-domain quantities depend only on the node count, so they
are computed once per ``N`` and cached; mapping to a physical segment of
length ``t_len`` is a cheap scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import SingularBasisError

__all__ = [
    "CollocationGrid",
    "OperatorSet",
    "cgl_nodes",
    "build_operators",
    "interpolate",
]


def cgl_nodes(m: int) -> np.ndarray:
    """Return the ``m`` Chebyshev-Gauss-Lobatto nodes on [-1, 1], ascending.

    The nodes are the extrema of ``T_{m-1}`` together with the interval
    endpoints, ``tau_j = -cos(pi * j / (m - 1))`` for ``j = 0 .. m-1``.
    They are evaluated through the equivalent sine form so the node set
    is exactly symmetric about zero and the endpoints are exactly +-1.
    """
    if m < 2:
        raise ValueError(f"a collocation grid needs at least 2 nodes, got m={m}")
    j = np.arange(m)
    nodes = np.sin(np.pi * (2.0 * j - (m - 1)) / (2.0 * (m - 1)))
    nodes.setflags(write=False)
    return nodes


@dataclass(frozen=True)
class CollocationGrid:
    """One collocation segment: ``n_basis`` Chebyshev polynomials sampled at
    as many Gauss-Lobatto nodes on ``[t_start, t_start + t_len]``.

    The node count always equals the basis size, so the interpolation
    problem on the segment is square.
    """

    n_basis: int
    t_start: float
    t_len: float
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    physical_nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_basis < 2:
            raise ValueError(f"n_basis must be >= 2, got {self.n_basis}")
        if not self.t_len > 0.0:
            raise ValueError(f"t_len must be positive, got {self.t_len}")
        tau = cgl_nodes(self.n_basis)
        phys = self.t_start + 0.5 * self.t_len * (tau + 1.0)
        phys.setflags(write=False)
        object.__setattr__(self, "nodes", tau)
        object.__setattr__(self, "physical_nodes", phys)


@dataclass(frozen=True)
class OperatorSet:
    """Differentiation, integration and commutator matrices for one grid.

    ``p_mat`` and ``q_mat`` act on physical-time node values; ``h_mat``
    is built from the grid's physical node times.  The first rows of
    ``p_mat`` and ``h_mat`` are exactly zero, which is what pins the
    initial condition during the iteration.
    """

    p_mat: np.ndarray
    q_mat: np.ndarray
    h_mat: np.ndarray
    grid: CollocationGrid


@lru_cache(maxsize=None)
def _ref_basis(n: int):
    """Basis and antiderivative values at the CGL nodes of size n.

    Returned arrays are read-only and shared between callers.
    """
    tau = cgl_nodes(n)
    m = n

    # T_k by the three-term recurrence; one extra degree is needed for the
    # antiderivative of the highest basis polynomial.
    t_all = np.empty((m, n + 1))
    t_all[:, 0] = 1.0
    t_all[:, 1] = tau
    for k in range(2, n + 1):
        t_all[:, k] = 2.0 * tau * t_all[:, k - 1] - t_all[:, k - 2]
    phi = t_all[:, :n].copy()

    # Antiderivatives normalized to vanish at tau = -1:
    # integral of T_0 is tau + 1, of T_1 is (tau^2 - 1)/2, and for k >= 2
    # 0.5 * (T_{k+1}/(k+1) - T_{k-1}/(k-1)) minus its value at -1.
    iphi = np.empty((m, n))
    iphi[:, 0] = tau + 1.0
    iphi[:, 1] = 0.5 * (tau * tau - 1.0)
    for k in range(2, n):
        iphi[:, k] = 0.5 * (t_all[:, k + 1] / (k + 1) - t_all[:, k - 1] / (k - 1)) \
            - (-1.0) ** k / (k * k - 1.0)
    # The first row is an integral from the left endpoint to itself; pin it
    # to exact zero so downstream operators keep an exactly zero first row.
    iphi[0, :] = 0.0

    for a in (phi, iphi):
        a.setflags(write=False)
    return phi, iphi


def _ref_diff_matrix(n: int) -> np.ndarray:
    """Closed-form CGL differentiation matrix on [-1, 1] for n nodes.

    Off-diagonal entries are ``c_i (-1)^(i+j) / (c_j (tau_i - tau_j))``
    with ``c = 2`` at the two endpoints and 1 elsewhere (Trefethen,
    *Spectral Methods in MATLAB*, ch. 6).  The node differences are taken
    in the trigonometric form ``2 sin(pi(i+j)/2m) sin(pi(i-j)/2m)``,
    ``m = n - 1``, which avoids the cancellation of subtracting nearby
    nodes (Baltensperger & Trummer, SIAM J. Sci. Comput. 2003).
    """
    m = n - 1
    i = np.arange(n)[:, np.newaxis]
    j = np.arange(n)[np.newaxis, :]
    c = np.ones(n)
    c[0] = c[-1] = 2.0
    diff = 2.0 * np.sin(np.pi * (i + j) / (2 * m)) * np.sin(np.pi * (i - j) / (2 * m))
    np.fill_diagonal(diff, 1.0)
    q_ref = (c[:, np.newaxis] / c[np.newaxis, :]) * (-1.0) ** (i + j) / diff
    # negative-sum trick: each row of a differentiation matrix annihilates
    # constants, so pin the diagonal to make that hold to the last bit
    np.fill_diagonal(q_ref, 0.0)
    np.fill_diagonal(q_ref, -q_ref.sum(axis=1))
    return q_ref


@lru_cache(maxsize=None)
def _ref_operators(n: int):
    """Reference-domain integration/differentiation matrices for size n."""
    phi, iphi = _ref_basis(n)
    # Right-divide by phi via an LU solve on the transposed system; never
    # form the explicit inverse.
    try:
        p_ref = np.linalg.solve(phi.T, iphi.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularBasisError(
            f"collocation basis for N={n} is numerically singular") from exc
    if not np.all(np.isfinite(p_ref)):
        raise SingularBasisError(
            f"collocation basis for N={n} produced non-finite operators")
    q_ref = _ref_diff_matrix(n)
    q_ref.setflags(write=False)
    p_ref.setflags(write=False)
    return p_ref, q_ref


def build_operators(grid: CollocationGrid) -> OperatorSet:
    """Build the physical-time operator set for one segment.

    The reference-domain solves are cached per basis size; this call only
    rescales them to the segment length and forms the commutator from the
    physical node times.
    """
    p_ref, q_ref = _ref_operators(grid.n_basis)
    half = 0.5 * grid.t_len
    p_mat = half * p_ref
    q_mat = q_ref / half
    t = grid.physical_nodes
    h_mat = p_mat * t[np.newaxis, :] - t[:, np.newaxis] * p_mat
    for a in (p_mat, q_mat, h_mat):
        a.setflags(write=False)
    return OperatorSet(p_mat=p_mat, q_mat=q_mat, h_mat=h_mat, grid=grid)


def interpolate(grid: CollocationGrid, node_values: np.ndarray, t_query: float):
    """Evaluate the segment interpolant at one physical time.

    ``node_values`` may be a length-M vector or an ``M x D`` array; the
    result is a scalar or a length-D vector accordingly.  ``t_query``
    must lie inside the segment.
    """
    lo = grid.t_start
    hi = grid.t_start + grid.t_len
    if not lo <= t_query <= hi:
        raise ValueError(
            f"t_query={t_query!r} outside segment [{lo!r}, {hi!r}]")
    phi, _ = _ref_basis(grid.n_basis)
    vals = np.asarray(node_values, dtype=float)
    coeffs = np.linalg.solve(phi, vals)
    tau = 2.0 * (t_query - grid.t_start) / grid.t_len - 1.0
    tau = min(1.0, max(-1.0, tau))
    return np.polynomial.chebyshev.chebval(tau, coeffs)
