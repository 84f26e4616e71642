"""Segment-wise variational iteration engine.

The solver advances an initial value problem one fixed-length segment at
a time.  On each segment the state trajectory is a Chebyshev interpolant
through its node values ``x`` (an ``M x D`` array), and the node values
are corrected iteratively:

    x <- x + J.(H @ r) - P @ r,      r = Q @ x - g(t, x)

where ``r`` is the collocation residual, ``P``/``Q``/``H`` come from
:mod:`lvim.cheb`, and ``J.`` applies the rhs Jacobian row-wise, either
re-evaluated at every node and iteration ("full" mode) or evaluated once
per segment at the incoming state ("frozen" mode).  The first rows of
``P`` and ``H`` are identically zero, so the first node never moves and
the initial condition is preserved bit-for-bit.

The update is a feedback-accelerated Picard iteration: dropping the
Jacobian term entirely would leave plain Picard in integrated form, and
the ``J H`` term supplies the first-order correction that speeds up
convergence on longer segments.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .cheb import CollocationGrid, OperatorSet, build_operators
from .errors import ConvergenceError, DomainViolationError

__all__ = [
    "OdeSystem",
    "SolverConfig",
    "SegmentResult",
    "Trajectory",
    "residual",
    "iterate_segment",
    "iterate_segment_frozen",
    "march",
]

_JACOBIAN_MODES = ("full", "frozen")


def _max_of(a: np.ndarray) -> float:
    """``float(np.max(a))`` of a non-negative array, taken exactly over a
    Python list (cheaper on small arrays); a NaN anywhere gives NaN."""
    v = a.ravel().tolist()
    return math.nan if math.isnan(sum(v)) else max(v)


@dataclass
class OdeSystem:
    """A first-order system ``dx/dt = rhs(t, x)`` with optional Jacobian.

    ``rhs`` and ``jac`` must be pure functions of ``(t, x)``; the only
    state an instance mutates is its own evaluation counter, which is why
    the engine funnels every rhs call through :meth:`eval_rhs`.  When no
    analytic Jacobian is supplied, a central-difference approximation is
    used (step ``1e-6 * (1 + |x_i|)`` per component); those probe
    evaluations are counted like any other.
    """

    dim: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    jac: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    name: str = ""
    rhs_evals: int = field(default=0, compare=False)

    def eval_rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        self.rhs_evals += 1
        g = np.asarray(self.rhs(t, x), dtype=float)
        # a finite sum implies finite entries; only a sum that is not
        # finite (possibly by overflow) needs the element-wise test
        if not math.isfinite(sum(g.ravel().tolist())) and not np.all(np.isfinite(g)):
            raise DomainViolationError(
                f"right-hand side returned a non-finite value at t={t!r}",
                t=t, state=np.array(x, dtype=float))
        return g

    def eval_jac(self, t: float, x: np.ndarray) -> np.ndarray:
        if self.jac is not None:
            return np.asarray(self.jac(t, x), dtype=float)
        return self._fd_jac(t, x)

    def _fd_jac(self, t: float, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty((self.dim, self.dim))
        for i in range(self.dim):
            h = 1e-6 * (1.0 + abs(x[i]))
            xp = x.copy()
            xm = x.copy()
            xp[i] += h
            xm[i] -= h
            out[:, i] = (self.eval_rhs(t, xp) - self.eval_rhs(t, xm)) / (2.0 * h)
        return out


@dataclass(frozen=True)
class SolverConfig:
    """Iteration settings for one solve.

    ``n_basis`` and ``dt`` fix the per-segment grid, ``tol`` is the
    absolute max-norm bound on the node corrections that counts as
    converged, and ``jacobian_mode`` selects between re-evaluating the
    Jacobian at every node ("full") or once per segment ("frozen").
    """

    n_basis: int
    dt: float
    tol: float
    max_iter: int = 100
    jacobian_mode: str = "full"

    def __post_init__(self):
        if self.n_basis < 2:
            raise ValueError(f"n_basis must be >= 2, got {self.n_basis}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.jacobian_mode not in _JACOBIAN_MODES:
            raise ValueError(
                f"jacobian_mode must be one of {_JACOBIAN_MODES}, "
                f"got {self.jacobian_mode!r}")


@dataclass
class SegmentResult:
    """Converged node states of one segment plus iteration statistics."""

    node_states: np.ndarray         # (M, D), first row equals the incoming state
    iterations: int
    final_correction: float
    converged: bool
    correction_history: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass
class Trajectory:
    """Sampled solution of a solve.

    ``times``/``states`` hold every collocation node (or accepted step)
    in increasing time order with duplicate segment joins removed.
    ``segment_iterations`` is per-segment for the iterative solver and
    empty for single-pass integrators.
    """

    times: np.ndarray               # (n,)
    states: np.ndarray              # (n, D)
    segment_iterations: np.ndarray  # (n_segments,) of int
    total_rhs_evals: int
    wall_time: float = 0.0


def _segment_times(ops: OperatorSet, t_start: Optional[float]) -> np.ndarray:
    """Physical node times, optionally shifted to a different segment start.

    Operator matrices are shift-invariant in the segment start (``P`` and
    ``Q`` do not depend on it at all and ``H`` only through differences of
    node times), so a cached operator set built for one segment can be
    reused for any later segment of the same length; only the evaluation
    times move.
    """
    grid = ops.grid
    if t_start is None or t_start == grid.t_start:
        return grid.physical_nodes
    return t_start + (grid.physical_nodes - grid.t_start)


def residual(ops: OperatorSet, system: OdeSystem, node_states: np.ndarray,
             t_nodes: Optional[np.ndarray] = None) -> np.ndarray:
    """Collocation residual ``Q @ x - g`` at the segment nodes.

    Column ``d`` is the derivative of the interpolant of state component
    ``d`` minus the rhs component, both sampled at the nodes.  The rhs is
    evaluated node-by-node in ascending time order.
    """
    t = ops.grid.physical_nodes if t_nodes is None else t_nodes
    x = np.asarray(node_states, dtype=float)
    g = np.empty_like(x)
    for j in range(t.size):
        g[j] = system.eval_rhs(t[j], x[j])
    return ops.q_mat @ x - g


def _iterate(ops, system, x0, config, t_start, frozen):
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.dim,):
        raise ValueError(
            f"initial state has shape {x0.shape}, expected ({system.dim},)")
    t_nodes = _segment_times(ops, t_start)
    m = ops.grid.n_basis

    # Constant initial guess: every node starts at the incoming state.
    x = np.repeat(x0[np.newaxis, :], m, axis=0)
    j_frozen = system.eval_jac(t_nodes[0], x0) if frozen else None
    js = None if frozen else np.empty((m, system.dim, system.dim))

    history = []
    corr = np.inf
    for it in range(1, config.max_iter + 1):
        r = residual(ops, system, x, t_nodes=t_nodes)
        hr = ops.h_mat @ r
        pr = ops.p_mat @ r
        if frozen:
            delta = hr @ j_frozen.T - pr
        else:
            for j in range(m):
                js[j] = system.eval_jac(t_nodes[j], x[j])
            delta = np.einsum("jab,jb->ja", js, hr) - pr
        x += delta
        corr = _max_of(np.abs(delta))
        history.append(corr)
        if corr < config.tol:
            return SegmentResult(node_states=x, iterations=it,
                                 final_correction=corr, converged=True,
                                 correction_history=np.array(history))
    raise ConvergenceError(
        f"no convergence within {config.max_iter} iterations on the segment "
        f"starting at t={t_nodes[0]:g} (last correction {corr:.3e}); "
        "reducing dt usually restores convergence")


def iterate_segment(ops: OperatorSet, system: OdeSystem, x0: np.ndarray,
                    config: SolverConfig, t_start: Optional[float] = None
                    ) -> SegmentResult:
    """Iterate one segment to convergence, re-evaluating the Jacobian at
    every node of every sweep.

    Stops as soon as the max-norm of the node correction drops below
    ``config.tol`` and raises :class:`ConvergenceError` if the iteration
    budget runs out.  ``t_start`` shifts the evaluation times so a cached
    operator set can serve any segment of equal length.
    """
    return _iterate(ops, system, x0, config, t_start, frozen=False)


def iterate_segment_frozen(ops: OperatorSet, system: OdeSystem, x0: np.ndarray,
                           config: SolverConfig, t_start: Optional[float] = None
                           ) -> SegmentResult:
    """Iterate one segment with the Jacobian evaluated once at the segment
    start and reused for every node and sweep.

    Equivalent to :func:`iterate_segment` for linear systems; cheaper per
    sweep whenever Jacobian evaluations dominate.
    """
    return _iterate(ops, system, x0, config, t_start, frozen=True)


def march(system: OdeSystem, t0: float, tf: float, x0: np.ndarray,
          config: SolverConfig) -> Trajectory:
    """Integrate ``[t0, tf]`` by marching fixed-length segments.

    The span is split into ``dt``-sized segments plus one truncated final
    segment when the span is not an exact multiple.  Operator sets are
    cached by segment length and reused across equal-length segments.
    The returned trajectory samples every collocation node once (segment
    joins are deduplicated) and records per-segment iteration counts and
    the rhs evaluations spent.
    """
    if not tf > t0:
        raise ValueError(f"need tf > t0, got t0={t0}, tf={tf}")
    x0 = np.asarray(x0, dtype=float)
    step = iterate_segment_frozen if config.jacobian_mode == "frozen" \
        else iterate_segment

    span = tf - t0
    n_full = int(np.floor(span / config.dt + 1e-12))
    rem = span - n_full * config.dt
    if rem <= 1e-12 * config.dt:
        rem = 0.0
    if n_full == 0:
        starts, lens = [t0], [span]
    else:
        starts = [t0 + i * config.dt for i in range(n_full)]
        lens = [config.dt] * n_full
        if rem:
            starts.append(t0 + n_full * config.dt)
            lens.append(rem)

    ops_cache: dict[float, OperatorSet] = {}
    times = [t0]
    states = [x0.copy()]
    iters = []
    evals_before = system.rhs_evals
    t_wall = time.perf_counter()

    x = x0
    for i, (t_seg, seg_len) in enumerate(zip(starts, lens)):
        ops = ops_cache.get(seg_len)
        if ops is None:
            ops = build_operators(CollocationGrid(config.n_basis, t_seg, seg_len))
            ops_cache[seg_len] = ops
        try:
            res = step(ops, system, x, config, t_start=t_seg)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"segment {i} (t={t_seg:g}): {exc}") from exc
        except DomainViolationError as exc:
            raise DomainViolationError(
                f"segment {i} (t={t_seg:g}): {exc}",
                t=exc.t, state=exc.state) from exc
        t_nodes = _segment_times(ops, t_seg)
        times.extend(t_nodes[1:])
        states.extend(res.node_states[1:])
        iters.append(res.iterations)
        x = res.node_states[-1]

    wall = time.perf_counter() - t_wall
    return Trajectory(times=np.array(times), states=np.array(states),
                      segment_iterations=np.array(iters, dtype=int),
                      total_rhs_evals=system.rhs_evals - evals_before,
                      wall_time=wall)
