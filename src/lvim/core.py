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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .cheb import OperatorSet, build_operators
from .errors import ConvergenceError, DomainViolationError

__all__ = [
    "OdeSystem",
    "SolverConfig",
    "SegmentResult",
    "Trajectory",
    "residual",
    "iterate_segment",
    "march",
]

_JACOBIAN_MODES = ("full", "frozen")

# Most segments one march takes.  The stock spans need at most 500; a span
# that needs more than this is refused before the segment list is built.
_MAX_SEGMENTS = 10**7


def _max_of(a: np.ndarray) -> float:
    """``float(np.max(a))`` of a non-negative array, taken exactly over a
    Python list (cheaper on small arrays); a NaN anywhere gives NaN."""
    v = a.ravel().tolist()
    return math.nan if math.isnan(sum(v)) else max(v)


def _overflow(what: str, t: float, x: np.ndarray) -> DomainViolationError:
    # math.exp and friends raise OverflowError where numpy would return inf
    return DomainViolationError(f"{what} overflowed at t={float(t)!r}",
                                t=t, state=np.array(x, dtype=float))


@dataclass
class OdeSystem:
    """A first-order system ``dx/dt = rhs(t, x)`` with its Jacobian.

    ``rhs(t, x)`` takes one point: a time and a ``(D,)`` state.  ``jac``
    takes all nodes of a sweep at once: ``jac(t_nodes, X)`` with
    ``t_nodes`` of shape ``(M,)`` and ``X`` of shape ``(M, D)`` returns
    the ``(M, D, D)`` stack of row Jacobians, row ``i`` a function of
    ``(t_nodes[i], X[i])`` only.  The rhs stays per point because every
    rhs evaluation is counted one by one (``rhs_evals``, and the
    benchmark's span count).  Both must be pure; the only state an
    instance mutates is its own evaluation counter, which is why the
    engine funnels every rhs call through :meth:`eval_rhs`.  The
    iteration needs the analytic ``jac`` and refuses a system without
    one; :func:`lvim.rk45.rk45_integrate` never reads it.
    """

    dim: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    jac: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    rhs_evals: int = field(default=0, compare=False)

    def eval_rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        self.rhs_evals += 1
        try:
            g = np.asarray(self.rhs(t, x), dtype=float)
        except OverflowError as exc:
            raise _overflow("right-hand side", t, x) from exc
        except DomainViolationError as exc:
            # a kernel the rhs calls (gravity's reference-sphere guard) sees
            # neither the time nor the whole state; this evaluation does
            if exc.t is None:
                exc.t, exc.state = t, np.array(x, dtype=float)
            raise
        # a finite sum implies finite entries; only a sum that is not
        # finite (possibly by overflow) needs the element-wise test
        if not math.isfinite(sum(g.ravel().tolist())) and not np.all(np.isfinite(g)):
            raise DomainViolationError(
                f"right-hand side returned a non-finite value at t={float(t)!r}",
                t=t, state=np.array(x, dtype=float))
        return g

    def eval_jac(self, t_nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The ``(M, D, D)`` Jacobian stack at ``M`` nodes: ``t_nodes`` of
        shape ``(M,)``, ``x`` of shape ``(M, D)``."""
        try:
            j = np.asarray(self.jac(t_nodes, x), dtype=float)
        except OverflowError as exc:
            # name the first node that overflows on its own
            for i in range(len(t_nodes)):
                try:
                    self.jac(t_nodes[i:i + 1], x[i:i + 1])
                except OverflowError:
                    raise _overflow("Jacobian", t_nodes[i], x[i]) from exc
            raise
        expected = (len(t_nodes), self.dim, self.dim)
        if j.shape != expected:
            raise ValueError(f"jac returned shape {j.shape}, expected (M, D, D) "
                             f"= {expected}: jac(t_nodes, X) takes all nodes at once")
        return j


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
    """Node states of one converged segment (a segment that does not
    converge raises) plus its per-sweep correction history."""

    node_states: np.ndarray         # (M, D), first row equals the incoming state
    iterations: int
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


def residual(ops: OperatorSet, system: OdeSystem, node_states: np.ndarray,
             t_nodes: Optional[np.ndarray] = None) -> np.ndarray:
    """Collocation residual ``Q @ x - g`` at the segment nodes.

    Column ``d`` is the derivative of the interpolant of state component
    ``d`` minus the rhs component, both sampled at the nodes.  The rhs is
    evaluated node-by-node in ascending time order, at ``t_nodes``
    (default: a segment starting at 0).
    """
    t = ops.offsets if t_nodes is None else t_nodes
    x = np.asarray(node_states, dtype=float)
    g = np.empty_like(x)
    for j in range(t.size):
        g[j] = system.eval_rhs(t[j], x[j])
    return ops.q_mat @ x - g


def iterate_segment(ops: OperatorSet, system: OdeSystem, x0: np.ndarray,
                    config: SolverConfig, t_start: float = 0.0) -> SegmentResult:
    """Iterate one segment starting at ``t_start`` to convergence.

    ``config.jacobian_mode`` picks the Jacobian in the feedback term:
    "full" re-evaluates it at every node of every sweep (one ``jac`` call
    per sweep), "frozen" evaluates it once at the incoming state (one
    call per segment, on one node) and reuses it (the two agree
    for linear constant-coefficient systems).  Stops as soon as the
    max-norm of the node correction drops below ``config.tol`` and raises
    :class:`ConvergenceError` if the iteration budget runs out.  Raises
    ``ValueError`` for a system without ``jac``.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.dim,):
        raise ValueError(
            f"initial state has shape {x0.shape}, expected ({system.dim},)")
    if system.jac is None:
        raise ValueError("the iteration needs the system's analytic jac")
    t_nodes = t_start + ops.offsets
    m = t_nodes.size
    frozen = config.jacobian_mode == "frozen"

    # Constant initial guess: every node starts at the incoming state.
    x = np.repeat(x0[np.newaxis, :], m, axis=0)
    if frozen:
        j_frozen = system.eval_jac(t_nodes[:1], x0[np.newaxis])[0]

    history = []
    corr = np.inf
    for it in range(1, config.max_iter + 1):
        r = residual(ops, system, x, t_nodes=t_nodes)
        hr = ops.h_mat @ r
        pr = ops.p_mat @ r
        if frozen:
            delta = hr @ j_frozen.T - pr
        else:
            delta = np.einsum("jab,jb->ja", system.eval_jac(t_nodes, x), hr) - pr
        x += delta
        corr = _max_of(np.abs(delta))
        history.append(corr)
        if corr < config.tol:
            return SegmentResult(node_states=x, iterations=it,
                                 correction_history=np.array(history))
    raise ConvergenceError(
        f"no convergence within {config.max_iter} iterations on the segment "
        f"starting at t={t_nodes[0]:g} (last correction {corr:.3e}); "
        "reducing dt usually restores convergence")


def march(system: OdeSystem, t0: float, tf: float, x0: np.ndarray,
          config: SolverConfig) -> Trajectory:
    """Integrate ``[t0, tf]`` by marching fixed-length segments.

    The span is split into ``dt``-sized segments plus one truncated final
    segment when the span is not an exact multiple (a span shorter than
    ``dt`` is one segment).  One operator set is built per distinct
    segment length.  The returned trajectory samples every collocation
    node once (segment joins are deduplicated) and records per-segment
    iteration counts and the rhs evaluations spent.
    """
    if not (math.isfinite(t0) and math.isfinite(tf) and tf > t0):
        raise ValueError(f"need finite tf > t0, got t0={t0}, tf={tf}")
    x0 = np.asarray(x0, dtype=float)

    dt = config.dt
    span = tf - t0
    if not span / dt <= _MAX_SEGMENTS:
        raise ValueError(f"a span of {span:g} in segments of dt = {dt:g} "
                         f"needs more than {_MAX_SEGMENTS} segments")
    n_full = int(np.floor(span / dt + 1e-12))
    rem = span - n_full * dt
    lens = [dt] * n_full
    if rem > 1e-12 * dt or n_full == 0:
        lens.append(rem)
    ops_by_len = {length: build_operators(config.n_basis, length)
                  for length in set(lens)}

    times = [t0]
    states = [x0.copy()]
    iters = []
    evals_before = system.rhs_evals

    x = x0
    for i, seg_len in enumerate(lens):
        t_seg = t0 + i * dt
        ops = ops_by_len[seg_len]
        try:
            res = iterate_segment(ops, system, x, config, t_start=t_seg)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"segment {i} (t={t_seg:g}): {exc}") from exc
        except DomainViolationError as exc:
            raise DomainViolationError(
                f"segment {i} (t={t_seg:g}): {exc}",
                t=exc.t, state=exc.state) from exc
        times.extend(t_seg + ops.offsets[1:])
        states.extend(res.node_states[1:])
        iters.append(res.iterations)
        x = res.node_states[-1]

    return Trajectory(times=np.array(times), states=np.array(states),
                      segment_iterations=np.array(iters, dtype=int),
                      total_rhs_evals=system.rhs_evals - evals_before)
