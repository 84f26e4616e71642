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
the initial condition is preserved bit-for-bit.  The three operator
products go through ``ndarray.dot``, which reaches the BLAS routine of the
``@`` operator, with the same bits, at about half the per-call cost.  The
rhs sees each node as Python floats (the point contract of
:class:`OdeSystem`), and its values come back as one ``M x D`` array.

The first iterate is the incoming state at every node, unless the caller
passes a guess: node states of a nearby solve on the same segment grid
(the shots of :mod:`lvim.shooting` seed each other this way).  The guess
is shifted so that its first node is the incoming state exactly; it moves
the iterate the stop rule accepts, not the fixed point.

The update is a feedback-accelerated Picard iteration: dropping the
Jacobian term entirely would leave plain Picard in integrated form, and
the ``J H`` term supplies the first-order correction that speeds up
convergence on longer segments.  The :class:`Trajectory` a march returns
reads itself between its nodes and backwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

import numpy as np

from .cheb import _MAX_N_BASIS, OperatorSet, _ref_operators, build_operators
from .errors import ConvergenceError, DomainViolationError, checked

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


def _start_state(system: OdeSystem, x0) -> np.ndarray:
    """``x0`` as a float array, once its shape is checked to be ``(D,)``."""
    x = np.asarray(x0, dtype=float)
    if x.shape != (system.dim,):
        raise ValueError(f"initial state has shape {x.shape}, expected ({system.dim},)")
    return x


def _checked_start(system: OdeSystem, t0: float, tf: float, x0) -> np.ndarray:
    """``x0`` as a float array, once the span and the state are checked:
    ``tf > t0``, both finite, and a finite ``(D,)`` state."""
    if not (math.isfinite(t0) and math.isfinite(tf) and tf > t0):
        raise ValueError(f"need finite tf > t0, got t0={t0}, tf={tf}")
    x = _start_state(system, x0)
    if not np.all(np.isfinite(x)):
        raise DomainViolationError("initial state is not finite", t=t0, state=x)
    return x


@dataclass
class OdeSystem:
    """A first-order system ``dx/dt = rhs(t, x)`` with its Jacobian.

    ``rhs(t, x)`` takes one point in Python floats, ``t`` and a list ``x``
    of D, and returns a list of D floats, so no oracle stage or sweep node
    builds an array for it; :meth:`eval_rhs` converts any other value (an
    array, a list of ints) that numpy reads as a ``(D,)`` float array.
    ``jac`` takes all nodes of a sweep at once: ``jac(t_nodes, X)`` with
    ``t_nodes`` of shape ``(M,)`` and ``X`` of shape ``(M, D)`` returns the
    ``(M, D, D)`` stack of row Jacobians, row ``i`` a function of
    ``(t_nodes[i], X[i])`` only.  The rhs stays per point because every rhs
    evaluation is counted one by one (``rhs_evals``, and the benchmark's
    span count).  Both must be pure; the only state an instance mutates is
    its own evaluation counter, which is why the engine funnels every rhs
    call through :meth:`eval_rhs`.  The iteration needs the analytic
    ``jac`` and refuses a system without one;
    :func:`lvim.rk45.rk45_integrate` never reads it.
    """

    dim: int
    rhs: Callable[[float, List[float]], List[float]]
    jac: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    rhs_evals: int = field(default=0, compare=False)

    def eval_rhs(self, t: float, x: List[float]) -> List[float]:
        self.rhs_evals += 1
        try:
            g = self.rhs(t, x)
            # any value but a list of D Python floats (a None stands in for
            # a value of no such list) is read by numpy as a (D,) array
            for v in g if type(g) is list and len(g) == self.dim else (None,):
                if type(v) is not float:
                    a = np.asarray(g, dtype=float)
                    if a.shape != (self.dim,):
                        raise ValueError(f"rhs returned shape {a.shape}, "
                                         f"expected (D,) = ({self.dim},)")
                    g = a.tolist()
                    break
        except OverflowError as exc:
            raise _overflow("right-hand side", t, x) from exc
        except ValueError as exc:
            # math.sin(inf) and friends raise where numpy would return NaN:
            # at a state that overflowed that is leaving the domain, at a
            # finite one (a shape refusal, a guard) the error stands
            if all(map(math.isfinite, x)):
                raise
            raise DomainViolationError(
                f"right-hand side is undefined at a non-finite state at t={float(t)!r}",
                t=t, state=np.array(x, dtype=float)) from exc
        except DomainViolationError as exc:
            # a kernel the rhs calls (gravity's reference-sphere guard) sees
            # neither the time nor the whole state; this evaluation does
            if exc.t is None:
                exc.t, exc.state = t, np.array(x, dtype=float)
            raise
        # a finite sum implies finite entries; only a sum that is not
        # finite (possibly by overflow) needs the element-wise test
        if not math.isfinite(sum(g)) and not all(map(math.isfinite, g)):
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
        checked("n_basis", self.n_basis, 2, _MAX_N_BASIS, integer=True)
        checked("dt", self.dt, 0.0, strict=True)
        checked("tol", self.tol, 0.0, strict=True)
        checked("max_iter", self.max_iter, 1, integer=True)
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
    """Sampled solution of a march: every collocation node in increasing
    time order, segment joins once, and the sweeps of each segment.  It
    reads itself between nodes (:meth:`_between`, for
    :func:`lvim.rk45.sample_at`) and backwards (:meth:`mirrored`);
    :class:`lvim.rk45.RkTrajectory` overrides both."""

    times: np.ndarray               # (n,)
    states: np.ndarray              # (n, D)
    segment_iterations: np.ndarray  # (n_segments,) of int
    total_rhs_evals: int

    def _between(self, query: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Values at times ``query`` off the nodes (none divides by zero),
        ``pos`` their ``searchsorted`` positions in ``times``, each on the
        interpolant of its segment: the barycentric formula with the CGL
        weights of :mod:`lvim.cheb` (Berrut & Trefethen, SIAM Review 2004),
        on ``N = (len(times) - 1) / n_segments + 1`` nodes; segment ``k``
        owns nodes ``k*(N-1) .. k*(N-1) + N-1``, the end ones the span's slack."""
        n_seg = len(self.segment_iterations)
        per, rem = divmod(self.times.size - 1, n_seg)
        if rem:
            raise ValueError(f"{self.times.size} samples do not split into {n_seg} segments")
        seg = np.minimum(np.maximum(pos - 1, 0) // per, n_seg - 1)
        rows = (seg * per)[:, np.newaxis] + np.arange(per + 1)
        c = _ref_operators(per + 1)[-1] / (query[:, np.newaxis] - self.times[rows])
        return np.einsum("qj,qjd->qd", c, self.states[rows]) / c.sum(axis=1)[:, np.newaxis]

    def mirrored(self, signs) -> Trajectory:
        """The run read backwards over its span: time ``t`` becomes
        ``times[0] + times[-1] - t``, states are multiplied by ``signs`` (one
        per component), the per-segment counts reversed; the rhs count stays."""
        return replace(self, times=(self.times[0] + self.times[-1]) - self.times[::-1],
                       states=self.states[::-1] * signs,
                       segment_iterations=self.segment_iterations[::-1])


def residual(ops: OperatorSet, system: OdeSystem, node_states: np.ndarray,
             t_nodes: np.ndarray) -> np.ndarray:
    """Collocation residual ``Q @ x - g`` at the segment nodes.

    Column ``d`` is the derivative of the interpolant of state component
    ``d`` minus the rhs component, both sampled at the nodes.  The rhs is
    evaluated node-by-node in ascending time order, at ``t_nodes``, on the
    Python floats of each node (the point contract of :class:`OdeSystem`).
    """
    x = np.asarray(node_states, dtype=float)
    g = [system.eval_rhs(t, x_j) for t, x_j in zip(t_nodes.tolist(), x.tolist())]
    return ops.q_mat.dot(x) - np.array(g)


def iterate_segment(ops: OperatorSet, system: OdeSystem, x0: np.ndarray,
                    config: SolverConfig, t_start: float = 0.0,
                    guess: Optional[np.ndarray] = None) -> SegmentResult:
    """Iterate one segment starting at ``t_start`` to convergence.

    The first iterate is ``x0`` at every node, or, given an ``(M, D)``
    ``guess``, the guess shifted by ``x0 - guess[0]`` with its first row
    set to ``x0`` exactly.

    ``config.jacobian_mode`` picks the Jacobian in the feedback term:
    "full" re-evaluates it at every node of every sweep (one ``jac`` call
    per sweep), "frozen" evaluates it once at the incoming state (one
    call per segment, on one node) and reuses it (the two agree
    for linear constant-coefficient systems).  Stops as soon as the
    max-norm of the node correction drops below ``config.tol`` and raises
    :class:`ConvergenceError` if the iteration budget runs out.  Raises
    ``ValueError`` for a system without ``jac`` and for a guess of any
    other shape, before any rhs call.
    """
    x0 = _start_state(system, x0)
    if system.jac is None:
        raise ValueError("the iteration needs the system's analytic jac")
    t_nodes = t_start + ops.offsets
    m = t_nodes.size
    frozen = config.jacobian_mode == "frozen"

    if guess is None:
        x = np.repeat(x0[np.newaxis, :], m, axis=0)
    else:
        guess = np.asarray(guess, dtype=float)
        if guess.shape != (m, system.dim):
            raise ValueError(f"segment guess has shape {guess.shape}, "
                             f"expected ({m}, {system.dim})")
        x = guess + (x0 - guess[0])
        x[0] = x0
    if frozen:
        j_frozen = system.eval_jac(t_nodes[:1], x0[np.newaxis])[0]

    history = []
    for it in range(1, config.max_iter + 1):
        r = residual(ops, system, x, t_nodes=t_nodes)
        hr = ops.h_mat.dot(r)
        pr = ops.p_mat.dot(r)
        if frozen:
            # not .dot: numpy's dot takes a 1 x 1 Jacobian (D = 1) as a scalar
            # and OpenBLAS's axpy skips a zero scalar, so 0 * inf would give 0
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
          config: SolverConfig, guess: Optional[np.ndarray] = None) -> Trajectory:
    """Integrate ``[t0, tf]`` by marching fixed-length segments.

    The span is split into ``dt``-sized segments plus one truncated final
    segment when the span is not an exact multiple (a span shorter than
    ``dt`` is one segment).  One operator set is built per distinct
    segment length.  The returned trajectory samples every collocation
    node once (segment joins are deduplicated) and records per-segment
    iteration counts and the rhs evaluations spent.

    ``guess`` seeds the iteration with node states on this march's own
    grid, shaped like the ``states`` of the trajectory it returns (the
    ``states`` of an earlier march of the same span and config fit):
    segment ``k`` starts from rows ``k(N-1)`` to ``k(N-1) + N-1``, shifted
    onto its incoming state (see :func:`iterate_segment`).  A guess of any
    other shape, or not finite, raises ``ValueError`` before any rhs call.
    """
    x0 = _checked_start(system, t0, tf, x0)

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
    step = config.n_basis - 1
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        expected = (len(lens) * step + 1, system.dim)
        if guess.shape != expected:
            raise ValueError(f"guess has shape {guess.shape}, expected the "
                             f"march's node states {expected}")
        if not np.all(np.isfinite(guess)):
            raise ValueError("guess is not finite")
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
            res = iterate_segment(
                ops, system, x, config, t_start=t_seg,
                guess=None if guess is None else guess[i * step:(i + 1) * step + 1])
        except (ConvergenceError, DomainViolationError) as exc:
            # the same object goes on, so its type and attributes survive
            exc.args = (f"segment {i} (t={t_seg:g}): {exc}",)
            raise
        times.extend(t_seg + ops.offsets[1:])
        states.extend(res.node_states[1:])
        iters.append(res.iterations)
        x = res.node_states[-1]

    return Trajectory(times=np.array(times), states=np.array(states),
                      segment_iterations=np.array(iters, dtype=int),
                      total_rhs_evals=system.rhs_evals - evals_before)
