"""Adaptive Dormand-Prince 5(4) integrator with quartic dense output.

Serves as the reference integrator the collocation solver is checked
against.  The implementation is the textbook embedded pair: a fifth-order
solution is advanced, the embedded fourth-order solution provides the
error estimate, and the step size follows the standard controller
``h * clamp(0.9 * err**(-1/5), 0.2, 5)``.  Every accepted step stores the
coefficients of the quartic interpolant so the solution can later be
sampled at arbitrary times without re-integrating.  :func:`sample_at`
reads marched trajectories as well, through each segment's Chebyshev
interpolant, so both kinds are sampled the same way.

The step loop is bitwise the textbook loop at a smaller numpy call count.
The stage matrix, its seven row views and the five stage slices are made
once per integration, and each stage is written through its row view.
Every weighted stage sum stays a numpy product (``a_s.dot(k[:s])``, the
fifth-order row ``_A[6].dot(k[:6])`` and ``_E.dot(k)``), so each is rounded
as before.  The error norm runs over Python floats: ``|x_new|`` comes from
the ``x_new.tolist()`` that feeds the finiteness test, ``|x|`` carries
over from the accepted step as a list, and each ratio is rounded as the
element-wise numpy expression rounds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import OdeSystem, Trajectory, _max_of
from .errors import ConvergenceError, DomainViolationError

__all__ = ["RkConfig", "RkTrajectory", "rk45_integrate", "sample_at"]

# Dormand-Prince coefficients.  _A[6] is the fifth-order solution row (the
# seventh stage is evaluated there), _E the fifth- minus fourth-order weights
# (h * _E @ K is the embedded error estimate), and _P maps the seven stages
# onto the quartic dense-output polynomial in the normalized step coordinate.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])

_A = (
    np.empty(0),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)

_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])

_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

# stages 1-5 as (c_s, a_s); a Python-float c_s keeps t + c_s * h off numpy
_STAGES = tuple((float(_C[s]), _A[s]) for s in range(1, 6))

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9


@dataclass(frozen=True)
class RkConfig:
    """The two error tolerances of one adaptive integration and its
    budget of step attempts (accepted plus rejected)."""

    rel_tol: float = 1e-12
    abs_tol: float = 1e-15
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if not self.abs_tol > 0.0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass
class RkTrajectory(Trajectory):
    """Trajectory of accepted steps plus dense-output data.

    ``dense_q[i]`` holds the ``D x 4`` interpolation coefficients of step
    ``i`` (from ``times[i]`` to ``times[i+1]``) and ``step_h[i]`` its
    size.  ``segment_iterations`` is empty: there is no per-segment
    iteration in a single-pass integrator.
    """

    steps_accepted: int = 0
    steps_rejected: int = 0
    step_h: Optional[np.ndarray] = None
    dense_q: Optional[np.ndarray] = None


def _initial_step(system, t0, x0, f0, cfg, span):
    """Standard two-probe heuristic for the starting step size."""
    sc = cfg.abs_tol + cfg.rel_tol * np.abs(x0)
    d0 = _max_of(np.abs(x0) / sc)
    d1 = _max_of(np.abs(f0) / sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = system.eval_rhs(t0 + h0, x0 + h0 * f0)
    d2 = _max_of(np.abs(f1 - f0) / sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


def _err_norm(e, ax, ax_new, atol, rtol):
    """``max_i |e_i| / (atol + rtol * max(ax_i, ax_new_i))`` over Python
    floats, each ratio rounded as the element-wise numpy expression
    rounds it; a NaN in any component gives NaN, which rejects the step."""
    m = 0.0
    for ei, a, b in zip(e, ax, ax_new):
        q = abs(ei) / (atol + rtol * (a if a >= b else b))
        if q > m:
            m = q
        elif q != q:
            return q
    return m


def rk45_integrate(system: OdeSystem, t0: float, tf: float, x0: np.ndarray,
                   cfg: RkConfig) -> RkTrajectory:
    """Integrate ``[t0, tf]`` adaptively at the tolerances of ``cfg`` and
    return the accepted steps.

    The error test is the mixed-tolerance max norm
    ``max_i |e_i| / (abs_tol + rel_tol * max(|x_i|, |x_new_i|)) <= 1``.
    Rejected attempts shrink the step without advancing time but are
    counted, both as rejections and through the system's rhs counter.
    Raises :class:`ConvergenceError` when ``max_steps`` attempts are
    exhausted and :class:`DomainViolationError` when the state or rhs
    leaves the finite domain.
    """
    if not (math.isfinite(t0) and math.isfinite(tf) and tf > t0):
        raise ValueError(f"need finite tf > t0, got t0={t0}, tf={tf}")
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or x.size != system.dim:
        raise ValueError(
            f"initial state has shape {x.shape}, expected ({system.dim},)")
    if not np.all(np.isfinite(x)):
        raise DomainViolationError("initial state is not finite", t=t0, state=x)

    evals_before = system.rhs_evals
    rhs = system.eval_rhs
    atol, rtol = cfg.abs_tol, cfg.rel_tol

    t = t0
    f_cur = rhs(t, x)
    h = float(_initial_step(system, t0, x, f_cur, cfg, tf - t0))

    times = [t0]
    states = [x.copy()]
    step_h = []
    stages = []
    n_acc = n_rej = attempts = 0
    # views made once: on small states a slice costs as much as the product
    k = np.empty((7, system.dim))
    row = tuple(k)
    steps = tuple((c, a, k[:s], row[s]) for s, (c, a) in enumerate(_STAGES, 1))
    a6, k6 = _A[6], k[:6]
    ax = [abs(v) for v in x.tolist()]

    while t < tf:
        if attempts >= cfg.max_steps:
            raise ConvergenceError(
                f"step budget of {cfg.max_steps} exhausted at t={t:g} "
                f"(accepted {n_acc}, rejected {n_rej})")
        attempts += 1
        h = min(h, tf - t)

        row[0][...] = f_cur
        for c, a, prev, out in steps:
            out[...] = rhs(t + c * h, x + h * a.dot(prev))
        x_new = x + h * a6.dot(k6)
        row[6][...] = rhs(t + h, x_new)
        xl = x_new.tolist()
        if not math.isfinite(sum(xl)) and not np.all(np.isfinite(x_new)):
            raise DomainViolationError(
                f"state became non-finite during the step at t={t!r}",
                t=t, state=x_new)

        ax_new = [abs(v) for v in xl]
        err = _err_norm((h * _E.dot(k)).tolist(), ax, ax_new, atol, rtol)

        if err <= 1.0:
            step_h.append(h)
            stages.append(k.copy())
            t = tf if h == tf - t else t + h
            times.append(t)
            states.append(x_new)
            x, ax = x_new, ax_new
            n_acc += 1
            if t < tf:
                f_cur = rhs(t, x)
            factor = _MAX_FACTOR if err == 0.0 else \
                min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -0.2))
        else:
            n_rej += 1
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -0.2))
        h *= factor

    # dense output of all accepted steps at once: step i's k.T @ _P
    dense_q = np.matmul(np.array(stages).transpose(0, 2, 1), _P)
    return RkTrajectory(times=np.array(times), states=np.array(states),
                        segment_iterations=np.empty(0, dtype=int),
                        total_rhs_evals=system.rhs_evals - evals_before,
                        steps_accepted=n_acc, steps_rejected=n_rej,
                        step_h=np.array(step_h), dense_q=dense_q)


def sample_at(traj: Trajectory, times: np.ndarray) -> np.ndarray:
    """Sample a trajectory at arbitrary times, oracle or marched.

    An oracle trajectory (no segments) is read through its quartic dense
    output.  A marched trajectory is read through the interpolant of the
    segment that owns the query: the barycentric formula with weights
    ``(-1)^j``, halved at the two ends (Berrut & Trefethen, SIAM Review
    2004), on that segment's ``N = (len(times) - 1) / n_segments + 1``
    nodes.  Times that coincide with a stored step or node return the
    stored state exactly.  Queries outside the integrated span raise
    ``ValueError``.  Returns an ``len(times) x D`` array.
    """
    n_seg = len(traj.segment_iterations)
    if not n_seg and (getattr(traj, "dense_q", None) is None or len(traj.dense_q) == 0):
        raise ValueError("trajectory carries neither dense-output data nor segments")
    query = np.atleast_1d(np.asarray(times, dtype=float))
    t_lo = traj.times[0]
    t_hi = traj.times[-1]
    slack = 1e-12 * max(1.0, abs(t_hi - t_lo))
    if np.any(query < t_lo - slack) or np.any(query > t_hi + slack):
        raise ValueError(
            f"sample times outside the integrated span [{t_lo!r}, {t_hi!r}]")

    # one sorted search and one batched evaluation for all queries; queries
    # within the slack beyond either end use the first or last step (segment)
    pos = np.searchsorted(traj.times, query)
    hit = traj.times[np.minimum(pos, traj.times.size - 1)] == query
    if n_seg:
        return _sample_segments(traj, n_seg, query, pos, hit)
    idx = np.clip(pos - 1, 0, traj.step_h.size - 1)
    h = traj.step_h[idx]
    theta = (query - traj.times[idx]) / h
    powers = np.stack([theta, theta ** 2, theta ** 3, theta ** 4], axis=1)
    out = traj.states[idx] + h[:, np.newaxis] * np.einsum(
        "qdk,qk->qd", traj.dense_q[idx], powers)
    out[hit] = traj.states[pos[hit]]
    return out


def _sample_segments(traj, n_seg, query, pos, hit):
    """Barycentric evaluation on the owning segments of a marched
    trajectory; segment ``k`` owns nodes ``k*(N-1) .. k*(N-1) + N-1``."""
    per, rem = divmod(traj.times.size - 1, n_seg)
    if rem:
        raise ValueError(f"{traj.times.size} samples do not split into {n_seg} segments")
    out = np.empty((query.size, traj.states.shape[1]))
    out[hit] = traj.states[pos[hit]]
    miss = ~hit  # only misses reach the division, so none divides by zero
    seg = np.minimum(np.maximum(pos[miss] - 1, 0) // per, n_seg - 1)
    rows = (seg * per)[:, np.newaxis] + np.arange(per + 1)
    w = (-1.0) ** np.arange(per + 1)
    w[[0, -1]] *= 0.5
    c = w / (query[miss, np.newaxis] - traj.times[rows])
    out[miss] = np.einsum("qj,qjd->qd", c, traj.states[rows]) / c.sum(axis=1)[:, np.newaxis]
    return out
