"""Adaptive Dormand-Prince 5(4) integrator with quartic dense output.

Serves as the reference integrator the collocation solver is checked
against.  The implementation is the textbook embedded pair: a fifth-order
solution is advanced, the embedded fourth-order solution provides the
error estimate, and the step size follows the standard controller
``h * clamp(0.9 * err**(-1/5), 0.2, 5)``.  Every accepted step stores the
coefficients of its quartic interpolant, through which an
:class:`RkTrajectory` reads itself between steps and backwards (its
``_between`` and ``mirrored``).  :func:`sample_at` samples either kind of
trajectory through the trajectory's own interpolant.

The step loop is bitwise the textbook loop at a smaller numpy call count.
The stage matrix, its seven row views and the five stage slices are made
once per integration, and each stage is written through its row view.
Every weighted stage sum stays a numpy product (``a_s.dot(k[:s])``, the
fifth-order row ``_A[6].dot(k[:6])`` and ``_E.dot(k)``), so each is rounded
as before.  The step size multiplies those sums as a 0-d array ``hv``, made
once per attempt: numpy would convert a Python float in every product, and
the multiply is the same IEEE operation either way; the stage times, the
controller and ``step_h`` keep the float.  The error norm runs over Python
floats: ``|x_new|`` comes from the ``x_new.tolist()`` that feeds the
finiteness test, ``|x|`` carries over from the accepted step as a list, and
each ratio is rounded as the element-wise numpy expression rounds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import OdeSystem, Trajectory, _checked_start, _max_of
from .errors import ConvergenceError, DomainViolationError, checked

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

# the map of a quartic's coefficients (theta^1..theta^4) onto its expansion
# about the step's other end: _REEXPAND[k-1, m-1] = (-1)^m C(k, m)
_REEXPAND = np.array([[(-1.0) ** m * math.comb(k, m) for m in range(1, 5)]
                      for k in range(1, 5)])

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
        checked("rel_tol", self.rel_tol, 0.0, strict=True)
        checked("abs_tol", self.abs_tol, 0.0, strict=True)
        checked("max_steps", self.max_steps, 1, integer=True)


@dataclass
class RkTrajectory(Trajectory):
    """Accepted steps plus dense output: ``dense_q[i]`` holds the ``D x 4``
    quartic coefficients of step ``i`` (``times[i]`` to ``times[i+1]``) and
    ``step_h[i]`` its size; ``segment_iterations`` is empty (no segments)."""

    steps_accepted: int
    steps_rejected: int
    step_h: np.ndarray   # (n - 1,)
    dense_q: np.ndarray  # (n - 1, D, 4)

    def _between(self, query: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Values at times ``query`` off the stored steps, ``pos`` their
        ``searchsorted`` positions in ``times``, on the quartic of the step
        that owns each (the end ones the span's slack)."""
        idx = np.clip(pos - 1, 0, self.step_h.size - 1)
        h = self.step_h[idx]
        theta = (query - self.times[idx]) / h
        powers = np.stack([theta, theta ** 2, theta ** 3, theta ** 4], axis=1)
        return self.states[idx] + h[:, np.newaxis] * np.einsum(
            "qdk,qk->qd", self.dense_q[idx], powers)

    def mirrored(self, signs) -> RkTrajectory:
        """The run read backwards (:meth:`Trajectory.mirrored`), each step's
        quartic re-expanded about its other end, ``q'_m = (-1)^m sum_{k>=m}
        C(k, m) q_k``, and multiplied by ``signs``; the step counts stay."""
        return replace(super().mirrored(signs), step_h=self.step_h[::-1],
                       dense_q=(self.dense_q[::-1] * np.asarray(signs)[:, np.newaxis]) @ _REEXPAND)


def _initial_step(system, t0, x0, f0, cfg, span):
    """Standard two-probe heuristic for the starting step size.  A scaled
    slope ``d1`` or slope change ``d2`` that overflows would give a zero
    step, so it is refused as a domain violation at ``t0``."""
    with np.errstate(over="ignore"):
        sc = cfg.abs_tol + cfg.rel_tol * np.abs(x0)
        d0 = _max_of(np.abs(x0) / sc)
        d1 = _max_of(np.abs(f0) / sc)
    _check_probe("slope", d1, t0, x0)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = system.eval_rhs(t0 + h0, x0 + h0 * f0)
    with np.errstate(over="ignore"):
        d2 = _max_of(np.abs(f1 - f0) / sc) / h0
    _check_probe("slope change", d2, t0, x0)
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


def _check_probe(what, d, t0, x0):
    if not math.isfinite(d):
        raise DomainViolationError(
            f"the oracle cannot size its first step at t={float(t0)!r}: the {what} "
            "over the tolerance scale overflows", t=t0, state=np.array(x0, dtype=float))


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
    x = _checked_start(system, t0, tf, x0)

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
    n_rej = 0
    # views made once: on small states a slice costs as much as the product
    k = np.empty((7, system.dim))
    row = tuple(k)
    steps = tuple((c, a, k[:s], row[s]) for s, (c, a) in enumerate(_STAGES, 1))
    a6, k6 = _A[6], k[:6]
    ax = [abs(v) for v in x.tolist()]

    while t < tf:
        if len(step_h) + n_rej >= cfg.max_steps:
            raise ConvergenceError(
                f"step budget of {cfg.max_steps} exhausted at t={t:g} "
                f"(accepted {len(step_h)}, rejected {n_rej})")
        h = min(h, tf - t)

        row[0][...] = f_cur
        hv = np.array(h)
        for c, a, prev, out in steps:
            out[...] = rhs(t + c * h, x + hv * a.dot(prev))
        x_new = x + hv * a6.dot(k6)
        row[6][...] = rhs(t + h, x_new)
        xl = x_new.tolist()
        if not math.isfinite(sum(xl)) and not np.all(np.isfinite(x_new)):
            raise DomainViolationError(
                f"state became non-finite during the step at t={t!r}",
                t=t, state=x_new)

        ax_new = [abs(v) for v in xl]
        err = _err_norm((hv * _E.dot(k)).tolist(), ax, ax_new, atol, rtol)

        if err <= 1.0:
            step_h.append(h)
            stages.append(k.copy())
            t = tf if h == tf - t else t + h
            times.append(t)
            states.append(x_new)
            x, ax = x_new, ax_new
            if t < tf:
                f_cur = rhs(t, x)
        else:
            n_rej += 1
        h *= _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -0.2))

    # dense output of all accepted steps at once: step i's k.T @ _P
    dense_q = np.matmul(np.array(stages).transpose(0, 2, 1), _P)
    return RkTrajectory(times=np.array(times), states=np.array(states),
                        segment_iterations=np.empty(0, dtype=int),
                        total_rhs_evals=system.rhs_evals - evals_before,
                        steps_accepted=len(step_h), steps_rejected=n_rej,
                        step_h=np.array(step_h), dense_q=dense_q)


def sample_at(traj: Trajectory, times: np.ndarray) -> np.ndarray:
    """Sample a trajectory, oracle or marched, at ``times``: an ``len(times)
    x D`` array.  A stored step or node returns its stored state exactly, any
    other time the trajectory's own interpolant (``traj._between``).  A
    ``times`` not 1-D, or outside the integrated span, raises ``ValueError``.
    """
    query = np.atleast_1d(np.asarray(times, dtype=float))
    if query.ndim != 1:
        raise ValueError(f"times must be 1-D, got shape {query.shape}")
    t_lo = traj.times[0]
    t_hi = traj.times[-1]
    slack = 1e-12 * max(1.0, abs(t_hi - t_lo))
    # one inside-the-span mask, so a NaN query fails it too
    if not np.all((query >= t_lo - slack) & (query <= t_hi + slack)):
        raise ValueError(
            f"sample times outside the integrated span [{t_lo!r}, {t_hi!r}]")

    # one sorted search and one batched evaluation for all queries
    pos = np.searchsorted(traj.times, query)
    hit = traj.times[np.minimum(pos, traj.times.size - 1)] == query
    out = np.empty((query.size, traj.states.shape[1]))
    out[~hit] = traj._between(query[~hit], pos[~hit])
    out[hit] = traj.states[pos[hit]]
    return out
