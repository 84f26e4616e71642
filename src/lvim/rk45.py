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

The step loop is the textbook loop over Python floats, compiled once per
state dimension D (:func:`_step_loop`) from one source template, the first
time an integration of that D runs.  It is written out per component, in
the rhs's point contract (:class:`lvim.core.OdeSystem`): each weighted stage
sum, left to right over the tableau's nonzero weights, each stage state,
the fifth-order state, ``|x_new_i|`` and each ratio of the error norm.  So
no value depends on which BLAS kernel a numpy product dispatches; numpy
only forms the dense output, in one product after the loop.  Per step this
is cheaper than numpy's small products below D of about 10 and dearer
above; the compile time grows linearly with D (about 1 ms at D = 6, 44 ms
at D = 200).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import OdeSystem, Trajectory, _checked_start, _max_lines, _max_of
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

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9

# The smallest step is this multiple of |t| (16 eps, as MATLAB's ode45;
# Shampine & Reichelt, SIAM J. Sci. Comput. 1997): a step below it barely
# moves t, so an attempt that needs one stops instead of crawling on.
_MIN_STEP_PER_T = 16.0 * 2.0 ** -52


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
    f1 = system.eval_rhs(t0 + h0, (x0 + h0 * f0).tolist())
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


def _exhausted(max_steps, t, accepted, rejected):
    return ConvergenceError(f"step budget of {max_steps} exhausted at t={t:g} "
                            f"(accepted {accepted}, rejected {rejected})")


def _too_small(t, h, x):
    return DomainViolationError(
        f"the step fell to h={h!r} at t={t!r}, below the smallest step "
        f"16 eps |t| = {_MIN_STEP_PER_T * abs(t)!r}", t=t, state=np.array(x))


def _non_finite(t, x_new):
    return DomainViolationError(f"state became non-finite during the step at t={t!r}",
                                t=t, state=np.array(x_new))


def _norm_lines(dim: int) -> list:
    """The error norm ``err = max_i |h * e_i| / (atol + rtol * max(a_i,
    b_i))`` written out over the names ``e{i}`` (the error sums), ``a{i}``
    (``|x_i|``) and ``b{i}`` (``|x_new_i|``), each ratio rounded as the
    element-wise numpy expression rounds it.  The first NaN ratio makes
    ``err`` NaN and no later ratio replaces it, so a NaN anywhere rejects
    the step."""
    ratio = "abs(h * e{i}) / (atol + rtol * (a{i} if a{i} >= b{i} else b{i}))"
    return _max_lines("err", [ratio.format(i=i) for i in range(dim)])


def _loop_source(dim: int) -> str:
    """The source of the step loop over ``dim`` components: ``loop(rhs, t,
    tf, h, x, f, atol, rtol, max_steps)`` runs the integration from the
    state list ``x`` with first stage ``f`` and returns the accepted times,
    states and step sizes, the stage values of the accepted steps in one
    flat list (step, stage, component) and the rejection count.

    Everything runs over Python floats, written out per component: stage
    ``s``'s values ``k{s}_{i}``, unpacked from its rhs list; each weighted
    stage sum, left to right with the zero weights left out (a stage value
    is finite, so a ``0 * k`` term only ever added a zero); the stage states
    ``x{i} + h * (...)``, the fifth-order state ``n{i}``, ``|n{i}|``, the
    error sums ``e{i}`` and the error norm (:func:`_norm_lines`).  Weights
    and stage times are float literals (``repr`` of a float reads back to
    the same value).  No expression nests deeper with ``dim``, so any
    dimension compiles.  An attempt whose step is below the smallest step
    ``16 eps |t|`` raises; ``h_cap``, that floor at the span's largest
    ``|t|``, keeps the test to one comparison for every larger step.
    """
    def each(form, sep=", "):
        return sep.join(form.format(i=i) for i in range(dim))

    def weighted(row):  # the sum of tableau row ``row`` at component {i}
        return " + ".join(f"{float(w)!r} * k{j}_{{i}}" for j, w in enumerate(row) if w != 0.0)

    def per(form, indent):
        return [indent + form.format(i=i) for i in range(dim)]

    def stage(s):
        return each(f"k{s}_{{i}}") + ","

    xs = each("x{i}") + ","
    lines = ["def loop(rhs, t, tf, h, x, f, atol, rtol, max_steps):",
             f"    {xs} = x",
             f"    {stage(0)} = f",
             *per("a{i} = abs(x{i})", "    "),
             "    times, states, step_h, stages = [t], [x], [], []",
             "    n_rej = 0",
             f"    h_cap = {_MIN_STEP_PER_T!r} * max(abs(t), abs(tf))",
             "    while t < tf:",
             "        if len(step_h) + n_rej >= max_steps:",
             "            raise _exhausted(max_steps, t, len(step_h), n_rej)",
             f"        if h < h_cap and h < {_MIN_STEP_PER_T!r} * abs(t):",
             "            raise _too_small(t, h, states[-1])",
             "        h = min(h, tf - t)"]
    for s in range(1, 6):
        states = each("x{i} + h * (" + weighted(_A[s]) + ")")
        lines.append(f"        {stage(s)} = rhs(t + {float(_C[s])!r} * h, [{states}])")
    lines += [*per("n{i} = x{i} + h * (" + weighted(_A[6]) + ")", "        "),
              f"        x_new = [{each('n{i}')}]",
              f"        {stage(6)} = rhs(t + h, x_new)",
              "        if not isfinite(sum(x_new)) and not all(map(isfinite, x_new)):",
              "            raise _non_finite(t, x_new)",
              *per("b{i} = abs(n{i})", "        "),
              *per("e{i} = " + weighted(_E), "        "),
              *("        " + line for line in _norm_lines(dim)),
              "        if err <= 1.0:",
              "            step_h.append(h)",
              f"            stages += {' '.join(stage(s) for s in range(7))}",
              "            t = tf if h == tf - t else t + h",
              "            times.append(t)",
              "            states.append(x_new)",
              *per("x{i}, a{i} = n{i}, b{i}", "            "),
              "            if t < tf:",
              f"                {stage(0)} = rhs(t, x_new)",
              "        else:",
              "            n_rej += 1",
              f"        h *= {_MAX_FACTOR!r} if err == 0.0 else "
              f"min({_MAX_FACTOR!r}, max({_MIN_FACTOR!r}, {_SAFETY!r} * err ** -0.2))",
              "    return times, states, step_h, stages, n_rej"]
    return "\n".join(lines)


@functools.lru_cache(maxsize=None)
def _step_loop(dim: int) -> Callable:
    """The step loop of :func:`_loop_source`, compiled once per dimension."""
    namespace = dict(isfinite=math.isfinite, _exhausted=_exhausted, _too_small=_too_small,
                     _non_finite=_non_finite)
    exec(compile(_loop_source(dim), f"<Dormand-Prince step loop, dim {dim}>", "exec"),
         namespace)
    return namespace["loop"]


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
    leaves the finite domain, or when an attempt's step falls below the
    smallest step ``16 eps |t|`` (near a singularity).
    """
    x = _checked_start(system, t0, tf, x0)

    evals_before = system.rhs_evals
    rhs = system.eval_rhs
    t, tf = float(t0), float(tf)  # the rhs takes its time as a Python float
    f = rhs(t, x.tolist())
    h = float(_initial_step(system, t, x, np.array(f), cfg, tf - t))
    times, states, step_h, stages, n_rej = _step_loop(system.dim)(
        rhs, t, tf, h, x.tolist(), f, cfg.abs_tol, cfg.rel_tol, cfg.max_steps)

    # dense output of all accepted steps at once: step i's k.T @ _P
    dense_q = np.array(stages).reshape(-1, 7, system.dim).transpose(0, 2, 1) @ _P
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
