"""Shooting solver for the post-buckling cantilever boundary-value problem.

The bar equation is integrated as an initial-value problem from a guessed
root slope, and the guess is corrected until the far-end slope vanishes
(clamped at s = 0, moment-free at s = 1).  A follower's load angle is its
unknown tip angle: a loose clamp-end search only seeds it (with its best
shot, should it end without a root), and the bar is shot from the free end
on it and read from the clamp (``mirrored``).  A full root search runs
loose, then stock from the last loose value and slope; each lvim shot
starts from its search's earlier shots (:func:`_shot_guess`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .core import SolverConfig, Trajectory, march
from .errors import ConvergenceError, checked
from .problems import buckled_bar
from .rk45 import rk45_integrate

__all__ = ["ShotResult", "shoot_scalar", "solve_buckled_bar"]

# A guard: the oracle's loose clamp-end stage for the tangent follower at P=80
# from (12.9, 13.1) runs out of it, some ten shots short of its bound, and hands
# on its best shot as a seed; the lvim one meets its bound on the 29th shot.
_DEFAULT_MAX_SHOTS = 60

# the bar's far-end slope residual, and a follower's clamp angle when shot
# from the free end, both count as zero below this
_SHOOT_TOL = 1e-10

# A root search's stages, one shoot_scalar call each: (overrides of the route's
# base config, ``config or spec.lvim_defaults`` or ``spec.rk_defaults``;
# residual tolerance).  Early shots only point the secant, so they run loose
# (inexact Newton: Dembo, Eisenstat & Steihaug 1982); a loose residual is off
# by a near-constant error but its slope is good, so the stock stage shoots
# the last value, then the Newton step along the last secant slope.  Of march
# tols 1e-6, 1e-5 and 1e-4 only 1e-5 solves the 144-case bar grid with no case
# costing more sweeps (tests/test_bar_grid.py); its 1e-4 bound leaves a
# straight bar's last step to the stock shots' own secant.
_STAGES = {"lvim": (({"tol": 1e-5}, 1e-4), ({}, _SHOOT_TOL)),
           "rk45": (({"rel_tol": 1e-8, "abs_tol": 1e-11}, 1e-6), ({}, _SHOOT_TOL))}

# the signs of (theta, theta') when a free-end shot, run over sigma = 1 - s,
# is read from the clamp: theta' = -dtheta/dsigma
_FLIP = np.array([1.0, -1.0])


@dataclass(frozen=True)
class ShotResult:
    """A converged shot.

    ``alpha`` is the tip angle ``trajectory.states[-1, 0]`` for every
    load: a follower's load angle on the final shot, and for a dead load
    (whose direction has no such angle) the tip angle itself.
    ``residual`` is ``max(|theta(0)|, |theta'(1)|)`` of the returned
    trajectory.  ``outer_iters`` counts the ``shoot_scalar`` calls, the
    stages each root search ran, and ``inner_iters`` the shots in them.
    """

    theta_prime_0: float
    alpha: float
    trajectory: Trajectory
    residual: float
    outer_iters: int
    inner_iters: int


def shoot_scalar(
    residual_fn: Callable[[float], float],
    guess_a: float,
    guess_b: Optional[float] = None,
    shoot_tol: float = _SHOOT_TOL,
    max_shots: int = _DEFAULT_MAX_SHOTS,
    slope: Optional[float] = None,
) -> float:
    """Find a root of ``residual_fn`` by secant iteration from two guesses.

    The package's one root finder: the bar's root slope and tip angle,
    and the bracketed roots in :mod:`lvim.problems` (the white-dwarf edge,
    the pendulum's period).  It stops once ``|residual| < shoot_tol``, and
    the root it returns is the last value it passed to ``residual_fn``.

    Given ``slope`` in place of ``guess_b``, the second guess is the Newton
    step ``guess_a - residual(guess_a) / slope``.

    When the residual changes sign between the guesses, the sorted guesses
    are a bracket, tightened to the tightest sign-changing pair as
    evaluations land inside it; a secant step that leaves that pair is
    replaced by its bisection (Dekker's safeguard), so no evaluation falls
    outside it.  Otherwise the iteration is the plain secant.

    Raises ValueError, before any evaluation, for a bad guess or setting,
    and ConvergenceError after ``max_shots`` residual evaluations.
    Exceptions raised by ``residual_fn`` propagate unchanged, with the
    offending guess attached as a ``slope_guess`` attribute unless an
    inner search already attached its own.
    """
    checked("shoot_tol", shoot_tol, 0.0, strict=True)
    checked("max_shots", max_shots, 2, integer=True)
    a, b = float(guess_a), float(guess_a if guess_b is None else guess_b)
    if slope is not None and (guess_b is not None or not math.isfinite(slope) or slope == 0.0):
        raise ValueError(f"slope must be finite and non-zero, in place of guess_b, got {slope!r}")
    if (a == b and slope is None) or not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"secant needs two distinct finite guesses, got {a!r} and {b!r}")

    def evaluate(v: float) -> float:
        try:
            return float(residual_fn(v))
        except Exception as exc:
            if not hasattr(exc, "slope_guess"):
                exc.slope_guess = v  # breadcrumb: which shot failed
            raise

    fa = evaluate(a)
    if abs(fa) < shoot_tol:
        return a
    b = b if slope is None else a - fa / slope
    fb = evaluate(b)
    # (lo, f(lo), hi): the tightest sign-changing pair so far, if the guesses are one
    bracket = None
    if fa * fb < 0.0:
        bracket = (a, fa, b) if a < b else (b, fb, a)
    shots = 2
    while not abs(fb) < shoot_tol:
        if shots >= max_shots:
            raise ConvergenceError(
                f"no root after {max_shots} shots; last residual {fb:.3e} at {b!r}"
            )
        if fb == fa:
            raise ConvergenceError(
                f"flat residual ({fb:.3e}) between guesses {a!r} and {b!r}"
            )
        c = b - fb * (b - a) / (fb - fa)
        if bracket is not None:
            lo, flo, hi = bracket
            if not lo <= c <= hi:
                c = 0.5 * (lo + hi)
        fc = evaluate(c)
        shots += 1
        if bracket is not None and lo < c < hi:
            bracket = (lo, flo, c) if flo * fc < 0.0 else (c, fc, hi)
        a, fa = b, fb
        b, fb = c, fc
    return b


def _shot_guess(v: float, shots) -> Optional[np.ndarray]:
    """The march guess for a shot at ``v`` from the states of the last two
    ``(v, trajectory)`` of its search's shot log: the secant's own linear
    extrapolation ``x_b + w (x_b - x_a)``, ``w = (v - v_b) / (v_b -
    v_a)``; the last shot alone when there is one or ``v_b == v_a``; None
    (a cold start) when there is none."""
    if not shots:
        return None
    v_b, b = shots[-1]
    v_a, a = shots[-2] if len(shots) > 1 else shots[-1]
    if v_a == v_b:
        return b.states
    return b.states + (v - v_b) / (v_b - v_a) * (b.states - a.states)


def solve_buckled_bar(
    load_type: str,
    load: float,
    slope_guesses: Tuple[float, float],
    config: Optional[SolverConfig] = None,
    integrator: str = "lvim",
) -> ShotResult:
    """Solve the buckled-bar BVP for one equilibrium branch.

    ``slope_guesses`` seeds the secant on the root slope at load angle 0;
    distinct pairs can converge to distinct equilibria of the same load.
    That search solves a dead load.  A follower's load angle is its tip
    angle alpha, so its clamp-end search runs only its first stage, and its
    tip (that of its shot of the smallest ``|theta'(1)|`` should the stage
    run out of shots or meet a flat residual) seeds a search from the free
    end, from ``(alpha, 0)`` over ``sigma = 1 - s`` (the equation is
    autonomous and has no theta' term), on the alpha whose clamp angle
    vanishes; read from the clamp, that is the answer.  A zero tip is the
    straight bar, which solves every load, and whose loose run is its stock
    run bit for bit: it ends the solve.  A
    full search walks its integrator's ``_STAGES``, one ``shoot_scalar``
    call each: a loose stage (the oracle at 1e-8, a march at ``tol`` 1e-5)
    hands its last value and secant slope to a stock one (``RkConfig()``,
    ``config or spec.lvim_defaults``; a ``config.tol`` above 1e-10 runs it
    alone).  A search logs its shots, each marched once, as ``(v,
    trajectory)``; ``shoot_scalar`` returns the value it shot last, so the
    log's last entry is the accepted trajectory.  An lvim shot after the
    first of its search is seeded from the log's last two shots, so the
    returned trajectory agrees with a cold march at the accepted value to
    within the iteration tolerance, not bit for bit.  ``config`` is the
    lvim route's; the oracle route refuses one.
    """
    if integrator not in _STAGES:
        raise ValueError(f"unknown integrator {integrator!r}")
    oracle = integrator == "rk45"
    if oracle and config is not None:
        raise ValueError("config sets the lvim march; the rk45 route takes none")
    spec = buckled_bar(load_type, load)  # validates load and type
    base = spec.rk_defaults if oracle else config or spec.lvim_defaults
    # a march looser than the residual bound cannot tell a loose seed's error from it
    first = -1 if not oracle and base.tol > _SHOOT_TOL else 0
    stages = [(replace(base, **overrides), tol) for overrides, tol in _STAGES[integrator][first:]]
    outer = inner = 0  # the stages and shots run

    def search(guesses, row, shot_from, stages, seed=False):
        """The accepted trajectory of a search through ``stages`` on end-state
        component ``row`` of the shots ``shot_from(v) -> (spec, x0)``; a
        ``seed`` search that ends without a root, out of shots or on a flat
        residual, returns its shot of the smallest ``|row|`` instead."""
        nonlocal outer, inner
        log, slope, best = [], None, None
        for stage, tol in stages:
            if len(log) > 1:  # the stock stage, after two loose shots: their last value and slope
                (u, a), (v, b) = log[-2:]
                guesses, slope = (v,), float(b.states[-1, row] - a.states[-1, row]) / (v - u)

            def residual(v: float) -> float:
                spec, x0 = shot_from(v)
                if oracle:
                    tr = rk45_integrate(spec.system, spec.t0, spec.tf, x0, stage)
                else:
                    tr = march(spec.system, spec.t0, spec.tf, x0, stage, guess=_shot_guess(v, log))
                log.append((v, tr))
                return float(tr.states[-1, row])

            try:
                shoot_scalar(residual, *guesses, shoot_tol=tol, slope=slope)
            except ConvergenceError as exc:
                if not seed or hasattr(exc, "slope_guess"):  # a shot that raised
                    raise
                best = min(log, key=lambda shot: abs(float(shot[1].states[-1, row])))
        outer += len(stages)
        inner += len(log)
        return (best or log[-1])[1]

    follower = load_type != "dead"  # whose clamp-end search only seeds the tip angle
    tr = search(slope_guesses, 1, lambda v: (spec, [0.0, v]),
                stages[:1] if follower else stages, seed=follower)
    tip = float(tr.states[-1, 0])
    if follower and tip != 0.0:  # a zero tip would seed the secant with equal guesses
        tr = search((tip, 0.9 * tip), 0, lambda a: (
            buckled_bar(load_type, load, alpha=a), [a, 0.0]), stages).mirrored(_FLIP)
    return ShotResult(
        theta_prime_0=float(tr.states[0, 1]),
        alpha=float(tr.states[-1, 0]),
        trajectory=tr,
        residual=max(abs(float(tr.states[0, 0])), abs(float(tr.states[-1, 1]))),
        outer_iters=outer, inner_iters=inner,
    )
