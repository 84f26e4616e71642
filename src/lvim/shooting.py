"""Shooting solver for the post-buckling cantilever boundary-value problem.

The bar equation is integrated as an initial-value problem from a guessed
root slope, and the guess is corrected until the far-end slope vanishes
(clamped at s = 0, moment-free at s = 1).  A follower load also depends on
the unknown tip angle: its load angle is the root of the tip-angle
mismatch, found with the same secant root finder as the root slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

from .core import SolverConfig, Trajectory, march
from .errors import ConvergenceError
from .problems import buckled_bar
from .rk45 import RkTrajectory, rk45_integrate

__all__ = ["ShotResult", "shoot_scalar", "solve_buckled_bar"]

# Secant iterations stop making progress well before this on the bar
# residuals; the cap only guards pathological guess pairs.
_DEFAULT_MAX_SHOTS = 60

# the bar's far-end slope residual, and the load-angle / tip-angle
# mismatch of a follower load, both count as zero below this
_SHOOT_TOL = 1e-10


@dataclass(frozen=True)
class ShotResult:
    """A converged shot.

    ``alpha`` is the load-direction angle used on the final shot.  For the
    self-consistent follower solution it agrees with the tip angle
    ``trajectory.states[-1, 0]`` to within ``_SHOOT_TOL``; for dead loads
    (where no such angle exists) it is simply the tip angle itself.
    """

    theta_prime_0: float
    alpha: float
    trajectory: Union[Trajectory, RkTrajectory]
    residual: float
    outer_iters: int
    inner_iters: int


def shoot_scalar(
    residual_fn: Callable[[float], float],
    guess_a: float,
    guess_b: float,
    shoot_tol: float = _SHOOT_TOL,
    max_shots: int = _DEFAULT_MAX_SHOTS,
) -> float:
    """Find a root of ``residual_fn`` by secant iteration from two guesses.

    The package's one root finder: the bar's root slope and load angle,
    and the bracketed roots in :mod:`lvim.problems` (the white-dwarf edge,
    the pendulum's period).  It stops once ``|residual| < shoot_tol``.

    When the residual changes sign between the guesses, the sorted guesses
    are a bracket, tightened as evaluations land inside it; a secant step
    that leaves the guesses is replaced by bisection of the tightest
    sign-changing pair (Dekker's safeguard), so no evaluation falls
    outside them.  Otherwise the iteration is the plain secant.

    Raises ValueError for equal or non-finite guesses and
    ConvergenceError after ``max_shots`` residual evaluations.
    Exceptions raised by ``residual_fn`` propagate unchanged, with the
    offending guess attached as a ``slope_guess`` attribute unless an
    inner search already attached its own.
    """
    a, b = float(guess_a), float(guess_b)
    if a == b or not (math.isfinite(a) and math.isfinite(b)):
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
    fb = evaluate(b)
    # (lo, flo, hi, fhi): the sorted guesses if flo * fhi < 0, tightened as evaluations land
    bracket = None
    if fa * fb < 0.0:
        bracket = (a, fa, b, fb) if a < b else (b, fb, a, fa)
        left, right = bracket[0], bracket[2]
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
            lo, flo, hi, fhi = bracket
            if not left <= c <= right:
                c = 0.5 * (lo + hi)
        fc = evaluate(c)
        shots += 1
        if bracket is not None and lo < c < hi:
            bracket = (lo, flo, c, fc) if flo * fc < 0.0 else (c, fc, hi, fhi)
        a, fa = b, fb
        b, fb = c, fc
    return b


def solve_buckled_bar(
    load_type: str,
    load: float,
    slope_guesses: Tuple[float, float],
    config: Optional[SolverConfig] = None,
    integrator: str = "lvim",
) -> ShotResult:
    """Solve the buckled-bar BVP for one equilibrium branch.

    ``slope_guesses`` seeds the secant iteration on the root slope; distinct
    pairs can converge to distinct buckled equilibria of the same load.
    A sweep builds the problem at load angle ``alpha`` once, shoots on the
    root slope, keeps the accepted shot's trajectory (no shot is marched
    twice, so ``inner_iters`` counts every march or integration) and yields
    the tip angle minus the load angle.  A dead load ignores ``alpha`` and
    stops after the sweep at 0, as does a follower load with no mismatch
    there; otherwise ``shoot_scalar`` finds the mismatch's root from 0 and
    half the first tip angle.  Both residuals are tested against
    ``_SHOOT_TOL`` (1e-10); ``outer_iters`` counts the sweeps.
    """
    if integrator not in ("lvim", "rk45"):
        raise ValueError(f"unknown integrator {integrator!r}")
    guesses = (float(slope_guesses[0]), float(slope_guesses[1]))
    sweeps = {}  # load angle -> (root slope, accepted trajectory)
    shots = 0

    def mismatch(alpha: float) -> float:
        nonlocal guesses
        if alpha not in sweeps:
            spec = buckled_bar(load_type, load, alpha=alpha)  # validates load and type
            cfg = config or spec.lvim_defaults
            shot_trajectories = {}

            def residual(v: float) -> float:
                nonlocal shots
                shots += 1
                x0 = [0.0, v]  # theta(0) = 0 exactly; only the slope is guessed
                if integrator == "lvim":
                    tr = march(spec.system, spec.t0, spec.tf, x0, cfg)
                else:
                    tr = rk45_integrate(spec.system, spec.t0, spec.tf, x0, spec.rk_defaults)
                shot_trajectories[v] = tr
                return float(tr.states[-1, 1])

            root = shoot_scalar(residual, guesses[0], guesses[1])
            # shoot_scalar returns an evaluated slope; the branch moves only
            # a little per sweep, so the next one is seeded next to it
            sweeps[alpha] = (root, shot_trajectories[root])
            guesses = (root, root + max(1e-3, 1e-3 * abs(root)))
        return float(sweeps[alpha][1].states[-1, 0]) - alpha

    first = mismatch(0.0)
    dead = load_type == "dead"  # the only load whose direction ignores alpha
    alpha = 0.0 if dead or abs(first) < _SHOOT_TOL else \
        shoot_scalar(mismatch, 0.0, 0.5 * first)
    root, tr = sweeps[alpha]
    return ShotResult(
        theta_prime_0=root,
        alpha=float(tr.states[-1, 0]) if dead else alpha,
        trajectory=tr,
        residual=abs(float(tr.states[-1, 1])),
        outer_iters=len(sweeps),
        inner_iters=shots,
    )
