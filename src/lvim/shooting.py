"""Shooting solver for the post-buckling cantilever boundary-value problem.

The bar equation is integrated as an initial-value problem from a guessed
root slope, and the guess is corrected until the far-end slope vanishes
(clamped at s = 0, moment-free at s = 1).  Dead loads need a single secant
loop over the root slope.  Follower loads also depend on the unknown tip
angle, so an outer fixed-point iteration feeds the tip angle of each
converged shot back into the load direction until the two agree.
"""

from __future__ import annotations

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

_OUTER_SWEEP_LIMIT = 50

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
    shoot_tol: float = 1e-10,
    max_shots: int = _DEFAULT_MAX_SHOTS,
    window: Optional[Tuple[float, float]] = None,
) -> float:
    """Find a root of ``residual_fn`` by secant iteration from two guesses.

    The package's one root finder: besides the bar shoot, it finds the
    bracketed roots in :mod:`lvim.problems`, with the bracket passed as
    both guesses and ``window``.  It stops once ``|residual| < shoot_tol``.

    If ``window`` is given and a secant step lands outside it, the step is
    replaced by bisection of the tightest sign-changing pair seen so far
    (without a recorded sign change the iteration aborts instead, since the
    runaway step means the secant model has no root in the window).

    Raises ConvergenceError after ``max_shots`` residual evaluations.
    Exceptions raised by ``residual_fn`` propagate unchanged, with the
    offending guess attached as a ``slope_guess`` attribute.
    """
    if guess_a == guess_b:
        raise ValueError("secant needs two distinct guesses")

    def evaluate(v: float) -> float:
        try:
            return float(residual_fn(v))
        except Exception as exc:
            exc.slope_guess = v  # breadcrumb: which shot failed
            raise

    a, b = float(guess_a), float(guess_b)
    fa = evaluate(a)
    if abs(fa) < shoot_tol:
        return a
    fb = evaluate(b)
    # (lo, flo, hi, fhi) with flo * fhi < 0, tightened as evaluations land
    bracket = (a, fa, b, fb) if fa * fb < 0.0 else None
    shots = 2
    while shots < max_shots:
        if abs(fb) < shoot_tol:
            return b
        if fb == fa:
            raise ConvergenceError(
                f"flat residual ({fb:.3e}) between guesses {a!r} and {b!r}"
            )
        c = b - fb * (b - a) / (fb - fa)
        if window is not None and not window[0] <= c <= window[1]:
            if bracket is None:
                raise ConvergenceError(
                    f"secant step {c!r} left the window {window!r} with no "
                    "sign change recorded"
                )
            c = 0.5 * (bracket[0] + bracket[2])
        fc = evaluate(c)
        shots += 1
        if bracket is not None:
            lo, flo, hi, fhi = bracket
            if lo < c < hi:
                bracket = (lo, flo, c, fc) if flo * fc < 0.0 else (c, fc, hi, fhi)
        elif fb * fc < 0.0:
            bracket = (min(b, c), fb if b < c else fc, max(b, c), fc if b < c else fb)
        a, fa = b, fb
        b, fb = c, fc
    if abs(fb) < shoot_tol:
        return b
    raise ConvergenceError(
        f"no root after {max_shots} shots; last residual {fb:.3e} at {b!r}"
    )


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
    Every load type runs the same sweep: build the problem at load angle
    ``alpha`` once, shoot on the root slope, and return the trajectory of
    the accepted shot itself (no shot is marched twice, so ``inner_iters``
    counts every march or integration).  A dead load's direction does not
    depend on ``alpha``, so it stops after one sweep.  A follower load
    blends the tip angle into the load angle at half weight (full
    replacement oscillates at large loads) and sweeps again, reseeded near
    the last root, until load angle and tip angle agree.  Both tests, the
    far-end slope and the angle mismatch, are against ``_SHOOT_TOL``
    (1e-10); each sweep has ``shoot_scalar``'s default shot budget.
    """
    dead = load_type == "dead"  # the only load whose direction ignores alpha
    alpha = 0.0
    guesses = (float(slope_guesses[0]), float(slope_guesses[1]))
    shots = 0
    for sweep in range(1, _OUTER_SWEEP_LIMIT + 1):
        spec = buckled_bar(load_type, load, alpha=alpha)  # validates load and type
        cfg = config or spec.lvim_defaults
        shot_trajectories = {}

        def residual(v: float) -> float:
            nonlocal shots
            shots += 1
            x0 = [0.0, v]  # theta(0) = 0 exactly; only the slope is guessed
            if integrator == "lvim":
                tr = march(spec.system, spec.t0, spec.tf, x0, cfg)
            elif integrator == "rk45":
                tr = rk45_integrate(spec.system, spec.t0, spec.tf, x0, spec.rk_defaults)
            else:
                raise ValueError(f"unknown integrator {integrator!r}")
            shot_trajectories[v] = tr
            return float(tr.states[-1, 1])

        root = shoot_scalar(residual, guesses[0], guesses[1], shoot_tol=_SHOOT_TOL)
        tr = shot_trajectories[root]  # shoot_scalar returns an evaluated slope
        tip = float(tr.states[-1, 0])
        mismatch = tip - alpha
        if dead or abs(mismatch) < _SHOOT_TOL:
            return ShotResult(
                theta_prime_0=root,
                alpha=tip if dead else alpha,
                trajectory=tr,
                residual=abs(float(tr.states[-1, 1])),
                outer_iters=sweep,
                inner_iters=shots,
            )
        alpha += 0.5 * mismatch
        # reseed the secant near the last root; the branch moves only a
        # little per sweep
        guesses = (root, root + max(1e-3, 1e-3 * abs(root)))
    raise ConvergenceError(
        f"load-angle sweep did not settle in {_OUTER_SWEEP_LIMIT} passes "
        f"(last mismatch {mismatch:.3e})"
    )
