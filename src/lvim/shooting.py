"""Shooting solver for the post-buckling cantilever boundary-value problem.

The bar equation is integrated as an initial-value problem from a guessed
root slope, and the guess is corrected until the far-end slope vanishes
(clamped at s = 0, moment-free at s = 1).  A follower load also depends on
the unknown tip angle: its load angle is the root of the tip-angle
mismatch, found with the same secant root finder as the root slope.
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

    The package's one root finder: besides the bar's root slope and load
    angle, it finds the bracketed roots in :mod:`lvim.problems`, with the
    bracket passed as both guesses and ``window``.  It stops once
    ``|residual| < shoot_tol``.

    If ``window`` is given and a secant step lands outside it, the step is
    replaced by bisection of the tightest sign-changing pair seen so far
    (without a recorded sign change the iteration aborts instead, since the
    runaway step means the secant model has no root in the window).

    Raises ConvergenceError after ``max_shots`` residual evaluations.
    Exceptions raised by ``residual_fn`` propagate unchanged, with the
    offending guess attached as a ``slope_guess`` attribute unless an
    inner search already attached its own.
    """
    if guess_a == guess_b:
        raise ValueError("secant needs two distinct guesses")

    def evaluate(v: float) -> float:
        try:
            return float(residual_fn(v))
        except Exception as exc:
            if not hasattr(exc, "slope_guess"):
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

            root = shoot_scalar(residual, guesses[0], guesses[1], shoot_tol=_SHOOT_TOL)
            # shoot_scalar returns an evaluated slope; the branch moves only
            # a little per sweep, so the next one is seeded next to it
            sweeps[alpha] = (root, shot_trajectories[root])
            guesses = (root, root + max(1e-3, 1e-3 * abs(root)))
        return float(sweeps[alpha][1].states[-1, 0]) - alpha

    first = mismatch(0.0)
    dead = load_type == "dead"  # the only load whose direction ignores alpha
    alpha = 0.0 if dead or abs(first) < _SHOOT_TOL else \
        shoot_scalar(mismatch, 0.0, 0.5 * first, shoot_tol=_SHOOT_TOL)
    root, tr = sweeps[alpha]
    return ShotResult(
        theta_prime_0=root,
        alpha=float(tr.states[-1, 0]) if dead else alpha,
        trajectory=tr,
        residual=abs(float(tr.states[-1, 1])),
        outer_iters=len(sweeps),
        inner_iters=shots,
    )
