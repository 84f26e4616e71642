"""Benchmark problem factories.

Each factory returns a ProblemSpec bundling the ODE system, its
initial state, the default span, and the default solver settings the
benchmark is normally run with.  Systems carry analytic Jacobians in the
node-batched form of :class:`lvim.core.OdeSystem`: ``jac(t_nodes, X)``
takes a list of M floats and M lists of D floats and returns the M x D x D
nested list.  Each row is computed with the floating-point operations of
a one-point Jacobian, in Python floats through ``math``; only LEO's rows
go through numpy, as its one-point formula did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence, Tuple

import numpy as np

from .core import OdeSystem, SolverConfig, _checked_start, march
from .errors import ConvergenceError, DomainViolationError, checked
from .gravity import GravityModel, gravity_accel, gravity_potential
from .rk45 import RkConfig, rk45_integrate, sample_at

__all__ = [
    "ProblemSpec",
    "blasius",
    "emden_chandrasekhar",
    "white_dwarf",
    "mathieu",
    "pendulum",
    "pendulum_frequency_sweep",
    "buckled_bar",
    "BAR_LOAD_TYPES",
    "elastica",
    "elastica_regime",
    "leo",
    "orbital_period",
]

# residual bound for the bracketed roots (white-dwarf edge, pendulum period)
_ROOT_TOL = 1e-14


def _first_root(traj, flips, col: int, level: float = 0.0) -> Optional[float]:
    """Where state ``col`` crosses ``level`` in the step after sample
    ``flips[0]``, refined on the trajectory's interpolant; None when no
    step changes sign (``flips`` is empty)."""
    if not len(flips):
        return None
    from .shooting import shoot_scalar  # shooting imports this module

    i = flips[0]
    return shoot_scalar(lambda t: sample_at(traj, t)[0, col] - level,
                        traj.times[i], traj.times[i + 1], shoot_tol=_ROOT_TOL)


@dataclass(frozen=True)
class ProblemSpec:
    """A benchmark instance: system, initial data, span, default configs.

    ``rk_defaults`` is a class constant: every problem runs the oracle at
    ``RkConfig``'s own tolerances.  ``energy``, for a problem that conserves
    one, maps ``(n, D)`` states to the energy of each.
    """

    system: OdeSystem
    x0: np.ndarray
    t0: float
    tf: float
    lvim_defaults: SolverConfig
    state_names: Tuple[str, ...]
    notes: str = ""
    energy: Optional[Callable[[np.ndarray], np.ndarray]] = None
    rk_defaults: ClassVar[RkConfig] = RkConfig()

    def __post_init__(self) -> None:
        x0 = _checked_start(self.system, self.t0, self.tf, self.x0)
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        if len(self.state_names) != self.system.dim:
            raise ValueError("state_names length does not match the system")


# stage one's span: f''(0) has converged there (1.86e-10 off Boyd's value;
# 1.875e-10 at span 8, 1.870e-10 at 11.4), and the march diverges from 11.5
_BLASIUS_STAGE_ONE_SPAN = 10.0


def blasius() -> ProblemSpec:
    """Flat-plate boundary-layer similarity solve, as two initial value stages.

    Stage one marches the companion problem with unit wall curvature over
    a fixed span; the far-field slope it reaches fixes the true wall
    curvature, whatever the spec's span, through a scaling, and that value
    is the spec's ``x0[2]``.
    """

    def rhs(t, x):
        f, f1, f2 = x
        return [f1, f2, -0.5 * f * f2]

    def jac(t, x):
        return [[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-0.5 * f2, 0.0, -0.5 * f]]
                for f, _, f2 in x]

    cfg = SolverConfig(n_basis=5, dt=0.5, tol=1e-10)
    traj = march(OdeSystem(dim=3, rhs=rhs, jac=jac), 0.0, _BLASIUS_STAGE_ONE_SPAN,
                 np.array([0.0, 0.0, 1.0]), cfg)
    f2_at_0 = traj.states[-1, 1] ** -1.5

    return ProblemSpec(
        system=OdeSystem(dim=3, rhs=rhs, jac=jac),
        x0=np.array([0.0, 0.0, f2_at_0]),
        t0=0.0,
        tf=10.0,
        lvim_defaults=cfg,
        state_names=("f", "f_prime", "f_double_prime"),
        notes=f"wall curvature {f2_at_0:.12g} from a lvim stage-one solve",
    )


def emden_chandrasekhar(xi_start: float = 1e-3) -> ProblemSpec:
    """Isothermal self-gravitating sphere in dimensionless form.

    The radial coordinate starts slightly off zero and the state is
    seeded with a two-term series, because the drag term 2/xi has no
    value at the origin itself.
    """
    checked("xi_start", xi_start, 0.0, strict=True)

    def rhs(t, x):
        psi, dpsi = x
        return [dpsi, math.exp(-psi) - 2.0 / t * dpsi]

    def jac(t, x):
        return [[[0.0, 1.0], [-math.exp(-v), -2.0 / s]] for s, (v, _) in zip(t, x)]

    psi0 = xi_start**2 / 6.0 - xi_start**4 / 120.0
    dpsi0 = xi_start / 3.0 - xi_start**3 / 30.0
    return ProblemSpec(
        system=OdeSystem(dim=2, rhs=rhs, jac=jac),
        x0=np.array([psi0, dpsi0]),
        t0=xi_start,
        tf=8.0,
        lvim_defaults=SolverConfig(n_basis=13, dt=1.0, tol=1e-10),
        state_names=("psi", "psi_prime"),
        notes=f"series start at xi = {xi_start:g}",
    )


# the white dwarf's series start, off the 2/eta singularity at the origin
_ETA_START = 1e-3


def _white_dwarf_field(t, x, rad: float) -> list:
    """The white dwarf's rhs at radicand ``rad``, the caller's ``phi^2 - c``."""
    return [x[1], -rad * math.sqrt(rad) - 2.0 / t * x[1]]


def _white_dwarf_edge(c: float, x0: np.ndarray) -> float:
    """Default span end: 2% inside the first phi^2 = c crossing.

    Found with the adaptive oracle on a clamped-radicand copy of the
    field, which continues smoothly through the crossing and lets the
    crossing itself be located by a sign scan.  Profiles that never
    reach the edge get a plain fixed span.
    """
    if c == 0.0:
        return 8.0

    sys_free = OdeSystem(dim=2, rhs=lambda t, x: _white_dwarf_field(
        t, x, max(x[0] * x[0] - c, 0.0)))
    traj = rk45_integrate(sys_free, _ETA_START, 50.0, x0, RkConfig(rel_tol=1e-10, abs_tol=1e-12))
    edge = math.sqrt(c)
    gap = traj.states[:, 0] - edge
    # strict downward crossing; a profile pinned on the edge has no exit
    crossing = _first_root(traj, np.flatnonzero((gap[:-1] > 0.0) & (gap[1:] < 0.0)), 0, edge)
    return 8.0 if crossing is None else 0.98 * crossing


def white_dwarf(c_param: float = 0.3) -> ProblemSpec:
    """Degenerate-star density profile with a square-root domain edge.

    The rhs is only defined while phi^2 stays above c_param; crossing
    that line raises DomainViolationError carrying the radius where it
    happened.  The default span ends just short of the first crossing
    for the default c_param (measured against the adaptive oracle).
    """
    c = checked("c_param", c_param, 0.0, 1.0)
    # roundoff slack keeps an exactly-on-edge profile (phi^2 = c) evaluable
    slack = 1e-13 * (1.0 + c)

    def radicand(t, x):
        rad = x[0] * x[0] - c
        if rad < 0.0:
            if rad < -slack:
                raise DomainViolationError(
                    f"phi^2 - c = {rad:.3e} went negative at eta = {t:.6g}",
                    t=t,
                    state=np.asarray(x),
                )
            rad = 0.0
        return rad

    def rhs(t, x):
        return _white_dwarf_field(t, x, radicand(t, x))

    def jac(t, x):
        return [[[0.0, 1.0], [-3.0 * xi[0] * math.sqrt(radicand(ti, xi)), -2.0 / ti]]
                for ti, xi in zip(t, x)]

    lead = (1.0 - c) ** 1.5
    phi0 = 1.0 - lead * _ETA_START**2 / 6.0
    dphi0 = -lead * _ETA_START / 3.0
    tf = _white_dwarf_edge(c, np.array([phi0, dphi0]))
    return ProblemSpec(
        system=OdeSystem(dim=2, rhs=rhs, jac=jac),
        x0=np.array([phi0, dphi0]),
        t0=_ETA_START,
        tf=tf,
        lvim_defaults=SolverConfig(n_basis=5, dt=0.1, tol=1e-10),
        state_names=("phi", "phi_prime"),
        notes=f"series start at eta = {_ETA_START:g}, c = {c:g}",
    )


def mathieu(delta: float = 0.5, epsilon: float = 0.1) -> ProblemSpec:
    """Parametrically forced linear oscillator."""
    checked("delta", delta)
    checked("epsilon", epsilon)

    def rhs(t, x):
        x0, x1 = x
        return [x1, -(delta - epsilon * math.cos(t)) * x0]

    def jac(t, x):
        return [[[0.0, 1.0], [-(delta - epsilon * math.cos(s)), 0.0]] for s in t]

    return ProblemSpec(
        system=OdeSystem(dim=2, rhs=rhs, jac=jac),
        x0=np.array([1.0, 0.0]),
        t0=0.0,
        tf=100.0,
        lvim_defaults=SolverConfig(n_basis=5, dt=0.5, tol=1e-10),
        state_names=("x", "x_dot"),
        notes=f"delta = {delta:g}, epsilon = {epsilon:g}",
    )


def pendulum() -> ProblemSpec:
    """Rigid pendulum with unit g/l, released nearly inverted."""

    def rhs(t, x):
        th, thd = x
        return [thd, -math.sin(th)]

    def jac(t, x):
        return [[[0.0, 1.0], [-math.cos(v), 0.0]] for v, _ in x]

    return ProblemSpec(
        system=OdeSystem(dim=2, rhs=rhs, jac=jac),
        x0=np.array([3.1329, 0.0]),
        t0=0.0,
        tf=50.0,
        lvim_defaults=SolverConfig(n_basis=5, dt=0.1, tol=1e-10),
        state_names=("theta", "theta_dot"),
        notes="g/l = 1",
    )


def pendulum_frequency_sweep(amplitudes: Sequence[float]) -> np.ndarray:
    """(amplitude, frequency) rows for release-from-rest pendulum swings.

    The period is taken as the time of the first velocity zero with the
    angle back on the release side, refined on the owning segment's
    interpolant.  Uses the stock pendulum (unit g/l) and its default
    solver settings.
    """
    spec = pendulum()
    cfg = spec.lvim_defaults
    out = []
    for amp in amplitudes:
        amp = float(amp)
        if not 0.0 < amp < math.pi:
            raise ValueError(f"amplitude {amp:g} outside (0, pi): no oscillation")
        # 64 segments (6.4 at dt = 0.1) just cover the small-amplitude
        # period 2 pi, so a short swing ends in its first chunk and a long
        # one marches little past its period
        chunk = 64 * cfg.dt
        t0, x = 0.0, np.array([amp, 0.0])
        period = None
        while period is None:
            traj = march(spec.system, t0, t0 + chunk, x, cfg)
            th, thd = traj.states[:, 0], traj.states[:, 1]
            # velocity sign changes away from a node zero, angle positive
            flips = np.flatnonzero((thd[:-1] != 0.0) & (thd[:-1] * thd[1:] <= 0.0)
                                   & (th[:-1] + th[1:] > 0.0))
            period = _first_root(traj, flips, 1)
            if period is None:
                t0, x = traj.times[-1], traj.states[-1]
                if t0 > 4000.0:
                    raise ConvergenceError(f"no period found for amplitude {amp:g} within t = 4000")
        out.append((amp, 2.0 * math.pi / period))
    return np.array(out)


BAR_LOAD_TYPES = ("dead", "perpendicular_follower", "tangent_follower")


def buckled_bar(load_type: str = "dead", load: float = 50.0,
                alpha: float = 0.0) -> ProblemSpec:
    """Post-buckling rod bending in arc length, unit stiffness and length.

    The load direction follows the named convention: fixed for a dead
    load, or slaved to the tip angle alpha for the follower variants.
    alpha is a plain parameter here; the shooting layer is what makes
    it consistent with the tip rotation.
    """
    checked("load", load, 0.0)
    checked("alpha", alpha)
    if load_type not in BAR_LOAD_TYPES:
        raise ValueError(f"load_type must be one of {BAR_LOAD_TYPES}")
    P, al = load, alpha

    if load_type == "dead":
        def rhs(t, x):
            th, dth = x
            return [dth, -P * math.sin(th)]

        def jac(t, x):
            return [[[0.0, 1.0], [-P * math.cos(v), 0.0]] for v, _ in x]
    else:
        # d/dtheta [f(theta - alpha) sin(theta)] = f(2 theta - alpha), f = cos or sin
        f = math.cos if load_type == "perpendicular_follower" else math.sin

        def rhs(t, x):
            th, dth = x
            return [dth, -P * f(th - al) * math.sin(th)]

        def jac(t, x):
            return [[[0.0, 1.0], [-P * f(2.0 * v - al), 0.0]] for v, _ in x]

    return ProblemSpec(
        system=OdeSystem(dim=2, rhs=rhs, jac=jac),
        x0=np.array([0.0, 0.0]),
        t0=0.0,
        tf=1.0,
        lvim_defaults=SolverConfig(n_basis=7, dt=0.1, tol=1e-10),
        state_names=("theta", "theta_prime"),
        notes=f"{load_type} load P = {load:g}, alpha = {alpha:g}",
    )


# squared c/a ratios separating the three planar-curve families
_ELASTICA_SPLIT_SQ = (1.0, 1.651868, 2.0)


def elastica_regime(a: float, c: float) -> int:
    """Classify (a, c) into curve family 1, 2 or 3; boundaries are rejected."""
    checked("a", a, 0.0, strict=True)
    checked("c", c, 0.0, strict=True)
    r2 = (c / a) ** 2
    if r2 < _ELASTICA_SPLIT_SQ[0]:
        return 1
    if _ELASTICA_SPLIT_SQ[0] < r2 < _ELASTICA_SPLIT_SQ[1]:
        return 2
    if _ELASTICA_SPLIT_SQ[1] < r2 < _ELASTICA_SPLIT_SQ[2]:
        return 3
    raise ValueError(f"(a, c) = ({a:g}, {c:g}) sits on or outside the family boundaries")


def elastica(a: float = 1.0, c: float = 1.2) -> ProblemSpec:
    """Planar rod centerline as a single quadrature in x.

    The slope field blows up at |x| = c, so the span stops short of it
    by a relative margin of 1e-3.  The rhs never reads the state.
    """
    checked("a", a, 0.0, strict=True)
    checked("c", c, 0.0, strict=True)
    if 2.0 * a * a - c * c <= 0.0:
        raise ValueError("need c < a*sqrt(2) for a real slope field at x = 0")
    a2, c2 = a * a, c * c

    def rhs(t, x):
        # OdeSystem.eval_rhs names the node (t and state) of a guard that fires
        if abs(t) >= c:
            raise DomainViolationError(
                f"|x| = {abs(t):.6g} reached the slope-field edge at c = {c:g}")
        rad = (c2 - t * t) * (2.0 * a2 - c2 + t * t)
        if rad <= 0.0:
            raise DomainViolationError(f"radicand {rad:.3e} not positive at x = {t:.6g}")
        return [(a2 - c2 + t * t) / math.sqrt(rad)]

    def jac(t, x):
        return [[[0.0]] for _ in t]

    try:
        notes = f"curve family {elastica_regime(a, c)}, a = {a:g}, c = {c:g}"
    except ValueError:
        notes = f"family boundary, a = {a:g}, c = {c:g}"
    return ProblemSpec(
        system=OdeSystem(dim=1, rhs=rhs, jac=jac),
        x0=np.array([0.0]),
        t0=0.0,
        tf=c * (1.0 - 1e-3),
        lvim_defaults=SolverConfig(n_basis=7, dt=0.12, tol=1e-10),
        state_names=("y",),
        notes=notes,
    )


def orbital_period(model: GravityModel, state: np.ndarray) -> float:
    """Two-body period of the osculating orbit at the given 6-state."""
    q, v = np.asarray(state[:3], dtype=float), np.asarray(state[3:], dtype=float)
    r = float(np.linalg.norm(q))
    v2 = float(v @ v)
    inv_a = 2.0 / r - v2 / model.mu
    if inv_a <= 0:
        raise ValueError("state is not on a closed orbit")
    a_sma = 1.0 / inv_a
    return 2.0 * math.pi * math.sqrt(a_sma**3 / model.mu)


_LEO_STATE = np.array([-0.3889e6, 7.7388e6, 0.6736e6, -3.5794e3, 0.0, 6.1997e3])


def leo(model: GravityModel) -> ProblemSpec:
    """Low orbit under the given gravity field, spanning one period.

    The update weights use the plain inverse-cube gradient at any field
    degree; the harmonic terms are small enough that the correction
    iteration does not need them.
    """
    eye = np.eye(3)

    def rhs(t, x):
        return x[3:] + gravity_accel(model, x[:3]).tolist()

    def jac(t, x):
        q = np.array(x)[:, :3]
        # |q|^2 row by row as a one-point dot product rounds it; r**3 as a
        # Python float power, which numpy's vectorized power need not match
        r = [math.sqrt(float(v @ v)) for v in q]
        qh = q / np.array(r)[:, np.newaxis]
        r3 = np.array([v**3 for v in r])[:, np.newaxis, np.newaxis]
        out = np.zeros((len(t), 6, 6))
        out[:, :3, 3:] = eye
        out[:, 3:, :3] = model.mu * (3.0 * (qh[:, :, np.newaxis] * qh[:, np.newaxis, :])
                                     - eye) / r3
        return out.tolist()

    def energy(states):
        potential = np.array([gravity_potential(model, q) for q in states[:, :3]])
        return 0.5 * np.sum(states[:, 3:] ** 2, axis=1) + potential

    period = orbital_period(model, _LEO_STATE)
    return ProblemSpec(
        system=OdeSystem(dim=6, rhs=rhs, jac=jac),
        x0=_LEO_STATE.copy(),
        t0=0.0,
        tf=period,
        lvim_defaults=SolverConfig(n_basis=26, dt=500.0, tol=1e-8, jacobian_mode="frozen"),
        state_names=("x", "y", "z", "vx", "vy", "vz"),
        notes=f"degree {model.degree} field, one period = {period:.6g} s",
        energy=energy,
    )
