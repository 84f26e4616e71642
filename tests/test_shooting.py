"""Secant shooting and the cantilever equilibrium driver."""

import math

import numpy as np
import pytest

from lvim import shooting
from lvim.cli import BAR_GUESSES
from lvim.core import Trajectory, march
from lvim.errors import ConvergenceError
from lvim.problems import buckled_bar
from lvim.rk45 import RkTrajectory, rk45_integrate
from lvim.shooting import ShotResult, shoot_scalar, solve_buckled_bar


# ------------------------------------------------------------ shoot_scalar

def test_affine_residual_one_secant_step():
    calls = []

    def f(v):
        calls.append(v)
        return 3.0 * v - 6.0

    root = shoot_scalar(f, 0.0, 1.0)
    assert root == pytest.approx(2.0, abs=1e-12)
    assert len(calls) == 3  # two seeds plus the landing evaluation


def test_quadratic_residual():
    calls = []

    def f(v):
        calls.append(v)
        return v * v - 4.0

    root = shoot_scalar(f, 1.0, 3.0)
    assert root == pytest.approx(2.0, abs=1e-10)
    assert len(calls) < 12


def test_identical_guesses_rejected():
    with pytest.raises(ValueError):
        shoot_scalar(lambda v: v, 1.0, 1.0)


def test_flat_residual_raises():
    with pytest.raises(ConvergenceError):
        shoot_scalar(lambda v: 1.0, 0.0, 1.0, max_shots=10)


def test_max_shots_exhaustion():
    # exp has no root, and its secant steps walk left without going flat
    with pytest.raises(ConvergenceError, match="no root after 8 shots"):
        shoot_scalar(math.exp, 0.0, 1.0, max_shots=8)


def test_window_bisection_rescue():
    """A wild secant extrapolation outside the window falls back to
    bisecting the bracket instead of evaluating out of bounds."""
    calls = []

    def f(v):
        calls.append(v)
        if not (0.0 <= v <= 10.0):
            raise AssertionError(f"evaluated outside window: {v}")
        # steep tanh makes the secant overshoot violently
        return np.tanh(50.0 * (v - 4.0)) + 1e-6 * (v - 4.0)

    root = shoot_scalar(f, 1.0, 9.0, window=(0.0, 10.0))
    assert root == pytest.approx(4.0, abs=1e-6)


def test_window_without_bracket_raises():
    with pytest.raises(ConvergenceError):
        # both residuals positive, secant heads left out of the window
        shoot_scalar(lambda v: v + 100.0, 1.0, 2.0, window=(0.0, 10.0))


def test_failure_breadcrumb_carries_guess():
    def explodes(v):
        if v > 1.5:
            raise ConvergenceError("diverged")
        return v - 2.0  # pushes the secant past 1.5

    with pytest.raises(ConvergenceError) as exc_info:
        shoot_scalar(explodes, 0.0, 1.0)
    assert exc_info.value.slope_guess > 1.5


# -------------------------------------------------------- dead-load roots

DEAD_P50_BRANCHES = {
    1: ((12.9, 13.1), 12.9554536696),
    2: ((14.05, 14.12), 14.1420538293),
}


@pytest.fixture(scope="module")
def dead_p50_solutions():
    out = {}
    for branch, (guesses, _) in DEAD_P50_BRANCHES.items():
        out[branch] = solve_buckled_bar("dead", 50.0, guesses)
    return out


def test_dead_load_two_equilibria(dead_p50_solutions):
    for branch, (_, expected_root) in DEAD_P50_BRANCHES.items():
        res = dead_p50_solutions[branch]
        assert res.theta_prime_0 == pytest.approx(expected_root, abs=1e-8)
    r1 = dead_p50_solutions[1].theta_prime_0
    r2 = dead_p50_solutions[2].theta_prime_0
    assert abs(r1 - r2) > 1.0


def test_dead_load_shot_result_shape(dead_p50_solutions):
    res = dead_p50_solutions[1]
    assert isinstance(res, ShotResult)
    assert isinstance(res.trajectory, Trajectory)
    assert res.outer_iters == 1
    assert res.inner_iters > 0
    assert abs(res.residual) < 1e-10
    # dead load: alpha reports the converged tip angle
    assert res.alpha == pytest.approx(res.trajectory.states[-1, 0], abs=0)
    assert res.trajectory.states[0, 0] == 0.0
    assert res.trajectory.states[0, 1] == res.theta_prime_0


def test_dead_load_oracle_route_agrees(dead_p50_solutions):
    rk = solve_buckled_bar("dead", 50.0, (12.9, 13.1), integrator="rk45")
    assert isinstance(rk.trajectory, RkTrajectory)
    assert abs(rk.theta_prime_0 - dead_p50_solutions[1].theta_prime_0) < 1e-6


def test_below_critical_load_is_trivial():
    # buckling threshold sits at pi^2/4 ~ 2.47; P=2 only admits theta == 0
    res = solve_buckled_bar("dead", 2.0, (0.05, 0.1))
    assert abs(res.theta_prime_0) < 1e-10
    assert np.max(np.abs(res.trajectory.states[:, 0])) < 1e-10


# -------------------------------------------------------- follower loads

def test_perpendicular_follower_self_consistency():
    res = solve_buckled_bar("perpendicular_follower", 25.0, (2.0, 2.5))
    assert res.theta_prime_0 == pytest.approx(1.4218073416, abs=1e-7)
    tip = res.trajectory.states[-1, 0]
    assert abs(res.alpha - tip) < 1e-10
    assert res.outer_iters > 1  # direction genuinely iterated


def test_tangent_follower_drains_to_trivial():
    res = solve_buckled_bar("tangent_follower", 25.0, (0.05, 0.08))
    tip = res.trajectory.states[-1, 0]
    assert abs(res.alpha - tip) < 1e-10
    assert abs(tip) < 1e-10


# -------------------------------------------------------------- validation

def test_bad_load_type():
    with pytest.raises(ValueError):
        solve_buckled_bar("sideways", 50.0, (12.9, 13.1))


def test_negative_load():
    with pytest.raises(ValueError):
        solve_buckled_bar("dead", -5.0, (12.9, 13.1))


# ------------------------------------------------ one sweep for every load

# (theta_prime_0, alpha, residual, inner_iters, outer_iters) of every stock
# seed pair with both integrators, pinned exactly: keeping the accepted shot
# in place of marching it again must not move a bit
STOCK_SHOTS = {
    ("dead", 50.0, (12.9, 13.1), "lvim"):
        (12.955453669588941, -2.3164304659028425, 7.77346602663815e-14, 6, 1),
    ("dead", 50.0, (12.9, 13.1), "rk45"):
        (12.955453779315391, -2.316430471599169, 1.2573969643270289e-13, 6, 1),
    ("dead", 50.0, (14.05, 14.12), "lvim"):
        (14.14205382926569, 3.1347979158585004, 4.025456034410519e-11, 7, 1),
    ("dead", 50.0, (14.05, 14.12), "rk45"):
        (14.142054008731046, 3.1347979158562094, 3.989233834759964e-11, 7, 1),
    ("dead", 25.0, (4.5, 4.75), "lvim"):
        (4.624224460029901, -0.961450723126417, 1.4454233299899262e-11, 6, 1),
    ("dead", 25.0, (4.5, 4.75), "rk45"):
        (4.62422445991263, -0.9614507230465494, 1.4456115124406033e-11, 6, 1),
    ("perpendicular_follower", 25.0, (2.0, 2.5), "lvim"):
        (1.421807341593739, -0.28631608070902537, 2.294368632465079e-12, 43, 8),
    ("perpendicular_follower", 25.0, (2.0, 2.5), "rk45"):
        (1.4218073415872325, -0.28631608070490516, 2.2988789691313904e-12, 43, 8),
    ("tangent_follower", 25.0, (0.05, 0.08), "lvim"):
        (-5.839093150273038e-14, 0.0, 5.839093150275847e-14, 15, 1),
    ("tangent_follower", 25.0, (0.05, 0.08), "rk45"):
        (-5.839093181664543e-14, 0.0, 5.839093181667384e-14, 15, 1),
}


def test_stock_shots_cover_every_stock_pair():
    pairs = {(lt, load, pair) for (lt, load), pairs in BAR_GUESSES.items()
             for pair in pairs}
    assert {(lt, load, pair) for lt, load, pair, _ in STOCK_SHOTS} == pairs


def _case_id(case):
    load_type, load, pair, integrator = case
    return f"{load_type}-{load:g}-{pair[0]}-{integrator}"


@pytest.fixture(scope="module")
def stock_shots():
    """Each stock case solved once, with the marches and integrations it
    spent counted."""
    calls = {"lvim": 0, "rk45": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shooting, "march", counted(march, "lvim"))
        mp.setattr(shooting, "rk45_integrate", counted(rk45_integrate, "rk45"))
        for case in STOCK_SHOTS:
            load_type, load, pair, integrator = case
            before = dict(calls)
            res = solve_buckled_bar(load_type, load, pair, integrator=integrator)
            spent = {k: calls[k] - before[k] for k in calls}
            out[case] = (res, spent)
    return out


@pytest.mark.parametrize("case", STOCK_SHOTS, ids=_case_id)
def test_every_shot_is_marched_once(stock_shots, case):
    res, spent = stock_shots[case]
    other = "rk45" if case[3] == "lvim" else "lvim"
    assert spent[case[3]] == res.inner_iters
    assert spent[other] == 0


@pytest.mark.parametrize("case", STOCK_SHOTS, ids=_case_id)
def test_stock_shots_are_pinned(stock_shots, case):
    res, _ = stock_shots[case]
    assert (res.theta_prime_0, res.alpha, res.residual, res.inner_iters,
            res.outer_iters) == STOCK_SHOTS[case]


@pytest.mark.parametrize("case", STOCK_SHOTS, ids=_case_id)
def test_returned_trajectory_is_the_accepted_shot(stock_shots, case):
    """The trajectory equals, bit for bit, a fresh march at the accepted
    slope under the final load angle (a dead load ignores the angle)."""
    load_type, load, _, integrator = case
    res, _ = stock_shots[case]
    spec = buckled_bar(load_type, load, alpha=res.alpha)
    x0 = [0.0, res.theta_prime_0]
    if integrator == "lvim":
        fresh = march(spec.system, spec.t0, spec.tf, x0, spec.lvim_defaults)
        assert np.array_equal(res.trajectory.segment_iterations,
                              fresh.segment_iterations)
    else:
        fresh = rk45_integrate(spec.system, spec.t0, spec.tf, x0, spec.rk_defaults)
    assert np.array_equal(res.trajectory.times, fresh.times)
    assert np.array_equal(res.trajectory.states, fresh.states)
    assert res.trajectory.total_rhs_evals == fresh.total_rhs_evals


def test_unknown_integrator():
    with pytest.raises(ValueError, match="unknown integrator"):
        solve_buckled_bar("dead", 50.0, (12.9, 13.1), integrator="euler")
