"""The 144-case bar grid on the lvim route: three load types, eight loads
and six secant seed pairs, each solved once per session (about 3 s), and
every ninth case on the oracle route (under a second)."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from lvim import shooting
from lvim.problems import buckled_bar
from lvim.shooting import ShotResult, solve_buckled_bar

LOAD_TYPES = ("dead", "perpendicular_follower", "tangent_follower")
LOADS = (2.0, 5.0, 10.0, 25.0, 40.0, 50.0, 60.0, 80.0)
PAIRS = ((0.05, 0.1), (2.0, 2.5), (4.5, 4.75), (5.0, 5.5), (12.9, 13.1), (14.05, 14.12))
CASES = [(load_type, load, pair) for load_type in LOAD_TYPES for load in LOADS
         for pair in PAIRS]

# (theta'(0), alpha) that each seed pair of a load reaches, in PAIRS order,
# rounded to 1e-9.  Solved before the lvim route had a loose stage, when
# every lvim shot marched at the stock tol: the loose stage must not move a
# case to another equilibrium.
EQUILIBRIA = {
    ("dead", 2.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
    ),
    ("dead", 5.0): (
        (0.0, 0.0), (3.976086229, 2.190662419), (3.976086229, 2.190662419),
        (3.976086229, 2.190662419), (0.0, 0.0), (0.0, 0.0),
    ),
    ("dead", 10.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (6.230221779, 2.795729454), (6.230221779, 2.795729454), (0.0, 0.0),
    ),
    ("dead", 25.0): (
        (0.0, 0.0), (0.0, 0.0), (4.62422446, -0.961450723),
        (4.62422446, -0.961450723), (0.0, 0.0), (0.0, 0.0),
    ),
    ("dead", 40.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0, 0.0), (12.648785665, 3.127257448), (0.0, 0.0),
    ),
    ("dead", 50.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0, 0.0), (12.95545367, -2.316430466), (14.142053829, 3.134797916),
    ),
    ("dead", 60.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0, 0.0), (0.0, 0.0), (14.70366945, -2.500845213),
    ),
    ("dead", 80.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0, 0.0), (11.539178401, 1.40220291), (11.539178401, 1.40220291),
    ),
    ("perpendicular_follower", 2.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
    ),
    ("perpendicular_follower", 5.0): (
        (0.0, 0.0), (-3.016078937, -2.012425701), (3.016078937, 2.012425701),
        (-3.016078937, -2.012425701), (3.016078937, 2.012425701), (0.0, 0.0),
    ),
    ("perpendicular_follower", 10.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
    ),
    ("perpendicular_follower", 25.0): (
        (0.0, 0.0), (1.421807342, -0.286316081), (1.421807342, -0.286316081),
        (-3.315190392, -2.994238153), (1.421807342, -0.286316081), (0.0, 0.0),
    ),
    ("perpendicular_follower", 40.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
    ),
    ("perpendicular_follower", 50.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
    ),
    ("perpendicular_follower", 60.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
    ),
    ("perpendicular_follower", 80.0): (
        (0.0, 0.0), (0.0, 0.0), (4.016748184, 0.45702753),
        (4.016748184, 0.45702753), (4.016748184, 0.45702753), (0.0, 0.0),
    ),
    ("tangent_follower", 2.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
    ),
    ("tangent_follower", 5.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
    ),
    ("tangent_follower", 10.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
    ),
    ("tangent_follower", 25.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
    ),
    ("tangent_follower", 40.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
    ),
    ("tangent_follower", 50.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
    ),
    ("tangent_follower", 60.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
    ),
    ("tangent_follower", 80.0): (
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
    ),
}


def _solve(case, integrator="lvim"):
    """The case's ShotResult, or the exception it raised; the
    ``(shoot_tol, shots)`` of each of its ``shoot_scalar`` calls in order,
    each shot an ``(x0, config)``; and the last trajectory it marched."""
    stages, last, shoot_scalar = [], [], shooting.shoot_scalar

    def counted(residual_fn, *args, **kwargs):
        stages.append((kwargs["shoot_tol"], []))
        return shoot_scalar(residual_fn, *args, **kwargs)

    def logged(integrate):
        def spy(system, t0, tf, x0, config, **kwargs):
            last[:] = [integrate(system, t0, tf, x0, config, **kwargs)]
            stages[-1][1].append((tuple(x0), config))
            return last[0]
        return spy

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shooting, "shoot_scalar", counted)
        mp.setattr(shooting, "march", logged(shooting.march))
        mp.setattr(shooting, "rk45_integrate", logged(shooting.rk45_integrate))
        try:
            res = solve_buckled_bar(*case, integrator=integrator)
        except Exception as exc:  # reported by the case's own test
            res = exc
    return res, stages, last[0] if last else None


@pytest.fixture(scope="module")
def grid():
    """Each case's ``_solve`` on the lvim route."""
    return {case: _solve(case) for case in CASES}


@pytest.fixture(scope="module")
def oracle_grid():
    """Every ninth case's ``_solve`` on the oracle route (under a second)."""
    return {case: _solve(case, "rk45") for case in CASES[::9]}


def _digest(results):
    """A sha256 over each result's scalars, counts and trajectory bytes."""
    h = hashlib.sha256()
    for res in results:
        tr = res.trajectory
        h.update(repr((res.theta_prime_0, res.alpha, res.residual, res.outer_iters,
                       res.inner_iters, tr.total_rhs_evals)).encode())
        for array in (tr.times, tr.states, tr.segment_iterations):
            h.update(array.tobytes())
    return h.hexdigest()


def _case_id(case):
    load_type, load, pair = case
    return f"{load_type}-{load:g}-{pair[0]}"


def test_equilibria_cover_the_grid():
    assert set(EQUILIBRIA) == {(load_type, load) for load_type in LOAD_TYPES
                               for load in LOADS}
    assert all(len(row) == len(PAIRS) for row in EQUILIBRIA.values())


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_grid_case_keeps_its_equilibrium(grid, case):
    res, _, _ = grid[case]
    assert isinstance(res, ShotResult), f"{case} raised {res!r}"
    root, alpha = EQUILIBRIA[case[:2]][PAIRS.index(case[2])]
    assert abs(res.theta_prime_0 - root) < 1e-8
    assert abs(res.alpha - alpha) < 1e-8
    assert res.residual < 1e-10


@pytest.mark.parametrize("case", CASES[::9], ids=_case_id)
def test_oracle_case_keeps_its_equilibrium(oracle_grid, case):
    """The oracle lands on the equilibrium of the lvim route to within the
    march's truncation on the bar (up to 1.8e-7)."""
    res, _, _ = oracle_grid[case]
    assert isinstance(res, ShotResult), f"{case} raised {res!r}"
    root, alpha = EQUILIBRIA[case[:2]][PAIRS.index(case[2])]
    assert abs(res.theta_prime_0 - root) < 1e-6
    assert abs(res.alpha - alpha) < 1e-6
    assert res.residual < 1e-10


def _followers(results):
    followers = [case for case in results if case[0] != "dead"]
    assert followers
    return followers


def _stage_settings(case, integrator):
    """The ``(config, shoot_tol)`` of the route's loose and stock stages on
    the case's bar."""
    spec = buckled_bar(*case[:2])
    base = spec.lvim_defaults if integrator == "lvim" else spec.rk_defaults
    return tuple((replace(base, **overrides), tol) for overrides, tol in shooting._STAGES[integrator])


@pytest.mark.parametrize("integrator", ["lvim", "rk45"])
def test_follower_clamp_end_search_runs_its_loose_stage_alone(grid, oracle_grid, integrator):
    """A follower's clamp-end search only seeds the tip angle, so it runs
    one stage, at its route's loose setting.  Its tip (nonzero on every
    grid case) seeds a search from the free end, loose then stock."""
    results = grid if integrator == "lvim" else oracle_grid
    for case in _followers(results):
        _, stages, _ = results[case]
        loose, stock = _stage_settings(case, integrator)
        (tol, shots), *free_end = stages
        assert (tol, {config for _, config in shots}) == (loose[1], {loose[0]}), case
        assert all(x0[0] == 0.0 for x0, _ in shots), case  # theta(0) = 0: clamp-end shots
        assert [(tol, {config for _, config in shots}) for tol, shots in free_end] == \
            [(loose[1], {loose[0]}), (stock[1], {stock[0]})], case
        assert all(x0[1] == 0.0 for _, shots in free_end for x0, _ in shots), case


@pytest.mark.parametrize("integrator", ["lvim", "rk45"])
def test_follower_comes_back_mirrored_from_the_free_end(grid, oracle_grid, integrator):
    """Every follower returns its last shot, a free-end one, read from the
    clamp, straight bars included; ``alpha`` is that shot's start, the
    trajectory's tip angle, bit for bit."""
    results = grid if integrator == "lvim" else oracle_grid
    for case in _followers(results):
        res, _, last = results[case]
        mirrored = last.mirrored(shooting._FLIP)
        assert np.array_equal(res.trajectory.times, mirrored.times), case
        assert np.array_equal(res.trajectory.states, mirrored.states), case
        assert res.alpha == res.trajectory.states[-1, 0] == last.states[0, 0], case


def test_tangent_p80_loose_stage_keeps_its_shot_margin(grid):
    """The grid's hardest search: the tangent follower at P = 80 from
    (12.9, 13.1) reaches the straight bar from far off.  Its loose clamp-end
    stage met its bound on the 29th of ``_DEFAULT_MAX_SHOTS`` = 60 shots
    (a loose march tol of 1e-6 ran it out of shots, 1e-4 took 53)."""
    res, stages, _ = grid[("tangent_follower", 80.0, (12.9, 13.1))]
    assert isinstance(res, ShotResult)
    stage_shots = [len(shots) for _, shots in stages]
    assert len(stage_shots) == res.outer_iters == 3
    assert stage_shots[0] <= 29 < shooting._DEFAULT_MAX_SHOTS
    assert sum(stage_shots) == res.inner_iters


# Every grid result bit for bit: the lvim route on all 144 cases, and the
# oracle route on every ninth case.  Bitwise on numpy 2.4.6, as STOCK_SHOTS
# and the CLI fingerprints are; a change that moves a result by design
# re-pins these and says why in CHANGES.md.  Next to each hash, the grid's
# total shots as a plain value, so that a red hash says whether the search
# cost moved.
GRID_SHOTS = 1730
GRID_SHA256 = "ecec8e8c20064599ec0a3f8729c790389b2a1307aade0ab03675688b08867a21"
ORACLE_SHOTS = 155
ORACLE_SHA256 = "59adf028bf88e7a76c13944e651a22f0cfd08a1aa021e454e494cfb8b62862e1"


def test_grid_results_match_their_pin(grid):
    results = [grid[case][0] for case in CASES]
    assert sum(res.inner_iters for res in results) == GRID_SHOTS
    assert _digest(results) == GRID_SHA256


def test_oracle_grid_results_match_their_pin(oracle_grid):
    results = [oracle_grid[case][0] for case in CASES[::9]]
    assert sum(res.inner_iters for res in results) == ORACLE_SHOTS
    assert _digest(results) == ORACLE_SHA256
