"""The 144-case bar grid on the lvim route: three load types, eight loads
and six secant seed pairs, each solved once per session (about 3 s)."""

import hashlib

import pytest

from lvim import shooting
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


@pytest.fixture(scope="module")
def grid():
    """Each case's ShotResult, or the exception it raised, and the shots
    of each of its ``shoot_scalar`` calls in order."""
    stage_shots, shoot_scalar = [], shooting.shoot_scalar

    def counted(residual_fn, *args, **kwargs):
        stage_shots.append(0)

        def residual(v):
            stage_shots[-1] += 1
            return residual_fn(v)

        return shoot_scalar(residual, *args, **kwargs)

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shooting, "shoot_scalar", counted)
        for case in CASES:
            stage_shots.clear()
            try:
                res = solve_buckled_bar(*case)
            except Exception as exc:  # reported by the case's own test
                res = exc
            out[case] = (res, list(stage_shots))
    return out


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
    res, _ = grid[case]
    assert isinstance(res, ShotResult), f"{case} raised {res!r}"
    root, alpha = EQUILIBRIA[case[:2]][PAIRS.index(case[2])]
    assert abs(res.theta_prime_0 - root) < 1e-8
    assert abs(res.alpha - alpha) < 1e-8
    assert res.residual < 1e-10


def test_tangent_p80_loose_stage_keeps_its_shot_margin(grid):
    """The grid's hardest search: the tangent follower at P = 80 from
    (12.9, 13.1) reaches the straight bar from far off.  Its loose clamp-end
    stage met its bound on the 29th of ``_DEFAULT_MAX_SHOTS`` = 60 shots
    (a loose march tol of 1e-6 ran it out of shots, 1e-4 took 53)."""
    res, stage_shots = grid[("tangent_follower", 80.0, (12.9, 13.1))]
    assert isinstance(res, ShotResult)
    assert len(stage_shots) == res.outer_iters == 4
    assert stage_shots[0] <= 29 < shooting._DEFAULT_MAX_SHOTS
    assert sum(stage_shots) == res.inner_iters


# Every grid result bit for bit: the lvim route on all 144 cases, and the
# oracle route on every ninth case (16 solves, under a second).  Bitwise on
# numpy 2.4.6, as STOCK_SHOTS and the CLI fingerprints are; a change that
# moves a result by design re-pins these and says why in CHANGES.md.
GRID_SHA256 = "089bb3d34b23f3d0e111fd2ec2d84c6c1954839110f93a5dd9516d54ac7c1e3b"
ORACLE_SHA256 = "c3b31f2a1bd59606643bd23eb77fa701e60188b8f4064d664f56221eb8ffc1ef"


def test_grid_results_match_their_pin(grid):
    assert _digest(grid[case][0] for case in CASES) == GRID_SHA256


def test_oracle_grid_results_match_their_pin():
    assert _digest(solve_buckled_bar(*case, integrator="rk45")
                   for case in CASES[::9]) == ORACLE_SHA256
