"""Secant shooting and the cantilever equilibrium driver."""

import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ellipkm1

from lvim import shooting
from lvim.cli import BAR_GUESSES
from lvim.core import SolverConfig, Trajectory, march
from lvim.errors import ConvergenceError
from lvim.problems import buckled_bar
from lvim.rk45 import RkTrajectory, rk45_integrate, sample_at
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


def test_bisection_rescue_stays_between_guesses():
    """A wild secant extrapolation outside the bracketing guesses falls
    back to bisecting the bracket instead of evaluating out of bounds."""
    calls = []

    def f(v):
        calls.append(v)
        if not (1.0 <= v <= 9.0):
            raise AssertionError(f"evaluated outside the guesses: {v}")
        # steep tanh makes the secant overshoot violently
        return np.tanh(50.0 * (v - 4.0)) + 1e-6 * (v - 4.0)

    root = shoot_scalar(f, 1.0, 9.0)
    assert root == pytest.approx(4.0, abs=1e-6)


def test_reversed_bracket_converges_between_guesses():
    """Guesses given high-to-low bracket the root as well as low-to-high."""
    roots = {}
    for guesses in ((0.0, 10.0), (10.0, 0.0)):
        calls = []

        def f(v):
            calls.append(v)
            assert 0.0 <= v <= 10.0, f"evaluated outside the guesses: {v}"
            return math.tanh(8.0 * (v - 6.1))

        roots[guesses] = shoot_scalar(f, *guesses)
        assert len(calls) < 30
    assert roots[(10.0, 0.0)] == pytest.approx(roots[(0.0, 10.0)], abs=1e-10)
    assert roots[(0.0, 10.0)] == pytest.approx(6.1, abs=1e-10)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(-50.0, 50.0).filter(lambda k: abs(k) > 0.1), st.floats(-0.9, 0.9),
       st.floats(-5.0, -1.0), st.floats(1.0, 5.0), st.booleans())
@example(20.0, 0.215, -2.2, 2.4, False)  # left the tightest pair twice before
def test_no_evaluation_leaves_the_tightest_bracket(k, root, a, b, reverse):
    """For ``atan(k (v - root))`` from a sign-changing pair, each evaluation
    lies inside the tightest sign-changing pair of the evaluations before
    it (Dekker's safeguard), not merely inside the first two guesses."""
    calls = []

    def f(v):
        calls.append(v)
        return math.atan(k * (v - root))

    shoot_scalar(f, *((b, a) if reverse else (a, b)))
    for i in range(2, len(calls)):
        # the residual is monotone: the tightest pair is the nearest
        # evaluation on each side of the root
        lo = max(v for v in calls[:i] if v < root)
        hi = min(v for v in calls[:i] if v > root)
        assert lo <= calls[i] <= hi, f"evaluation {i} at {calls[i]!r} outside [{lo!r}, {hi!r}]"


@pytest.mark.parametrize("guesses", [(math.nan, 1.0), (0.0, math.inf),
                                     (-math.inf, math.inf)])
def test_non_finite_guesses_rejected(guesses):
    def never(v):
        raise AssertionError("evaluated a residual for non-finite guesses")

    with pytest.raises(ValueError, match="finite"):
        shoot_scalar(never, *guesses)


def _steep(v):
    return math.tanh(50.0 * (v - 4.0)) + 1e-6 * (v - 4.0)


# each exit of shoot_scalar: (residual, guesses, slope); a "slope/" path
# takes its second guess from the first and the slope
SHOOT_EXITS = {
    "first-guess-root": (lambda v: v - 1.0, (1.0, 3.0), None),
    "second-guess-root": (lambda v: v - 1.0, (3.0, 1.0), None),
    "plain-secant": (lambda v: v * v - 4.0, (3.0, 5.0), None),
    "bracket-bisects": (_steep, (1.0, 9.0), None),
    "slope/first-guess-root": (lambda v: v - 1.0, (1.0,), 2.0),
    "slope/second-guess-root": (lambda v: v - 1.0, (3.0,), 1.0),
    "slope/plain-secant": (lambda v: v * v - 4.0, (3.0,), 10.0),
    "slope/bracket-bisects": (_steep, (1.0,), 0.125),
}


@pytest.mark.parametrize("path", SHOOT_EXITS)
def test_root_is_the_last_value_evaluated(path):
    """Every exit returns the last value passed to ``residual_fn``, so a
    caller's last evaluation is the one at the root."""
    f, guesses, slope = SHOOT_EXITS[path]
    calls, values = [], []

    def logged(v):
        calls.append(v)
        values.append(f(v))
        return values[-1]

    root = shoot_scalar(logged, *guesses, slope=slope)
    assert root == calls[-1]
    if slope is not None and len(calls) > 1:
        assert calls[1] == calls[0] - values[0] / slope
    # the exit taken is the one named: bisected evaluations are those off
    # the secant through the two before them
    secant = [b - fb * (b - a) / (fb - fa)
              for a, b, fa, fb in zip(calls, calls[1:], values, values[1:])]
    bisected = any(c != s for c, s in zip(calls[2:], secant))
    exit_ = path.rpartition("/")[2]
    if exit_.endswith("-root"):
        assert len(calls) == (1 if exit_.startswith("first") else 2)
    else:
        assert len(calls) > 2
        assert (values[0] * values[1] < 0.0) == bisected == (exit_ == "bracket-bisects")


def test_exact_slope_lands_on_the_second_evaluation():
    calls = []

    def f(v):
        calls.append(v)
        return 3.0 * v - 6.0

    assert shoot_scalar(f, 0.0, slope=3.0) == 2.0
    assert calls == [0.0, 2.0]


def test_wrong_slope_still_converges_through_the_secant():
    calls = []

    def f(v):
        calls.append(v)
        return v * v * v - 8.0

    root = shoot_scalar(f, 3.0, slope=-1.0)  # points away from the root
    assert root == pytest.approx(2.0, abs=1e-10)
    assert calls[1] == 3.0 + 19.0
    assert 2 < len(calls) < 40


@pytest.mark.parametrize("slope", [0.0, -0.0, math.nan, math.inf, -math.inf])
def test_zero_or_non_finite_slope_rejected(slope):
    def never(v):
        raise AssertionError("evaluated a residual for a bad slope")

    with pytest.raises(ValueError, match="^slope must be finite and non-zero"):
        shoot_scalar(never, 1.0, slope=slope)


def test_slope_and_second_guess_are_one_or_the_other():
    def never(v):
        raise AssertionError("evaluated a residual without a usable second point")

    with pytest.raises(ValueError, match="^slope "):
        shoot_scalar(never, 1.0, 2.0, slope=1.0)
    with pytest.raises(ValueError, match="two distinct finite guesses"):
        shoot_scalar(never, 1.0)
    with pytest.raises(ValueError, match="finite"):
        shoot_scalar(never, math.nan, slope=1.0)


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
    assert res.outer_iters == 2  # one search: its loose stage, then its stock one
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


def test_perpendicular_follower_large_load():
    # the free-end shoot holds the buckled branch at P = 80 as well
    res = solve_buckled_bar("perpendicular_follower", 80.0, (5.0, 5.5))
    assert abs(res.alpha - res.trajectory.states[-1, 0]) < 1e-10
    assert abs(res.theta_prime_0 - 4.016748183555007) < 1e-10
    assert res.residual < 1e-10
    # the oracle's root of the same branch
    assert abs(res.theta_prime_0 - 4.016748189608) < 1e-8


def test_inner_failure_keeps_the_failing_slope(monkeypatch):
    """A shot that fails in the free-end search reports the tip angle it
    tried as ``slope_guess``, the value its own search was varying."""
    starts = []

    def failing_march(system, t0, tf, x0, config, guess=None):
        starts.append(list(x0))
        if len(starts) == 10:  # the clamp-end shoot at P = 25 takes 5 shots
            raise ConvergenceError("stalled")
        return march(system, t0, tf, x0, config, guess=guess)

    monkeypatch.setattr(shooting, "march", failing_march)
    with pytest.raises(ConvergenceError, match="stalled") as exc_info:
        solve_buckled_bar("perpendicular_follower", 25.0, (2.0, 2.5))
    tip, slope = starts[-1]
    assert slope == 0.0  # a free-end shot
    assert exc_info.value.slope_guess == tip


def test_tangent_follower_drains_to_trivial():
    res = solve_buckled_bar("tangent_follower", 25.0, (0.05, 0.08))
    tip = res.trajectory.states[-1, 0]
    assert abs(res.alpha - tip) < 1e-10
    assert abs(tip) < 1e-10


@pytest.mark.parametrize("load, pair, root", [
    (5.0, (2.0, 2.5), -3.0160789368),
    (25.0, (5.0, 5.5), -3.3151903924),
    (80.0, (4.5, 4.75), 4.0167481836),
])
def test_perpendicular_follower_keeps_its_equilibrium(load, pair, root):
    """Loads with more than one buckled equilibrium: seeded shots land on
    the same root as cold-started ones did."""
    res = solve_buckled_bar("perpendicular_follower", load, pair)
    assert abs(res.theta_prime_0 - root) < 1e-9
    assert res.residual < 1e-10
    assert abs(res.alpha - res.trajectory.states[-1, 0]) < 1e-10


@pytest.mark.parametrize("integrator", ["lvim", "rk45"])
@pytest.mark.parametrize("load_type", ["perpendicular_follower", "tangent_follower"])
def test_straight_first_shot_ends_a_follower_solve(load_type, integrator):
    """From guesses (0.0, 0.1) the first shot is theta = 0, which solves
    every load.  Its tip of exactly 0 would seed the free-end search with
    two equal guesses, so it ends the solve: one search, one shot.  Every
    sweep and step of that shot sees a zero rhs, so its loose run is a
    stock run bit for bit."""
    res = solve_buckled_bar(load_type, 25.0, (0.0, 0.1), integrator=integrator)
    assert (res.outer_iters, res.inner_iters) == (1, 1)
    assert (res.theta_prime_0, res.alpha, res.residual) == (0.0, 0.0, 0.0)
    spec = buckled_bar(load_type, 25.0)
    if integrator == "lvim":
        fresh = march(spec.system, spec.t0, spec.tf, [0.0, 0.0], spec.lvim_defaults)
        assert np.array_equal(res.trajectory.segment_iterations, fresh.segment_iterations)
    else:
        fresh = rk45_integrate(spec.system, spec.t0, spec.tf, [0.0, 0.0], spec.rk_defaults)
        assert np.array_equal(res.trajectory.dense_q, fresh.dense_q)
    assert np.array_equal(res.trajectory.times, fresh.times)
    assert np.array_equal(res.trajectory.states, fresh.states)
    assert not np.any(fresh.states)


# ------------------------------------------------------------ seeded shots

def _shot(v, states):
    """A shot-log entry: the value shot and a trajectory with those states."""
    return v, SimpleNamespace(states=states)


def test_shot_guess_extrapolates_the_last_two_shots():
    x_a, x_b = np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([[0.0, 2.0], [4.0, 5.0]])
    assert shooting._shot_guess(1.0, []) is None
    assert shooting._shot_guess(3.0, [_shot(1.0, x_a)]) is x_a
    # states linear in v: the extrapolation is exact at v = 4
    log = [_shot(0.0, np.zeros((2, 2))), _shot(1.0, x_a), _shot(2.0, x_b)]
    guess = shooting._shot_guess(4.0, log)
    assert np.array_equal(guess, [[0.0, 4.0], [8.0, 9.0]])


def test_shot_guess_falls_back_to_the_last_shot_on_a_repeated_value():
    """Two shots at one value give no secant slope: the guess is the last
    shot's states, not a 0/0."""
    x_a, x_b = np.zeros((3, 2)), np.ones((3, 2))
    assert shooting._shot_guess(2.5, [_shot(2.0, x_a), _shot(2.0, x_b)]) is x_b


@pytest.mark.parametrize("load_type, load, pair", [
    ("dead", 50.0, (12.9, 13.1)),
    ("perpendicular_follower", 25.0, (2.0, 2.5)),
])
def test_each_search_seeds_its_shots_from_its_own_earlier_shots(
        monkeypatch, load_type, load, pair):
    """One log per search spans its stages: loose then stock, but loose
    alone for a follower's clamp-end search.  The first shot of each search
    is cold, the second starts from the first, and every later one from the
    secant extrapolation of the two before it, or from the last shot when
    those two share a value: the stock stage's first shot repeats the loose
    stage's last value and starts from its trajectory, and its second
    starts from that first stock shot."""
    shots = []

    def spy(system, t0, tf, x0, config, guess=None):
        tr = march(system, t0, tf, x0, config, guess=guess)
        shots.append((list(x0), guess, tr.states, config))
        return tr

    monkeypatch.setattr(shooting, "march", spy)
    res = solve_buckled_bar(load_type, load, pair)
    assert len(shots) == res.inner_iters
    # a clamp-end shot varies theta'(0), a free-end shot theta(1)
    free_end = [x0[1] == 0.0 for x0, *_ in shots]
    value = [x0[0] if free else x0[1] for (x0, *_), free in zip(shots, free_end)]
    firsts = [i for i in range(len(shots)) if i == 0 or free_end[i] != free_end[i - 1]]
    stock = buckled_bar(load_type, load).lvim_defaults
    (loose, _), _ = shooting._STAGES["lvim"]
    staged = [replace(stock, **loose), stock]
    searches = [[config for config, _ in itertools.groupby(s[3] for s in shots[start:end])]
                for start, end in zip(firsts, firsts[1:] + [len(shots)])]
    assert searches == ([staged[:1]] if load_type != "dead" else []) + [staged]
    assert sum(map(len, searches)) == res.outer_iters
    handoffs = [i for i in range(1, len(shots)) if shots[i][3] != shots[i - 1][3]
                and i not in firsts]
    assert len(handoffs) == 1  # the one search that runs both stages
    for i in handoffs:
        assert value[i] == value[i - 1]
        assert np.array_equal(shots[i][1], shots[i - 1][2])
    for i, (_, guess, _, _) in enumerate(shots):
        if i in firsts:
            assert guess is None
        elif i - 1 in firsts or value[i - 1] == value[i - 2]:
            assert guess is shots[i - 1][2]
        else:
            w = (value[i] - value[i - 1]) / (value[i - 1] - value[i - 2])
            x_a, x_b = shots[i - 2][2], shots[i - 1][2]
            assert np.array_equal(guess, x_b + w * (x_b - x_a))


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
# in place of marching it again must not move a bit.  The lvim shots are
# seeded from the shots before them.  A full search runs a loose stage and a
# stock one to 1e-10, two ``shoot_scalar`` calls in ``outer_iters``; the
# stock stage starts from the loose stage's last value and the slope of its
# last two shots.  A follower's clamp-end search runs its loose stage alone,
# one call, and its tip seeds a full search from the free end.  The oracle's loose stage runs to a 1e-6 residual, which
# moves the rk45 roots by at most 2.2e-12 from a search at stock tolerance
# alone.  The lvim one marches at tol 1e-5 to a 1e-4 residual, which keeps
# the lvim roots within 2.6e-11 of a cold-started search at stock tol alone.
# The perpendicular follower takes 5 clamp-end and 8 + 3 free-end lvim
# shots (loose + stock).  The tangent follower ends straight: its free-end
# loose stage meets its bound on its first shot, at the clamp-end tip.
STOCK_SHOTS = {
    ("dead", 50.0, (12.9, 13.1), "lvim"):
        (12.955453669588167, -2.316430465902664, 4.446620222085802e-12, 8, 2),
    ("dead", 50.0, (12.9, 13.1), "rk45"):
        (12.955453779315285, -2.3164304715991313, 7.526392703516294e-13, 7, 2),
    ("dead", 50.0, (14.05, 14.12), "lvim"):
        (14.142053829265562, 3.134797915848217, 3.258818498699532e-11, 9, 2),
    ("dead", 50.0, (14.05, 14.12), "rk45"):
        (14.142054008730913, 3.1347979158507466, 1.2713347627250904e-12, 9, 2),
    ("dead", 25.0, (4.5, 4.75), "lvim"):
        (4.624224460055165, -0.9614507231321563, 1.6629694013035968e-13, 8, 2),
    ("dead", 25.0, (4.5, 4.75), "rk45"):
        (4.6242244599103906, -0.9614507230460434, 1.576811771430986e-11, 7, 2),
    ("perpendicular_follower", 25.0, (2.0, 2.5), "lvim"):
        (1.4218073415936006, -0.2863160806906484, 3.1166274372456993e-13, 16, 3),
    ("perpendicular_follower", 25.0, (2.0, 2.5), "rk45"):
        (1.421807341603925, -0.28631608070070913, 2.6521406598645214e-13, 17, 3),
    ("tangent_follower", 25.0, (0.05, 0.08), "lvim"):
        (9.183549615799121e-41, -1.1434944787933055e-20, 1.1434944787933027e-20, 17, 3),
    ("tangent_follower", 25.0, (0.05, 0.08), "rk45"):
        (-0.0, 0.0, 0.0, 18, 3),
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
    """Each stock case solved once, with the root searches, marches and
    integrations it spent counted, and, as the benchmark's trace counts
    shots, the marches and integrations run inside a ``shoot_scalar`` call,
    and the config of each integration in order."""
    calls = dict.fromkeys(("lvim", "rk45", "searches", "shots", "open"), 0)
    configs = []

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            configs.append(args[4])
            calls["shots"] += calls["open"] > 0
            return fn(*args, **kwargs)
        return wrapper

    def search(*args, **kwargs):
        calls["searches"] += 1
        calls["open"] += 1
        try:
            return shoot_scalar(*args, **kwargs)
        finally:
            calls["open"] -= 1

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shooting, "march", counted(march, "lvim"))
        mp.setattr(shooting, "rk45_integrate", counted(rk45_integrate, "rk45"))
        mp.setattr(shooting, "shoot_scalar", search)
        for case in STOCK_SHOTS:
            load_type, load, pair, integrator = case
            before, first = dict(calls), len(configs)
            res = solve_buckled_bar(load_type, load, pair, integrator=integrator)
            spent = {k: calls[k] - before[k] for k in calls}
            spent["configs"] = configs[first:]
            out[case] = (res, spent)
    return out


@pytest.mark.parametrize("case", STOCK_SHOTS, ids=_case_id)
def test_every_shot_is_marched_once(stock_shots, case):
    res, spent = stock_shots[case]
    other = "rk45" if case[3] == "lvim" else "lvim"
    assert spent[case[3]] == res.inner_iters
    assert spent[other] == 0


@pytest.mark.parametrize("case", STOCK_SHOTS, ids=_case_id)
def test_counts_are_root_searches_and_shots(stock_shots, case):
    """``outer_iters`` counts the ``shoot_scalar`` calls: two for a full
    root search (its loose stage, then its stock one), which solves a dead
    load, and one more for a follower, whose clamp-end search runs its loose
    stage alone and seeds the free-end search with a nonzero tip."""
    res, _ = stock_shots[case]
    assert res.outer_iters == (2 if case[0] == "dead" else 3)


@pytest.mark.parametrize("case", STOCK_SHOTS, ids=_case_id)
def test_shot_counts_are_what_the_benchmark_traces(stock_shots, case):
    """The benchmark counts a root search per ``shoot_scalar`` call and a
    shot per march or integration inside one, and checks those against
    ``outer_iters`` and ``inner_iters``: no shot may run outside a search."""
    res, spent = stock_shots[case]
    assert spent["open"] == 0
    assert spent["searches"] == res.outer_iters
    assert spent["shots"] == spent[case[3]] == res.inner_iters


@pytest.mark.parametrize("case", [c for c in STOCK_SHOTS if c[3] == "rk45"], ids=_case_id)
def test_stock_stage_takes_two_shots(stock_shots, case):
    """The oracle's integrations run in stages, loose then stock; a
    follower's loose clamp-end search runs straight into the loose stage of
    its free-end one.  A stock stage shoots the loose stage's last value
    and the Newton step from it along the loose stage's last secant slope,
    and that step already meets 1e-10: two shots.  The straight tangent
    bar's free-end loose stage meets its bound on its first shot, so it
    hands on no slope, and its stock stage shoots both seeds of the search
    again, then lands on the root: three shots."""
    _, spent = stock_shots[case]
    spec = buckled_bar(case[0], case[1])
    (loose, _), _ = shooting._STAGES["rk45"]
    (config_a, n_loose), (config_b, n_stock) = \
        [(config, len(list(run))) for config, run in itertools.groupby(spent["configs"])]
    assert (config_a, config_b) == (replace(spec.rk_defaults, **loose), spec.rk_defaults)
    assert n_loose >= 2
    assert n_stock == (3 if case[0] == "tangent_follower" else 2)


@pytest.mark.parametrize("case", STOCK_SHOTS, ids=_case_id)
def test_stock_shots_are_pinned(stock_shots, case):
    res, _ = stock_shots[case]
    assert (res.theta_prime_0, res.alpha, res.residual, res.inner_iters,
            res.outer_iters) == STOCK_SHOTS[case]


@pytest.mark.parametrize("case", STOCK_SHOTS, ids=_case_id)
def test_returned_trajectory_is_the_accepted_shot(stock_shots, case):
    """The trajectory is a fresh run at the accepted slope under the final
    load angle (a dead load ignores the angle), or, for a follower shot
    from the free end, a fresh run from the tip angle read from the clamp.
    An oracle run at ``spec.rk_defaults`` equals it bit for bit, so no
    loose-stage shot is ever returned.  A seeded march equals a cold one
    on the same grid to within the iteration tolerance (at most 2.6e-12
    relative on these cases) and still spends N rhs evals per sweep."""
    load_type, load, _, integrator = case
    res, spent = stock_shots[case]
    assert spent[integrator] == res.inner_iters  # no march beyond the shots
    spec = buckled_bar(load_type, load, alpha=res.alpha)
    # every follower is shot from the free end, whose start alpha is exactly
    # the tip angle; a dead load from the clamp, at theta(0) = 0 exactly
    from_free_end = load_type != "dead"
    assert res.alpha == res.trajectory.states[-1, 0]
    x0 = [res.alpha, 0.0] if from_free_end else [0.0, res.theta_prime_0]
    if integrator == "lvim":
        fresh = march(spec.system, spec.t0, spec.tf, x0, spec.lvim_defaults)
    else:
        fresh = rk45_integrate(spec.system, spec.t0, spec.tf, x0, spec.rk_defaults)
    if from_free_end:
        fresh = fresh.mirrored(shooting._FLIP)
    tr = res.trajectory
    assert np.array_equal(tr.times, fresh.times)
    if integrator == "lvim":
        scale = max(1.0, float(np.max(np.abs(fresh.states))))
        assert np.max(np.abs(tr.states - fresh.states)) <= 1e-10 * scale
        assert tr.total_rhs_evals == \
            int(np.sum(tr.segment_iterations)) * spec.lvim_defaults.n_basis
    else:
        assert np.array_equal(tr.dense_q, fresh.dense_q)
        assert np.array_equal(tr.states, fresh.states)
        assert tr.total_rhs_evals == fresh.total_rhs_evals


# v^2 at the clamp that the bar's first integral gives for a tip angle a,
# where theta' = 0: each load's potential energy between 0 and a
FIRST_INTEGRAL = {
    "dead": lambda P, a: 2.0 * P * (1.0 - math.cos(a)),
    "perpendicular_follower": lambda P, a: P * a * math.sin(a),
    "tangent_follower": lambda P, a: P * (a * math.cos(a) - math.sin(a)),
}


@pytest.mark.parametrize("case", STOCK_SHOTS, ids=_case_id)
def test_first_integral_holds_at_every_equilibrium(stock_shots, case):
    """Independent of how the bar was shot, the root slope and the tip
    angle satisfy the energy relation; the lvim bound covers the N = 7
    truncation, worst on dead P = 50."""
    load_type, load, _, integrator = case
    res, _ = stock_shots[case]
    v, tip = res.trajectory.states[0, 1], res.trajectory.states[-1, 0]
    gap = abs(v * v - FIRST_INTEGRAL[load_type](load, tip))
    bound = 1e-11 if integrator == "rk45" else 1e-7
    assert gap < bound * max(1.0, v * v)


def _exact_dead_root(load, n):
    """theta'(0) = 2 sqrt(P) k of the dead-load branch with n interior
    inflections, where (2n + 1) K(k^2) = sqrt(P); solved in 1 - k^2, which
    stays resolved on the n = 0 branch whose tip nears pi."""
    p = brentq(lambda p: (2 * n + 1) * ellipkm1(p) - math.sqrt(load),
               1e-300, 1.0, xtol=1e-300)
    return 2.0 * math.sqrt(load) * math.sqrt(1.0 - p)


@pytest.mark.parametrize("pair, n", [((12.9, 13.1), 1), ((14.05, 14.12), 0)])
def test_dead_load_roots_match_the_elliptic_solution(stock_shots, pair, n):
    exact = _exact_dead_root(50.0, n)
    rk, _ = stock_shots[("dead", 50.0, pair, "rk45")]
    lvim, _ = stock_shots[("dead", 50.0, pair, "lvim")]
    assert abs(rk.theta_prime_0 - exact) < 1e-10
    assert abs(lvim.theta_prime_0 - exact) < 3e-7


# ------------------------------------------------------------ oracle stages

@pytest.mark.parametrize("load_type, load, pair", [
    ("perpendicular_follower", 40.0, (2.0, 2.5)),
    ("perpendicular_follower", 25.0, (5.0, 5.5)),
    ("perpendicular_follower", 80.0, (4.5, 4.75)),
    ("perpendicular_follower", 80.0, (5.0, 5.5)),
    ("dead", 10.0, (2.0, 2.5)),
])
def test_oracle_stages_keep_the_stock_search_root(monkeypatch, load_type, load, pair):
    """On grid cases with more than one equilibrium within reach, the
    loose-then-stock oracle search lands on the root that a search at
    stock tolerance alone finds, in fewer oracle step attempts."""
    attempts = []

    def spy(system, t0, tf, x0, config):
        tr = rk45_integrate(system, t0, tf, x0, config)
        attempts[-1] += tr.steps_accepted + tr.steps_rejected
        return tr

    monkeypatch.setattr(shooting, "rk45_integrate", spy)
    attempts.append(0)
    staged = solve_buckled_bar(load_type, load, pair, integrator="rk45")
    monkeypatch.setitem(shooting._STAGES, "rk45", (({}, shooting._SHOOT_TOL),))
    attempts.append(0)
    stock = solve_buckled_bar(load_type, load, pair, integrator="rk45")
    assert attempts[0] < attempts[1]
    assert staged.outer_iters == stock.outer_iters + 1  # the full search's loose stage
    assert abs(staged.theta_prime_0 - stock.theta_prime_0) < 1e-9
    assert abs(staged.alpha - stock.alpha) < 1e-9
    assert staged.residual < 1e-10


def test_loose_stage_met_on_its_first_guess(monkeypatch):
    """Seeded at the elliptic root, the loose stage stops on its first
    shot; the stock stage starts there again, and the result is still a
    stock-tolerance trajectory."""
    calls = []

    def spy(system, t0, tf, x0, config):
        calls.append((x0[1], config))
        return rk45_integrate(system, t0, tf, x0, config)

    exact = _exact_dead_root(50.0, 1)
    monkeypatch.setattr(shooting, "rk45_integrate", spy)
    res = solve_buckled_bar("dead", 50.0, (exact, 13.1), integrator="rk45")
    spec = buckled_bar("dead", 50.0)
    (loose, _), _ = shooting._STAGES["rk45"]
    assert calls[:2] == [(exact, replace(spec.rk_defaults, **loose)), (exact, spec.rk_defaults)]
    assert (res.outer_iters, res.inner_iters) == (2, len(calls))
    assert res.residual < 1e-10
    assert abs(res.theta_prime_0 - exact) < 1e-10
    fresh = rk45_integrate(spec.system, spec.t0, spec.tf, [0.0, res.theta_prime_0],
                           spec.rk_defaults)
    assert np.array_equal(res.trajectory.dense_q, fresh.dense_q)
    assert np.array_equal(res.trajectory.states, fresh.states)


# -------------------------------------------------------------- lvim stages

@pytest.mark.parametrize("load_type, load, pair", [
    ("perpendicular_follower", 40.0, (2.0, 2.5)),
    ("perpendicular_follower", 25.0, (5.0, 5.5)),
    ("perpendicular_follower", 80.0, (4.5, 4.75)),
    ("perpendicular_follower", 80.0, (5.0, 5.5)),
    ("dead", 10.0, (2.0, 2.5)),
])
def test_lvim_stages_keep_the_stock_search_root(monkeypatch, load_type, load, pair):
    """On grid cases with more than one equilibrium within reach, the
    loose-then-stock lvim search lands on the root that a search at stock
    tol alone finds, in fewer sweeps."""
    sweeps = []

    def spy(system, t0, tf, x0, config, guess=None):
        tr = march(system, t0, tf, x0, config, guess=guess)
        sweeps[-1] += int(np.sum(tr.segment_iterations))
        return tr

    monkeypatch.setattr(shooting, "march", spy)
    sweeps.append(0)
    staged = solve_buckled_bar(load_type, load, pair)
    monkeypatch.setitem(shooting._STAGES, "lvim", (({}, shooting._SHOOT_TOL),))
    sweeps.append(0)
    stock = solve_buckled_bar(load_type, load, pair)
    assert sweeps[0] < sweeps[1]
    assert staged.outer_iters == stock.outer_iters + 1  # the full search's loose stage
    assert abs(staged.theta_prime_0 - stock.theta_prime_0) < 1e-9
    assert abs(staged.alpha - stock.alpha) < 1e-9
    assert staged.residual < 1e-10


def test_lvim_loose_stage_met_on_its_first_guess(monkeypatch):
    """Seeded at the elliptic root, the loose march meets its bound on the
    first shot; the stock stage shoots that value again from the loose
    trajectory, and the solve's last march runs at ``spec.lvim_defaults``,
    never at the loose tol."""
    calls = []

    def spy(system, t0, tf, x0, config, guess=None):
        tr = march(system, t0, tf, x0, config, guess=guess)
        calls.append((x0[1], config, guess, tr))
        return tr

    exact = _exact_dead_root(50.0, 1)
    monkeypatch.setattr(shooting, "march", spy)
    res = solve_buckled_bar("dead", 50.0, (exact, 13.1))
    spec = buckled_bar("dead", 50.0)
    (loose, _), _ = shooting._STAGES["lvim"]
    assert [(v, config) for v, config, _, _ in calls[:2]] == \
        [(exact, replace(spec.lvim_defaults, **loose)), (exact, spec.lvim_defaults)]
    assert calls[0][2] is None and calls[1][2] is calls[0][3].states
    assert (res.outer_iters, res.inner_iters) == (2, len(calls))
    assert calls[-1][1] == spec.lvim_defaults and res.trajectory is calls[-1][3]
    assert res.residual < 1e-10
    assert abs(res.theta_prime_0 - exact) < 3e-7


@pytest.mark.parametrize("tol", [1e-12, shooting._SHOOT_TOL, 1e-6])
def test_lvim_stages_march_at_the_callers_config(monkeypatch, tol):
    """A caller's config takes the place of ``spec.lvim_defaults`` in both
    stages, a tol of exactly the residual bound included.  A caller tol
    above the 1e-10 residual bound runs the stock
    stage alone, the search of a stock-only table: a march that loose stops
    before it clears a loose seed's error, so its residual would follow the
    seed (at 1e-6 the two-stage search ran out of shots here)."""
    configs = []

    def spy(system, t0, tf, x0, config, guess=None):
        configs.append(config)
        return march(system, t0, tf, x0, config, guess=guess)

    config = SolverConfig(n_basis=7, dt=0.1, tol=tol)
    monkeypatch.setattr(shooting, "march", spy)
    res = solve_buckled_bar("dead", 50.0, (12.9, 13.1), config=config)
    (loose, _), _ = shooting._STAGES["lvim"]
    stages = [config for config, _ in itertools.groupby(configs)]
    assert res.residual < 1e-10
    if tol <= shooting._SHOOT_TOL:
        assert stages == [replace(config, **loose), config]
        assert res.outer_iters == 2
    else:
        assert stages == [config]
        monkeypatch.setitem(shooting._STAGES, "lvim", (({}, shooting._SHOOT_TOL),))
        stock = solve_buckled_bar("dead", 50.0, (12.9, 13.1), config=config)
        assert (res.theta_prime_0, res.inner_iters, res.outer_iters) == \
            (stock.theta_prime_0, stock.inner_iters, 1)


def test_the_stock_config_passed_is_no_config(monkeypatch):
    """Passing the bar's own ``lvim_defaults`` is passing None: the same
    shots at the same configs, the same root and the same trajectory bytes."""
    def solve(config):
        shots = []

        def spy(system, t0, tf, x0, config, guess=None):
            shots.append((list(x0), config))
            return march(system, t0, tf, x0, config, guess=guess)

        monkeypatch.setattr(shooting, "march", spy)
        res = solve_buckled_bar("dead", 50.0, (12.9, 13.1), config=config)
        tr = res.trajectory
        return shots, res.theta_prime_0, res.alpha, tr.times.tobytes(), tr.states.tobytes()

    stock = solve(buckled_bar("dead", 50.0).lvim_defaults)
    assert len({config for _, config in stock[0]}) == 2  # both stages ran
    assert stock == solve(None)


@pytest.mark.parametrize("integrator", ["lvim", "rk45"])
def test_tangent_follower_at_p80_finds_the_straight_bar(integrator):
    """From (12.9, 13.1) at P = 80 the oracle searching at stock tolerance
    alone ran out of shots; both routes now find the straight bar.  The
    oracle's loose clamp-end stage meets 1e-6 only on the 60th and last
    shot of its budget, the lvim one its bound on the 29th."""
    res = solve_buckled_bar("tangent_follower", 80.0, (12.9, 13.1), integrator=integrator)
    assert res.residual < 1e-10
    assert abs(res.theta_prime_0) < 1e-10
    assert abs(res.alpha) < 1e-10
    assert np.max(np.abs(res.trajectory.states)) < 1e-10


# -------------------------------------------- free-end shots read from the clamp

@pytest.fixture(scope="module")
def free_end_runs():
    """A free-end oracle run and march of the perpendicular follower at
    P = 80 and its buckled tip angle, each with its reading from the clamp."""
    alpha = 0.45702753025091486
    spec = buckled_bar("perpendicular_follower", 80.0, alpha=alpha)
    x0 = [alpha, 0.0]
    rk = rk45_integrate(spec.system, spec.t0, spec.tf, x0, spec.rk_defaults)
    tr = march(spec.system, spec.t0, spec.tf, x0, spec.lvim_defaults)
    return {"rk45": (rk, rk.mirrored(shooting._FLIP)),
            "lvim": (tr, tr.mirrored(shooting._FLIP))}


@pytest.mark.parametrize("kind", ["rk45", "lvim"])
def test_reading_from_the_clamp_mirrors_the_shot(free_end_runs, kind):
    """Sampled anywhere, the reversed run is the forward run at the mirrored
    arc length with theta' negated: the oracle's re-expanded quartics and
    the march's per-segment node split both survive the reversal."""
    fwd, rev = free_end_runs[kind]
    assert rev.times[0] == 0.0 and rev.times[-1] == 1.0
    assert np.all(np.diff(rev.times) > 0)
    assert np.array_equal(rev.states[-1], [fwd.states[0, 0], -0.0])
    mid = 0.5 * (rev.times[:-1] + rev.times[1:])
    t = np.concatenate([np.linspace(0.0, 1.0, 257), mid])
    gap = np.abs(sample_at(rev, t) - sample_at(fwd, 1.0 - t) * [1.0, -1.0])
    assert np.max(gap) < 1e-14


def test_reading_from_the_clamp_keeps_the_counts(free_end_runs):
    rk, rk_rev = free_end_runs["rk45"]
    assert (rk_rev.steps_accepted, rk_rev.steps_rejected, rk_rev.total_rhs_evals) \
        == (rk.steps_accepted, rk.steps_rejected, rk.total_rhs_evals)
    assert rk_rev.total_rhs_evals == \
        7 * rk_rev.steps_accepted + 6 * rk_rev.steps_rejected + 1
    tr, tr_rev = free_end_runs["lvim"]
    n_basis = buckled_bar("perpendicular_follower").lvim_defaults.n_basis
    assert tr_rev.total_rhs_evals == tr.total_rhs_evals == \
        int(np.sum(tr_rev.segment_iterations)) * n_basis
    # uneven per-segment counts, so the reversal shows
    assert not np.array_equal(tr.segment_iterations, tr.segment_iterations[::-1])
    assert np.array_equal(tr_rev.segment_iterations, tr.segment_iterations[::-1])


def test_unknown_integrator(monkeypatch):
    # refused up front: no spec is built and nothing is marched
    def never(*args, **kwargs):
        raise AssertionError("worked before the integrator was checked")

    for name in ("buckled_bar", "march", "rk45_integrate"):
        monkeypatch.setattr(shooting, name, never)
    with pytest.raises(ValueError, match="unknown integrator"):
        solve_buckled_bar("perpendicular_follower", 25.0, (2.0, 2.5),
                          integrator="euler")


def test_oracle_route_refuses_a_config(monkeypatch):
    # the oracle's stages are fixed, so a march config would be dropped unread
    def never(*args, **kwargs):
        raise AssertionError("worked before the config was checked")

    for name in ("buckled_bar", "march", "rk45_integrate"):
        monkeypatch.setattr(shooting, name, never)
    with pytest.raises(ValueError, match="rk45 route takes none"):
        solve_buckled_bar("dead", 50.0, (12.9, 13.1),
                          config=SolverConfig(n_basis=5, dt=0.5, tol=1e-3),
                          integrator="rk45")
