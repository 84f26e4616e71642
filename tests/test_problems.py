"""Benchmark factories: Jacobians, series starts, oracle cross-checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipj, ellipk

from lvim import cli, problems
from lvim.core import SolverConfig, march
from lvim.errors import ConvergenceError, DomainViolationError
from lvim.gravity import bundled_gravity_path, load_gravity_model
from lvim.rk45 import RkConfig, rk45_integrate, sample_at


def fd_jacobian(system, t, x, h=1e-7):
    d = len(x)
    jac = np.empty((d, d))
    for i in range(d):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (system.eval_rhs(t, xp) - system.eval_rhs(t, xm)) / (2 * h)
    return jac


def assert_jacobian_consistent(spec, states, times, rel=2e-5):
    """One batched ``jac`` call on all rows, each row against central
    differences of the rhs."""
    states = np.asarray(states, dtype=float)
    times = np.asarray(times, dtype=float)
    batch = spec.system.eval_jac(times, states)
    assert batch.shape == (len(times), spec.system.dim, spec.system.dim)
    for t, x, analytic in zip(times, states, batch):
        numeric = fd_jacobian(spec.system, t, x)
        scale = max(1.0, np.max(np.abs(analytic)))
        assert np.max(np.abs(analytic - numeric)) < rel * scale, \
            f"jacobian mismatch at t={t}"


def _stock_specs():
    """Every CLI problem at its defaults, plus the two follower loads."""
    specs = {name: p.factory(**p.arguments()) for name, p in cli.PROBLEMS.items()}
    for load_type in problems.BAR_LOAD_TYPES[1:]:
        specs[load_type] = problems.buckled_bar(load_type, 25.0, alpha=0.4)
    return specs


STOCK_JACOBIANS = list(cli.PROBLEMS) + list(problems.BAR_LOAD_TYPES[1:])


def _nodes(spec, name, m, seed):
    """``m`` seeded times in the span and states spread around ``x0``
    (narrowly where the domain or the orbit needs it)."""
    rng = np.random.default_rng(seed)
    d = spec.system.dim
    spread = {"white-dwarf": 0.3, "leo": 0.0}.get(name, 3.0)
    times = np.sort(rng.uniform(spec.t0, spec.tf, m))
    states = spec.x0 * (1.0 + 0.01 * rng.uniform(-1, 1, (m, d))) \
        + spread * rng.uniform(-1, 1, (m, d))
    return times, states


def _one_point_jacobians(mu):
    """Each stock factory's Jacobian at one point, written as the factories
    wrote it before ``jac`` took all nodes at once; the batched rows must
    equal these bit for bit, which keeps every march bitwise unchanged."""
    eye = np.eye(3)

    def second(j10, j11=0.0):
        return np.array([[0.0, 1.0], [j10, j11]])

    def leo(t, x):
        q = x[:3]
        r = math.sqrt(float(q @ q))
        qh = q / r
        out = np.zeros((6, 6))
        out[:3, 3:] = eye
        out[3:, :3] = mu * (3.0 * np.outer(qh, qh) - eye) / r**3
        return out

    return {
        "blasius": lambda t, x: np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                          [-0.5 * x[2], 0.0, -0.5 * x[0]]]),
        "emden": lambda t, x: second(-math.exp(-x[0]), -2.0 / t),
        "white-dwarf": lambda t, x: second(-3.0 * x[0] * math.sqrt(x[0] * x[0] - 0.3),
                                           -2.0 / t),
        "mathieu": lambda t, x: second(-(0.5 - 0.1 * math.cos(t))),
        "pendulum": lambda t, x: second(-math.cos(x[0])),
        "buckled-bar": lambda t, x: second(-50.0 * math.cos(x[0])),
        "perpendicular_follower": lambda t, x: second(-25.0 * math.cos(2.0 * x[0] - 0.4)),
        "tangent_follower": lambda t, x: second(-25.0 * math.sin(2.0 * x[0] - 0.4)),
        "elastica": lambda t, x: np.zeros((1, 1)),
        "leo": leo,
    }


@pytest.mark.parametrize("name", STOCK_JACOBIANS)
def test_batched_jacobian_is_rowwise(name):
    """``jac`` on 7 nodes is the (7, D, D) stack of 7 one-node calls, bit
    for bit."""
    spec = _stock_specs()[name]
    d = spec.system.dim
    times, states = _nodes(spec, name, 7, seed=8)
    batch = spec.system.eval_jac(times, states)
    assert batch.shape == (7, d, d)
    rows = [spec.system.eval_jac(times[i:i + 1], states[i:i + 1]) for i in range(7)]
    assert batch.tobytes() == np.concatenate(rows).tobytes()


@pytest.mark.parametrize("name", STOCK_JACOBIANS)
def test_batched_jacobian_is_the_one_point_jacobian(name):
    """On 200 nodes every batched row equals the one-point formula bit for
    bit (numpy's vectorized ``exp`` misses on about 5 % of such rows)."""
    spec = _stock_specs()[name]
    one_point = _one_point_jacobians(
        load_gravity_model(bundled_gravity_path("egm_test.txt")).mu)[name]
    times, states = _nodes(spec, name, 200, seed=9)
    batch = spec.system.eval_jac(times, states)
    expected = np.array([one_point(t, x) for t, x in zip(times, states)])
    assert batch.tobytes() == expected.tobytes()


def test_mathieu_jacobian():
    spec = problems.mathieu()
    rng = np.random.default_rng(3)
    assert_jacobian_consistent(spec, rng.normal(size=(8, 2)),
                               rng.uniform(0, 100, 8))


def test_pendulum_jacobian():
    spec = problems.pendulum()
    rng = np.random.default_rng(4)
    assert_jacobian_consistent(spec, rng.uniform(-3, 3, (8, 2)),
                               rng.uniform(0, 50, 8))


def test_emden_jacobian():
    spec = problems.emden_chandrasekhar()
    rng = np.random.default_rng(5)
    states = np.column_stack([rng.uniform(0, 3, 8), rng.uniform(-1, 1, 8)])
    assert_jacobian_consistent(spec, states, rng.uniform(0.5, 8, 8))


def test_white_dwarf_jacobian():
    spec = problems.white_dwarf(0.3)
    rng = np.random.default_rng(6)
    states = np.column_stack([rng.uniform(0.8, 1.0, 8), rng.uniform(-0.5, 0, 8)])
    assert_jacobian_consistent(spec, states, rng.uniform(0.5, 3, 8))


def test_bar_jacobians():
    rng = np.random.default_rng(7)
    for load_type in problems.BAR_LOAD_TYPES:
        spec = problems.buckled_bar(load_type, 50.0, alpha=0.4)
        states = np.column_stack([rng.uniform(-3, 3, 6), rng.uniform(-10, 10, 6)])
        assert_jacobian_consistent(spec, states, rng.uniform(0, 1, 6))


def test_leo_jacobian_is_two_body_gradient():
    model = load_gravity_model(bundled_gravity_path("egm_test.txt"))
    spec = problems.leo(model)
    q = np.array([6.0e6, 2.5e6, -1.5e6])
    x = np.concatenate([q, [100.0, -200.0, 7.0e3]])
    jac = spec.system.eval_jac(np.array([0.0]), x[np.newaxis])[0]
    r = np.linalg.norm(q)
    qhat = q / r
    grad = model.mu * (3 * np.outer(qhat, qhat) - np.eye(3)) / r ** 3
    assert np.array_equal(jac[:3, :3], np.zeros((3, 3)))
    assert np.array_equal(jac[:3, 3:], np.eye(3))
    assert np.allclose(jac[3:, :3], grad, rtol=1e-12)
    assert np.array_equal(jac[3:, 3:], np.zeros((3, 3)))


# ---------------------------------------------------------------- blasius

def test_blasius_wall_curvature_value():
    spec = problems.blasius()
    # classic Blasius value in this scaling
    assert spec.x0[2] == pytest.approx(0.332057336215, abs=5e-10)
    assert spec.state_names == ("f", "f_prime", "f_double_prime")


def blasius_oracle_wall_curvature(span):
    """f''(0) from the stage-one companion run by the oracle over ``span``."""
    companion = rk45_integrate(problems.blasius().system, 0.0, span,
                               np.array([0.0, 0.0, 1.0]), RkConfig())
    return companion.states[-1, 1] ** -1.5


def test_blasius_stage_agreement():
    f2_lvim = problems.blasius().x0[2]
    f2_rk = blasius_oracle_wall_curvature(problems._BLASIUS_STAGE_ONE_SPAN)
    assert abs(f2_lvim - f2_rk) < 1e-8


def test_blasius_truncation_doubling():
    # the adaptive stage handles the doubled span; the iterative stage
    # loses contraction once the solution grows linearly without bound
    f2_10 = blasius_oracle_wall_curvature(10.0)
    f2_20 = blasius_oracle_wall_curvature(20.0)
    assert abs(f2_10 - f2_20) < 1e-8


# ----------------------------------------------------- emden / white dwarf

def test_emden_series_start():
    spec = problems.emden_chandrasekhar(xi_start=1e-3)
    xs = 1e-3
    assert spec.x0[0] == pytest.approx(xs ** 2 / 6 - xs ** 4 / 120, rel=1e-12)
    assert spec.x0[1] == pytest.approx(xs / 3 - xs ** 3 / 30, rel=1e-12)
    assert spec.t0 == xs and spec.tf == 8.0


def test_emden_start_halving_invariance():
    """Solutions launched from xi_start and xi_start/2 must agree when both
    are marched to the same downstream coordinate."""
    val = {}
    for xs in (1e-3, 5e-4):
        spec = problems.emden_chandrasekhar(xi_start=xs)
        tr = march(spec.system, spec.t0, 1.0, spec.x0, spec.lvim_defaults)
        val[xs] = tr.states[-1, 0]
    assert abs(val[1e-3] - val[5e-4]) < 1e-8


def test_white_dwarf_edge_detection():
    spec = problems.white_dwarf(0.3)
    # the sqrt argument phi^2 - c crosses zero near eta = 3.58 for C=0.3;
    # the default span stops just short of it
    assert spec.tf == pytest.approx(3.50868, abs=2e-4)
    full = problems.white_dwarf(0.0)
    assert full.tf == 8.0


@pytest.mark.parametrize("c, tf", [(0.05, 4.370934634791568),
                                   (0.3, 3.508675969284288),
                                   (0.9, 4.601411108178055)])
def test_white_dwarf_edge_is_pinned(c, tf):
    # 0.98 x the root of the oracle's dense output on the crossing step
    assert abs(problems.white_dwarf(c).tf - tf) <= 1e-12


def test_white_dwarf_domain_guard():
    spec = problems.white_dwarf(0.3)
    with pytest.raises(DomainViolationError):
        spec.system.eval_rhs(1.0, np.array([0.2, 0.0]))  # phi^2 < c


def test_white_dwarf_jacobian_guard_names_the_row():
    """In a batch, the guard raises at the first row below the edge, with
    that row's time and state; a row within roundoff of it is clamped."""
    spec = problems.white_dwarf(0.3)
    times = np.array([1.0, 1.5, 2.0, 2.5])
    states = np.array([[0.9, 0.0], [0.2, -0.1], [0.1, 0.0], [0.9, 0.0]])
    with pytest.raises(DomainViolationError, match="went negative") as info:
        spec.system.eval_jac(times, states)
    assert info.value.t == 1.5
    assert np.array_equal(info.value.state, states[1])
    on_edge = np.array([[math.sqrt(0.3) * (1.0 - 1e-15), 0.0], [0.9, 0.0]])
    jac = spec.system.eval_jac(times[:2], on_edge)
    assert jac[0, 1, 0] == 0.0 and jac[1, 1, 0] < 0.0


def test_white_dwarf_degenerate_edge_case():
    # c=1 starts exactly on the sqrt boundary; roundoff below it must be
    # clamped, not fatal
    spec = problems.white_dwarf(1.0)
    tr = march(spec.system, spec.t0, min(spec.tf, 1.0), spec.x0,
               spec.lvim_defaults)
    assert np.all(np.isfinite(tr.states))


def test_white_dwarf_c_range_validation():
    with pytest.raises(ValueError):
        problems.white_dwarf(-0.1)
    with pytest.raises(ValueError):
        problems.white_dwarf(1.2)


# ----------------------------------------------------------------- mathieu

def test_mathieu_harmonic_limit():
    """At epsilon=0, delta=1 the equation is a plain unit oscillator."""
    spec = problems.mathieu(delta=1.0, epsilon=0.0)
    cfg = SolverConfig(n_basis=13, dt=0.5, tol=1e-12)
    tr = march(spec.system, 0.0, 20.0, spec.x0, cfg)
    assert np.max(np.abs(tr.states[:, 0] - np.cos(tr.times))) < 1e-10


def test_mathieu_default_run_is_bounded():
    spec = problems.mathieu()
    tr = march(spec.system, spec.t0, spec.tf, spec.x0, spec.lvim_defaults)
    assert np.max(np.abs(tr.states[:, 0])) < 3.0


# ---------------------------------------------------------------- pendulum

def test_pendulum_spec_defaults():
    spec = problems.pendulum()
    assert spec.x0[0] == 3.1329 and spec.x0[1] == 0.0
    assert spec.tf == 50.0
    assert spec.lvim_defaults.n_basis == 5
    assert spec.lvim_defaults.dt == 0.1


def pendulum_exact(theta0, t):
    """(theta, theta') at times ``t`` of the unit pendulum released from rest
    at ``theta0``: ``theta = 2 arcsin(k sn(K - t | k^2))`` and ``theta' =
    -2 k cn(K - t | k^2)``, ``k = sin(theta0 / 2)``, ``K = K(k^2)``."""
    k = math.sin(theta0 / 2)
    sn, cn, _, _ = ellipj(ellipk(k * k) - np.asarray(t), k * k)
    return np.column_stack([2 * np.arcsin(k * sn), -2 * k * cn])


def test_pendulum_exact_solution_is_a_reference():
    """The closed form reproduces the stock start (5.3e-15 measured), and a
    tight oracle run stays on it over the stock span (1.7e-8 measured)."""
    spec = problems.pendulum()
    assert np.max(np.abs(pendulum_exact(spec.x0[0], [spec.t0])[0] - spec.x0)) < 1e-13
    tr = rk45_integrate(spec.system, spec.t0, spec.tf, spec.x0, RkConfig(1e-13, 1e-16))
    assert np.max(np.abs(pendulum_exact(spec.x0[0], tr.times) - tr.states)) < 1e-7


def kepler_states(mu, x0, t):
    """(n, 6) states at times ``t`` of the two-body orbit through the
    6-state ``x0`` at t = 0: Kepler's equation E - e sin E = M, solved by
    Newton's method, placed in the orbit's perifocal frame."""
    q0, v0 = x0[:3], x0[3:]
    r0 = math.sqrt(q0 @ q0)
    h = np.cross(q0, v0)
    ecc_vec = np.cross(v0, h) / mu - q0 / r0
    e = math.sqrt(ecc_vec @ ecc_vec)
    a = 1.0 / (2.0 / r0 - (v0 @ v0) / mu)
    p_hat = ecc_vec / e
    q_hat = np.cross(h, p_hat) / math.sqrt(h @ h)
    big_e0 = math.atan2((q0 @ v0) / math.sqrt(mu * a), 1.0 - r0 / a)
    mean = big_e0 - e * math.sin(big_e0) + math.sqrt(mu / a**3) * np.asarray(t)
    big_e = mean.copy()
    for _ in range(50):
        step = (big_e - e * np.sin(big_e) - mean) / (1.0 - e * np.cos(big_e))
        big_e -= step
        if np.max(np.abs(step)) < 1e-16:
            break
    c, s, b = np.cos(big_e)[:, None], np.sin(big_e)[:, None], math.sqrt(1.0 - e * e)
    speed = math.sqrt(mu * a) / (a * (1.0 - e * c))
    return np.hstack((a * ((c - e) * p_hat + b * s * q_hat),
                      speed * (b * c * q_hat - s * p_hat)))


def test_kepler_orbit_is_a_reference():
    """Errors relative to max|x0|, measured (bound): the closed form
    reproduces the stock start, 1.5e-17 (1e-15), and comes back to it after
    ``orbital_period``, 3.9e-16 (4e-15); over that period a tight oracle
    run stays on it, 3.9e-13 (2e-12), and so does the stock march, 1.5e-13
    (1e-12)."""
    model = load_gravity_model(bundled_gravity_path("egm8.txt")).truncate(0)
    spec = problems.leo(model)
    scale = np.max(np.abs(spec.x0))
    assert spec.tf == problems.orbital_period(model, spec.x0)
    ends = kepler_states(model.mu, spec.x0, [0.0, spec.tf])
    assert np.max(np.abs(ends[0] - spec.x0)) < 1e-15 * scale
    assert np.max(np.abs(ends[1] - spec.x0)) < 4e-15 * scale
    for tr, bound in (
            (rk45_integrate(spec.system, spec.t0, spec.tf, spec.x0, RkConfig(1e-13, 1e-16)), 2e-12),
            (march(spec.system, spec.t0, spec.tf, spec.x0, spec.lvim_defaults), 1e-12)):
        assert np.max(np.abs(kepler_states(model.mu, spec.x0, tr.times) - tr.states)) \
            < bound * scale


def pendulum_node_error(n, dt, mode):
    """Max node error of a march of the pendulum from rest at 1 rad over
    [0, 10] against ``pendulum_exact``."""
    tr = march(problems.pendulum().system, 0.0, 10.0, np.array([1.0, 0.0]),
               SolverConfig(n, dt, 1e-14, jacobian_mode=mode))
    return np.max(np.abs(tr.states - pendulum_exact(1.0, tr.times)))


def kepler_node_error(n, dt, mode):
    """Max node error, over max|x0|, of a march of the point-mass orbit over
    one ``orbital_period`` against ``kepler_states``."""
    model = load_gravity_model(bundled_gravity_path("egm8.txt")).truncate(0)
    spec = problems.leo(model)
    tr = march(spec.system, spec.t0, spec.tf, spec.x0,
               SolverConfig(n, dt, 1e-8, jacobian_mode=mode))
    return np.max(np.abs(kepler_states(model.mu, spec.x0, tr.times) - tr.states)) \
        / np.max(np.abs(spec.x0))


@pytest.mark.parametrize("node_error, n, mode, dts", [
    # measured orders in the comments; each ladder stays above the roundoff
    # floor (Kepler N=7 at dt 60 reads order 1.66)
    pytest.param(pendulum_node_error, 5, "full", (0.8, 0.4, 0.2), id="pendulum-N5"),  # 6.02, 5.99
    pytest.param(pendulum_node_error, 7, "full", (0.8, 0.4, 0.2), id="pendulum-N7"),  # 7.88, 7.99
    pytest.param(kepler_node_error, 5, "full", (480, 240, 120), id="kepler-N5-full"),  # 5.85, 5.98
    pytest.param(kepler_node_error, 7, "full", (960, 480, 240), id="kepler-N7-full"),  # 7.79, 7.90
    pytest.param(kepler_node_error, 5, "frozen", (480, 240, 120),
                 id="kepler-N5-frozen"),  # 6.54, 5.95
    pytest.param(kepler_node_error, 7, "frozen", (960, 480, 240),
                 id="kepler-N7-frozen"),  # 7.90, 7.86
])
def test_observed_order_at_the_nodes(node_error, n, mode, dts):
    """Code verification by observed order: each halving of dt divides the
    max node error by at least 2^(N + 0.5); the nodes converge at about
    order N + 1 on both references.  Unlike a bitwise pin, this holds
    through any change of rounding, and it fails on a wrong Q."""
    errors = [node_error(n, dt, mode) for dt in dts]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= n + 0.5, (errors, orders)


@pytest.mark.parametrize("name, value", [("tf", math.inf), ("tf", math.nan),
                                         ("t0", -math.inf)])
def test_spec_rejects_non_finite_span(name, value):
    with pytest.raises(ValueError, match="finite"):
        replace(problems.pendulum(), **{name: value})


def test_spec_refuses_state_names_of_another_length():
    with pytest.raises(ValueError, match="state_names length does not match the system"):
        replace(problems.pendulum(), state_names=("theta",))


@pytest.mark.parametrize("factory, arg, value", [
    (problems.mathieu, "delta", math.nan), (problems.mathieu, "epsilon", math.inf),
    (problems.buckled_bar, "load", math.nan), (problems.buckled_bar, "load", math.inf),
    (problems.elastica, "a", math.inf), (problems.elastica, "c", math.nan)])
def test_factories_refuse_non_finite_arguments(factory, arg, value):
    with pytest.raises(ValueError, match=rf"^{arg} must be finite"):
        factory(**{arg: value})


def elliptic_frequency(amp):
    k = math.sin(amp / 2)
    period_integrand = lambda p: 1.0 / math.sqrt(1 - k * k * math.sin(p) ** 2)
    big_k = quad(period_integrand, 0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)[0]
    return 2 * math.pi / (4 * big_k)


def test_frequency_sweep_against_elliptic_integral():
    amps = [0.5, 1.5, 2.5, 3.1]
    table = problems.pendulum_frequency_sweep(amps)
    assert table.shape == (4, 2)
    for (amp, freq) in table:
        assert freq == pytest.approx(elliptic_frequency(amp), rel=1e-7)
    assert np.all(np.diff(table[:, 1]) < 0)


def test_default_frequency_sweep_marches_short_chunks(monkeypatch):
    # in 64-segment chunks the 16 default swings (periods 6.3 to 21) march
    # 2048 segments in all; chunks of 40 time units would march 6400
    segments = []

    def counted(*args, **kwargs):
        traj = march(*args, **kwargs)
        segments.append(len(traj.segment_iterations))
        return traj

    monkeypatch.setattr(problems, "march", counted)
    problems.pendulum_frequency_sweep([round(0.1 + 0.2 * k, 10) for k in range(16)])
    assert sum(segments) <= 2048


def test_frequency_sweep_rejects_bad_amplitude():
    with pytest.raises(ValueError):
        problems.pendulum_frequency_sweep([3.2])
    with pytest.raises(ValueError):
        problems.pendulum_frequency_sweep([0.0])


# ---------------------------------------------------------------- elastica

def test_elastica_regimes():
    assert problems.elastica_regime(1.0, 0.5) == 1
    assert problems.elastica_regime(1.0, 1.2) == 2
    assert problems.elastica_regime(1.0, 1.35) == 3
    with pytest.raises(ValueError):
        problems.elastica_regime(1.0, math.sqrt(2.0))  # boundary


def test_elastica_notes_name_its_family_or_the_boundary():
    assert problems.elastica(1.0, 1.2).notes == "curve family 2, a = 1, c = 1.2"
    # c / a = 1 is the boundary between families 1 and 2
    assert problems.elastica(1.0, 1.0).notes == "family boundary, a = 1, c = 1"


def test_elastica_against_quadrature():
    """The slope field is integrable in closed quadrature form; compare the
    marched curve against adaptive quadrature away from the singular edge."""
    a, c = 1.0, 1.2
    spec = problems.elastica(a, c)

    def slope(u):
        return (a * a - c * c + u * u) / math.sqrt(
            (c * c - u * u) * (2 * a * a - c * c + u * u))

    tr = march(spec.system, spec.t0, 0.9 * c, spec.x0, spec.lvim_defaults)
    for x, y in zip(tr.times[::6], tr.states[::6, 0]):
        ref = quad(slope, 0.0, x, epsabs=1e-12, epsrel=1e-12)[0]
        assert y == pytest.approx(ref, abs=5e-8)


def _elastica_guard_context(spec, t, match):
    """Both guard routes, one rhs call and a march whose first node is
    ``t``, raise ``match`` naming that node's time and its (1,) state."""
    x = np.array([0.5])
    for run in (lambda: spec.system.eval_rhs(t, x),
                lambda: march(spec.system, t, t + 0.01, x, spec.lvim_defaults)):
        with pytest.raises(DomainViolationError, match=match) as info:
            run()
        assert info.value.t == t
        assert info.value.state.shape == (1,) and info.value.state[0] == 0.5


def test_elastica_domain_guard():
    _elastica_guard_context(problems.elastica(1.0, 1.2), 1.3,
                            "reached the slope-field edge at c = 1.2")


def test_elastica_radicand_guard_fires_on_underflow():
    # c*c underflows to 0, so the radicand at x = 0 is 0; unguarded, the
    # slope would divide by sqrt(0.0) and raise ZeroDivisionError
    spec = problems.elastica(1.0, 1e-200)
    with pytest.raises(DomainViolationError, match="radicand 0.000e\\+00 not positive"):
        march(spec.system, spec.t0, spec.tf, spec.x0, spec.lvim_defaults)
    assert spec.system.rhs_evals == 1
    _elastica_guard_context(spec, 0.0, "radicand 0.000e\\+00 not positive")


def test_elastica_parameter_validation():
    with pytest.raises(ValueError):
        problems.elastica(1.0, -0.5)
    with pytest.raises(ValueError):
        problems.elastica(0.5, 1.0)  # 2a^2 - c^2 < 0 has no regime
    for a in (-1.0, 0.0):  # only a^2 enters the rhs, so a <= 0 must be refused
        with pytest.raises(ValueError, match="a must be finite and positive"):
            problems.elastica(a, 1.2)


# --------------------------------------------------------------------- leo

def test_orbital_period_vis_viva():
    model = load_gravity_model(bundled_gravity_path("egm_test.txt"))
    r = 7.0e6
    v_circ = math.sqrt(model.mu / r)
    state = np.array([r, 0, 0, 0, v_circ, 0])
    period = problems.orbital_period(model, state)
    assert period == pytest.approx(2 * math.pi * math.sqrt(r ** 3 / model.mu),
                                   rel=1e-12)
    with pytest.raises(ValueError):
        problems.orbital_period(model, np.array([r, 0, 0, 0, 2 * v_circ, 0]))


def test_leo_spec():
    model = load_gravity_model(bundled_gravity_path("egm8.txt"))
    spec = problems.leo(model)
    assert spec.tf == pytest.approx(6826.42, abs=0.01)
    assert spec.lvim_defaults.n_basis == 26
    assert spec.lvim_defaults.dt == 500.0
    assert spec.lvim_defaults.jacobian_mode == "frozen"
    assert spec.state_names == ("x", "y", "z", "vx", "vy", "vz")


def test_leo_rhs_calls_gravity_through_the_module(monkeypatch):
    """Every leo rhs evaluation calls ``gravity_accel`` by its name in
    ``problems``, where a tracer that wraps ``lvim.gravity.gravity_accel``
    sees it; an rhs that called the model's kernel directly would leave the
    gravity layer silent."""
    calls = []
    real = problems.gravity_accel

    def spy(model, q):
        calls.append(None)
        return real(model, q)

    monkeypatch.setattr(problems, "gravity_accel", spy)
    spec = problems.leo(load_gravity_model(bundled_gravity_path("egm8.txt")))
    system = spec.system
    cfg = spec.lvim_defaults
    march(system, spec.t0, spec.t0 + 2 * cfg.dt, spec.x0, cfg)
    assert system.rhs_evals > 0
    assert len(calls) == system.rhs_evals
    rk45_integrate(system, spec.t0, spec.t0 + 2 * cfg.dt, spec.x0,
                   spec.rk_defaults)
    assert len(calls) == system.rhs_evals


@pytest.mark.parametrize("integrate", ["march", "rk45"])
def test_leo_reentry_says_where(integrate):
    """At 0.3x orbital speed the orbit falls through gravity's reference
    sphere; the error carries the time and the full 6-state of the rhs
    evaluation that crossed it, not only the 3-vector gravity saw."""
    model = load_gravity_model(bundled_gravity_path("egm8.txt"))
    spec = problems.leo(model)
    x0 = spec.x0 * np.array([1.0, 1.0, 1.0, 0.3, 0.3, 0.3])
    with pytest.raises(DomainViolationError, match="r_ref") as info:
        if integrate == "march":
            march(spec.system, spec.t0, spec.tf, x0, spec.lvim_defaults)
        else:
            rk45_integrate(spec.system, spec.t0, spec.tf, x0, spec.rk_defaults)
    exc = info.value
    assert spec.t0 <= exc.t <= spec.tf
    assert exc.state.shape == (6,)
    assert np.linalg.norm(exc.state[:3]) <= 0.9 * model.r_ref


# --------------------------------------------------------- oracle parity

@pytest.mark.parametrize("factory", [
    problems.emden_chandrasekhar,
    lambda: problems.white_dwarf(0.3),
    problems.mathieu,
])
def test_march_tracks_oracle(factory):
    spec = factory()
    tr = march(spec.system, spec.t0, spec.tf, spec.x0, spec.lvim_defaults)
    oracle = rk45_integrate(spec.system, spec.t0, spec.tf, spec.x0,
                            spec.rk_defaults)
    ref = sample_at(oracle, tr.times)
    assert np.max(np.abs(tr.states[:, 0] - ref[:, 0])) < 1e-6
