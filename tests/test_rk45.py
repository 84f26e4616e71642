"""Reference integrator: accuracy, dense output, accounting, failure modes."""

import math

import numpy as np
import pytest

from lvim import problems, rk45
from lvim.core import OdeSystem, SolverConfig, march
from lvim.errors import ConvergenceError, DomainViolationError
from lvim.gravity import bundled_gravity_path, load_gravity_model
from lvim.rk45 import (_A, _C, _E, _P, RkConfig, RkTrajectory, rk45_integrate,
                       sample_at)

DECAY = OdeSystem(dim=1, rhs=lambda t, x: [-x[0]], jac=None)

OSC = OdeSystem(
    dim=2,
    rhs=lambda t, x: [x[1], -x[0]],
    jac=None,
)


def test_decay_matches_exponential():
    tr = rk45_integrate(DECAY, 0.0, 5.0, np.array([1.0]), RkConfig())
    assert np.max(np.abs(tr.states[:, 0] - np.exp(-tr.times))) < 1e-12
    assert tr.times[0] == 0.0 and tr.times[-1] == 5.0


def test_oscillator_long_run_amplitude():
    tr = rk45_integrate(OSC, 0.0, 100.0, np.array([1.0, 0.0]),
                        RkConfig(rel_tol=1e-12, abs_tol=1e-14))
    energy = 0.5 * (tr.states[:, 0] ** 2 + tr.states[:, 1] ** 2)
    assert np.max(np.abs(energy - 0.5)) < 1e-10


def test_dense_output_between_steps():
    tr = rk45_integrate(OSC, 0.0, 10.0, np.array([1.0, 0.0]), RkConfig())
    t_query = np.linspace(0.0, 10.0, 401)
    vals = sample_at(tr, t_query)
    assert np.max(np.abs(vals[:, 0] - np.cos(t_query))) < 1e-10


def test_dense_output_exact_at_stored_steps():
    tr = rk45_integrate(DECAY, 0.0, 3.0, np.array([1.0]), RkConfig())
    vals = sample_at(tr, tr.times)
    assert np.array_equal(vals, tr.states)


def _sample_loop(traj, query):
    """Per-query reference: search, exact hit or quartic on the step."""
    out = np.empty((query.size, traj.states.shape[1]))
    for i, tq in enumerate(query):
        pos = int(np.searchsorted(traj.times, tq))
        if pos < traj.times.size and traj.times[pos] == tq:
            out[i] = traj.states[pos]
            continue
        idx = min(max(pos - 1, 0), traj.step_h.size - 1)
        h = traj.step_h[idx]
        theta = (tq - traj.times[idx]) / h
        tv = np.array([theta, theta ** 2, theta ** 3, theta ** 4])
        out[i] = traj.states[idx] + h * (traj.dense_q[idx] @ tv)
    return out


def test_sample_at_matches_per_query_loop():
    tr = rk45_integrate(OSC, 0.0, 10.0, np.array([1.0, 0.0]),
                        RkConfig(rel_tol=1e-8, abs_tol=1e-10))
    slack = 1e-12 * 10.0
    rng = np.random.default_rng(7)
    query = np.concatenate([
        rng.uniform(0.0, 10.0, 200),
        tr.times[::3],                      # step boundaries, both ends
        [0.0 - 0.5 * slack, 10.0 + 0.5 * slack],  # clamped extrapolation
        np.nextafter(tr.times[1:-1], np.inf),
        np.nextafter(tr.times[1:-1], -np.inf),
    ])
    rng.shuffle(query)
    got = sample_at(tr, query)
    ref = _sample_loop(tr, query)
    assert got.shape == ref.shape == (query.size, 2)
    assert np.max(np.abs(got - ref)) <= 4e-16
    hit = np.isin(query, tr.times)
    assert np.array_equal(got[hit], ref[hit])
    assert np.array_equal(sample_at(tr, np.array([0.0, 10.0])),
                          tr.states[[0, -1]])


@pytest.mark.parametrize("t0, tf", [(0.0, math.inf), (-math.inf, 1.0),
                                    (0.0, math.nan)])
def test_non_finite_span_raises(t0, tf):
    # an infinite tf would otherwise step until max_steps runs out
    decay = OdeSystem(dim=1, rhs=lambda t, x: [-x[0]])
    with pytest.raises(ValueError, match="finite"):
        rk45_integrate(decay, t0, tf, np.array([1.0]), RkConfig())
    assert decay.rhs_evals == 0


def test_sample_outside_span_raises():
    tr = rk45_integrate(DECAY, 0.0, 1.0, np.array([1.0]), RkConfig())
    with pytest.raises(ValueError):
        sample_at(tr, np.array([1.5]))
    with pytest.raises(ValueError):
        sample_at(tr, np.array([-1e-9]))


def _both_kinds(system, t0, tf, x0):
    """An oracle run and a march (segments of 0.5, a shorter last one)."""
    return (rk45_integrate(system, t0, tf, np.array(x0), RkConfig()),
            march(system, t0, tf, np.array(x0), SolverConfig(5, 0.5, 1e-12)))


DECAY_JAC = OdeSystem(dim=1, rhs=DECAY.rhs,
                      jac=lambda t, x: np.full((len(t), 1, 1), -1.0))

OSC_JAC = OdeSystem(dim=2, rhs=OSC.rhs,
                    jac=lambda t, x: np.broadcast_to([[0.0, 1.0], [-1.0, 0.0]],
                                                     (len(t), 2, 2)))


def test_sample_at_refuses_a_nan_query():
    # a NaN time is neither below nor above the span, and is not inside it
    for traj in _both_kinds(DECAY_JAC, 0.0, 1.0, [1.0]):
        with pytest.raises(ValueError, match="outside the integrated span"):
            sample_at(traj, np.array([0.5, math.nan]))


@pytest.mark.parametrize("shape", [(2, 2), (1, 3), (3, 1)])
def test_sample_at_refuses_times_that_are_not_1d(shape):
    # in the span, so only the shape is wrong
    for traj in _both_kinds(DECAY_JAC, 0.0, 1.0, [1.0]):
        with pytest.raises(ValueError, match="times must be 1-D"):
            sample_at(traj, np.full(shape, 0.5))


@pytest.mark.parametrize("kind", [0, 1], ids=["oracle", "march"])
def test_mirrored_run_is_the_run_at_the_mirrored_time(kind):
    """Off the unit span, over [0.3, 1.7], a run read backwards is the run
    at ``2.0 - t`` with the signs applied: at the stored times (segment
    joins included), between them and at times unrelated to either."""
    signs = np.array([1.0, -1.0])
    tr = _both_kinds(OSC_JAC, 0.3, 1.7, [1.0, 0.5])[kind]
    rev = tr.mirrored(signs)
    assert type(rev) is type(tr)
    assert np.array_equal(rev.states[0], tr.states[-1] * signs)
    mid = 0.5 * (tr.times[:-1] + tr.times[1:])
    t = np.concatenate([tr.times, mid, np.linspace(0.3, 1.7, 101)])
    gap = sample_at(rev, 2.0 - t) - sample_at(tr, t) * signs
    assert np.max(np.abs(gap)) <= 1e-14


def test_eval_accounting_exact():
    # first stage is reused across rejected retries of the same step and
    # one evaluation seeds the initial-step heuristic
    for cfg in (RkConfig(), RkConfig(rel_tol=1e-6, abs_tol=1e-9)):
        tr = rk45_integrate(OSC, 0.0, 20.0, np.array([1.0, 0.0]), cfg)
        assert tr.total_rhs_evals == \
            7 * tr.steps_accepted + 6 * tr.steps_rejected + 1


def test_tolerance_controls_error():
    errs = []
    for rel in (1e-6, 1e-9, 1e-12):
        tr = rk45_integrate(OSC, 0.0, 10.0, np.array([1.0, 0.0]),
                            RkConfig(rel_tol=rel, abs_tol=1e-15))
        errs.append(np.max(np.abs(tr.states[:, 0] - np.cos(tr.times))))
    assert errs[0] > errs[1] > errs[2]


def test_max_steps_exhaustion():
    # the message and the evaluations spent; the second budget runs out with
    # rejected attempts among its steps
    for cfg, message, evals in [
            (RkConfig(max_steps=10),
             "step budget of 10 exhausted at t=0.0568522 (accepted 10, rejected 0)", 72),
            (RkConfig(rel_tol=1e-6, abs_tol=1e-9, max_steps=20),
             "step budget of 20 exhausted at t=2.70549 (accepted 17, rejected 3)", 139)]:
        osc = OdeSystem(dim=2, rhs=OSC.rhs)
        with pytest.raises(ConvergenceError) as info:
            rk45_integrate(osc, 0.0, 1000.0, np.array([1.0, 0.0]), cfg)
        assert str(info.value) == message
        assert osc.rhs_evals == evals


@pytest.mark.filterwarnings("ignore:overflow")
def test_domain_violation_propagates():
    blowup = OdeSystem(dim=1, rhs=lambda t, x: [x[0] * x[0]], jac=None)
    with pytest.raises((DomainViolationError, ConvergenceError)):
        rk45_integrate(blowup, 0.0, 5.0, np.array([1.0]), RkConfig())


def test_step_below_the_smallest_step_is_a_domain_violation():
    """x' = x^2 from 1 blows up at t = 1; the attempt whose step falls
    below 16 eps |t| stops there (at the stock tolerances the oracle spent
    268,946 evaluations crawling on until the rhs overflowed)."""
    blowup = OdeSystem(dim=1, rhs=lambda t, x: [x[0] * x[0]])
    with pytest.raises(DomainViolationError, match=r"^the step fell to h=3\.52908223148573e-15 "
                       r"at t=0\.9999999999993686, below the smallest step 16 eps \|t\| = "
                       r"3\.552713678798258e-15$") as info:
        rk45_integrate(blowup, 0.0, 5.0, np.array([1.0]), RkConfig())
    assert info.value.t == 0.9999999999993686
    assert info.value.state.tolist() == [2597626867450.8643]
    assert blowup.rhs_evals == 21737


def test_trajectory_is_core_trajectory():
    from lvim.core import Trajectory
    tr = rk45_integrate(DECAY, 0.0, 1.0, np.array([1.0]), RkConfig())
    assert isinstance(tr, Trajectory)
    assert isinstance(tr, RkTrajectory)
    assert len(tr.segment_iterations) == 0


@pytest.mark.filterwarnings("ignore:overflow")
def test_state_overflow_raises_domain_violation():
    # the rhs stays finite while the state runs past the largest double
    const = OdeSystem(dim=1, rhs=lambda t, x: [1e308], jac=None)
    with pytest.raises(DomainViolationError, match="state became non-finite") as info:
        rk45_integrate(const, 0.0, 5.0, np.array([1e308]), RkConfig())
    assert info.value.t == 0.24724333802393367
    assert info.value.state.dtype == float and info.value.state.tolist() == [math.inf]
    assert const.rhs_evals == 36


@pytest.mark.filterwarnings("ignore:overflow")
def test_rhs_undefined_at_an_overflowed_stage_state_is_a_domain_violation():
    # a stage state overflows to inf and the pendulum's math.sin(inf)
    # raises ValueError; the oracle reports it as leaving the domain
    system = problems.pendulum().system
    with pytest.raises(DomainViolationError,
                       match=r"^right-hand side is undefined at a non-finite state at t=") as info:
        rk45_integrate(system, 0.0, 100.0, np.array([1e307, 1e307]), RkConfig())
    assert isinstance(info.value.__cause__, ValueError)
    assert info.value.t == 26.001757715517023
    assert info.value.state.tolist() == [math.inf, 1e307]
    assert system.rhs_evals == 47


# an rhs that jumps from +1e308 to -1e308 just after t = 0
_JUMP = OdeSystem(dim=1, rhs=lambda t, x: [1e308 if t == 0.0 else -1e308])


@pytest.mark.parametrize("system, x0, what", [
    # |f0| / scale overflows: the probe step 0.01 * d0 / d1 would be zero
    (problems.pendulum().system, [0.0, 1e300], "slope"),
    # f1 - f0 overflows: the second probe would give a zero step
    (_JUMP, [1e300], "slope change")], ids=["slope", "slope-change"])
def test_overflowing_start_probe_is_a_domain_violation(system, x0, what):
    # no numpy overflow warning either: the suite turns warnings into errors
    with pytest.raises(DomainViolationError,
                       match=f"^the oracle cannot size its first step at t=0.0: the {what} "
                             "over the tolerance scale overflows$") as info:
        rk45_integrate(system, 0.0, 10.0, np.array(x0), RkConfig())
    assert info.value.t == 0.0
    assert np.array_equal(info.value.state, x0)


def _err_norm(e, ax, ax_new, atol, rtol):
    """The error-norm lines of the compiled step loop, run on their own at
    ``h = 1.0`` (``1.0 * e`` is ``e``, bit for bit)."""
    dim = len(e)
    lines = ["def norm(e, ax, ax_new, atol, rtol):", "    h = 1.0",
             *(f"    e{i}, a{i}, b{i} = e[{i}], ax[{i}], ax_new[{i}]" for i in range(dim)),
             *("    " + line for line in rk45._norm_lines(dim)), "    return err"]
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["norm"](e, ax, ax_new, atol, rtol)


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_error_norm_lines_are_the_loops(dim):
    """The lines :func:`_err_norm` runs stand in the loop's source as one
    block, at the loop body's indent."""
    block = "\n".join("        " + line for line in rk45._norm_lines(dim))
    assert rk45._loop_source(dim).count(block + "\n") == 1


def test_error_norm_matches_numpy_bitwise():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 6):
        for _ in range(200):
            e = rng.standard_normal(dim) * 10.0 ** rng.integers(-20, 5, dim)
            ax = np.abs(rng.standard_normal(dim))
            ax_new = np.where(rng.random(dim) < 0.3, ax, np.abs(rng.standard_normal(dim)))
            e[rng.random(dim) < 0.2] = 0.0
            want = float(np.max(np.abs(e) / (1e-15 + 1e-12 * np.maximum(ax, ax_new))))
            got = _err_norm(e.tolist(), ax.tolist(), ax_new.tolist(), 1e-15, 1e-12)
            assert got == want and type(got) is float


def test_error_norm_nan_anywhere_rejects_the_step():
    # a maximum that skipped a NaN behind finite ratios would accept
    ax = [1.0, 2.0, 3.0]
    for pos in range(3):
        e = [1e-14, 2e-14, 3e-14]
        e[pos] = math.nan
        err = _err_norm(e, ax, ax, 1e-15, 1e-12)
        assert math.isnan(err) and not err <= 1.0, pos
    assert _err_norm([0.0, math.inf], ax[:2], ax[:2], 1e-15, 1e-12) == math.inf


def test_tableau_rows():
    for row, c in zip(_A, _C):
        assert abs(math.fsum(row) - c) <= 4 * np.finfo(float).eps
    fifth = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
    assert np.array_equal(_A[6], fifth)


# ------------------------------------------------------- pinned step loop
# The textbook step loop over Python floats, one stage list at a time: each
# weighted stage sum runs left to right over the tableau row's nonzero
# weights, the fifth-order solution through a separate 7-weight row, the
# error norm as a plain maximum, and the dense output formed per accepted
# step (``k.T @ _P``, the one numpy product the integrator keeps).  The
# production loop must reproduce it bit for bit.
_B_REF = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]


def _initial_step_ref(system, t0, x0, f0, cfg, span):
    sc = cfg.abs_tol + cfg.rel_tol * np.abs(x0)
    d0 = np.max(np.abs(x0) / sc)
    d1 = np.max(np.abs(f0) / sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = np.array(system.eval_rhs(float(t0 + h0), (x0 + h0 * f0).tolist()))
    d2 = np.max(np.abs(f1 - f0) / sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


def _weighted_sum(weights, k, i):
    """``sum_j weights[j] * k[j][i]``, left to right, zero weights left out."""
    total = None
    for w, stage in zip(weights, k):
        if w != 0.0:
            term = float(w) * stage[i]
            total = term if total is None else total + term
    return total


def _integrate_ref(system, t0, tf, x0, cfg):
    x = [float(v) for v in x0]
    dim = len(x)
    evals_before = system.rhs_evals
    t = float(t0)
    f_cur = system.eval_rhs(t, x)
    h = _initial_step_ref(system, t0, np.array(x), np.array(f_cur), cfg, tf - t0)
    h = min(h, tf - t0)
    times, states, step_h, dense_q = [t], [x], [], []
    n_acc = n_rej = 0
    while t < tf:
        h = min(h, tf - t)
        k = [f_cur]
        for s in range(1, 7):
            xs = [x[i] + h * _weighted_sum(_A[s], k, i) for i in range(dim)]
            k.append(system.eval_rhs(t + float(_C[s]) * h, xs))
        x_new = [x[i] + h * _weighted_sum(_B_REF, k, i) for i in range(dim)]
        assert all(map(math.isfinite, x_new))
        err = max(abs(h * _weighted_sum(_E, k, i))
                  / (cfg.abs_tol + cfg.rel_tol * max(abs(x[i]), abs(x_new[i])))
                  for i in range(dim))
        if err <= 1.0:
            step_h.append(h)
            dense_q.append(np.array(k).T @ _P)
            t_new = tf if h == tf - t else t + h
            times.append(t_new)
            states.append(x_new)
            x = x_new
            t = t_new
            n_acc += 1
            if t < tf:
                f_cur = system.eval_rhs(t, x)
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            n_rej += 1
            factor = min(5.0, max(0.2, 0.9 * err ** -0.2))
        h = h * factor
    return dict(times=np.array(times), states=np.array(states),
                step_h=np.array(step_h), dense_q=np.array(dense_q),
                steps_accepted=n_acc, steps_rejected=n_rej,
                total_rhs_evals=system.rhs_evals - evals_before)


def _spec_case(spec, tf=None):
    return spec.system, spec.t0, spec.tf if tf is None else tf, spec.x0, \
        spec.rk_defaults


def _linear_case(dim):
    """``x' = A x`` with a seeded ``A`` and ``x0``, over ``[0, 10]``."""
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim)) / math.sqrt(dim) - 0.2 * np.eye(dim)
    x0 = rng.standard_normal(dim)
    return OdeSystem(dim=dim, rhs=lambda t, x: (a @ x).tolist()), 0.0, 10.0, x0, RkConfig()


_PINNED = {
    "pendulum": lambda: _spec_case(problems.pendulum()),
    "mathieu": lambda: _spec_case(problems.mathieu(0.3, 0.5), tf=20.0),
    "leo-degree2": lambda: _spec_case(problems.leo(
        load_gravity_model(bundled_gravity_path("egm8.txt")).truncate(2))),
    "leo-degree8": lambda: _spec_case(problems.leo(
        load_gravity_model(bundled_gravity_path("egm8.txt")))),
    "decay": lambda: (DECAY, 0.0, 5.0, np.array([1.0]), RkConfig()),
    "blasius": lambda: _spec_case(problems.blasius()),
    **{f"linear-{d}": lambda d=d: _linear_case(d) for d in (4, 5, 7, 8)},
}


@pytest.mark.parametrize("name", list(_PINNED))
def test_step_loop_matches_reference_bitwise(name):
    system, t0, tf, x0, cfg = _PINNED[name]()
    ref = _integrate_ref(system, t0, tf, x0, cfg)
    tr = rk45_integrate(system, t0, tf, x0, cfg)
    for key in ("times", "states", "step_h", "dense_q"):
        got, want = getattr(tr, key), ref[key]
        assert got.dtype == want.dtype and got.shape == want.shape, key
        assert got.tobytes() == want.tobytes(), key
    for key in ("steps_accepted", "steps_rejected", "total_rhs_evals"):
        assert getattr(tr, key) == ref[key], key
    assert tr.times[-1] == tf  # the last step lands on tf exactly
    if name in ("mathieu", "linear-4", "linear-7", "linear-8"):
        assert tr.steps_rejected > 0


def test_second_integration_of_a_dimension_compiles_nothing():
    """The step loop depends on the dimension alone: a further integration
    at a dimension already run reuses its code, at any tolerances."""
    system = _linear_case(5)[0]
    rk45_integrate(system, 0.0, 1.0, np.ones(5), RkConfig())
    misses = rk45._step_loop.cache_info().misses
    rk45_integrate(system, 0.0, 2.0, np.zeros(5), RkConfig(rel_tol=1e-6))
    rk45_integrate(_linear_case(5)[0], 0.0, 1.0, np.ones(5), RkConfig())
    assert rk45._step_loop.cache_info().misses == misses


@pytest.mark.parametrize("dim", [1, 2, 6, 13])
def test_step_loop_runs_on_python_floats_alone(dim):
    """No numpy in the compiled loop: its namespace holds no numpy object
    and its source takes no numpy product."""
    loop = rk45._step_loop(dim)
    assert not {"dot", "tolist", "np", "numpy"} & set(loop.__code__.co_names)
    assert ".dot(" not in rk45._loop_source(dim)
    for name, value in loop.__globals__.items():
        assert value is not np and not type(value).__module__.startswith("numpy"), name
