"""Iteration core: convergence, initial-condition handling, accounting."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import lvim
from lvim import cheb, core, problems, shooting
from lvim.cheb import build_operators, cgl_nodes
from lvim.core import OdeSystem, SolverConfig, iterate_segment, march, residual
from lvim.errors import ConvergenceError, DomainViolationError, LvimError
from lvim.gravity import bundled_gravity_path, load_gravity_model


def constant_jac(a):
    """A node-batched ``jac`` returning the constant matrix ``a`` at every
    node, as one contiguous (M, D, D) stack."""
    a = np.asarray(a, dtype=float)
    return lambda t, x: np.repeat(a[np.newaxis], len(t), axis=0)


def decay_system(rate=1.0):
    return OdeSystem(
        dim=1,
        rhs=lambda t, x: [-rate * x[0]],
        jac=constant_jac([[-rate]]),
    )


def rotation_system(w=1.0):
    a = np.array([[0.0, 1.0], [-w * w, 0.0]])
    return OdeSystem(dim=2, rhs=lambda t, x: (a @ x).tolist(), jac=constant_jac(a))


MATHIEU = OdeSystem(
    dim=2,
    rhs=lambda t, x: [x[1], -(0.5 + 0.1 * math.cos(t)) * x[0]],
    jac=lambda t, x: np.array([[[0.0, 1.0], [-(0.5 + 0.1 * math.cos(s)), 0.0]]
                               for s in t]),
)


def test_segment_matches_exponential():
    ops = build_operators(13, 1.0)
    res = iterate_segment(ops, decay_system(), np.array([1.0]),
                          SolverConfig(13, 1.0, 1e-12))
    exact = np.exp(-ops.offsets)
    assert np.max(np.abs(res.node_states[:, 0] - exact)) < 1e-13


def test_segment_preserves_initial_condition_exactly():
    ops = build_operators(7, 0.5)
    x0 = np.array([0.7, -0.3])
    res = iterate_segment(ops, rotation_system(), x0, SolverConfig(7, 0.5, 1e-12))
    assert np.all(res.node_states[0] == x0)


def test_segment_mathieu_default_config_converges():
    ops = build_operators(5, 0.5)
    cfg = SolverConfig(5, 0.5, 1e-10)
    res = iterate_segment(ops, MATHIEU, np.array([1.0, 0.0]), cfg)
    assert res.iterations <= cfg.max_iter
    assert res.correction_history[-1] < cfg.tol


def test_frozen_equals_full_for_constant_jacobian():
    """For a linear constant-coefficient system the two modes see the same
    Jacobian, so the iterates are identical."""
    ops = build_operators(7, 0.8)
    x0 = np.array([1.0, 0.0])
    cfg = SolverConfig(7, 0.8, 1e-12)
    full = iterate_segment(ops, rotation_system(), x0, cfg)
    frozen = iterate_segment(ops, rotation_system(), x0,
                             replace(cfg, jacobian_mode="frozen"))
    assert np.array_equal(full.node_states, frozen.node_states)
    assert full.iterations == frozen.iterations


def test_converged_segment_residual_is_defect_sized():
    # the fixed point zeroes the discretized update, so the collocation
    # defect at the nodes sits at interpolation-truncation scale, not at tol
    ops = build_operators(13, 1.0)
    res = iterate_segment(ops, decay_system(), np.array([1.0]),
                          SolverConfig(13, 1.0, 1e-12))
    defect = residual(ops, decay_system(), res.node_states, ops.offsets)
    assert np.max(np.abs(defect)) < 1e-11


def test_march_grid_structure_and_joins():
    cfg = SolverConfig(5, 0.25, 1e-10)
    tr = march(decay_system(), 0.0, 1.0, np.array([1.0]), cfg)
    # four segments of five nodes with shared joins removed
    assert len(tr.times) == 4 * (5 - 1) + 1
    assert tr.times[0] == 0.0
    assert tr.times[-1] == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.diff(tr.times) > 0)
    assert len(tr.segment_iterations) == 4


def test_march_truncates_final_segment():
    cfg = SolverConfig(7, 0.4, 1e-12)
    tr = march(decay_system(), 0.0, 1.0, np.array([1.0]), cfg)
    assert len(tr.segment_iterations) == 3
    assert tr.times[-1] == pytest.approx(1.0, abs=1e-14)
    assert tr.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_march_eval_accounting_exact():
    tr = march(MATHIEU, 0.0, 10.0, np.array([1.0, 0.0]),
               SolverConfig(5, 0.5, 1e-10))
    assert tr.total_rhs_evals == int(np.sum(tr.segment_iterations)) * 5


def test_march_accuracy_vs_closed_form():
    tr = march(rotation_system(), 0.0, 10.0, np.array([1.0, 0.0]),
               SolverConfig(13, 1.0, 1e-12))
    assert np.max(np.abs(tr.states[:, 0] - np.cos(tr.times))) < 1e-11


def test_march_raises_on_non_contractive_segment():
    # dt far beyond the contraction range of a stiff decay
    stiff = decay_system(rate=80.0)
    with pytest.raises(ConvergenceError):
        march(stiff, 0.0, 2.0, np.array([1.0]),
              SolverConfig(5, 2.0, 1e-10, max_iter=40))


def _march_raising(monkeypatch, exc):
    """March a decay whose first segment raises ``exc``; the error that
    reaches the caller."""
    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(core, "iterate_segment", failing)
    with pytest.raises(LvimError) as info:
        march(decay_system(), 0.0, 1.0, np.array([1.0]), SolverConfig(5, 0.5, 1e-10))
    return info.value


def test_march_keeps_a_segment_errors_type_and_adds_its_prefix(monkeypatch):
    class Stalled(ConvergenceError):
        pass

    exc = Stalled("sweeps stopped shrinking")
    exc.sweeps = 7
    got = _march_raising(monkeypatch, exc)
    assert got is exc and type(got) is Stalled and got.sweeps == 7
    assert str(got) == "segment 0 (t=0): sweeps stopped shrinking"


def test_march_keeps_a_domain_violations_location(monkeypatch):
    state = np.array([0.25])
    exc = DomainViolationError("left the domain", t=0.125, state=state)
    exc.kernel = "radicand"
    got = _march_raising(monkeypatch, exc)
    assert type(got) is DomainViolationError
    assert str(got) == "segment 0 (t=0): left the domain"
    assert got.t == 0.125 and got.state is state and got.kernel == "radicand"


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(1, 0.5, 1e-10)
    with pytest.raises(ValueError):
        SolverConfig(5, -0.5, 1e-10)
    with pytest.raises(ValueError):
        SolverConfig(5, 0.5, 0.0)
    with pytest.raises(ValueError):
        SolverConfig(5, 0.5, 1e-10, jacobian_mode="sometimes")


@pytest.mark.parametrize("kwargs, name", [
    ({"rel_tol": 0.0}, "rel_tol"), ({"rel_tol": math.nan}, "rel_tol"),
    ({"abs_tol": -1e-15}, "abs_tol"), ({"max_steps": 0}, "max_steps")])
def test_rk_config_validation(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        lvim.RkConfig(**kwargs)


def _egm8():
    return load_gravity_model(bundled_gravity_path("egm8.txt"))


# Every scalar the program takes in: its name, a build from one value, the
# stock value, and an out-of-range finite value (None: every finite value
# is in range).  A count's stock value is an int, and a fractional count
# (stock + 0.5) is out of range too; a bool (numpy's too) or a string is out
# of range for every scalar.
SCALARS = [
    ("n_basis", lambda v: SolverConfig(v, 0.1, 1e-10), 5, 1),
    ("dt", lambda v: SolverConfig(5, v, 1e-10), 0.1, 0.0),
    ("tol", lambda v: SolverConfig(5, 0.1, v), 1e-10, -1e-10),
    ("max_iter", lambda v: SolverConfig(5, 0.1, 1e-10, max_iter=v), 100, 0),
    ("rel_tol", lambda v: lvim.RkConfig(rel_tol=v), 1e-12, -1.0),
    ("abs_tol", lambda v: lvim.RkConfig(abs_tol=v), 1e-15, 0.0),
    ("max_steps", lambda v: lvim.RkConfig(max_steps=v), 1_000_000, -1),
    ("dt", lambda v: build_operators(5, v), 0.1, -0.1),
    ("mu", lambda v: replace(_egm8(), mu=v), 3.986004415e14, 0.0),
    ("r_ref", lambda v: replace(_egm8(), r_ref=v), 6378136.3, -1.0),
    ("degree", lambda v: lvim.GravityModel(3.986004415e14, 6378136.3, v, {}), 8, -1),
    ("degree", lambda v: _egm8().truncate(v), 8, -1),
    ("c_param", lambda v: problems.white_dwarf(c_param=v), 0.3, -0.1),
    ("xi_start", lambda v: problems.emden_chandrasekhar(xi_start=v), 1e-3, 0.0),
    ("delta", lambda v: problems.mathieu(delta=v), 0.5, None),
    ("epsilon", lambda v: problems.mathieu(epsilon=v), 0.1, None),
    ("load", lambda v: problems.buckled_bar(load=v), 50.0, -1.0),
    ("a", lambda v: problems.elastica(a=v), 1.0, 0.0),
    ("c", lambda v: problems.elastica(c=v), 1.2, -1.2),
    ("a", lambda v: problems.elastica_regime(v, 1.2), 1.0, -1.0),
    ("c", lambda v: problems.elastica_regime(1.0, v), 1.2, 0.0),
    ("alpha", lambda v: problems.buckled_bar("perpendicular_follower", 25.0, alpha=v), 0.0, None),
    ("shoot_tol", lambda v: shooting.shoot_scalar(lambda x: x - 1.0, 0.0, 2.0, shoot_tol=v),
     1e-10, 0.0),
    ("max_shots", lambda v: shooting.shoot_scalar(lambda x: x - 1.0, 0.0, 2.0, max_shots=v),
     60, 1),
    ("n_basis", lambda v: build_operators(v, 0.1), 5, 1025),
    ("m", cgl_nodes, 5, 1),
    ("c_param", lambda v: problems.white_dwarf(c_param=v), 0.3, 1.5),
    ("n_basis", lambda v: SolverConfig(v, 0.1, 1e-10), 5, 1025),
]


@pytest.mark.parametrize("name, build, value", [
    pytest.param(name, build, value, id=f"{i}-{name}-{value!r}")
    for i, (name, build, stock, bad) in enumerate(SCALARS)
    for value in (math.inf, -math.inf, math.nan, bad,
                  stock + 0.5 if isinstance(stock, int) else None, True, np.True_, "1")
    if value is not None])
def test_scalar_out_of_range_is_refused_by_name(name, build, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build(value)


@pytest.mark.parametrize("name, build, stock", [
    pytest.param(name, build, stock, id=f"{i}-{name}")
    for i, (name, build, stock, _) in enumerate(SCALARS)])
def test_scalar_stock_value_is_accepted(name, build, stock):
    build(stock)


def test_march_refuses_system_without_jac():
    sys_no_jac = OdeSystem(dim=1, rhs=lambda t, x: [-x[0] ** 3])
    with pytest.raises(ValueError, match="jac"):
        march(sys_no_jac, 0.0, 1.0, np.array([0.5]), SolverConfig(5, 0.5, 1e-10))
    with pytest.raises(ValueError, match="jac"):
        iterate_segment(build_operators(5, 0.5), sys_no_jac, np.array([0.5]),
                        SolverConfig(5, 0.5, 1e-10))
    assert sys_no_jac.rhs_evals == 0


def test_misshaped_start_is_refused_before_any_rhs():
    system = decay_system()
    cfg = SolverConfig(5, 0.5, 1e-10)
    for bad in (np.array([1.0, 2.0]), np.array([[1.0]]), np.array(1.0)):
        with pytest.raises(ValueError, match=r"initial state has shape .*, expected \(1,\)"):
            march(system, 0.0, 1.0, bad, cfg)
        with pytest.raises(ValueError, match=r"initial state has shape .*, expected \(1,\)"):
            iterate_segment(build_operators(5, 0.5), system, bad, cfg)
    assert system.rhs_evals == 0


@pytest.mark.parametrize("t0, tf", [(0.0, math.inf), (-math.inf, 1.0),
                                    (0.0, math.nan)])
def test_march_refuses_non_finite_span(t0, tf):
    with pytest.raises(ValueError, match="finite"):
        march(decay_system(), t0, tf, np.array([1.0]), SolverConfig(5, 0.5, 1e-10))


@pytest.mark.parametrize("x0", [[math.nan], [math.inf]])
def test_non_finite_start_is_refused_before_any_rhs(x0):
    """The march and the oracle share one start check."""
    messages = []
    for integrate, cfg in ((march, SolverConfig(5, 0.5, 1e-10)),
                           (lvim.rk45_integrate, lvim.RkConfig())):
        system = decay_system()
        with pytest.raises(DomainViolationError) as exc_info:
            integrate(system, 0.0, 1.0, np.array(x0), cfg)
        assert system.rhs_evals == 0
        assert exc_info.value.t == 0.0
        messages.append(str(exc_info.value))
    assert messages[0] == messages[1] == "initial state is not finite"


@pytest.mark.parametrize("rhs, shape", [
    pytest.param(lambda t, x: [-x[0]], r"\(1,\)", id="short-list"),
    pytest.param(lambda t, x: x + x, r"\(4,\)", id="long-list"),
    pytest.param(lambda t, x: np.array([-x[0]]), r"\(1,\)", id="short"),
    pytest.param(lambda t, x: -x[0], r"\(\)", id="bare-float"),
    pytest.param(lambda t, x: [[-x[0], x[1]]], r"\(1, 2\)", id="nested-list"),
    pytest.param(lambda t, x: [[-x[0]], [x[1]]], r"\(2, 1\)", id="nested-rows"),
    pytest.param(lambda t, x: np.array([[-x[0], x[1]]]), r"\(1, 2\)", id="row"),
    pytest.param(lambda t, x: np.array([[-x[0]], [x[1]]]), r"\(2, 1\)", id="column")])
def test_rhs_value_of_another_shape_is_refused(rhs, shape):
    """numpy would broadcast it into the state; both integrators refuse it
    at the first evaluation."""
    for integrate, cfg in ((march, SolverConfig(5, 0.5, 1e-10)),
                           (lvim.rk45_integrate, lvim.RkConfig())):
        system = OdeSystem(dim=2, rhs=rhs, jac=constant_jac(np.zeros((2, 2))))
        with pytest.raises(ValueError, match=rf"^rhs returned shape {shape}, expected \(D,\) = \(2,\)$"):
            integrate(system, 0.0, 1.0, np.array([1.0, 2.0]), cfg)
        assert system.rhs_evals == 1


def test_ragged_rhs_value_is_refused_naming_its_shape():
    system = OdeSystem(dim=2, rhs=lambda t, x: [[x[0]], x[1]])
    with pytest.raises(ValueError, match=r"inhomogeneous shape .* detected shape was \(2,\)"):
        system.eval_rhs(0.0, [1.0, 2.0])
    assert system.rhs_evals == 1


def test_eval_rhs_finiteness_check():
    """An overflowing sum of finite entries is not a domain exit; a NaN
    or an infinity in any entry is."""
    def constant(values):
        return OdeSystem(dim=2, rhs=lambda t, x: list(values), jac=None)

    g = constant([1e308, 1e308]).eval_rhs(0.0, [0.0, 0.0])
    assert g == [1e308, 1e308]
    for bad in ([math.nan, 0.0], [0.0, math.nan], [math.inf, -math.inf], [1.0, -math.inf]):
        with pytest.raises(DomainViolationError, match="non-finite value at t=0.0"):
            constant(bad).eval_rhs(0.0, [0.0, 0.0])


def test_eval_rhs_returns_a_list_of_floats_as_it_is():
    value = [3.0, -1.5]
    system = OdeSystem(dim=2, rhs=lambda t, x: value, jac=None)
    assert system.eval_rhs(0.0, [0.0, 0.0]) is value


@pytest.mark.parametrize("value", [
    pytest.param([3, -1], id="int-list"),
    pytest.param([3, -1.5], id="list"),
    pytest.param([np.float64(3.0), -1.5], id="numpy-scalar-list"),
    pytest.param((3.0, -1.5), id="tuple"),
    pytest.param(np.array([3.0, -1.5]), id="float64-array"),
    pytest.param(np.array([3, -1]), id="int-array"),
    pytest.param(np.array([3.0, -1.5], dtype=np.float32), id="float32-array"),
    pytest.param(np.array([3.0, -1.5], dtype=">f8"), id="big-endian-float64")])
def test_eval_rhs_converts_any_other_value_to_float64(value):
    """Only a list of D Python floats is kept as returned; any other value
    comes back as one (float64 values), equal in value, and counts once."""
    system = OdeSystem(dim=2, rhs=lambda t, x: value, jac=None)
    g = system.eval_rhs(0.0, [0.0, 0.0])
    assert type(g) is list and [type(v) for v in g] == [float, float]
    assert g == np.asarray(value, dtype=float).tolist()
    assert system.rhs_evals == 1


@pytest.mark.filterwarnings("ignore:invalid value")
def test_nan_correction_never_converges():
    # at the zero state the residual is exactly zero, so inf * 0 puts NaN
    # in every second correction entry, behind finite zeros; a maximum
    # that skipped the NaN would call the sweep converged
    sys_ = OdeSystem(dim=2, rhs=lambda t, x: [0.0, 0.0],
                     jac=constant_jac([[0.0, 0.0], [0.0, np.inf]]))
    ops = build_operators(5, 0.5)
    with pytest.raises(ConvergenceError):
        iterate_segment(ops, sys_, np.zeros(2),
                        SolverConfig(n_basis=5, dt=0.5, tol=1e-10, max_iter=3))


def test_rhs_overflow_is_domain_violation():
    """A rhs built on math.exp raises OverflowError where numpy would give
    inf; the stock Emden march in frozen mode drives one there."""
    spec = problems.emden_chandrasekhar()
    cfg = replace(spec.lvim_defaults, jacobian_mode="frozen")
    with pytest.raises(DomainViolationError) as info:
        march(spec.system, spec.t0, spec.tf, spec.x0, cfg)
    assert info.value.t is not None and info.value.state.shape == (2,)


def test_rhs_value_error_at_a_non_finite_state_is_a_domain_violation():
    """math.sin(inf) raises ValueError where numpy would give NaN: at a
    state with an infinity (or a NaN) that is a domain exit carrying the
    time and the state; at a finite state the rhs's own error stands."""
    system = OdeSystem(dim=2, rhs=lambda t, x: [math.sin(v) for v in x])
    for x in ([math.inf, 0.0], [0.0, -math.inf], [math.inf, math.nan]):
        with pytest.raises(DomainViolationError,
                           match=r"^right-hand side is undefined at a non-finite "
                                 r"state at t=2\.5$") as info:
            system.eval_rhs(2.5, x)
        assert isinstance(info.value.__cause__, ValueError)
        assert info.value.t == 2.5
        assert np.array_equal(info.value.state, x, equal_nan=True)

    def guard(t, x):
        raise ValueError("guard tripped")

    with pytest.raises(ValueError, match="^guard tripped$"):
        OdeSystem(dim=2, rhs=guard).eval_rhs(0.0, [1e308, -1e308])
    assert system.rhs_evals == 3


def test_jacobian_overflow_is_domain_violation():
    """An overflow anywhere in a batch is traced back row by row: the error
    names the first node that overflows on its own."""
    def jac(t, x):
        return np.array([[[math.exp(row[0])]] for row in x])

    sys_ = OdeSystem(dim=1, rhs=lambda t, x: x, jac=jac)
    t_nodes = np.array([1.0, 2.0, 3.0])
    x = np.array([[1.0], [1e3], [2e3]])
    with pytest.raises(DomainViolationError, match="Jacobian overflowed") as info:
        sys_.eval_jac(t_nodes, x)
    assert info.value.t == 2.0
    assert info.value.state.shape == (1,) and info.value.state[0] == 1e3


@pytest.mark.parametrize("mode", ["full", "frozen"])
def test_eval_jac_refuses_a_per_point_result(mode):
    """A one-point (D, D) Jacobian is refused in both modes; in frozen
    mode (one node) it would otherwise be read as its first row."""
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sys_ = OdeSystem(dim=2, rhs=lambda t, x: (a @ x).tolist(), jac=lambda t, x: a)
    cfg = SolverConfig(5, 0.5, 1e-10, jacobian_mode=mode)
    with pytest.raises(ValueError, match=r"shape \(2, 2\), expected \(M, D, D\)"):
        march(sys_, 0.0, 1.0, np.array([1.0, 0.0]), cfg)
    with pytest.raises(ValueError, match=r"expected \(M, D, D\) = \(3, 2, 2\)"):
        sys_.eval_jac(np.zeros(3), np.zeros((3, 2)))


@pytest.mark.parametrize("mode", ["full", "frozen"])
def test_one_jac_call_per_sweep(mode):
    """Full mode makes one ``jac`` call on all N nodes per sweep; frozen
    mode one call per segment, on the segment's first node; ``jac_evals``
    counts each.  The stock N = 5 sweeps in compiled Python floats, N = 13
    over numpy arrays."""
    spec = problems.pendulum()
    jac = spec.system.jac
    for n_basis in (5, 13):
        calls = []

        def spy(t, x):
            calls.append((len(t), np.shape(x)))
            return jac(t, x)

        system = replace(spec.system, jac=spy)
        cfg = replace(spec.lvim_defaults, n_basis=n_basis, jacobian_mode=mode)
        assert core._compiled(n_basis, system.dim) == (n_basis == 5)
        tr = march(system, 0.0, 5.0, spec.x0, cfg)
        rows = cfg.n_basis if mode == "full" else 1
        expected = (int(np.sum(tr.segment_iterations)) if mode == "full"
                    else tr.segment_iterations.size)
        assert len(calls) == expected
        assert set(calls) == {(rows, (rows, 2))}
        assert system.jac_evals == expected
        march(system, 0.0, 5.0, spec.x0, cfg)
        assert system.jac_evals == 2 * expected


# The side of ``core._COMPILED_MAX_SIZE`` each stock grid sweeps on, as the
# per-sweep table in the README's numerical notes measures them.
STOCK_SWEEP_PATHS = {
    "blasius": "compiled",      # N = 5, D = 3
    "emden": "numpy",           # N = 13, D = 2
    "white-dwarf": "compiled",  # N = 5, D = 2
    "mathieu": "compiled",      # N = 5, D = 2
    "pendulum": "compiled",     # N = 5, D = 2
    "buckled-bar": "compiled",  # N = 7, D = 2
    "elastica": "compiled",     # N = 7, D = 1
    "leo": "numpy",             # N = 26, D = 6
}


@pytest.mark.parametrize("name", STOCK_SWEEP_PATHS)
def test_stock_grid_sweeps_on_its_side_of_the_bound(name):
    """A segment of each stock problem binds a compiled sweep for its
    dimension and mode to its operator set exactly when the table puts its
    grid on the compiled side."""
    spec = STOCK[name]()
    cfg = spec.lvim_defaults
    ops = build_operators(cfg.n_basis, cfg.dt)
    iterate_segment(ops, spec.system, spec.x0, cfg, t_start=spec.t0)
    side = "compiled" if (spec.system.dim, cfg.jacobian_mode) in ops.kernels else "numpy"
    assert side == STOCK_SWEEP_PATHS[name]
    assert core._compiled(cfg.n_basis, spec.system.dim) == (side == "compiled")


@pytest.mark.parametrize("mode", ["full", "frozen"])
def test_second_march_of_a_grid_compiles_nothing(mode):
    """The residual and the sweep of a grid compile on its first march in
    a process; a second march compiles nothing, and neither does a march
    on operator sets built anew."""
    spec = problems.mathieu()
    cfg = replace(spec.lvim_defaults, n_basis=6, jacobian_mode=mode)
    core._binder.cache_clear()
    cheb._cached_operator_set.cache_clear()
    march(spec.system, 0.0, 2.0, spec.x0, cfg)
    assert core._binder.cache_info().misses == 2
    march(spec.system, 0.0, 2.0, spec.x0, cfg)
    assert core._binder.cache_info().misses == 2
    cheb._cached_operator_set.cache_clear()
    march(spec.system, 0.0, 2.0, spec.x0, cfg)
    assert core._binder.cache_info().misses == 2


# ------------------------------------------------ seeded marches

SEEDED = {"pendulum": problems.pendulum, "mathieu": problems.mathieu}


def _first_ten(name, mode):
    """A stock problem's first 10 time units with its config in ``mode``."""
    spec = SEEDED[name]()
    cfg = replace(spec.lvim_defaults, jacobian_mode=mode)
    return spec.system, spec.t0, spec.t0 + 10.0, spec.x0, cfg


@pytest.mark.parametrize("mode", ["full", "frozen"])
@pytest.mark.parametrize("name", SEEDED)
def test_march_seeded_with_its_own_states_takes_one_sweep(name, mode):
    """Started from its converged node states, a march accepts its first
    sweep on every segment, stays within ``tol`` of the cold march, leaves
    the guess untouched, and still spends N rhs evals per sweep (C12)."""
    system, t0, tf, x0, cfg = _first_ten(name, mode)
    cold = march(system, t0, tf, x0, cfg)
    guess = cold.states.copy()
    seeded = march(system, t0, tf, x0, cfg, guess=guess)
    assert np.array_equal(guess, cold.states)
    assert np.all(seeded.segment_iterations == 1)
    assert np.array_equal(seeded.times, cold.times)
    assert np.max(np.abs(seeded.states - cold.states)) < cfg.tol
    assert seeded.total_rhs_evals == seeded.segment_iterations.size * cfg.n_basis


@pytest.mark.parametrize("mode", ["full", "frozen"])
@pytest.mark.parametrize("name", SEEDED)
def test_seeded_march_keeps_the_rhs_accounting(name, mode):
    """C12 for a march seeded from a different march (a nearby start)."""
    system, t0, tf, x0, cfg = _first_ten(name, mode)
    nearby = march(system, t0, tf, x0 * (1.0 + 1e-6), cfg)
    seeded = march(system, t0, tf, x0, cfg, guess=nearby.states)
    cold = march(system, t0, tf, x0, cfg)
    assert seeded.total_rhs_evals == int(np.sum(seeded.segment_iterations)) * cfg.n_basis
    assert np.sum(seeded.segment_iterations) < np.sum(cold.segment_iterations)
    assert np.max(np.abs(seeded.states - cold.states)) < 100 * cfg.tol


@pytest.mark.parametrize("mode", ["full", "frozen"])
def test_seeded_segment_starts_at_the_incoming_state(mode):
    """A guess far from the incoming state is shifted onto it: the first
    rhs call of every sweep sees ``x0`` exactly, and so does row 0."""
    spec = problems.pendulum()
    cfg = replace(spec.lvim_defaults, jacobian_mode=mode)
    ops = build_operators(cfg.n_basis, cfg.dt)
    x0 = np.array([0.3, -0.1])
    cold = iterate_segment(ops, spec.system, x0, cfg, t_start=0.4)
    firsts = []
    rhs = spec.system.rhs

    def spy(t, x):
        if not firsts or len(firsts[-1]) == cfg.n_basis:
            firsts.append([])
        firsts[-1].append(np.array(x))
        return rhs(t, x)

    system = replace(spec.system, rhs=spy)
    guess = cold.node_states + [1.0 / 3.0, 0.7]
    res = iterate_segment(ops, system, x0, cfg, t_start=0.4, guess=guess)
    assert np.array_equal(res.node_states[0], x0)
    assert all(np.array_equal(sweep[0], x0) for sweep in firsts)
    assert np.max(np.abs(res.node_states - cold.node_states)) < cfg.tol


@pytest.mark.parametrize("mode", ["full", "frozen"])
def test_misshaped_guess_is_refused_before_any_rhs(mode):
    spec = problems.pendulum()
    cfg = replace(spec.lvim_defaults, jacobian_mode=mode)
    n_nodes = 10 * (cfg.n_basis - 1) + 1  # ten segments over [0, 1]
    system = spec.system
    for bad in (np.zeros((n_nodes - 1, 2)), np.zeros((n_nodes, 1)),
                np.zeros(n_nodes * 2)):
        with pytest.raises(ValueError, match="guess has shape"):
            march(system, 0.0, 1.0, spec.x0, cfg, guess=bad)
    nan_guess = np.zeros((n_nodes, 2))
    nan_guess[3, 1] = math.nan
    with pytest.raises(ValueError, match="not finite"):
        march(system, 0.0, 1.0, spec.x0, cfg, guess=nan_guess)
    ops = build_operators(cfg.n_basis, cfg.dt)
    with pytest.raises(ValueError, match="guess has shape"):
        iterate_segment(ops, system, spec.x0, cfg, guess=np.zeros((cfg.n_basis + 1, 2)))
    assert system.rhs_evals == 0


def test_public_names_resolve():
    for name in lvim.__all__:
        assert hasattr(lvim, name), name


def test_readme_layout_names_every_module():
    """The README's layout block lists every module of ``src/lvim``."""
    root = Path(__file__).resolve().parents[1]
    block = (root / "README.md").read_text().split("## Layout", 1)[1].split("```", 2)[1]
    listed = {line.split()[0] for line in block.splitlines()
              if line.startswith("  ") and line.split()[0].endswith(".py")}
    modules = {p.name for p in (root / "src" / "lvim").glob("*.py")} - {"__init__.py"}
    assert listed == modules


# ------------------------------------------------ operator products

def _draw_with_specials(rng, shape):
    """Normal values over 60 decades, about a sixth of them replaced by
    +0.0, -0.0, +inf, -inf or NaN."""
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    u = rng.random(shape)
    for i, special in enumerate((0.0, -0.0, math.inf, -math.inf, math.nan)):
        v[(u >= 0.03 * i) & (u < 0.03 * (i + 1))] = special
    return v


@pytest.mark.parametrize("n", [2, 5, 7, 13, 26, 40])
def test_sweep_products_are_matmul_bitwise(n):
    """The numpy sweep forms ``Q x``, ``H r`` and ``P r`` with ``ndarray.dot``;
    each must be the ``@`` product byte for byte (signs of zero and NaNs
    included) on every state width of the stock problems."""
    rng = np.random.default_rng(n)
    for dt in (0.1, 0.5, 500.0):
        ops = build_operators(n, dt)
        for d in (1, 2, 3, 6):
            for trial in range(60):
                x = (rng.standard_normal((n, d)) if trial % 2
                     else _draw_with_specials(rng, (n, d)))
                for mat in (ops.q_mat, ops.h_mat, ops.p_mat):
                    with np.errstate(all="ignore"):
                        got, want = mat.dot(x), mat @ x
                    assert got.tobytes() == want.tobytes(), (n, dt, d, trial)


# ------------------------------------------------ reference march

def _residual_ref(ops, system, x, t_nodes):
    g = np.empty_like(x)
    for j in range(t_nodes.size):
        g[j] = np.array(system.eval_rhs(float(t_nodes[j]), x[j].tolist()))
    return ops.q_mat @ x - g


def _iterate_ref(ops, system, x0, config, t_start):
    t_nodes = t_start + ops.offsets
    m = t_nodes.size
    frozen = config.jacobian_mode == "frozen"
    x = np.repeat(x0[np.newaxis, :], m, axis=0)
    j_frozen = system.eval_jac(t_nodes[:1], x0[np.newaxis])[0] if frozen else None
    js = None if frozen else np.empty((m, system.dim, system.dim))
    for it in range(1, config.max_iter + 1):
        r = _residual_ref(ops, system, x, t_nodes)
        hr = ops.h_mat @ r
        pr = ops.p_mat @ r
        if frozen:
            delta = hr @ j_frozen.T - pr
        else:
            # one node at a time through the batched contract
            for j in range(m):
                js[j] = system.eval_jac(t_nodes[j:j + 1], x[j:j + 1])[0]
            delta = np.einsum("jab,jb->ja", js, hr) - pr
        x += delta
        if float(np.max(np.abs(delta))) < config.tol:
            return x, it
    raise ConvergenceError("reference segment did not converge")


def _left_sum(terms):
    """A sum of floats taken left to right (``sum`` may compensate)."""
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total = total + term
    return total


def _iterate_floats_ref(ops, system, x0, config, t_start):
    """The textbook sweep over Python floats, node by node: ``r = Q x -
    g``, then for each node after the first (the first rows of P and H are
    zero) ``a = H r`` (the diagonal of H is zero), the correction ``J a - P
    r`` and the new row, every sum left to right over its other terms; the
    correction's max-norm is NaN when any entry is."""
    q, p, h = (a.tolist() for a in (ops.q_mat, ops.p_mat, ops.h_mat))
    t_nodes = (t_start + ops.offsets).tolist()
    m, d = len(t_nodes), system.dim
    nodes, comps = range(m), range(d)
    x = [x0.tolist() for _ in nodes]
    if config.jacobian_mode == "frozen":
        j_frozen = system.eval_jac(t_nodes[:1], x[:1])[0]
    for it in range(1, config.max_iter + 1):
        g = [system.eval_rhs(t_nodes[i], x[i]) for i in nodes]
        r = [[_left_sum(q[i][k] * x[k][c] for k in nodes) - g[i][c] for c in comps]
             for i in nodes]
        new, corrections = [x[0]], []
        for i in range(1, m):
            jac = (j_frozen if config.jacobian_mode == "frozen"
                   else system.eval_jac(t_nodes[i:i + 1], x[i:i + 1])[0])
            a = [_left_sum(h[i][k] * r[k][c] for k in nodes if k != i) for c in comps]
            c = [_left_sum(jac[row][b] * a[b] for b in comps)
                 - _left_sum(p[i][k] * r[k][row] for k in nodes) for row in comps]
            new.append([x[i][row] + c[row] for row in comps])
            corrections += [abs(v) for v in c]
        x = new
        corr = math.nan if any(map(math.isnan, corrections)) else max(corrections)
        if corr < config.tol:
            return np.array(x), it
    raise ConvergenceError("reference segment did not converge")


def _march_ref(system, t0, tf, x0, config):
    """The per-node march with a lazily built operator cache and a
    separate schedule for a span shorter than one segment: the reference
    ``march`` must reproduce bit for bit.  Grids up to
    ``core._COMPILED_MAX_SIZE`` run the textbook sweep over Python floats
    (:func:`_iterate_floats_ref`), larger ones the sweep over arrays.  It
    evaluates the Jacobian one node per call, so a match also shows that a
    factory's batched rows equal its one-node rows inside a real march.
    Its rhs calls follow the point contract (Python floats in; on the
    array sweep the list is wrapped in ``np.array`` on the way out)."""
    iterate = (_iterate_floats_ref if core._compiled(config.n_basis, system.dim)
               else _iterate_ref)
    x0 = np.asarray(x0, dtype=float)
    span = tf - t0
    n_full = int(np.floor(span / config.dt + 1e-12))
    rem = span - n_full * config.dt
    if rem <= 1e-12 * config.dt:
        rem = 0.0
    if n_full == 0:
        starts, lens = [t0], [span]
    else:
        starts = [t0 + i * config.dt for i in range(n_full)]
        lens = [config.dt] * n_full
        if rem:
            starts.append(t0 + n_full * config.dt)
            lens.append(rem)

    ops_cache = {}
    times, states, iters = [t0], [x0.copy()], []
    evals_before = system.rhs_evals
    x = x0
    for t_seg, seg_len in zip(starts, lens):
        ops = ops_cache.get(seg_len)
        if ops is None:
            ops = ops_cache[seg_len] = build_operators(config.n_basis, seg_len)
        nodes, it = iterate(ops, system, x, config, t_seg)
        times.extend(t_seg + ops.offsets[1:])
        states.extend(nodes[1:])
        iters.append(it)
        x = nodes[-1]
    return (np.array(times), np.array(states), np.array(iters, dtype=int),
            system.rhs_evals - evals_before)


def _assert_same(tr, ref):
    times, states, iters, evals = ref
    assert tr.times.tobytes() == times.tobytes()
    assert tr.states.tobytes() == states.tobytes()
    assert np.array_equal(tr.segment_iterations, iters)
    assert tr.total_rhs_evals == evals


STOCK = {
    "blasius": problems.blasius,
    "emden": problems.emden_chandrasekhar,
    "white-dwarf": problems.white_dwarf,
    "mathieu": problems.mathieu,
    "pendulum": problems.pendulum,
    "buckled-bar": problems.buckled_bar,
    "elastica": problems.elastica,
    "leo": lambda: problems.leo(
        load_gravity_model(bundled_gravity_path("egm8.txt"))),
}


@pytest.mark.parametrize("mode", ["full", "frozen"])
@pytest.mark.parametrize("name", STOCK)
def test_march_matches_reference_on_stock_problems(name, mode):
    spec = STOCK[name]()
    cfg = replace(spec.lvim_defaults, jacobian_mode=mode)
    args = (spec.system, spec.t0, spec.tf, spec.x0, cfg)
    if (name, mode) in {("emden", "frozen"), ("white-dwarf", "frozen")}:
        # the frozen Jacobian drives these two out of their domain
        for solve in (_march_ref, march):
            with pytest.raises(DomainViolationError):
                solve(*args)
        return
    _assert_same(march(*args), _march_ref(*args))


@pytest.mark.parametrize("t0, tf, dt, segments", [
    (0.0, 0.3, 0.5, 1),      # span shorter than dt
    (2.5, 2.9, 0.5, 1),
    (0.0, 1e-13, 0.5, 1),    # even below the 1e-12 dt remainder cut
    (0.0, 0.3, 0.1, 3),      # 0.3 / 0.1 < 3 and the remainder is -5.6e-17
    (0.0, 0.7, 0.1, 7),
    (0.0, 1.0 + 1e-14, 0.25, 4),
    (0.0, 1.0, 0.4, 3),      # a true remainder of 0.2
    (2.5, 3.7, 0.5, 3),
])
def test_march_schedule_edges_match_reference(t0, tf, dt, segments):
    args = (MATHIEU, t0, tf, np.array([1.0, 0.0]), SolverConfig(7, dt, 1e-12))
    tr = march(*args)
    _assert_same(tr, _march_ref(*args))
    assert tr.segment_iterations.size == segments


# ------------------------------------------------ generated linear systems

@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_linear_systems_match_matrix_exponential(data):
    """``x' = A x`` with ``dt * max|A| <= 1`` against ``expm``, errors
    scaled by max |x|.  Worst cases: 1.5e-14 on these examples and 2.2e-13
    over 4000 uniform random draws; full against frozen 3.9e-16 and
    8.3e-16."""
    d = data.draw(st.integers(1, 3))
    entries = st.floats(-1.0, 1.0)
    a = np.array(data.draw(st.lists(entries, min_size=d * d, max_size=d * d)))
    a = a.reshape(d, d)
    x0 = np.array(data.draw(st.lists(entries, min_size=d, max_size=d)
                            .filter(lambda v: max(map(abs, v)) >= 0.1)))
    system = OdeSystem(dim=d, rhs=lambda t, x: (a @ x).tolist(), jac=constant_jac(a))
    cfg = SolverConfig(13, 1.0, 1e-12)
    full = march(system, 0.0, 2.0, x0, cfg)
    frozen = march(system, 0.0, 2.0, x0, replace(cfg, jacobian_mode="frozen"))
    exact = np.array([expm(a * t) @ x0 for t in full.times])
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(frozen.states - full.states)) <= 1e-14 * scale
    assert np.max(np.abs(full.states - exact)) <= 1e-11 * scale
