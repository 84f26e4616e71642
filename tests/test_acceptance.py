"""Release gates, one test per criterion, each at its stated tolerance.

Every test registers a single verdict line (printed in the terminal
summary) carrying the measured values next to their bounds.  Gates that
are currently red are asserted at the stated tolerance anyway; the README
"Known limitations" section carries the analysis for each.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from lvim import problems
from lvim.cli import _ops_exactness
from lvim.core import march
from lvim.gravity import bundled_gravity_path, gravity_potential, load_gravity_model
from lvim.rk45 import RkConfig, rk45_integrate, sample_at
from lvim.shooting import solve_buckled_bar

ORACLE = RkConfig(rel_tol=1e-12, abs_tol=1e-15)
# Wall curvature f''(0) of f''' + f f''/2 = 0 (Boyd, Experimental Mathematics, 1999)
BLASIUS_F2_AT_0 = 0.33205733621519630


def verdict(record, cid, label, clauses):
    ok = all(flag for flag, _ in clauses)
    detail = "; ".join(text for _, text in clauses)
    record(f"{cid} {label}: {'pass' if ok else 'FAIL'}  [{detail}]")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def pendulum_runs():
    spec = problems.pendulum()
    t0 = time.perf_counter()
    tr = march(spec.system, spec.t0, spec.tf, spec.x0, spec.lvim_defaults)
    oracle = rk45_integrate(spec.system, spec.t0, spec.tf, spec.x0, ORACLE)
    ref = sample_at(oracle, tr.times)
    wall = time.perf_counter() - t0
    return tr, oracle, ref, wall


@pytest.fixture(scope="module")
def leo_runs():
    model = load_gravity_model(bundled_gravity_path("egm8.txt"))
    spec = problems.leo(model)
    t0 = time.perf_counter()
    tr = march(spec.system, spec.t0, spec.tf, spec.x0, spec.lvim_defaults)
    oracle = rk45_integrate(spec.system, spec.t0, spec.tf, spec.x0, ORACLE)
    wall = time.perf_counter() - t0
    return model, spec, tr, oracle, wall


# ---------------------------------------------------------------- criteria

def test_c01_operator_exactness(record):
    t0 = time.perf_counter()
    worst_main = worst_coarse = 0.0
    for n in (5, 7, 13, 26):
        for dt in (0.1, 0.5, 1.0, 500.0):
            r = _ops_exactness(n, dt)
            if (n, dt) == (26, 500.0):
                worst_coarse = max(worst_coarse, r)
            else:
                worst_main = max(worst_main, r)
    wall = time.perf_counter() - t0
    verdict(record, "C01", "operator exactness", [
        (worst_main < 1e-12, f"worst={worst_main:.3e} (bound 1e-12)"),
        (worst_coarse < 1e-9, f"N=26,dt=500: {worst_coarse:.3e} (bound 1e-09)"),
        (wall < 1.0, f"runtime={wall:.2f}s (bound 1s)"),
    ])


def test_c02_pendulum_discrepancy(record, pendulum_runs):
    tr, _, ref, wall = pendulum_runs
    d = float(np.max(np.abs(tr.states[:, 0] - ref[:, 0])))
    verdict(record, "C02", "pendulum angle vs oracle", [
        (d < 1e-6, f"max|dtheta|={d:.3e} (bound 1e-06)"),
        (wall < 5.0, f"runtime={wall:.2f}s (bound 5s)"),
    ])


def test_c03_pendulum_energy(record, pendulum_runs):
    tr, _, _, _ = pendulum_runs
    energy = 0.5 * tr.states[:, 1] ** 2 - np.cos(tr.states[:, 0])
    drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    verdict(record, "C03", "pendulum energy drift", [
        (drift < 1e-8, f"rel drift={drift:.3e} (bound 1e-08)"),
    ])


def test_c04_emden(record):
    spec = problems.emden_chandrasekhar()
    tr = march(spec.system, spec.t0, spec.tf, spec.x0, spec.lvim_defaults)
    oracle = rk45_integrate(spec.system, spec.t0, spec.tf, spec.x0, ORACLE)
    d = float(np.max(np.abs(tr.states[:, 0] - sample_at(oracle, tr.times)[:, 0])))
    psi_at_one = {}
    for xs in (1e-3, 5e-4):
        s = problems.emden_chandrasekhar(xi_start=xs)
        psi_at_one[xs] = march(s.system, s.t0, 1.0, s.x0,
                               s.lvim_defaults).states[-1, 0]
    shift = abs(psi_at_one[1e-3] - psi_at_one[5e-4])
    verdict(record, "C04", "Emden-Chandrasekhar", [
        (d < 1e-6, f"max|dpsi|={d:.3e} (bound 1e-06)"),
        (shift < 1e-8, f"start-halving shift={shift:.3e} (bound 1e-08)"),
    ])


def test_c05_white_dwarf(record):
    spec = problems.white_dwarf(0.3)
    tr = march(spec.system, spec.t0, spec.tf, spec.x0, spec.lvim_defaults)
    oracle = rk45_integrate(spec.system, spec.t0, spec.tf, spec.x0, ORACLE)
    d = float(np.max(np.abs(tr.states[:, 0] - sample_at(oracle, tr.times)[:, 0])))
    verdict(record, "C05", "white dwarf to domain edge", [
        (d < 1e-6, f"max|dphi|={d:.3e} (bound 1e-06), span=[{spec.t0:g},{spec.tf:.4f}]"),
    ])


def _window_peak(times, values, lo, hi):
    mask = (times >= lo) & (times <= hi)
    return float(np.max(np.abs(values[mask])))


def test_c06_mathieu_dichotomy(record):
    clauses = []
    spec_b = problems.mathieu(delta=0.5, epsilon=0.1)
    lv = march(spec_b.system, spec_b.t0, spec_b.tf, spec_b.x0,
               spec_b.lvim_defaults)
    rk = rk45_integrate(spec_b.system, spec_b.t0, spec_b.tf, spec_b.x0, ORACLE)
    for name, tr in (("lvim", lv), ("oracle", rk)):
        peak = float(np.max(np.abs(tr.states[:, 0])))
        clauses.append((peak < 3.0, f"eps=0.1 {name} max|x|={peak:.3f} (<3)"))
    spec_g = problems.mathieu(delta=0.5, epsilon=1.0)
    # the growth run cannot hold 1e-10 once the envelope passes ~1e8;
    # 1e-6 is the documented floor for this case
    cfg = replace(spec_g.lvim_defaults, tol=1e-6)
    lv = march(spec_g.system, spec_g.t0, spec_g.tf, spec_g.x0, cfg)
    rk = rk45_integrate(spec_g.system, spec_g.t0, spec_g.tf, spec_g.x0, ORACLE)
    for name, tr in (("lvim", lv), ("oracle", rk)):
        factor = (_window_peak(tr.times, tr.states[:, 0], 80.0, 100.0)
                  / _window_peak(tr.times, tr.states[:, 0], 0.0, 20.0))
        clauses.append((factor > 10.0, f"eps=1 {name} growth={factor:.3g} (>10)"))
    verdict(record, "C06", "Mathieu stability dichotomy", clauses)


def test_c07_blasius(record):
    spec = problems.blasius()
    f2_lvim = spec.x0[2]
    # the same stage one, run by the oracle at its stock tolerances
    companion = rk45_integrate(spec.system, 0.0, problems._BLASIUS_STAGE_ONE_SPAN,
                               np.array([0.0, 0.0, 1.0]), RkConfig())
    f2_rk = companion.states[-1, 1] ** -1.5
    stage_gap = abs(f2_lvim - f2_rk)
    tr = march(spec.system, spec.t0, spec.tf, spec.x0, spec.lvim_defaults)
    oracle = rk45_integrate(spec.system, spec.t0, spec.tf, spec.x0, ORACLE)
    d = float(np.max(np.abs(tr.states - sample_at(oracle, tr.times))))
    # The true profile has 1 - f'(6) = 1.027e-3, so the free stream is
    # checked at the end of the span, where the true gap is 2.0e-9.
    assert tr.times[-1] == spec.tf == 10.0
    curvature_gap = abs(f2_lvim - BLASIUS_F2_AT_0)
    edge_gap = abs(tr.states[-1, 1] - 1.0)
    verdict(record, "C07", "Blasius boundary layer", [
        (curvature_gap < 1e-8,
         f"|f''(0)-{BLASIUS_F2_AT_0:.12f}|={curvature_gap:.3e} (bound 1e-08)"),
        (edge_gap < 1e-8, f"|f'(10)-1|={edge_gap:.3e} (bound 1e-08)"),
        (stage_gap < 1e-8, f"stage-1 f''(0) gap={stage_gap:.3e} (bound 1e-08)"),
        (d < 1e-6, f"max discrepancy={d:.3e} (bound 1e-06)"),
    ])


def test_c08_buckled_bar(record):
    clauses = []
    roots = []
    for pair in ((12.9, 13.1), (14.05, 14.12)):
        res = solve_buckled_bar("dead", 50.0, pair)
        ref = solve_buckled_bar("dead", 50.0, pair, integrator="rk45")
        roots.append(res.theta_prime_0)
        d = float(np.max(np.abs(
            res.trajectory.states[:, 0]
            - sample_at(ref.trajectory, res.trajectory.times)[:, 0])))
        clauses.append((d < 1e-6,
                        f"dead P=50 from {pair}: root={res.theta_prime_0:.6f}"
                        f" |dtheta|={d:.3e} (<1e-06)"))
    clauses.append((abs(roots[0] - roots[1]) > 0.5,
                    f"distinct roots ({abs(roots[0] - roots[1]):.3f} apart)"))
    for load_type, pair in (("perpendicular_follower", (2.0, 2.5)),
                            ("tangent_follower", (0.05, 0.08))):
        res = solve_buckled_bar(load_type, 25.0, pair)
        gap = abs(res.alpha - res.trajectory.states[-1, 0])
        clauses.append((gap < 1e-10,
                        f"{load_type} P=25 |alpha-theta(1)|={gap:.3e} (<1e-10)"))
    verdict(record, "C08", "buckled bar shooting", clauses)


def test_c09_elastica(record):
    clauses = []
    for a, c in ((1.0, 0.5), (1.0, 1.2), (1.0, 1.35)):
        spec = problems.elastica(a, c)

        def slope(u, a=a, c=c):
            return (a * a - c * c + u * u) / math.sqrt(
                (c * c - u * u) * (2 * a * a - c * c + u * u))

        tr = march(spec.system, spec.t0, 0.9 * c, spec.x0, spec.lvim_defaults)
        ref = np.array([quad(slope, 0.0, x, epsabs=1e-13, epsrel=1e-13)[0]
                        for x in tr.times])
        d = float(np.max(np.abs(tr.states[:, 0] - ref)))
        regime = problems.elastica_regime(a, c)
        clauses.append((d < 1e-8,
                        f"regime {regime} (a={a},c={c}): max|dy|={d:.3e} (<1e-08)"))
    verdict(record, "C09", "elastica vs quadrature", clauses)


def test_c10_leo_efficiency(record, leo_runs):
    _, _, tr, oracle, wall = leo_runs
    iters = int(np.sum(tr.segment_iterations))
    steps = int(oracle.steps_accepted + oracle.steps_rejected)
    ratio = steps / iters
    verdict(record, "C10", "orbit efficiency direction", [
        (ratio >= 10.0,
         f"iterations={iters}, oracle steps={steps}, ratio={ratio:.2f} (need >=10)"),
        (wall < 60.0, f"runtime={wall:.1f}s (bound 60s)"),
    ])


def test_c11_leo_accuracy(record, leo_runs):
    model, spec, tr_frozen, _, _ = leo_runs
    point_mass = model.truncate(0)
    spec0 = problems.leo(point_mass)
    tr0 = march(spec0.system, spec0.t0, spec0.tf, spec0.x0,
                spec0.lvim_defaults)
    v2 = np.sum(tr0.states[:, 3:] ** 2, axis=1)
    pot = np.array([gravity_potential(point_mass, q) for q in tr0.states[:, :3]])
    energy = 0.5 * v2 + pot
    drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    tr_full = march(spec.system, spec.t0, spec.tf, spec.x0,
                    replace(spec.lvim_defaults, jacobian_mode="full"))
    gap = (np.linalg.norm(tr_frozen.states[-1, :3] - tr_full.states[-1, :3])
           / np.linalg.norm(tr_full.states[-1, :3]))
    verdict(record, "C11", "orbit accuracy", [
        (drift < 1e-10, f"point-mass energy drift={drift:.3e} (bound 1e-10)"),
        (gap < 1e-6, f"frozen vs full endpoint={gap:.3e} rel (bound 1e-06)"),
    ])


def test_c12_evaluation_accounting(record, pendulum_runs):
    tr, oracle, _, _ = pendulum_runs
    m = problems.pendulum().lvim_defaults.n_basis
    lvim_ok = tr.total_rhs_evals == int(np.sum(tr.segment_iterations)) * m
    rk_ok = (oracle.total_rhs_evals
             == 7 * oracle.steps_accepted + 6 * oracle.steps_rejected + 1)
    verdict(record, "C12", "work measured by rhs evaluations, not wall clock", [
        (lvim_ok, f"lvim evals={tr.total_rhs_evals}"
                  f"={int(np.sum(tr.segment_iterations))}x{m}"),
        (rk_ok, f"oracle evals={oracle.total_rhs_evals}"
                f"=7x{oracle.steps_accepted}+6x{oracle.steps_rejected}+1"),
    ])
