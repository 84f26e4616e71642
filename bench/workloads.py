"""The four benchmark workloads: inputs from a seed, one op, its checks.

Every workload draws its inputs from ``params(seed)``: a fixed pair of
anchor inputs first (the stock input and the hardest corner of the input
range), then seeded points stratified over the range, so every run covers
the range evenly whatever the seed.  ``params(None)`` returns the stock
input alone, which the calibration tests compare with the ROADMAP baseline.

``prepare`` builds what an op consumes (gravity model, problem specs, CLI
argument lists); ``execute`` runs one op and times its lvim and oracle
stages; ``verify`` checks the outputs and returns an :class:`OpRecord`.
Functions of the program are looked up through their modules at call time,
so the tracer's wrappers are seen when it is installed.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

import lvim
from lvim import cli, core, problems, rk45, shooting

clock = time.perf_counter


@dataclass
class OpRecord:
    """Outcome of one verified op; counts are the program's own return values."""

    failures: list = field(default_factory=list)
    seconds: float = 0.0
    solve_s: float = 0.0
    oracle_s: float = 0.0
    rel_discrepancy: float = math.nan
    counts: dict = field(default_factory=dict)
    anchor: bool = False
    # wall seconds from the op's start to the end of its checks
    total_s: float = 0.0
    # reference-kernel seconds around the op (see ``run.reference_kernel``)
    kernel_s: float = math.nan


def rel_discrepancy(states: np.ndarray, reference: np.ndarray) -> float:
    """Worst ``|lvim - oracle|`` over the nodes, per component scaled by
    ``max(1, peak |oracle|)`` of that component, maximized over components."""
    scale = np.maximum(1.0, np.max(np.abs(reference), axis=0))
    return float(np.max(np.max(np.abs(states - reference), axis=0) / scale))


def _stratified(rng, n: int) -> np.ndarray:
    """One uniform point in each of ``n`` equal strata of [0, 1), in seeded order."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def _check_trajectory(tr, n_basis: int, failures: list) -> dict:
    iters = int(np.sum(tr.segment_iterations))
    if not np.all(np.isfinite(tr.states)):
        failures.append("lvim states not finite")
    if tr.total_rhs_evals != iters * n_basis:
        failures.append(f"lvim rhs evals {tr.total_rhs_evals} != "
                        f"{iters} iterations x N={n_basis}")
    return {"segments": int(tr.segment_iterations.size), "iterations": iters,
            "rhs_evals": int(tr.total_rhs_evals)}


def _check_oracle(orc, failures: list) -> dict:
    acc, rej = int(orc.steps_accepted), int(orc.steps_rejected)
    if not np.all(np.isfinite(orc.states)):
        failures.append("oracle states not finite")
    if orc.total_rhs_evals != 7 * acc + 6 * rej + 1:
        failures.append(f"oracle rhs evals {orc.total_rhs_evals} != "
                        f"7x{acc} + 6x{rej} + 1")
    return {"oracle_accepted": acc, "oracle_rejected": rej,
            "oracle_rhs_evals": int(orc.total_rhs_evals)}


def _check_discrepancy(rec: OpRecord, bound: float) -> None:
    if not rec.rel_discrepancy <= bound:
        rec.failures.append(f"relative discrepancy {rec.rel_discrepancy:.3e} "
                            f"above the sanity bound {bound:g}")


class Workload:
    name = ""
    # relative lvim-vs-oracle discrepancy above which an op counts as failed
    sanity_bound = 0.0
    # span names the traced run must record at least once
    required_spans: tuple = ()

    def params(self, seed):
        raise NotImplementedError

    def prepare(self, params, out_dir):
        raise NotImplementedError

    def execute(self, item):
        raise NotImplementedError

    def verify(self, item, raw) -> OpRecord:
        raise NotImplementedError

    def session(self):
        return nullcontext()


# Every workload marches, integrates the oracle and samples it.
_COMMON_SPANS = ("bench.op", "core.march", "core.iterate", "core.residual",
                 "core.eval_rhs", "core.eval_jac", "problems.rhs", "problems.jac",
                 "problems.build", "cheb.build_operators", "rk45.integrate",
                 "rk45.sample_at")


class _IvpWorkload(Workload):
    """``march``, then ``rk45_integrate``, then ``sample_at`` at the lvim nodes."""

    def execute(self, item):
        spec = item["spec"]
        t0 = clock()
        tr = core.march(spec.system, spec.t0, spec.tf, spec.x0, spec.lvim_defaults)
        t1 = clock()
        orc = rk45.rk45_integrate(spec.system, spec.t0, spec.tf, spec.x0,
                                  spec.rk_defaults)
        t2 = clock()
        ref = rk45.sample_at(orc, tr.times)
        return {"tr": tr, "orc": orc, "ref": ref, "solve_s": t1 - t0,
                "oracle_s": t2 - t1}

    def verify(self, item, raw) -> OpRecord:
        rec = OpRecord(solve_s=raw["solve_s"], oracle_s=raw["oracle_s"],
                       anchor=item["anchor"])
        tr, orc, ref = raw["tr"], raw["orc"], raw["ref"]
        rec.counts.update(_check_trajectory(
            tr, item["spec"].lvim_defaults.n_basis, rec.failures))
        rec.counts.update(_check_oracle(orc, rec.failures))
        rec.counts["queries"] = int(tr.times.size)
        if not np.all(np.isfinite(ref)):
            rec.failures.append("sampled oracle not finite")
        rec.rel_discrepancy = rel_discrepancy(tr.states, ref)
        _check_discrepancy(rec, self.sanity_bound)
        return rec


class Pendulum(_IvpWorkload):
    name = "pendulum-separatrix"
    sanity_bound = 1e-2
    required_spans = _COMMON_SPANS
    stock_theta = 3.1329
    lo, hi = 3.0, 3.141
    n_seeded = 6

    def params(self, seed):
        if seed is None:
            return [{"theta0": self.stock_theta, "anchor": True}]
        rng = np.random.default_rng(seed)
        out = [{"theta0": self.stock_theta, "anchor": True},
               {"theta0": self.hi, "anchor": True}]
        for u in _stratified(rng, self.n_seeded):
            out.append({"theta0": float(self.lo + u * (self.hi - self.lo)),
                        "anchor": False})
        return out

    def prepare(self, params, out_dir):
        spec = problems.pendulum()
        return [{"spec": replace(spec, x0=np.array([p["theta0"], 0.0])),
                 "anchor": p["anchor"]} for p in params]


class LeoDegree8(_IvpWorkload):
    name = "leo-degree8"
    sanity_bound = 1e-5
    required_spans = _COMMON_SPANS + ("gravity.accel", "gravity.load")
    spread = 0.01
    n_seeded = 5

    def params(self, seed):
        stock = {"radius_scale": 1.0, "speed_scale": 1.0, "anchor": True}
        if seed is None:
            return [stock]
        rng = np.random.default_rng(seed)
        out = [stock, {"radius_scale": 1.0 + self.spread,
                       "speed_scale": 1.0 + self.spread, "anchor": True}]
        # Latin hypercube: one radius and one speed stratum per point
        for ur, uv in zip(_stratified(rng, self.n_seeded),
                          _stratified(rng, self.n_seeded)):
            out.append({"radius_scale": float(1.0 + self.spread * (2 * ur - 1)),
                        "speed_scale": float(1.0 + self.spread * (2 * uv - 1)),
                        "anchor": False})
        return out

    def prepare(self, params, out_dir):
        model = lvim.load_gravity_model(lvim.bundled_gravity_path("egm8.txt"))
        spec = problems.leo(model)
        items = []
        for p in params:
            x0 = np.array(spec.x0)
            x0[:3] *= p["radius_scale"]
            x0[3:] *= p["speed_scale"]
            tf = problems.orbital_period(model, x0)
            items.append({"spec": replace(spec, x0=x0, tf=tf),
                          "anchor": p["anchor"]})
        return items


class _StageClock:
    """Times the CLI's ``march`` and ``rk45_integrate`` calls of one op.

    The CLI op is a single ``main`` call, so its lvim and oracle stages are
    timed where ``lvim.cli`` looks the two functions up.
    """

    def __init__(self):
        self.march = []   # (seconds, trajectory or None) per attempt
        self.oracle = []  # (seconds, trajectory)

    def reset(self):
        self.march.clear()
        self.oracle.clear()

    def _timed(self, fn, log):
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                log.append((clock() - t0, None))
                raise
            log.append((clock() - t0, out))
            return out
        return timed

    @contextmanager
    def installed(self):
        saved = cli.march, cli.rk45_integrate
        cli.march = self._timed(saved[0], self.march)
        cli.rk45_integrate = self._timed(saved[1], self.oracle)
        try:
            yield self
        finally:
            cli.march, cli.rk45_integrate = saved


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class MathieuChartCli(Workload):
    name = "mathieu-chart-cli"
    sanity_bound = 1e-3
    required_spans = _COMMON_SPANS + ("cli.main",)
    stock = (0.5, 0.1)
    # Deepest passing point of the chart: its march needs all three rungs
    # of the retry ladder.
    corner = (0.3, 0.5)
    # Points with epsilon >= 2 delta or so exit 2 today: the march stalls on
    # every rung.  The ladder band stops 0.1 short of that edge, so no op
    # fails, and every point in it needs two or three marches.
    band_delta = (0.3, 0.46)
    band_offsets = (-0.2, -0.1)   # epsilon - 2 delta
    # Outside the tongue's growing core: one march at the stock tolerance.
    calm_delta = (0.6, 0.8)
    calm_eps = (0.4, 1.2)
    # Six of ten ops per cycle take one march, so the median lvim stage time
    # stays inside the one-march mode whatever the seed.
    n_band, n_calm = 3, 5

    def __init__(self):
        self.clock = _StageClock()

    def params(self, seed):
        stock = {"delta": self.stock[0], "epsilon": self.stock[1], "anchor": True}
        if seed is None:
            return [stock]
        rng = np.random.default_rng(seed)
        out = [stock, {"delta": self.corner[0], "epsilon": self.corner[1],
                       "anchor": True}]

        def span(lo_hi, u):
            return lo_hi[0] + u * (lo_hi[1] - lo_hi[0])

        for ud, uo in zip(_stratified(rng, self.n_band),
                          _stratified(rng, self.n_band)):
            delta = span(self.band_delta, ud)
            out.append({"delta": float(delta),
                        "epsilon": float(2.0 * delta + span(self.band_offsets, uo)),
                        "anchor": False})
        for ud, ue in zip(_stratified(rng, self.n_calm),
                          _stratified(rng, self.n_calm)):
            out.append({"delta": float(span(self.calm_delta, ud)),
                        "epsilon": float(span(self.calm_eps, ue)),
                        "anchor": False})
        return out

    def prepare(self, params, out_dir):
        report = os.path.join(out_dir, "mathieu-report.json")
        return [{"argv": ["compare", "mathieu", "--delta", _fmt(p["delta"]),
                          "--epsilon", _fmt(p["epsilon"]), "--format", "json",
                          "--out", report],
                 "report": report, "anchor": p["anchor"]} for p in params]

    def session(self):
        return self.clock.installed()

    def execute(self, item):
        self.clock.reset()
        if os.path.exists(item["report"]):
            os.remove(item["report"])
        code = cli.main(item["argv"])
        return {"code": code, "march": list(self.clock.march),
                "oracle": list(self.clock.oracle)}

    def verify(self, item, raw) -> OpRecord:
        rec = OpRecord(anchor=item["anchor"],
                       solve_s=sum(s for s, _ in raw["march"]),
                       oracle_s=sum(s for s, _ in raw["oracle"]))
        attempts = len(raw["march"])
        rec.counts["march_attempts"] = attempts
        if raw["code"] != 0:
            rec.failures.append(f"lvim compare exited {raw['code']}")
            return rec
        with open(item["report"], encoding="utf-8") as fh:
            text = fh.read()
        report = json.loads(text)
        rec.counts["report_bytes"] = len(text.encode())
        samples = np.array(report["samples"], dtype=float)
        n = report["config"]["n"]
        tr = raw["march"][-1][1]
        orc = raw["oracle"][-1][1] if raw["oracle"] else None
        if tr is None or orc is None:
            rec.failures.append("exit 0 without a trajectory and an oracle run")
            return rec
        if not np.all(np.isfinite(samples)):
            rec.failures.append("report samples not finite")
        if samples.shape != (tr.times.size, 1 + tr.states.shape[1]):
            rec.failures.append(f"report has {samples.shape} samples, the march "
                                f"returned {tr.times.size} nodes")
        rec.counts.update(_check_trajectory(tr, n, rec.failures))
        rec.counts.update(_check_oracle(orc, rec.failures))
        rec.counts["queries"] = int(samples.shape[0])
        expect = {"total_iterations": rec.counts["iterations"],
                  "total_rhs_evals": rec.counts["rhs_evals"],
                  "oracle_steps_accepted": rec.counts["oracle_accepted"],
                  "oracle_steps_rejected": rec.counts["oracle_rejected"],
                  "oracle_rhs_evals": rec.counts["oracle_rhs_evals"]}
        for key, value in expect.items():
            if report[key] != value:
                rec.failures.append(f"report {key}={report[key]} but the run "
                                    f"returned {value}")
        disc = np.array(report["max_discrepancy"], dtype=float)
        scale = np.maximum(1.0, np.max(np.abs(samples[:, 1:]), axis=0))
        rec.rel_discrepancy = float(np.max(disc / scale))
        _check_discrepancy(rec, self.sanity_bound)
        return rec


class BarShooting(Workload):
    name = "bar-shooting"
    sanity_bound = 1e-4
    required_spans = _COMMON_SPANS + ("shooting.solve", "shooting.shoot_scalar")
    # The CLI's default case and the only case with an outer load-angle sweep.
    # The seeded ops are the other stock cases, so the slow follower op runs
    # once per cycle and a run holds enough cycles for steady medians.
    anchors = (("dead", 50.0, (12.9, 13.1)),
               ("perpendicular_follower", 25.0, (2.0, 2.5)))
    # Seeded ops scale both secant seeds by one factor within this share.
    # At 0.5 % the second dead P=50 pair needs 6 to 17 shots depending on
    # the factor, so the seed, not the program, would set the timing; within
    # 0.1 % every case keeps its shot count to within two.
    guess_jitter = 0.001
    # Seeded draws per cycle of each (load type, load); one where not named.
    # Op times cluster by case (tangent < dead P=25 < dead P=50 <
    # perpendicular), and a median that falls between two clusters jumps
    # with noise.  Three dead P=50 draws put the middle of every cycle inside
    # the dead P=50 cluster for the lvim stage, the oracle stage and the op.
    # A case's draws are stratified over the jitter range.
    draws = {("dead", 50.0): 3}

    def _cases(self):
        return [(load_type, load, pair)
                for (load_type, load), pairs in cli.BAR_GUESSES.items()
                for pair in pairs
                if (load_type, load, pair) not in self.anchors]

    def params(self, seed):
        def entry(load_type, load, pair, anchor):
            return {"load_type": load_type, "load": float(load),
                    "guesses": [float(pair[0]), float(pair[1])], "anchor": anchor}

        if seed is None:
            return [entry(*self.anchors[0], True)]
        rng = np.random.default_rng(seed)
        out = [entry(*case, True) for case in self.anchors]
        draws = [(case, u) for case in self._cases()
                 for u in _stratified(rng, self.draws.get(case[:2], 1))]
        for i in rng.permutation(len(draws)):
            (load_type, load, pair), u = draws[i]
            s = 1.0 + self.guess_jitter * (2.0 * u - 1.0)
            out.append(entry(load_type, load, (pair[0] * s, pair[1] * s), False))
        return out

    def prepare(self, params, out_dir):
        items = []
        for p in params:
            spec = problems.buckled_bar(p["load_type"], p["load"])
            items.append(dict(p, guesses=tuple(p["guesses"]),
                              n_basis=spec.lvim_defaults.n_basis))
        return items

    def execute(self, item):
        args = (item["load_type"], item["load"], item["guesses"])
        t0 = clock()
        shot = shooting.solve_buckled_bar(*args, integrator="lvim")
        t1 = clock()
        ref_shot = shooting.solve_buckled_bar(*args, integrator="rk45")
        t2 = clock()
        ref = rk45.sample_at(ref_shot.trajectory, shot.trajectory.times)
        return {"shot": shot, "ref_shot": ref_shot, "ref": ref,
                "solve_s": t1 - t0, "oracle_s": t2 - t1}

    def verify(self, item, raw) -> OpRecord:
        rec = OpRecord(solve_s=raw["solve_s"], oracle_s=raw["oracle_s"],
                       anchor=item["anchor"])
        shot, ref_shot, ref = raw["shot"], raw["ref_shot"], raw["ref"]
        rec.counts.update(_check_trajectory(shot.trajectory, item["n_basis"],
                                            rec.failures))
        rec.counts.update(_check_oracle(ref_shot.trajectory, rec.failures))
        rec.counts.update(shots=shot.inner_iters + ref_shot.inner_iters,
                          outer_sweeps=shot.outer_iters + ref_shot.outer_iters,
                          queries=int(shot.trajectory.times.size))
        values = (shot.theta_prime_0, ref_shot.theta_prime_0, shot.alpha,
                  ref_shot.alpha, shot.residual, ref_shot.residual)
        if not all(math.isfinite(v) for v in values) or not np.all(np.isfinite(ref)):
            rec.failures.append("shot result not finite")
        root_gap = abs(shot.theta_prime_0 - ref_shot.theta_prime_0) \
            / max(1.0, abs(ref_shot.theta_prime_0))
        rec.rel_discrepancy = max(rel_discrepancy(shot.trajectory.states, ref),
                                  root_gap)
        _check_discrepancy(rec, self.sanity_bound)
        return rec


WORKLOADS = {w.name: w for w in (Pendulum(), LeoDegree8(), MathieuChartCli(),
                                 BarShooting())}
