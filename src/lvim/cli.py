"""Command-line harness: run benchmarks, compare against the oracle, sweep.

Four subcommands.  ``run`` solves one benchmark with the collocation
solver and writes a report; ``compare`` additionally integrates the same
problem with the adaptive oracle and reports the per-dimension maximum
discrepancy; ``ops-check`` self-tests the operator construction;
``sweep`` emits parameter-study tables for external plotting.

Under ``run`` and ``compare`` each problem has a sub-parser holding
exactly the flags it reads (``PROBLEMS``), so a flag meant for another
problem is a usage error and ``lvim run <problem> --help`` lists only
that problem's flags.

Exit codes are a stable contract: 0 success, 1 usage error, 2 solver
non-convergence, 3 an ``--assert-below`` threshold was exceeded, 4
self-test failure.

Report formats: ``csv`` writes the sample table only (header row, ``t``
first, 17 significant digits, so emitted files parse and re-emit
byte-identically); ``json`` writes the full report object.  Wall-clock
time appears in reports but is never asserted anywhere: rhs-evaluation
and iteration counts are the efficiency metrics.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import problems
from .cheb import build_operators, cgl_nodes
from .core import _JACOBIAN_MODES, SolverConfig, Trajectory, march
from .errors import ConvergenceError, DomainViolationError
from .gravity import bundled_gravity_path, load_gravity_model
from .rk45 import RkConfig, rk45_integrate, sample_at
from .shooting import solve_buckled_bar

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_ASSERT = 3
EXIT_SELF_TEST = 4

# Default secant seeds per load case.  Dead loads above the buckling
# threshold have multiple equilibria; the two P=50 pairs land on distinct
# branches.  The tangent follower has no reachable nontrivial static
# branch, so its seeds sit next to the straight configuration.
BAR_GUESSES = {
    ("dead", 50.0): ((12.9, 13.1), (14.05, 14.12)),
    ("dead", 25.0): ((4.5, 4.75),),
    ("perpendicular_follower", 25.0): ((2.0, 2.5),),
    ("tangent_follower", 25.0): ((0.05, 0.08),),
}

ELASTICA_SWEEP_TRIPLES = ((1.0, 0.5), (1.0, 1.2), (1.0, 1.35))

# Retry ladder: a stalled iteration is retried at a 100x coarser tolerance
# (strongly growing solutions push the attainable correction floor above
# tight tolerances).  Applied only when the user did not pin --tol.
RETRY_TOL_FLOOR = 1e-6


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit with code 1 instead of 2, and every
    parser refuses a stray argument itself, with its own usage, rather than
    hand it up to the root parser."""

    def parse_known_args(self, args=None, namespace=None):
        self._argv = args
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        # A problem's flag written before the problem name is either left
        # over or has its value misread as the problem: name the flag.
        argv = self._argv or ()
        for i, arg in enumerate(argv):
            flag = arg.split("=", 1)[0]
            if flag.startswith("-") and flag not in self._option_string_actions:
                if any(later in PROBLEMS for later in argv[i + 1:]):
                    message = (f"{flag} is not a '{self.prog}' flag; problem flags go "
                               f"after the problem name: '{self.prog} <problem> {flag} ...'")
                break
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _table(header: Sequence[str], rows: np.ndarray) -> str:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_out(out: str) -> None:
    """Refuse, before any solve, an ``--out`` directory or a path in a missing or read-only one."""
    if os.path.isdir(out):
        raise ValueError(f"cannot write {out!r}: it is a directory")
    folder = os.path.dirname(out) or "."
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ValueError(f"cannot write {out!r}: no writable directory {folder!r}")


def _leo(gravity_file: str = "egm_test.txt",
         degree: Optional[int] = None) -> problems.ProblemSpec:
    """The orbit problem in a field read from a file path or bundled name."""
    if not os.path.exists(gravity_file):
        try:
            gravity_file = bundled_gravity_path(gravity_file)  # a bare name only
        except FileNotFoundError:
            raise ValueError(f"gravity file not found: {gravity_file!r}")
    model = load_gravity_model(gravity_file)
    return problems.leo(model if degree is None else model.truncate(degree))


def _late(name: str) -> Callable[..., problems.ProblemSpec]:
    """``problems.<name>``, looked up on every call, so that a wrapper set
    on the module later (a tracer, a test's monkeypatch) is the one run.
    The signature, and with it every default, stays the factory's own."""
    @functools.wraps(getattr(problems, name))
    def factory(**kwargs):
        return getattr(problems, name)(**kwargs)
    return factory


# Every problem flag, by argparse dest; the option is the dest with "-"
# for "_" after "--".  Each defaults to None, so a flag left unset leaves
# the problem's own value in force; nothing here repeats a default.
FLAGS = {
    "n": dict(type=int, help="collocation points per segment"),
    "dt": dict(type=float, help="segment length"),
    "tol": dict(type=float, help="iteration tolerance (pinning it disables retries)"),
    "jacobian": dict(choices=_JACOBIAN_MODES),
    "t_end": dict(type=float, help="integration end"),
    "rel_tol": dict(type=float, help="oracle relative tolerance"),
    "abs_tol": dict(type=float, help="oracle absolute tolerance"),
    "gravity_file": dict(help="coefficient file path or bundled name"),
    "degree": dict(type=int, help="truncate the gravity field"),
    "delta": dict(type=float, help="Mathieu stiffness offset"),
    "epsilon": dict(type=float, help="Mathieu modulation amplitude"),
    "a_param": dict(type=float, help="elastica a"),
    "c_param": dict(type=float, help="elastica c / white-dwarf density parameter"),
    "load_type": dict(choices=problems.BAR_LOAD_TYPES,
                      type=lambda s: s.replace("-", "_"),
                      help="bar load convention (- and _ both accepted)"),
    "load": dict(type=float, help="bar end load"),
    "guesses": dict(type=float, nargs=2, metavar=("A", "B"),
                    help="secant seeds for the bar shoot"),
}

# The solver flags: dest -> (the type of the object holding the setting,
# its field).  A run starts from the problem's ProblemSpec, its
# ``lvim_defaults`` SolverConfig and its ``rk_defaults`` RkConfig.
SETTINGS = {
    "n": (SolverConfig, "n_basis"),
    "dt": (SolverConfig, "dt"),
    "tol": (SolverConfig, "tol"),
    "jacobian": (SolverConfig, "jacobian_mode"),
    "t_end": (problems.ProblemSpec, "tf"),
    "rel_tol": (RkConfig, "rel_tol"),
    "abs_tol": (RkConfig, "abs_tol"),
}


@dataclass(frozen=True)
class _Problem:
    """A CLI problem: a factory returning its ProblemSpec, the flags that
    set the factory's arguments (argument name -> FLAGS dest), and the
    other flags it reads (FLAGS dests): by default every solver setting."""

    factory: Callable[..., problems.ProblemSpec]
    flags: Dict[str, str] = field(default_factory=dict)
    reads: Tuple[str, ...] = tuple(SETTINGS)

    def arguments(self, args=None) -> dict:
        """The factory arguments the flags set, factory defaults filled in."""
        params = inspect.signature(self.factory).parameters
        out = {}
        for arg, dest in self.flags.items():
            value = getattr(args, dest, None)
            out[arg] = params[arg].default if value is None else value
        return out


PROBLEMS = {
    "blasius": _Problem(_late("blasius"), {"xi_max": "t_end"}),
    "emden": _Problem(_late("emden_chandrasekhar")),
    "white-dwarf": _Problem(_late("white_dwarf"), {"c_param": "c_param"}),
    "mathieu": _Problem(_late("mathieu"), {"delta": "delta", "epsilon": "epsilon"}),
    "pendulum": _Problem(_late("pendulum")),
    # every shot spans s in [0, 1] at the oracle's stock tolerances, so the
    # bar takes no span or oracle-tolerance flag
    "buckled-bar": _Problem(_late("buckled_bar"),
                            {"load_type": "load_type", "load": "load"},
                            ("n", "dt", "tol", "jacobian", "guesses")),
    "elastica": _Problem(_late("elastica"), {"a": "a_param", "c": "c_param"}),
    "leo": _Problem(_leo, {"gravity_file": "gravity_file", "degree": "degree"}),
}


def _configure(spec: problems.ProblemSpec, args=None) -> dict:
    """The spec and its two configs, keyed by type, with every SETTINGS
    flag set in ``args`` applied."""
    held = {problems.ProblemSpec: spec, SolverConfig: spec.lvim_defaults,
            RkConfig: spec.rk_defaults}
    for dest, (owner, name) in SETTINGS.items():
        value = getattr(args, dest, None)
        if value is not None:
            held[owner] = replace(held[owner], **{name: value})
    return held


def _setting_values(held: dict) -> dict:
    """Every SETTINGS value in ``held``, keyed by flag dest."""
    return {dest: getattr(held[owner], name)
            for dest, (owner, name) in SETTINGS.items()}


def _bar_guesses(load_type: str, load: float) -> Tuple[float, float]:
    """Stock secant seeds of a load case: its first BAR_GUESSES pair."""
    return BAR_GUESSES.get((load_type, load), ((0.05, 0.1),))[0]


def _march_with_retry(spec, cfg: SolverConfig, tol_pinned: bool,
                      notes: List[str]) -> Tuple[Trajectory, SolverConfig]:
    attempt = cfg
    while True:
        try:
            tr = march(spec.system, spec.t0, spec.tf, spec.x0, attempt)
            break
        except ConvergenceError:
            if tol_pinned or attempt.tol >= RETRY_TOL_FLOOR * 0.99:
                raise
            attempt = replace(cfg, tol=min(100.0 * attempt.tol, RETRY_TOL_FLOOR))
    if attempt.tol != cfg.tol:
        notes.append(
            f"tolerance relaxed to {attempt.tol:g} after a convergence stall at "
            f"{cfg.tol:g}"
        )
    return tr, attempt


def _shoot_bar(args, kwargs: dict, cfg: SolverConfig, with_oracle: bool):
    """The bar is a boundary value problem: shoot it with the collocation
    solver and, for a comparison, again with the oracle.  Returns the
    trajectory, the oracle trajectory (or None) and the notes."""
    guesses = tuple(args.guesses) if args.guesses is not None \
        else _bar_guesses(**kwargs)
    shot = solve_buckled_bar(kwargs["load_type"], kwargs["load"], guesses,
                             config=cfg)
    note = (f"shoot: theta_prime_0={shot.theta_prime_0:.12g} "
            f"alpha={shot.alpha:.12g} residual={shot.residual:.3g} "
            f"outer={shot.outer_iters} inner={shot.inner_iters}")
    if not with_oracle:
        return shot.trajectory, None, [note]
    ref = solve_buckled_bar(kwargs["load_type"], kwargs["load"], guesses,
                            integrator="rk45")
    return (shot.trajectory, ref.trajectory,
            [f"{note} (oracle {ref.theta_prime_0:.12g})"])


def _growth_note(x0: np.ndarray, states: np.ndarray, notes: List[str]) -> None:
    start = max(1.0, float(np.max(np.abs(x0))))
    peak = float(np.max(np.abs(states)))
    if peak > 1e3 * start:
        notes.append(f"growth warning: solution magnitude reached {peak:.3g} "
                     f"({peak / start:.3g}x the initial scale)")


def cmd_solve(args) -> int:
    """``run`` and ``compare``: one solve path.  ``compare`` adds the
    oracle run, the per-dimension discrepancy and the ``--assert-below``
    gate."""
    t_start = time.perf_counter()
    compare = args.command == "compare"
    problem = PROBLEMS[args.problem]
    kwargs = problem.arguments(args)
    held = _configure(problem.factory(**kwargs), args)
    spec = held[problems.ProblemSpec]
    if args.problem == "buckled-bar":
        trajectory, oracle, notes = _shoot_bar(args, kwargs, held[SolverConfig],
                                               compare)
    else:
        notes = [spec.notes] if spec.notes else []
        trajectory, held[SolverConfig] = _march_with_retry(
            spec, held[SolverConfig], args.tol is not None, notes)
        oracle = rk45_integrate(spec.system, spec.t0, spec.tf, spec.x0,
                                held[RkConfig]) if compare else None
    if compare:
        reference = sample_at(oracle, trajectory.times)
        discrepancy = np.max(np.abs(trajectory.states - reference), axis=0)
    _growth_note(spec.x0, trajectory.states, notes)
    config = _setting_values(held)
    del config["t_end"]  # the span shows in the samples
    rows = np.column_stack([trajectory.times, trajectory.states])
    report = {
        "problem": args.problem,
        "config": config,
        "samples": rows.tolist(),
        "total_iterations": int(np.sum(trajectory.segment_iterations)),
        "total_rhs_evals": int(trajectory.total_rhs_evals),
        "wall_time_s": time.perf_counter() - t_start,
        "notes": "; ".join(notes),
    }
    if spec.energy is not None:
        energy = spec.energy(trajectory.states)
        report["energy_drift"] = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    if compare:
        report["max_discrepancy"] = [float(v) for v in discrepancy]
        report["oracle_steps_accepted"] = int(oracle.steps_accepted)
        report["oracle_steps_rejected"] = int(oracle.steps_rejected)
        report["oracle_rhs_evals"] = int(oracle.total_rhs_evals)
    if args.format == "json":
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    else:
        _emit(_table(("t",) + tuple(spec.state_names), rows), args.out)
    if compare and args.assert_below is not None:
        worst = float(np.max(discrepancy))
        if worst > args.assert_below:
            sys.stderr.write(f"assertion failed: max discrepancy {worst:.3e}"
                             f" exceeds {args.assert_below:.3e}\n")
            return EXIT_ASSERT
    return EXIT_OK


def _ops_exactness(n: int, dt: float) -> float:
    """Worst scaled residual of q (differentiation) and p (integration)
    over the full polynomial span the operators must reproduce.

    Each residual is divided by the magnitude of the exact result.  For
    q that scale is floored at ``2/dt``: the constant polynomial has a
    zero derivative, and ``q @ ones`` is a sum of entries as large as
    ``||q|| ~ N^2/dt``, so its roundoff grows like ``1/dt`` however q is
    built.  Every degree k >= 1 already has a scale of at least ``2/dt``
    (exactly ``2/dt`` for k = 1), so the floor only levels the k = 0 row
    with the others."""
    ops = build_operators(n, dt)
    tau = cgl_nodes(n)
    worst = 0.0
    for k in range(n):
        coef = np.zeros(k + 1)
        coef[k] = 1.0
        v = np.polynomial.chebyshev.chebval(tau, coef)
        dv = np.polynomial.chebyshev.chebval(
            tau, np.polynomial.chebyshev.chebder(coef)) * (2.0 / dt)
        iv = np.polynomial.chebyshev.chebval(
            tau, np.polynomial.chebyshev.chebint(coef, lbnd=-1.0)) * (dt / 2.0)
        worst = max(worst,
                    np.max(np.abs(ops.q_mat @ v - dv))
                    / max(1.0, 2.0 / dt, np.max(np.abs(dv))),
                    np.max(np.abs(ops.p_mat @ v - iv)) / max(1.0, np.max(np.abs(iv))))
    return worst


def _commutator_defect(n: int, dt: float) -> float:
    """Worst ``max|H - (P T - T P)| / (max|P| max(1, max|t|))`` over
    segments of length dt starting at t0 = 0, 17.3 and 1e4, with ``T`` the
    diagonal of the node times ``t = t0 + offsets``: H is built without
    absolute times and must equal the commutator wherever a segment
    starts."""
    ops = build_operators(n, dt)
    worst = 0.0
    for t0 in (0.0, 17.3, 1e4):
        t = t0 + ops.offsets
        commutator = ops.p_mat * t - t[:, np.newaxis] * ops.p_mat
        worst = max(worst, np.max(np.abs(ops.h_mat - commutator))
                    / (np.max(np.abs(ops.p_mat)) * max(1.0, np.max(np.abs(t)))))
    return worst


def cmd_ops_check(args) -> int:
    for n in args.n_list:
        build_operators(n, 1.3)  # refuses an N outside its range before any output
    all_ok = True
    print(f"{'N':>4}  {'exact(dt=1)':>12}  {'exact(dt=500)':>13}  "
          f"{'zero rows':>9}  {'commutator':>10}  verdict")
    for n in args.n_list:
        r1 = _ops_exactness(n, 1.0)
        r500 = _ops_exactness(n, 500.0)
        ops = build_operators(n, 1.3)
        zero_rows = (np.all(ops.p_mat[0] == 0.0)
                     and np.all(ops.h_mat[0] == 0.0))
        commutator = _commutator_defect(n, 1.3)
        ok = r1 < 1e-12 and r500 < 1e-9 and zero_rows and commutator < 1e-12
        all_ok = all_ok and ok
        print(f"{n:>4}  {r1:>12.3e}  {r500:>13.3e}  "
              f"{str(zero_rows):>9}  {commutator:>10.3e}  "
              f"{'pass' if ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_SELF_TEST


def _emit_curves(curves: List[Tuple[str, Trajectory]], header: Sequence[str],
                 out: Optional[str]) -> None:
    """Write labeled curves: with ``out``, one file per curve with the
    label inserted before the extension; else to stdout, each table after
    a ``# label`` line."""
    for label, tr in curves:
        text = _table(header, np.column_stack([tr.times, tr.states]))
        if out:
            stem, ext = os.path.splitext(out)
            _emit(text, f"{stem}-{label}{ext or '.csv'}")
        else:
            _emit(f"# {label}\n{text}", None)


def cmd_sweep(args) -> int:
    if args.kind == "pendulum-frequency":
        amps = [round(0.1 + 0.2 * k, 10) for k in range(16)]  # 0.1 .. 3.1
        if args.amplitudes is not None:  # "" included: no list is not the default list
            try:
                amps = [float(tok) for tok in args.amplitudes.split(",")]
            except ValueError:
                raise ValueError(f"--amplitudes takes numbers, got {args.amplitudes!r}") from None
        table = problems.pendulum_frequency_sweep(amps)
        _emit(_table(("amplitude", "frequency"), table), args.out)
        return EXIT_OK

    curves = []
    if args.kind == "elastica-regimes":
        for a, c in ELASTICA_SWEEP_TRIPLES:
            spec = problems.elastica(a, c)
            curves.append((f"regime{problems.elastica_regime(a, c)}",
                           march(spec.system, spec.t0, spec.tf, spec.x0,
                                 spec.lvim_defaults)))
        _emit_curves(curves, ("x", "y"), args.out)
        return EXIT_OK

    for load in (25.0, 50.0):  # bar-load
        for k, pair in enumerate(BAR_GUESSES[("dead", load)], 1):
            curves.append((f"dead-P{load:g}-branch{k}",
                           solve_buckled_bar("dead", load, pair).trajectory))
    _emit_curves(curves, ("s", "theta", "theta_prime"), args.out)
    return EXIT_OK


def _print_defaults() -> None:
    """Dump, per problem, the default of every value a flag can set, keyed
    by the flag's dest, as a bare run would use it."""
    table = {}
    for name, problem in PROBLEMS.items():
        kwargs = problem.arguments()
        values = _setting_values(_configure(problem.factory(**kwargs)))
        entry = {dest: values[dest] for dest in problem.reads if dest in values}
        entry.update((problem.flags[arg], value) for arg, value in kwargs.items())
        if "guesses" in problem.reads:
            entry["guesses"] = _bar_guesses(**kwargs)
        table[name] = entry
    json.dump(table, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="lvim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    for command, text in (("run", "solve one benchmark"),
                          ("compare", "solve and check against the oracle")):
        cmd_p = sub.add_parser(command, help=text)
        cmd_p.add_argument("--print-defaults", action="store_true",
                           help="dump every problem's default configuration and exit")
        problem_sub = cmd_p.add_subparsers(dest="problem", metavar="problem")
        for name, problem in PROBLEMS.items():
            prob_p = problem_sub.add_parser(
                name, help=problem.factory.__doc__.strip().splitlines()[0])
            for dest in dict.fromkeys(problem.reads + tuple(problem.flags.values())):
                prob_p.add_argument("--" + dest.replace("_", "-"), **FLAGS[dest])
            prob_p.add_argument("--out", help="output path (default stdout)")
            prob_p.add_argument("--format", choices=("csv", "json"), default="csv")
            if command == "compare":
                prob_p.add_argument("--assert-below", type=float,
                                    help="exit 3 if any discrepancy exceeds this")

    ops_p = sub.add_parser("ops-check", help="self-test operator construction")
    ops_p.add_argument("n_list", nargs="*", type=int, default=[5, 13, 26],
                       metavar="N")

    sweep_p = sub.add_parser("sweep", help="parameter-study tables")
    sweep_p.add_argument("kind", choices=("pendulum-frequency",
                                          "elastica-regimes", "bar-load"))
    sweep_p.add_argument("--amplitudes",
                         help="comma-separated pendulum amplitudes")
    sweep_p.add_argument("--out", help="output path; sweeps with several "
                         "curves insert a label before the extension")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("a subcommand is required")
        if args.command == "ops-check":
            return cmd_ops_check(args)
        if getattr(args, "out", None):
            _check_out(args.out)
        # no discrepancy compares greater than NaN, so that gate could never fail
        if getattr(args, "assert_below", None) is not None and math.isnan(args.assert_below):
            raise ValueError("--assert-below must be a number, not NaN")
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.print_defaults:
            _print_defaults()
            return EXIT_OK
        if args.problem is None:
            raise ValueError(f"a problem is required (one of: {', '.join(PROBLEMS)})")
        return cmd_solve(args)
    except SystemExit as exc:
        # argparse exits on usage errors and --help; keep the function API
        # returning an int either way
        return int(exc.code or 0)
    except (ConvergenceError, DomainViolationError) as exc:
        sys.stderr.write(f"lvim: solver failed: {exc}\n")
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        # OSError: an --out path that passed the check but cannot be written
        sys.stderr.write(f"lvim: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
