"""In-memory span recorder for the traced benchmark run.

The tracer wraps public functions of the ``lvim`` modules from outside: a
wrapped name is replaced in every ``lvim`` module namespace that holds the
original function object, so callers that imported the name with ``from
.core import march`` see the wrapper as well.  Nothing under ``src/``
changes.

Each span stores its name, start, end, parent span, op id, whether the call
returned normally, and up to two counts read from the call's arguments or
result (iterations, steps, queries).  Spans are kept in flat arrays while
the run lasts and written out once at the end.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name, counts).  ``counts`` names the hook that
# turns a call into two integers recorded with the span.  An attribute with
# a dot is a method on a class of that module.
BOUNDARIES = (
    ("lvim.core", "march", "core.march", "trajectory"),
    ("lvim.core", "iterate_segment", "core.iterate", None),
    ("lvim.core", "iterate_segment_frozen", "core.iterate", None),
    ("lvim.core", "residual", "core.residual", None),
    ("lvim.core", "OdeSystem.eval_rhs", "core.eval_rhs", None),
    ("lvim.core", "OdeSystem.eval_jac", "core.eval_jac", None),
    ("lvim.cheb", "build_operators", "cheb.build_operators", None),
    ("lvim.gravity", "gravity_accel", "gravity.accel", None),
    ("lvim.gravity", "load_gravity_model", "gravity.load", None),
    ("lvim.rk45", "rk45_integrate", "rk45.integrate", "rk_steps"),
    ("lvim.rk45", "sample_at", "rk45.sample_at", "queries"),
    ("lvim.shooting", "solve_buckled_bar", "shooting.solve", None),
    ("lvim.shooting", "shoot_scalar", "shooting.shoot_scalar", None),
    ("lvim.cli", "main", "cli.main", None),
    ("lvim.problems", "pendulum", "problems.build", "spec"),
    ("lvim.problems", "leo", "problems.build", "spec"),
    ("lvim.problems", "mathieu", "problems.build", "spec"),
    ("lvim.problems", "buckled_bar", "problems.build", "spec"),
)


def _count_trajectory(args, kwargs, out):
    return int(np.sum(out.segment_iterations)), int(out.total_rhs_evals)


def _count_rk_steps(args, kwargs, out):
    return int(out.steps_accepted), int(out.steps_rejected)


def _count_queries(args, kwargs, out):
    return int(np.size(args[1] if len(args) > 1 else kwargs["times"])), 0


class Tracer:
    """Records spans for the calls it wraps while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self.c1 = array("i")
        self.c2 = array("i")
        self.op_id = -1
        self.missing: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span_name: str, counts=None):
        """Return ``fn`` wrapped so every call records one span."""
        nid = self.name_id(span_name)
        clock = time.perf_counter
        names, parents, ops, starts, ends, oks, c1, c2 = (
            self.name, self.parent, self.op, self.start, self.end, self.ok,
            self.c1, self.c2)
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0.0)
            oks.append(0)
            c1.append(0)
            c2.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            oks[i] = 1
            if counts is not None:
                c1[i], c2[i] = counts(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, span_name: str):
        """Record a span around a block of the benchmark's own code.

        Same bookkeeping as :meth:`wrap`, which keeps its copy inline because
        it runs on every rhs call.
        """
        nid = self.name_id(span_name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.ok.append(0)
        self.c1.append(0)
        self.c2.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()
        self.ok[i] = 1

    def _wrap_spec_factory(self, fn, span_name):
        rhs_wrap = self.wrap
        traced_factory = self.wrap(fn, span_name)

        def factory(*args, **kwargs):
            spec = traced_factory(*args, **kwargs)
            system = spec.system
            system.rhs = rhs_wrap(system.rhs, "problems.rhs")
            if system.jac is not None:
                system.jac = rhs_wrap(system.jac, "problems.jac")
            return spec

        factory.__wrapped__ = fn
        return factory

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every boundary in ``BOUNDARIES`` in all loaded lvim modules."""
        hooks = {"trajectory": _count_trajectory, "rk_steps": _count_rk_steps,
                 "queries": _count_queries, None: None}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lvim" or n.startswith("lvim."))]
        for mod_name, attr, span_name, counts in BOUNDARIES:
            home = sys.modules.get(mod_name)
            owner_name, _, method = attr.partition(".")
            original = getattr(home, owner_name, None) if home else None
            if method:
                original = vars(original).get(method) if original else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if method:
                self._set(getattr(home, owner_name), method,
                          self.wrap(original, span_name))
                continue
            if counts == "spec":
                wrapped = self._wrap_spec_factory(original, span_name)
            else:
                wrapped = self.wrap(original, span_name, hooks[counts])
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def columns(self) -> dict:
        """The recorded spans as numpy views on the span arrays."""
        return {key: np.frombuffer(getattr(self, key), dtype=dtype)
                for key, dtype in (("name", np.uint16), ("parent", np.int32),
                                   ("op", np.int32), ("start", np.float64),
                                   ("end", np.float64), ("ok", np.int8),
                                   ("c1", np.int32), ("c2", np.int32))}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.columns())


# Per-layer metrics: name -> unit.  Counts and seconds are per traced op;
# shares are percentages of the traced ops' wall time.
LAYER_UNITS = {
    "problems.rhs.calls": "count",
    "problems.rhs.us_per_call": "us",
    "core.eval_rhs.calls": "count",
    "core.eval_rhs.self_s": "s",
    "gravity.accel.calls": "count",
    "gravity.accel.share": "%",
    "core.iterate.self_s": "s",
    "core.residual.self_s": "s",
    "problems.jac.calls": "count",
    "problems.jac.s": "s",
    "core.segments": "count",
    "core.iterations": "count",
    "core.iters_per_segment": "ratio",
    "core.rhs_evals": "count",
    "core.converged_ratio": "ratio",
    "core.march.calls": "count",
    "core.march.self_s": "s",
    "cheb.build_operators.calls": "count",
    "cheb.build_operators.s": "s",
    "rk45.self_s": "s",
    "rk45.steps_accepted": "count",
    "rk45.steps_rejected": "count",
    "rk45.accept_ratio": "ratio",
    "rk45.rhs_evals": "count",
    "rk45.sample_at.queries": "count",
    "rk45.sample_at.us_per_query": "us",
    "cli.march_attempts": "count",
    "cli.march_failed": "count",
    "cli.retry_useful_ratio": "ratio",
    "cli.self_share": "%",
    "cli.report_bytes": "bytes",
    "shooting.shots": "count",
    "shooting.outer_sweeps": "count",
    "shooting.marches_per_solve": "ratio",
    "shooting.self_share": "%",
    "problems.build_s": "s",
    "gravity.load.share": "%",
}


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer, records) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and the span count per name.

    ``records`` are the traced ops' :class:`OpRecord` objects; only the CLI
    report size comes from them, everything else from the spans.
    """
    cols = tracer.columns()
    names = tracer.names
    name, parent, ok = cols["name"], cols["parent"], cols["ok"]
    dur = cols["end"] - cols["start"]
    nested = parent >= 0
    self_t = dur - np.bincount(parent[nested], weights=dur[nested],
                               minlength=dur.size)
    parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
    ids = {n: i for i, n in enumerate(names)}

    def sel(span, parents=None):
        mask = name == ids.get(span, -1)
        if parents is not None:
            mask &= np.isin(parent_name, [ids.get(p, -1) for p in parents])
        return mask

    n_ops = max(1, int(sel("bench.op").sum()))
    op_time = float(dur[sel("bench.op")].sum())
    integrations = ("core.march", "rk45.integrate")

    def per_op(x):
        return float(x) / n_ops

    def share(t):
        return 100.0 * _ratio(t, op_time)

    iterate, residual = sel("core.iterate"), sel("core.residual", ["core.iterate"])
    lvim_rhs = sel("core.eval_rhs", ["core.residual", "core.eval_jac"])
    rk = sel("rk45.integrate")
    acc, rej = cols["c1"][rk].sum(), cols["c2"][rk].sum()
    sample = sel("rk45.sample_at")
    queries = cols["c1"][sample].sum()

    cli_march = np.flatnonzero(sel("core.march", ["cli.main"]))
    attempts = np.bincount(parent[cli_march], minlength=dur.size)
    wins = np.bincount(parent[cli_march], weights=ok[cli_march], minlength=dur.size)
    retried = attempts > 1
    retries = int(np.sum(attempts[retried] - 1))
    useful = int(np.sum(wins[retried] > 0))

    shots = sum(int(sel(n, ["shooting.shoot_scalar"]).sum()) for n in integrations)
    solve_marches = sum(int(sel(n, ["shooting.shoot_scalar", "shooting.solve"]).sum())
                        for n in integrations)
    reports = [r.counts.get("report_bytes", 0) for r in records]

    values = {
        "problems.rhs.calls": per_op(sel("problems.rhs").sum()),
        "problems.rhs.us_per_call": 1e6 * _ratio(self_t[sel("problems.rhs")].sum(),
                                                 sel("problems.rhs").sum()),
        "core.eval_rhs.calls": per_op(sel("core.eval_rhs").sum()),
        "core.eval_rhs.self_s": per_op(self_t[sel("core.eval_rhs")].sum()),
        "gravity.accel.calls": per_op(sel("gravity.accel").sum()),
        "gravity.accel.share": share(dur[sel("gravity.accel")].sum()),
        "core.iterate.self_s": per_op(self_t[iterate].sum()),
        "core.residual.self_s": per_op(self_t[sel("core.residual")].sum()),
        "problems.jac.calls": per_op(sel("problems.jac").sum()),
        "problems.jac.s": per_op(dur[sel("problems.jac")].sum()),
        "core.segments": per_op(iterate.sum()),
        "core.iterations": per_op(residual.sum()),
        "core.iters_per_segment": _ratio(residual.sum(), iterate.sum()),
        "core.rhs_evals": per_op(lvim_rhs.sum()),
        "core.converged_ratio": _ratio(ok[iterate].sum(), iterate.sum()),
        "core.march.calls": per_op(sel("core.march").sum()),
        "core.march.self_s": per_op(self_t[sel("core.march")].sum()),
        "cheb.build_operators.calls": per_op(sel("cheb.build_operators").sum()),
        "cheb.build_operators.s": per_op(dur[sel("cheb.build_operators")].sum()),
        "rk45.self_s": per_op(self_t[rk].sum()),
        "rk45.steps_accepted": per_op(acc),
        "rk45.steps_rejected": per_op(rej),
        "rk45.accept_ratio": _ratio(acc, acc + rej),
        "rk45.rhs_evals": per_op(sel("core.eval_rhs", ["rk45.integrate"]).sum()),
        "rk45.sample_at.queries": per_op(queries),
        "rk45.sample_at.us_per_query": 1e6 * _ratio(dur[sample].sum(), queries),
        "cli.march_attempts": per_op(cli_march.size),
        "cli.march_failed": per_op(cli_march.size - ok[cli_march].sum()),
        "cli.retry_useful_ratio": _ratio(useful, retries),
        "cli.self_share": share(self_t[sel("cli.main")].sum()),
        "cli.report_bytes": float(np.mean(reports)) if reports else 0.0,
        "shooting.shots": per_op(shots),
        "shooting.outer_sweeps": per_op(sel("shooting.shoot_scalar").sum()),
        "shooting.marches_per_solve": _ratio(solve_marches,
                                             sel("shooting.solve").sum()),
        "shooting.self_share": share(
            self_t[sel("shooting.solve") | sel("shooting.shoot_scalar")].sum()),
        "problems.build_s": per_op(dur[sel("problems.build")].sum()),
        "gravity.load.share": 100.0 * _ratio(dur[sel("gravity.load")].sum(),
                                             dur[sel("bench.build")].sum()),
    }
    metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}
    counts = {n: int(np.sum(name == i)) for i, n in enumerate(names)}
    return metrics, counts
