"""Seeded closed-loop benchmark of lvim, with an optional traced run.

Run from the repository root:

    python3 bench/run.py --workload pendulum-separatrix --seed 1 --seconds 25 --trace 0

One process, one caller: each op starts after the previous one has been
verified.  Inputs come from ``--seed`` only.  The run measures whole cycles
of its inputs for about ``--seconds``, checks every op, prints one line per
metric and, as the last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Times are reported in
reference seconds: each op's wall time is rescaled by a fixed reference
kernel timed right before and after it (see ``reference_kernel``), so that
a shared host's drifting speed cancels.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs about half the time untraced, then
traces the rest of the run and reports per-layer metrics.  A full record of the run,
with its environment stamp, goes to ``.bench_out/``.

This module imports only the standard library at the top, so the set-up
probe can time ``import lvim`` in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# fresh interpreters timed per run; set-up time is their median
SETUP_PROBES = 9
# Reference kernel: steps per timing, and the seconds one timing is taken
# to last on the reference host.  Wall seconds times
# REF_KERNEL_S / (kernel seconds measured around them) are reference seconds.
REF_KERNEL_STEPS = 2000
REF_KERNEL_S = 0.05
# After each op the kernel runs for at least this share of the op's wall
# time (and at least once), so a long op is bracketed by as many timings.
REF_SHARE = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "solve_s_p50": "s",
    "oracle_s_p50": "s",
    "max_rel_discrepancy": "ratio",
}


def pin_environment() -> dict:
    """One BLAS thread and no ``LVIM_THREADS``, for this process and its children."""
    incoming = os.environ.pop("LVIM_THREADS", None)
    for var in BLAS_PIN:
        os.environ[var] = "1"
    return {"blas_threads": {var: "1" for var in BLAS_PIN},
            "lvim_threads": "unset",
            "lvim_threads_incoming": incoming}


def import_program(root: str):
    """Import lvim from ``<root>/src`` and the benchmark's own modules."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lvim", "__init__.py")):
        raise SystemExit(f"bench: no lvim sources under {src!r}; "
                         "run from the repository root")
    sys.path.insert(0, src)
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    import lvim
    if not os.path.abspath(lvim.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: lvim imported from {lvim.__file__!r}, "
                         f"not from {src!r}")


def reference_kernel() -> float:
    """Seconds of one fixed run of classical Runge-Kutta steps on a 2-vector.

    Its work is the program's kind of work (a Python rhs building small
    arrays, small-array arithmetic, an error norm, a growing list of states,
    now and then a 26x26 product), but it calls no ``lvim`` code, so a
    change to the program never changes it; only the host's speed does.
    """
    import numpy as np

    def rhs(t, y):
        return np.array([y[1], -(0.5 - 0.2 * math.cos(2.0 * t)) * y[0]])

    a = np.full((26, 26), 1.0 / 26.0)
    y, t, h = np.array([1.0, 0.0]), 0.0, 1e-3
    states, err = [], 0.0
    t0 = time.perf_counter()
    for i in range(REF_KERNEL_STEPS):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y_new = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        err = max(err, float(np.max(np.abs(y_new - y))))
        y, t = y_new, t + h
        states.append(y)
        if i % 64 == 0:
            a @ a
    np.array(states)
    elapsed = time.perf_counter() - t0
    if not math.isfinite(err + float(y[0])):
        raise RuntimeError("reference kernel diverged")
    return elapsed


def host_speed(budget: float) -> float:
    """Mean seconds of reference-kernel runs, repeated for ``budget`` seconds."""
    times = [reference_kernel()]
    while sum(times) < budget:
        times.append(reference_kernel())
    return statistics.fmean(times)


def setup_probe(root: str, workload: str, seed: int) -> float:
    """Seconds from ``import lvim`` until the workload's inputs are built."""
    t0 = time.perf_counter()
    import_program(root)
    import workloads
    wl = workloads.WORKLOADS[workload]
    wl.prepare(wl.params(seed), os.path.join(root, OUT_DIR))
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> tuple:
    """Wall seconds of each set-up probe, and the kernel seconds around it."""
    wall, kernel = [], [reference_kernel()]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        wall.append(float(proc.stdout.strip().splitlines()[-1]))
        kernel.append(reference_kernel())
    return wall, [(a + b) / 2 for a, b in zip(kernel, kernel[1:])]


def timed_loop(wl, items, seconds: float, tracer=None):
    """Run whole cycles over ``items`` for about ``seconds`` (at least one).

    The first cycle's time fixes the cycle count, so every run ends on a
    whole cycle and sees the same mix of inputs.  The reference kernel runs
    before the first op and after each op, for ``REF_SHARE`` of the op's
    time; an op's ``kernel_s`` is the mean of the two kernel means around it.
    """
    from contextlib import nullcontext
    from workloads import OpRecord, clock

    records = []
    t_start = clock()
    kernel = host_speed(0.0)
    cycles = 1
    while len(records) < cycles * len(items):
        for item in items:
            span = nullcontext()
            if tracer is not None:
                tracer.op_id = len(records)
                span = tracer.span("bench.op")
            t0 = clock()
            try:
                with span:
                    raw = wl.execute(item)
                t1 = clock()
                rec = wl.verify(item, raw)
            except Exception as exc:  # a raising op is a failed op, not a crash
                t1 = clock()
                rec = OpRecord(anchor=item["anchor"], failures=[
                    f"{type(exc).__name__}: {exc}",
                    traceback.format_exc(limit=4)])
            rec.seconds = t1 - t0
            rec.total_s = clock() - t0
            after = host_speed(REF_SHARE * rec.total_s)
            rec.kernel_s = (kernel + after) / 2
            kernel = after
            records.append(rec)
        if len(records) == len(items):
            cycles = max(1, round(seconds / (clock() - t_start)))
    return records, clock() - t_start


def _median_ranked(records, key) -> float:
    """Median of ``key`` over all ops, with failed ops ranked slowest."""
    ranked = sorted(records, key=lambda r: (bool(r.failures), key(r)))
    mid = ranked[(len(ranked) - 1) // 2: len(ranked) // 2 + 1]
    if any(r.failures for r in mid):
        return max(key(r) for r in records)
    return statistics.fmean(key(r) for r in mid)


def ops_rate(records, reference: bool = True) -> float:
    """Verified ops per second of op time (execution and checks).

    In reference seconds unless ``reference`` is false.
    """
    busy = sum(r.total_s * (REF_KERNEL_S / r.kernel_s if reference else 1.0)
               for r in records)
    return sum(not r.failures for r in records) / busy


def end_to_end(records, setup: tuple, reference: bool = True) -> dict:
    """The end-to-end metrics, in reference seconds unless ``reference`` is false."""
    def scaled(attr):
        if reference:
            return lambda r: getattr(r, attr) * REF_KERNEL_S / r.kernel_s
        return lambda r: getattr(r, attr)

    ok = [r for r in records if not r.failures]
    anchors = [r.rel_discrepancy for r in ok if r.anchor]
    setup_wall, setup_kernel = setup
    values = {
        "setup_s": statistics.median(
            w * (REF_KERNEL_S / k if reference else 1.0)
            for w, k in zip(setup_wall, setup_kernel)),
        "ops_per_s": ops_rate(records, reference),
        "op_s_p50": _median_ranked(records, scaled("seconds")),
        "solve_s_p50": _median_ranked(records, scaled("solve_s")),
        "oracle_s_p50": _median_ranked(records, scaled("oracle_s")),
        # an unverified anchor already fails the run; 1.0 keeps the line valid JSON
        "max_rel_discrepancy": max(anchors, default=1.0),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def environment_stamp(root: str, pin: dict) -> dict:
    import importlib.metadata
    import platform

    import numpy as np

    head = None
    if os.path.exists(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        head = proc.stdout.strip() or None
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    src = os.path.join(root, "src", "lvim")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                lines += fh.read().count(b"\n")
    return {
        "git_head": head,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "src_lines": lines,
        **pin,
    }


def silent_layers(wl, counts: dict) -> list:
    """Span names the workload must record that the traced run never saw."""
    return [name for name in wl.required_spans if counts.get(name, 0) == 0]


def run_benchmark(root: str, workload: str, seed: int, seconds: float,
                  trace: bool) -> dict:
    """Run one workload and return the full record of the run."""
    import workloads
    from tracer import Tracer, layer_metrics

    wl = workloads.WORKLOADS[workload]
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    params = wl.params(seed)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "params": params}

    if not trace:
        setup = measure_setup(workload, seed)
        items = wl.prepare(params, out_dir)
        with wl.session():
            records, elapsed = timed_loop(wl, items, seconds)
        record["setup_probes_s"], record["setup_kernel_s"] = setup
        metrics = end_to_end(records, setup)
        record["wall_metrics"] = end_to_end(records, setup, reference=False)
        problems = []
    else:
        items = wl.prepare(params, out_dir)
        with wl.session():
            base, base_elapsed = timed_loop(wl, items, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.build"):
                items = wl.prepare(params, out_dir)
            with wl.session():
                records, elapsed = timed_loop(
                    wl, items, seconds - base_elapsed, tracer)
        finally:
            tracer.uninstall()
        metrics, counts = layer_metrics(tracer, records)
        rate = ops_rate(records)
        metrics["trace_overhead_ratio"] = {
            "value": ops_rate(base) / rate if rate else 0.0, "unit": "ratio"}
        problems = [f"traced run recorded no {name} span"
                    for name in silent_layers(wl, counts)]
        record["untraced_ops"] = len(base)
        record["spans"] = counts
        record["unwrapped"] = tracer.missing
        tracer.save(os.path.join(out_dir, f"{workload}-spans.npz"))

    failed = sum(bool(r.failures) for r in records)
    record["ops"] = [
        {"seconds": r.seconds, "solve_s": r.solve_s, "oracle_s": r.oracle_s,
         "total_s": r.total_s, "kernel_s": r.kernel_s,
         "rel_discrepancy": r.rel_discrepancy, "anchor": r.anchor,
         "counts": r.counts, "failures": r.failures}
        for r in records]
    record["elapsed_s"] = elapsed
    record["problems"] = problems
    record["result"] = {"correct": failed == 0 and not problems,
                        "attempted": len(records), "failed": failed,
                        "metrics": metrics}
    return record


def _print_summary(record: dict) -> None:
    ops = record["ops"]
    result = record["result"]
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{result['attempted']} ops in {record['elapsed_s']:.2f} s, "
          f"{result['failed']} failed (op_fail_ratio "
          f"{result['failed'] / result['attempted']:.4g})")
    wall = record.get("wall_metrics", {})
    for name, m in result["metrics"].items():
        line = f"  {name:<34} {m['value']:.6g} {m['unit']}"
        if name in wall and m["unit"] in ("s", "1/s"):
            line += f"  (wall {wall[name]['value']:.6g})"
        print(line)
    kernel = statistics.median(o["kernel_s"] for o in ops)
    print(f"  reference kernel median {kernel:.4g} s, reference {REF_KERNEL_S} s: "
          f"times above are in reference seconds")
    ok = sorted(o["seconds"] * REF_KERNEL_S / o["kernel_s"]
                for o in ops if not o["failures"])
    if not record["trace"]:
        print(f"  op_s_p50 is the median of {len(ops)} ops")
        if len(ok) >= 100:  # a tail needs at least ten ops beyond it
            print(f"  op_s_p90 {ok[int(0.9 * len(ok))]:.6g} s")
    worst = max((o["rel_discrepancy"] for o in ops if not o["failures"]),
                default=math.nan)
    print(f"  worst relative discrepancy over all verified ops {worst:.3e}")
    for op in ops:
        for failure in op["failures"][:1]:
            print(f"  FAILED op: {failure}")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    env = record["env"]
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()
                                if k != "blas_threads"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = os.getcwd()
    pin = pin_environment()
    if args.setup_probe:
        print(repr(setup_probe(root, args.workload, args.seed)))
        return 0
    import_program(root)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    record = run_benchmark(root, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    record["env"] = environment_stamp(root, pin)
    path = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}"
                                       f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
    _print_summary(record)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
