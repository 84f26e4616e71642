"""Segment-wise variational iteration engine.

The solver advances an initial value problem one fixed-length segment at
a time.  On each segment the state trajectory is a Chebyshev interpolant
through its node values ``x`` (an ``M x D`` array), and the node values
are corrected iteratively:

    x <- x + J.(H @ r) - P @ r,      r = Q @ x - g(t, x)

where ``r`` is the collocation residual, ``P``/``Q``/``H`` come from
:mod:`lvim.cheb`, and ``J.`` applies the rhs Jacobian row-wise, either
re-evaluated at every node and iteration ("full" mode) or evaluated once
per segment at the incoming state ("frozen" mode).  The first rows of
``P`` and ``H`` are identically zero, so the first node never moves and
the initial condition is preserved bit-for-bit.  The rhs sees each node
as Python floats (the point contract of :class:`OdeSystem`), and so does
the Jacobian.

A sweep runs one of two ways, chosen by the grid's size ``N^2 D``.  Up to
``_COMPILED_MAX_SIZE`` it is straight-line code over Python floats,
compiled once per ``(N, D, jacobian mode)`` from one source template and
bound once per operator set to the entries of Q, P and H: each sum of
``r``, ``H r``, ``P r`` and ``J.(H r)`` is written out left to right, so
no value depends on which BLAS kernel a numpy product dispatches.  Above
the bound the node values stay an ``M x D`` array and the three operator
products go through ``ndarray.dot``, which reaches the BLAS routine of the
``@`` operator, with the same bits, at about half the per-call cost.

The first iterate is the incoming state at every node, unless the caller
passes a guess: node states of a nearby solve on the same segment grid
(the shots of :mod:`lvim.shooting` seed each other this way).  The guess
is shifted so that its first node is the incoming state exactly; it moves
the iterate the stop rule accepts, not the fixed point.

The update is a feedback-accelerated Picard iteration: dropping the
Jacobian term entirely would leave plain Picard in integrated form, and
the ``J H`` term supplies the first-order correction that speeds up
convergence on longer segments.  The :class:`Trajectory` a march returns
reads itself between its nodes and backwards.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

import numpy as np

from .cheb import _MAX_N_BASIS, OperatorSet, _ref_operators, build_operators
from .errors import ConvergenceError, DomainViolationError, checked

__all__ = [
    "OdeSystem",
    "SolverConfig",
    "SegmentResult",
    "Trajectory",
    "residual",
    "iterate_segment",
    "march",
]

_JACOBIAN_MODES = ("full", "frozen")

# Most segments one march takes.  The stock spans need at most 500; a span
# that needs more than this is refused before the segment list is built.
_MAX_SEGMENTS = 10**7

# Largest grid size N^2 * D that sweeps in compiled Python floats; above it
# numpy's products are cheaper per sweep (the per-sweep table in the README's
# numerical notes).
_COMPILED_MAX_SIZE = 200


def _max_of(a: np.ndarray) -> float:
    """``float(np.max(a))`` of a non-negative array, taken exactly over a
    Python list (cheaper on small arrays); a NaN anywhere gives NaN."""
    v = a.ravel().tolist()
    return math.nan if math.isnan(sum(v)) else max(v)


def _max_lines(name: str, terms: List[str]) -> List[str]:
    """Source lines that set ``name`` to the largest of the non-negative
    expressions ``terms``, taken in order.  The first NaN makes ``name``
    NaN and no later term replaces it, so a NaN anywhere fails a ``<``
    stop test."""
    lines = [f"{name} = {terms[0]}"]
    for term in terms[1:]:
        lines += [f"q = {term}", f"if q > {name} or q != q:", f"    {name} = q"]
    return lines


def _is_stack(j, m: int, d: int) -> bool:
    """Whether ``j`` is ``m`` lists of ``d`` lists of ``d`` Python floats."""
    if type(j) is not list or len(j) != m:
        return False
    for node in j:
        if type(node) is not list or len(node) != d:
            return False
        for row in node:
            if type(row) is not list or len(row) != d:
                return False
            for v in row:
                if type(v) is not float:
                    return False
    return True


def _overflow(what: str, t: float, x: np.ndarray) -> DomainViolationError:
    # math.exp and friends raise OverflowError where numpy would return inf
    return DomainViolationError(f"{what} overflowed at t={float(t)!r}",
                                t=t, state=np.array(x, dtype=float))


def _start_state(system: OdeSystem, x0) -> np.ndarray:
    """``x0`` as a float array, once its shape is checked to be ``(D,)``."""
    x = np.asarray(x0, dtype=float)
    if x.shape != (system.dim,):
        raise ValueError(f"initial state has shape {x.shape}, expected ({system.dim},)")
    return x


def _checked_start(system: OdeSystem, t0: float, tf: float, x0) -> np.ndarray:
    """``x0`` as a float array, once the span and the state are checked:
    ``tf > t0``, both finite, and a finite ``(D,)`` state."""
    if not (math.isfinite(t0) and math.isfinite(tf) and tf > t0):
        raise ValueError(f"need finite tf > t0, got t0={t0}, tf={tf}")
    x = _start_state(system, x0)
    if not np.all(np.isfinite(x)):
        raise DomainViolationError("initial state is not finite", t=t0, state=x)
    return x


@dataclass
class OdeSystem:
    """A first-order system ``dx/dt = rhs(t, x)`` with its Jacobian.

    ``rhs(t, x)`` takes one point in Python floats, ``t`` and a list ``x``
    of D, and returns a list of D floats, so no oracle stage or sweep node
    builds an array for it; :meth:`eval_rhs` converts any other value (an
    array, a list of ints) that numpy reads as a ``(D,)`` float array.
    ``jac`` takes all nodes of a sweep at once, in the same Python floats:
    ``jac(t_nodes, X)`` with ``t_nodes`` a list of M floats and ``X`` M
    lists of D floats returns the M x D x D nested list of the row
    Jacobians, row ``i`` a function of ``(t_nodes[i], X[i])`` only;
    :meth:`eval_jac` converts any other value that numpy reads as an
    ``(M, D, D)`` float array.  The rhs stays per point because every rhs
    evaluation is counted one by one (``rhs_evals``, and the benchmark's
    span count); ``jac_evals`` counts the :meth:`eval_jac` calls.  Both
    must be pure; the only state an instance mutates is its own evaluation
    counters, which is why the engine funnels every rhs call through
    :meth:`eval_rhs` and every Jacobian call through :meth:`eval_jac`.
    The iteration needs the analytic ``jac`` and refuses a system without
    one; :func:`lvim.rk45.rk45_integrate` never reads it.
    """

    dim: int
    rhs: Callable[[float, List[float]], List[float]]
    jac: Optional[Callable[[List[float], List[List[float]]],
                           List[List[List[float]]]]] = None
    rhs_evals: int = field(default=0, compare=False)
    jac_evals: int = field(default=0, compare=False)

    def eval_rhs(self, t: float, x: List[float]) -> List[float]:
        self.rhs_evals += 1
        try:
            g = self.rhs(t, x)
            # any value but a list of D Python floats (a None stands in for
            # a value of no such list) is read by numpy as a (D,) array
            for v in g if type(g) is list and len(g) == self.dim else (None,):
                if type(v) is not float:
                    a = np.asarray(g, dtype=float)
                    if a.shape != (self.dim,):
                        raise ValueError(f"rhs returned shape {a.shape}, "
                                         f"expected (D,) = ({self.dim},)")
                    g = a.tolist()
                    break
        except OverflowError as exc:
            raise _overflow("right-hand side", t, x) from exc
        except ValueError as exc:
            # math.sin(inf) and friends raise where numpy would return NaN:
            # at a state that overflowed that is leaving the domain, at a
            # finite one (a shape refusal, a guard) the error stands
            if all(map(math.isfinite, x)):
                raise
            raise DomainViolationError(
                f"right-hand side is undefined at a non-finite state at t={float(t)!r}",
                t=t, state=np.array(x, dtype=float)) from exc
        except DomainViolationError as exc:
            # a kernel the rhs calls (gravity's reference-sphere guard) sees
            # neither the time nor the whole state; this evaluation does
            if exc.t is None:
                exc.t, exc.state = t, np.array(x, dtype=float)
            raise
        # a finite sum implies finite entries; only a sum that is not
        # finite (possibly by overflow) needs the element-wise test
        if not math.isfinite(sum(g)) and not all(map(math.isfinite, g)):
            raise DomainViolationError(
                f"right-hand side returned a non-finite value at t={float(t)!r}",
                t=t, state=np.array(x, dtype=float))
        return g

    def eval_jac(self, t_nodes, x):
        """The Jacobian stack at ``M`` nodes, in the form of ``x``: given
        ``t_nodes`` a list of M floats and ``x`` M lists of D floats (the
        compiled sweep's form), the M x D x D nested list of floats; given
        ``x`` an ``(M, D)`` array (and ``t_nodes`` of shape ``(M,)``), the
        ``(M, D, D)`` array.  ``jac`` itself always takes lists."""
        self.jac_evals += 1
        as_array = isinstance(x, np.ndarray)
        if as_array:
            t_nodes, x = np.asarray(t_nodes, dtype=float).tolist(), x.tolist()
        m = len(t_nodes)
        try:
            j = self.jac(t_nodes, x)
        except OverflowError as exc:
            # name the first node that overflows on its own
            for i in range(m):
                try:
                    self.jac(t_nodes[i:i + 1], x[i:i + 1])
                except OverflowError:
                    raise _overflow("Jacobian", t_nodes[i], x[i]) from exc
            raise
        if as_array or not _is_stack(j, m, self.dim):
            a = np.asarray(j, dtype=float)
            expected = (m, self.dim, self.dim)
            if a.shape != expected:
                raise ValueError(f"jac returned shape {a.shape}, expected (M, D, D) "
                                 f"= {expected}: jac(t_nodes, X) takes all nodes at once")
            return a if as_array else a.tolist()
        return j


@dataclass(frozen=True)
class SolverConfig:
    """Iteration settings for one solve.

    ``n_basis`` and ``dt`` fix the per-segment grid, ``tol`` is the
    absolute max-norm bound on the node corrections that counts as
    converged, and ``jacobian_mode`` selects between re-evaluating the
    Jacobian at every node ("full") or once per segment ("frozen").
    """

    n_basis: int
    dt: float
    tol: float
    max_iter: int = 100
    jacobian_mode: str = "full"

    def __post_init__(self):
        checked("n_basis", self.n_basis, 2, _MAX_N_BASIS, integer=True)
        checked("dt", self.dt, 0.0, strict=True)
        checked("tol", self.tol, 0.0, strict=True)
        checked("max_iter", self.max_iter, 1, integer=True)
        if self.jacobian_mode not in _JACOBIAN_MODES:
            raise ValueError(
                f"jacobian_mode must be one of {_JACOBIAN_MODES}, "
                f"got {self.jacobian_mode!r}")


@dataclass
class SegmentResult:
    """Node states of one converged segment (a segment that does not
    converge raises) plus its per-sweep correction history."""

    node_states: np.ndarray         # (M, D), first row equals the incoming state
    iterations: int
    correction_history: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass
class Trajectory:
    """Sampled solution of a march: every collocation node in increasing
    time order, segment joins once, and the sweeps of each segment.  It
    reads itself between nodes (:meth:`_between`, for
    :func:`lvim.rk45.sample_at`) and backwards (:meth:`mirrored`);
    :class:`lvim.rk45.RkTrajectory` overrides both."""

    times: np.ndarray               # (n,)
    states: np.ndarray              # (n, D)
    segment_iterations: np.ndarray  # (n_segments,) of int
    total_rhs_evals: int

    def _between(self, query: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Values at times ``query`` off the nodes (none divides by zero),
        ``pos`` their ``searchsorted`` positions in ``times``, each on the
        interpolant of its segment: the barycentric formula with the CGL
        weights of :mod:`lvim.cheb` (Berrut & Trefethen, SIAM Review 2004),
        on ``N = (len(times) - 1) / n_segments + 1`` nodes; segment ``k``
        owns nodes ``k*(N-1) .. k*(N-1) + N-1``, the end ones the span's slack."""
        n_seg = len(self.segment_iterations)
        per, rem = divmod(self.times.size - 1, n_seg)
        if rem:
            raise ValueError(f"{self.times.size} samples do not split into {n_seg} segments")
        seg = np.minimum(np.maximum(pos - 1, 0) // per, n_seg - 1)
        rows = (seg * per)[:, np.newaxis] + np.arange(per + 1)
        c = _ref_operators(per + 1)[-1] / (query[:, np.newaxis] - self.times[rows])
        return np.einsum("qj,qjd->qd", c, self.states[rows]) / c.sum(axis=1)[:, np.newaxis]

    def mirrored(self, signs) -> Trajectory:
        """The run read backwards over its span: time ``t`` becomes
        ``times[0] + times[-1] - t``, states are multiplied by ``signs`` (one
        per component), the per-segment counts reversed; the rhs count stays."""
        return replace(self, times=(self.times[0] + self.times[-1]) - self.times[::-1],
                       states=self.states[::-1] * signs,
                       segment_iterations=self.segment_iterations[::-1])


def _kernel_source(n: int, dim: int, mode: Optional[str]) -> str:
    """The source of ``bind`` for a grid of ``n`` nodes and ``dim``
    components: ``bind(q)``, given the entries of Q as a flat row-major
    list, returns the residual (``mode`` None), and ``bind(p, h)``, given
    those of P and H, the sweep in ``mode``, with the entries as closure
    values.

    ``residual(x, g)`` takes the node rows ``x`` and the rhs rows ``g`` (n
    lists of ``dim`` floats each) and returns the entries of ``r = Q x - g``
    in one flat list, row by row.  ``sweep(x, r, j)`` takes the node rows,
    that list and the Jacobian (n x dim x dim in full mode, the one dim x
    dim matrix in frozen mode) and returns the new rows ``x + c`` and the
    max-norm of the correction ``c = J.(H r) - P r`` (:func:`_max_lines`).
    Every sum runs left to right over its terms, with the names
    ``x{i}_{d}``, ``g{i}_{d}``, ``r{i}_{d}``, ``a{i}_{d}`` (``H r``) and
    ``c{i}_{d}``.  Only what is zero by construction is left out: the
    first rows of P and H, so the sweep forms rows 1 to n - 1 and returns
    row 0 as it is, and the diagonal of H (``P_ij (t_j - t_i)``).  No
    expression nests deeper with the grid, so any grid compiles.
    """
    comps, inner = range(dim), range(1, n)

    def names(form, rows, cols):  # one name per (row, column), in row order
        return [[form.format(i=i, d=d) for d in cols] for i in rows]

    def target(table):  # an unpacking target of nested rows of names
        if isinstance(table, str):
            return table
        return "(" + "".join(target(t) + ", " for t in table) + ")"

    def flat(form, rows, cols):  # a flat unpacking target, row by row
        return "".join(form.format(i=i, d=d) + ", " for i in rows for d in cols)

    def display(table):  # a list display of rows of expressions
        return "[" + ", ".join("[" + ", ".join(row) + "]" for row in table) + "]"

    def dot(mat, i, vec, d, skip=None):  # row i of a matrix times column d of vec
        return " + ".join(f"{mat}{i}_{k} * {vec}{k}_{d}" for k in range(n) if k != skip)

    x = names("x{i}_{d}", range(n), comps)
    if mode is None:
        g = names("g{i}_{d}", range(n), comps)
        r = [f"{dot('q', i, 'x', d)} - g{i}_{d}" for i in range(n) for d in comps]
        return "\n".join([
            "def bind(q):",
            f"    {flat('q{i}_{d}', range(n), range(n))}= q",
            "    def residual(x, g):",
            f"        {target(x)} = x",
            f"        {target(g)} = g",
            f"        return [{', '.join(r)}]",
            "    return residual"])

    # entry (a, b) of node i's Jacobian: j{a}_{b} frozen, j{i}_{a}_{b} full
    if mode == "frozen":
        jac = target(names("j{i}_{d}", comps, comps))
        form = "j{a}_{b}"
    else:
        jac = target(["_"] + [names(f"j{i}_{{i}}_{{d}}", comps, comps) for i in inner])
        form = "j{i}_{a}_{b}"
    lines = ["def bind(p, h):",
             f"    {flat('p{i}_{d}', inner, range(n))}= p[{n}:]",
             f"    {flat('h{i}_{d}', inner, range(n))}= h[{n}:]",
             "    def sweep(x, r, j):",
             f"        {target(x)} = x",
             f"        {flat('r{i}_{d}', range(n), comps)}= r",
             f"        {jac} = j"]
    for i in inner:
        lines += [f"        a{i}_{d} = {dot('h', i, 'r', d, skip=i)}" for d in comps]
        lines += [f"        c{i}_{a} = "
                  + " + ".join(form.format(i=i, a=a, b=b) + f" * a{i}_{b}" for b in comps)
                  + f" - ({dot('p', i, 'r', a)})" for a in comps]
    new = [x[0]] + [[f"x{i}_{d} + c{i}_{d}" for d in comps] for i in inner]
    lines += ["        " + line
              for line in _max_lines("corr", [f"abs(c{i}_{d})" for i in inner for d in comps])]
    lines += [f"        return {display(new)}, corr", "    return sweep"]
    return "\n".join(lines)


@functools.lru_cache(maxsize=None)
def _binder(n: int, dim: int, mode: Optional[str]) -> Callable:
    """The ``bind`` of :func:`_kernel_source`, compiled once per grid and
    mode."""
    kind = "residual" if mode is None else f"{mode} sweep"
    namespace = {}
    exec(compile(_kernel_source(n, dim, mode), f"<lvim {kind}, N {n}, dim {dim}>", "exec"),
         namespace)
    return namespace["bind"]


def _bound(ops: OperatorSet, dim: int, mode: Optional[str]) -> Callable:
    """The kernel of :func:`_binder` for ``ops``'s grid, bound to its
    matrices once per operator set (in ``ops.kernels``)."""
    kernel = ops.kernels.get((dim, mode))
    if kernel is None:
        mats = (ops.q_mat,) if mode is None else (ops.p_mat, ops.h_mat)
        kernel = ops.kernels[dim, mode] = _binder(ops.offsets.size, dim, mode)(
            *(a.ravel().tolist() for a in mats))
    return kernel


def _compiled(n: int, dim: int) -> bool:
    """Whether a grid of ``n`` nodes and ``dim`` components sweeps in
    compiled Python floats (else over numpy arrays)."""
    return n * n * dim <= _COMPILED_MAX_SIZE


def _numpy_sweep(ops: OperatorSet, frozen: bool, x: np.ndarray, r: np.ndarray,
                 j: np.ndarray):
    """The sweep over arrays: ``x`` updated in place by ``c = J.(H r) - P
    r``, and the max-norm of ``c``."""
    hr = ops.h_mat.dot(r)
    pr = ops.p_mat.dot(r)
    if frozen:
        # not .dot: numpy's dot takes a 1 x 1 Jacobian (D = 1) as a scalar
        # and OpenBLAS's axpy skips a zero scalar, so 0 * inf would give 0
        delta = hr @ j.T - pr
    else:
        delta = np.einsum("jab,jb->ja", j, hr) - pr
    x += delta
    return x, _max_of(np.abs(delta))


def residual(ops: OperatorSet, system: OdeSystem, node_states, t_nodes):
    """Collocation residual ``Q @ x - g`` at the segment nodes, in the form
    of ``node_states``.

    Column ``d`` is the derivative of the interpolant of state component
    ``d`` minus the rhs component, both sampled at the nodes.  The rhs is
    evaluated node-by-node in ascending time order, at ``t_nodes``, on the
    Python floats of each node (the point contract of :class:`OdeSystem`).
    Given ``node_states`` as M lists of D floats and ``t_nodes`` as a list
    (the compiled sweep's form), the residual comes back as one flat list
    of its M·D entries, row by row, each sum taken left to right over
    Python floats; given an ``(M, D)`` array and ``t_nodes`` of shape
    ``(M,)``, as an array, through numpy's product.
    """
    rhs = system.eval_rhs
    if type(node_states) is list:
        g = [rhs(t, x_j) for t, x_j in zip(t_nodes, node_states)]
        return _bound(ops, system.dim, None)(node_states, g)
    x = np.asarray(node_states, dtype=float)
    g = [rhs(t, x_j) for t, x_j in zip(t_nodes.tolist(), x.tolist())]
    return ops.q_mat.dot(x) - np.array(g)


def iterate_segment(ops: OperatorSet, system: OdeSystem, x0: np.ndarray,
                    config: SolverConfig, t_start: float = 0.0,
                    guess: Optional[np.ndarray] = None) -> SegmentResult:
    """Iterate one segment starting at ``t_start`` to convergence.

    The first iterate is ``x0`` at every node, or, given an ``(M, D)``
    ``guess``, the guess shifted by ``x0 - guess[0]`` with its first row
    set to ``x0`` exactly.

    ``config.jacobian_mode`` picks the Jacobian in the feedback term:
    "full" re-evaluates it at every node of every sweep (one ``jac`` call
    per sweep), "frozen" evaluates it once at the incoming state (one
    call per segment, on one node) and reuses it (the two agree
    for linear constant-coefficient systems).  A grid of ``N^2 D`` up to
    ``_COMPILED_MAX_SIZE`` sweeps in compiled Python floats, a larger one
    over numpy arrays (see the module docstring).  Stops as soon as the
    max-norm of the node correction drops below ``config.tol`` (a NaN in
    it never does) and raises :class:`ConvergenceError` if the iteration
    budget runs out.  Raises ``ValueError`` for a system without ``jac``
    and for a guess of any other shape, before any rhs call.
    """
    x0 = _start_state(system, x0)
    if system.jac is None:
        raise ValueError("the iteration needs the system's analytic jac")
    t_nodes = t_start + ops.offsets
    m = t_nodes.size
    frozen = config.jacobian_mode == "frozen"

    x = None
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        if guess.shape != (m, system.dim):
            raise ValueError(f"segment guess has shape {guess.shape}, "
                             f"expected ({m}, {system.dim})")
        x = guess + (x0 - guess[0])
        x[0] = x0
    if _compiled(m, system.dim):
        sweep = _bound(ops, system.dim, config.jacobian_mode)
        t_nodes = t_nodes.tolist()
        # the sweep builds new rows, so the first iterate's rows may be shared
        x = [x0.tolist()] * m if x is None else x.tolist()
    else:
        sweep = functools.partial(_numpy_sweep, ops, frozen)
        if x is None:
            x = np.repeat(x0[np.newaxis, :], m, axis=0)
    if frozen:
        j = system.eval_jac(t_nodes[:1], x[:1])[0]

    history = []
    for it in range(1, config.max_iter + 1):
        r = residual(ops, system, x, t_nodes)
        if not frozen:
            j = system.eval_jac(t_nodes, x)
        x, corr = sweep(x, r, j)
        history.append(corr)
        if corr < config.tol:
            return SegmentResult(node_states=np.asarray(x, dtype=float), iterations=it,
                                 correction_history=np.array(history))
    raise ConvergenceError(
        f"no convergence within {config.max_iter} iterations on the segment "
        f"starting at t={t_nodes[0]:g} (last correction {corr:.3e}); "
        "reducing dt usually restores convergence")


def march(system: OdeSystem, t0: float, tf: float, x0: np.ndarray,
          config: SolverConfig, guess: Optional[np.ndarray] = None) -> Trajectory:
    """Integrate ``[t0, tf]`` by marching fixed-length segments.

    The span is split into ``dt``-sized segments plus one truncated final
    segment when the span is not an exact multiple (a span shorter than
    ``dt`` is one segment).  One operator set is built per distinct
    segment length.  The returned trajectory samples every collocation
    node once (segment joins are deduplicated) and records per-segment
    iteration counts and the rhs evaluations spent.

    ``guess`` seeds the iteration with node states on this march's own
    grid, shaped like the ``states`` of the trajectory it returns (the
    ``states`` of an earlier march of the same span and config fit):
    segment ``k`` starts from rows ``k(N-1)`` to ``k(N-1) + N-1``, shifted
    onto its incoming state (see :func:`iterate_segment`).  A guess of any
    other shape, or not finite, raises ``ValueError`` before any rhs call.
    """
    x0 = _checked_start(system, t0, tf, x0)

    dt = config.dt
    span = tf - t0
    if not span / dt <= _MAX_SEGMENTS:
        raise ValueError(f"a span of {span:g} in segments of dt = {dt:g} "
                         f"needs more than {_MAX_SEGMENTS} segments")
    n_full = int(np.floor(span / dt + 1e-12))
    rem = span - n_full * dt
    lens = [dt] * n_full
    if rem > 1e-12 * dt or n_full == 0:
        lens.append(rem)
    step = config.n_basis - 1
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        expected = (len(lens) * step + 1, system.dim)
        if guess.shape != expected:
            raise ValueError(f"guess has shape {guess.shape}, expected the "
                             f"march's node states {expected}")
        if not np.all(np.isfinite(guess)):
            raise ValueError("guess is not finite")
    ops_by_len = {length: build_operators(config.n_basis, length)
                  for length in set(lens)}

    times = [t0]
    states = [x0.copy()]
    iters = []
    evals_before = system.rhs_evals

    x = x0
    for i, seg_len in enumerate(lens):
        t_seg = t0 + i * dt
        ops = ops_by_len[seg_len]
        try:
            res = iterate_segment(
                ops, system, x, config, t_start=t_seg,
                guess=None if guess is None else guess[i * step:(i + 1) * step + 1])
        except (ConvergenceError, DomainViolationError) as exc:
            # the same object goes on, so its type and attributes survive
            exc.args = (f"segment {i} (t={t_seg:g}): {exc}",)
            raise
        times.extend(t_seg + ops.offsets[1:])
        states.extend(res.node_states[1:])
        iters.append(res.iterations)
        x = res.node_states[-1]

    return Trajectory(times=np.array(times), states=np.array(states),
                      segment_iterations=np.array(iters, dtype=int),
                      total_rhs_evals=system.rhs_evals - evals_before)
