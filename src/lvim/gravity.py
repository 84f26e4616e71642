"""Spherical-harmonic gravity field: file loading, acceleration, potential.

The acceleration is evaluated with the recursive V/W formulation
(Montenbruck & Gill, *Satellite Orbits*, 2000, sec. 3.2) in body-fixed
Cartesian coordinates (no frame rotation is applied).  The recursion is
compiled into one straight-line kernel once per degree, and each model
precomputes the linear map from the V/W values to the acceleration, so a
call is one kernel call and one small matrix product, through
``ndarray.dot``: the BLAS routine of ``@``, with the same bits, without
the ufunc dispatch.  A list of three Python floats, what the LEO rhs
passes, is read as it is; any other position is converted to a float64
or complex128 array first.  The potential is evaluated through fully
normalized associated Legendre functions; it exists so the acceleration
can be cross-checked against a finite-difference gradient computed by an
unrelated code path.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import struct
from dataclasses import dataclass, field
from importlib import resources
from types import CodeType
from typing import Callable, Dict, Tuple

import numpy as np

from .errors import DomainViolationError, checked

__all__ = [
    "GravityModel",
    "load_gravity_model",
    "bundled_gravity_path",
    "gravity_accel",
    "gravity_potential",
]

# Largest degree a GravityModel accepts: its kernel source grows with d^2 (degree
# 100 builds in 0.4 s on a 2-core Xeon host), so a header typo is refused up front.
_MAX_DEGREE = 100


def _denorm_factor(n: int, m: int) -> float:
    # ratio between fully normalized and unnormalized coefficients
    k = (2 * n + 1) if m == 0 else (4 * n + 2)
    return math.sqrt(k * math.factorial(n - m) / math.factorial(n + m))


def _coeff(coeffs, n: int, m: int) -> Tuple[float, float]:
    """The fully normalized ``(Cbar, Sbar)`` at ``(n, m)``: an absent
    entry is zero, except the central ``(0, 0)`` term, ``(1, 0)``."""
    return coeffs.get((n, m), (1.0, 0.0) if (n, m) == (0, 0) else (0.0, 0.0))


def _accel_map(coeffs, size: int, scale: float) -> np.ndarray:
    """Linear map from the flat V/W values to the acceleration.

    The recursion kernel lists ``V_nm`` for ``0 <= m <= n < size`` column
    by column (m outer, n inner) and then ``W_nm`` in the same order; the
    product of that ``2L`` list with the returned ``2L x 3`` matrix is the
    acceleration.  Each coefficient is denormalized as it is mapped, and
    the ``(n-m+1)(n-m+2)`` factors and ``scale`` are folded in here, once
    per model.
    """
    half = size * (size + 1) // 2
    g = np.zeros((2, half, 3))  # [V or W, flat (n, m) index, component]

    def at(n, m):
        return m * size - m * (m - 1) // 2 + n - m

    for n in range(size - 1):
        for m in range(n + 1):
            f = _denorm_factor(n, m)
            cnm, snm = (f * v for v in _coeff(coeffs, n, m))
            k = n - m + 1
            g[:, at(n + 1, m), 2] -= k * cnm, k * snm
            if m == 0:
                g[0, at(n + 1, 1), 0] -= cnm
                g[1, at(n + 1, 1), 1] -= cnm
                continue
            up, down = at(n + 1, m + 1), at(n + 1, m - 1)
            fac = k * (k + 1)
            g[:, up, 0] -= 0.5 * cnm, 0.5 * snm
            g[:, up, 1] += 0.5 * snm, -0.5 * cnm
            g[:, down, 0] += 0.5 * fac * cnm, 0.5 * fac * snm
            g[:, down, 1] += 0.5 * fac * snm, -0.5 * fac * cnm
    g = scale * g.reshape(2 * half, 3)
    g.setflags(write=False)
    return g


@functools.lru_cache(maxsize=None)
def _kernel_code(size: int) -> CodeType:
    """The V/W recursion compiled into one straight-line function, once per
    size; executing the code defines ``kernel``.

    ``kernel(x, y, z)`` returns ``V_nm`` for ``0 <= m <= n < size`` column
    by column (m outer, n inner), then ``W_nm`` in the same order: the row
    order of ``_accel_map``.  Each value has one assignment, with the
    operations of the column recursion in its order: each step scales its
    factors once, ``a = (2n-1)/(n-m) * zf`` and ``b = (n+m-1)/(n-m) * rf``,
    for both V and W, and the first step keeps its ``- b * 0.0`` terms, so
    NaN and inf propagate as in a loop.  The factors are float literals
    (``repr`` of a float reads back to the same value); the reference
    radius is the name ``R`` in each model's namespace, never pasted into
    the source, so every model of one degree shares the code.
    """
    lines = ["def kernel(x, y, z):",
             "    r2 = x * x + y * y + z * z",
             "    xf = x * R / r2",
             "    yf = y * R / r2",
             "    zf = z * R / r2",
             "    rf = R * R / r2",
             "    v0_0 = R / r2 ** 0.5",
             "    w0_0 = 0.0"]
    order = []
    for m in range(size):
        if m:
            d = f"{m - 1}_{m - 1}"
            lines.append(f"    v{m}_{m} = {2 * m - 1} * (xf * v{d} - yf * w{d})")
            lines.append(f"    w{m}_{m} = {2 * m - 1} * (xf * w{d} + yf * v{d})")
        order.append(f"{m}_{m}")
        for n in range(m + 1, size):
            lines.append(f"    a = {(2 * n - 1) / (n - m)!r} * zf")
            lines.append(f"    b = {(n + m - 1) / (n - m)!r} * rf")
            for vw in "vw":
                older = f"{vw}{order[-2]}" if n > m + 1 else "0.0"
                lines.append(f"    {vw}{n}_{m} = a * {vw}{order[-1]} - b * {older}")
            order.append(f"{n}_{m}")
    lines.append("    return [" + ", ".join(vw + nm for vw in "vw" for nm in order) + "]")
    return compile("\n".join(lines), f"<V/W kernel, size {size}>", "exec")


@dataclass(frozen=True)
class GravityModel:
    """Immutable gravity field truncated at a maximum degree.

    mu is the gravitational parameter in m^3/s^2, r_ref the reference
    radius in meters.  coeffs maps (degree, order) to a fully
    normalized (Cbar, Sbar) pair; absent entries are zero and the
    central (0, 0) term defaults to 1.  A float copy is the model's one
    coefficient table, read by the acceleration map and the potential.
    """

    mu: float
    r_ref: float
    degree: int
    coeffs: Dict[Tuple[int, int], Tuple[float, float]]
    _kernel: Callable = field(init=False, repr=False, compare=False)
    _g: np.ndarray = field(init=False, repr=False, compare=False)
    _pack: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        checked("mu", self.mu, 0.0, strict=True)
        checked("r_ref", self.r_ref, 0.0, strict=True)
        checked("degree", self.degree, 0, _MAX_DEGREE, integer=True)
        table = {}
        for (n, m), (cb, sb) in self.coeffs.items():
            if not (0 <= m <= n <= self.degree):
                raise ValueError(f"coefficient index ({n},{m}) out of range")
            if not (math.isfinite(cb) and math.isfinite(sb)):
                raise ValueError(f"non-finite coefficient at ({n},{m})")
            table[operator.index(n), operator.index(m)] = float(cb), float(sb)
        object.__setattr__(self, "coeffs", table)
        if _coeff(table, 0, 0) != (1.0, 0.0):
            raise ValueError("(0,0) coefficient must be (1, 0)")
        size = self.degree + 2
        namespace = {"R": self.r_ref}
        exec(_kernel_code(size), namespace)
        object.__setattr__(self, "_kernel", namespace["kernel"])
        object.__setattr__(self, "_g", _accel_map(self.coeffs, size, self.mu / self.r_ref ** 2))
        object.__setattr__(self, "_pack", struct.Struct(f"{size * (size + 1)}d").pack)

    def truncate(self, degree: int) -> "GravityModel":
        """Return a copy keeping only terms of degree <= the given degree."""
        degree = min(checked("degree", degree, 0, integer=True), self.degree)
        kept = {k: v for k, v in self.coeffs.items() if k[0] <= degree}
        return GravityModel(self.mu, self.r_ref, degree, kept)


# the fields of a coefficient file's lines, each with its type
_HEADER_FIELDS = (("mu", float), ("r_ref", float), ("degree", int))
_COEFF_FIELDS = (("n", int), ("m", int), ("Cbar", float), ("Sbar", float))


def _parsed(fields, texts, kind: str, raw: str) -> list:
    """Each text converted by its field's type; a text that does not
    convert is refused by the field's name and the line."""
    values = []
    for (name, convert), text in zip(fields, texts):
        try:
            values.append(convert(text))
        except ValueError:
            rule = "an integer" if convert is int else "a number"
            raise ValueError(f"{name} must be {rule}, got {text!r} in {kind} line: "
                             f"{raw.strip()!r}") from None
    return values


def load_gravity_model(path) -> GravityModel:
    """Parse a coefficient file, given by its path or as a ``Traversable``
    (what :func:`bundled_gravity_path` returns from a zipped install).

    Line one: ``mu <value> r_ref <value> degree <n>``.  Every further
    non-comment line: ``n m Cbar Sbar`` with fully normalized values.
    ``#`` starts a comment, either full-line or trailing.
    """
    header = None
    coeffs: Dict[Tuple[int, int], Tuple[float, float]] = {}
    opened = (open(path, encoding="utf-8") if isinstance(path, (str, bytes, os.PathLike))
              else path.open(encoding="utf-8"))
    with opened as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                parts = line.split()
                if len(parts) != 6 or parts[0] != "mu" or parts[2] != "r_ref" or parts[4] != "degree":
                    raise ValueError(f"malformed header line: {raw.strip()!r}")
                header = _parsed(_HEADER_FIELDS, parts[1::2], "header", raw)
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"malformed coefficient line: {raw.strip()!r}")
            n, m, cb, sb = _parsed(_COEFF_FIELDS, parts, "coefficient", raw)
            if (n, m) in coeffs:
                raise ValueError(f"duplicate coefficient ({n},{m})")
            coeffs[(n, m)] = (cb, sb)
    if header is None:
        raise ValueError("empty gravity file")
    mu, r_ref, degree = header
    return GravityModel(mu=mu, r_ref=r_ref, degree=degree, coeffs=coeffs)


def bundled_gravity_path(name: str = "egm_test.txt"):
    """Path to a coefficient file shipped with the package, by bare name."""
    p = resources.files("lvim").joinpath("data", name)
    if not p.is_file() or p.name != name:
        raise FileNotFoundError(f"no bundled gravity file named {name!r}")
    return p


def _check_radius(model: GravityModel, r: float, q) -> None:
    """Refuse a position ``q`` of radius ``r`` not above ``0.9 * r_ref``."""
    if not r > 0.9 * model.r_ref:
        raise DomainViolationError(
            f"|q| = {r:.6g} m is not above 0.9 * r_ref = {0.9 * model.r_ref:.6g} m",
            state=np.asarray(q))


def gravity_accel(model: GravityModel, q) -> np.ndarray:
    """Acceleration -dU/dq at body-fixed position q (meters).

    Positions inside 0.9*r_ref are rejected: the expansion diverges
    below the reference sphere and a trajectory that deep is a crash,
    not an orbit.  Complex q is accepted and propagated analytically
    (the guard uses the real part), which supports complex-step
    derivative checks.
    """
    # a list of three Python floats (what the rhs passes) is read as it is;
    # anything else becomes a float64 or complex128 array first
    x, y, z = q if type(q) is list and len(q) == 3 else (None,) * 3
    if not type(x) is type(y) is type(z) is float:
        q = np.asarray(q)
        q = q.astype(complex if np.iscomplexobj(q) else float, copy=False)
        if q.shape != (3,):
            raise ValueError("position must be a 3-vector")
        x, y, z = q.tolist()
    r_real = math.sqrt(x.real * x.real + y.real * y.real + z.real * z.real)
    _check_radius(model, r_real, q)
    try:
        vw = model._kernel(x, y, z)
    except OverflowError as exc:
        # complex arithmetic raises where the real path underflows to zero
        raise DomainViolationError(
            f"|q| = {r_real:.6g} m overflows the field expansion", state=q) from exc
    # struct packs real values faster than np.array reads a list; it has
    # no complex format
    vw = np.array(vw) if type(x) is complex else np.frombuffer(model._pack(*vw))
    return vw.dot(model._g)


def gravity_potential(model: GravityModel, q) -> float:
    """Potential U such that the acceleration equals -grad U.

    Deliberately written with normalized Legendre recursions and
    explicit latitude/longitude angles rather than the V/W scheme, so
    a finite-difference gradient of this routine is an independent
    check on gravity_accel.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (3,):
        raise ValueError("position must be a 3-vector")
    x, y, z = q
    r = math.sqrt(x * x + y * y + z * z)
    _check_radius(model, r, q)
    nmax = model.degree
    sphi = z / r
    cphi = math.sqrt(x * x + y * y) / r
    lam = math.atan2(y, x)

    # fully normalized associated Legendre values at sin(latitude)
    P = np.zeros((nmax + 1, nmax + 1))
    P[0, 0] = 1.0
    if nmax >= 1:
        P[1, 1] = math.sqrt(3.0) * cphi
    for m in range(2, nmax + 1):
        P[m, m] = cphi * math.sqrt((2 * m + 1) / (2.0 * m)) * P[m - 1, m - 1]
    for m in range(nmax):
        P[m + 1, m] = math.sqrt(2 * m + 3.0) * sphi * P[m, m]
    for m in range(0, nmax + 1):
        for n in range(m + 2, nmax + 1):
            alpha = math.sqrt((2 * n - 1.0) * (2 * n + 1.0) / ((n - m) * (n + m)))
            beta = math.sqrt(
                (2 * n + 1.0) * (n + m - 1.0) * (n - m - 1.0) / ((n - m) * (n + m) * (2 * n - 3.0))
            )
            P[n, m] = alpha * sphi * P[n - 1, m] - beta * P[n - 2, m]

    total = 0.0
    ratio = model.r_ref / r
    pw = 1.0
    for n in range(nmax + 1):
        inner = 0.0
        for m in range(n + 1):
            cb, sb = _coeff(model.coeffs, n, m)
            inner += P[n, m] * (cb * math.cos(m * lam) + sb * math.sin(m * lam))
        total += pw * inner
        pw *= ratio
    # sign puts the field on the physics convention: accel = -grad U
    return -model.mu / r * total
