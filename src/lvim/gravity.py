"""Spherical-harmonic gravity field: file loading, acceleration, potential.

The acceleration is evaluated with the recursive V/W formulation
(Montenbruck & Gill, *Satellite Orbits*, 2000, sec. 3.2) in body-fixed
Cartesian coordinates (no frame rotation is applied).  Each model
precomputes the recursion factors and the linear map from the V/W values
to the acceleration, so a call is one recursion and one small matrix
product.  The potential is evaluated through fully normalized associated
Legendre functions; it exists so the acceleration can be cross-checked
against a finite-difference gradient computed by an unrelated code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Dict, Tuple

import numpy as np

from .errors import DomainViolationError

__all__ = [
    "GravityModel",
    "load_gravity_model",
    "bundled_gravity_path",
    "gravity_accel",
    "gravity_potential",
]


def _denorm_factor(n: int, m: int) -> float:
    # ratio between fully normalized and unnormalized coefficients
    k = (2 * n + 1) if m == 0 else (4 * n + 2)
    return math.sqrt(k * math.factorial(n - m) / math.factorial(n + m))


def _accel_map(c: np.ndarray, s: np.ndarray, size: int, scale: float) -> np.ndarray:
    """Linear map from the flat V/W values to the acceleration.

    ``gravity_accel`` lists ``V_nm`` for ``0 <= m <= n < size`` column by
    column (m outer, n inner) and then ``W_nm`` in the same order; the
    product of that ``2L`` list with the returned ``2L x 3`` matrix is the
    acceleration.  The unnormalized coefficients, the ``(n-m+1)(n-m+2)``
    factors and ``scale`` are folded in here, once per model.
    """
    half = size * (size + 1) // 2
    g = np.zeros((2, half, 3))  # [V or W, flat (n, m) index, component]

    def at(n, m):
        return m * size - m * (m - 1) // 2 + n - m

    for n in range(size - 1):
        for m in range(n + 1):
            cnm, snm = c[n, m], s[n, m]
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


@dataclass(frozen=True)
class GravityModel:
    """Immutable gravity field truncated at a maximum degree.

    mu is the gravitational parameter in m^3/s^2, r_ref the reference
    radius in meters.  coeffs maps (degree, order) to a fully
    normalized (Cbar, Sbar) pair; absent entries are zero and the
    central (0, 0) term defaults to 1.
    """

    mu: float
    r_ref: float
    degree: int
    coeffs: Dict[Tuple[int, int], Tuple[float, float]]
    _c: np.ndarray = field(init=False, repr=False, compare=False)
    _s: np.ndarray = field(init=False, repr=False, compare=False)
    _cbar: np.ndarray = field(init=False, repr=False, compare=False)
    _sbar: np.ndarray = field(init=False, repr=False, compare=False)
    _recur: tuple = field(init=False, repr=False, compare=False)
    _g: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.r_ref <= 0:
            raise ValueError("r_ref must be positive")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        for (n, m), (cb, sb) in self.coeffs.items():
            if not (0 <= m <= n <= self.degree):
                raise ValueError(f"coefficient index ({n},{m}) out of range")
            if not (math.isfinite(cb) and math.isfinite(sb)):
                raise ValueError(f"non-finite coefficient at ({n},{m})")
        if (0, 0) in self.coeffs:
            cb, sb = self.coeffs[(0, 0)]
            if cb != 1.0 or sb != 0.0:
                raise ValueError("(0,0) coefficient must be (1, 0)")
        nmax = self.degree
        cbar = np.zeros((nmax + 1, nmax + 1))
        sbar = np.zeros((nmax + 1, nmax + 1))
        cbar[0, 0] = 1.0
        for (n, m), (cb, sb) in self.coeffs.items():
            cbar[n, m] = cb
            sbar[n, m] = sb
        c = np.zeros_like(cbar)
        s = np.zeros_like(sbar)
        for n in range(nmax + 1):
            for m in range(n + 1):
                f = _denorm_factor(n, m)
                c[n, m] = cbar[n, m] * f
                s[n, m] = sbar[n, m] * f
        for arr in (cbar, sbar, c, s):
            arr.setflags(write=False)
        object.__setattr__(self, "_cbar", cbar)
        object.__setattr__(self, "_sbar", sbar)
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_s", s)
        # _recur[m] holds the plain-float factors ((2n-1)/(n-m), (n+m-1)/(n-m))
        # of the column recursion for n = m+1 .. nmax+1
        size = nmax + 2
        object.__setattr__(self, "_recur", tuple(
            tuple(((2 * n - 1) / (n - m), (n + m - 1) / (n - m)) for n in range(m + 1, size))
            for m in range(size)))
        object.__setattr__(self, "_g", _accel_map(c, s, size, self.mu / self.r_ref ** 2))

    def truncate(self, degree: int) -> "GravityModel":
        """Return a copy keeping only terms of degree <= the given degree."""
        if degree < 0:
            raise ValueError("degree must be >= 0")
        degree = min(degree, self.degree)
        kept = {k: v for k, v in self.coeffs.items() if k[0] <= degree}
        return GravityModel(self.mu, self.r_ref, degree, kept)


def load_gravity_model(path) -> GravityModel:
    """Parse a coefficient file.

    Line one: ``mu <value> r_ref <value> degree <n>``.  Every further
    non-comment line: ``n m Cbar Sbar`` with fully normalized values.
    ``#`` starts a comment, either full-line or trailing.
    """
    header = None
    coeffs: Dict[Tuple[int, int], Tuple[float, float]] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                parts = line.split()
                if len(parts) != 6 or parts[0] != "mu" or parts[2] != "r_ref" or parts[4] != "degree":
                    raise ValueError(f"malformed header line: {raw.strip()!r}")
                header = (float(parts[1]), float(parts[3]), int(parts[5]))
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"malformed coefficient line: {raw.strip()!r}")
            n, m = int(parts[0]), int(parts[1])
            if (n, m) in coeffs:
                raise ValueError(f"duplicate coefficient ({n},{m})")
            coeffs[(n, m)] = (float(parts[2]), float(parts[3]))
    if header is None:
        raise ValueError("empty gravity file")
    mu, r_ref, degree = header
    return GravityModel(mu=mu, r_ref=r_ref, degree=degree, coeffs=coeffs)


def bundled_gravity_path(name: str = "egm_test.txt"):
    """Path to a coefficient file shipped with the package."""
    p = resources.files("lvim").joinpath("data", name)
    if not p.is_file():
        raise FileNotFoundError(f"no bundled gravity file named {name!r}")
    return p


def gravity_accel(model: GravityModel, q) -> np.ndarray:
    """Acceleration -dU/dq at body-fixed position q (meters).

    Positions inside 0.9*r_ref are rejected: the expansion diverges
    below the reference sphere and a trajectory that deep is a crash,
    not an orbit.  Complex q is accepted and propagated analytically
    (the guard uses the real part), which supports complex-step
    derivative checks.
    """
    q = np.asarray(q)
    if q.shape != (3,):
        raise ValueError("position must be a 3-vector")
    if np.iscomplexobj(q):
        x, y, z = complex(q[0]), complex(q[1]), complex(q[2])
    else:
        x, y, z = float(q[0]), float(q[1]), float(q[2])
    r_real = math.sqrt(x.real ** 2 + y.real ** 2 + z.real ** 2)
    if not r_real > 0.9 * model.r_ref:
        raise DomainViolationError(
            f"|q| = {r_real:.6g} m is not above 0.9 * r_ref = {0.9 * model.r_ref:.6g} m",
            state=np.asarray(q),
        )
    R = model.r_ref
    r2 = x * x + y * y + z * z
    # scaled coordinates shared by every recursion step
    xf = x * R / r2
    yf = y * R / r2
    zf = z * R / r2
    rf = R * R / r2

    # V_nm and W_nm column by column, in the row order of model._g
    V = []
    W = []
    v, w = R / r2 ** 0.5, 0.0
    for m, column in enumerate(model._recur):
        if m:
            k = 2 * m - 1
            v, w = k * (xf * v - yf * w), k * (xf * w + yf * v)
        V.append(v)
        W.append(w)
        v1, w1, v2, w2 = v, w, 0.0, 0.0
        for a, b in column:
            a *= zf
            b *= rf
            v1, v2 = a * v1 - b * v2, v1
            w1, w2 = a * w1 - b * w2, w1
            V.append(v1)
            W.append(w1)
    return np.array(V + W) @ model._g


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
    if not r > 0.9 * model.r_ref:
        raise DomainViolationError(
            f"|q| = {r:.6g} m is not above 0.9 * r_ref = {0.9 * model.r_ref:.6g} m",
            state=q,
        )
    nmax = model.degree
    sphi = z / r
    cphi = math.sqrt(x * x + y * y) / r
    lam = math.atan2(y, x)

    # fully normalized associated Legendre values at sin(latitude)
    P = np.zeros((nmax + 1, nmax + 1))
    P[0, 0] = 1.0
    if nmax >= 1:
        P[1, 0] = math.sqrt(3.0) * sphi
        P[1, 1] = math.sqrt(3.0) * cphi
    for m in range(2, nmax + 1):
        P[m, m] = cphi * math.sqrt((2 * m + 1) / (2.0 * m)) * P[m - 1, m - 1]
    for m in range(0, nmax):
        if m + 1 <= nmax and m >= 1:
            P[m + 1, m] = math.sqrt(2 * m + 3.0) * sphi * P[m, m]
    for m in range(0, nmax + 1):
        for n in range(m + 2, nmax + 1):
            alpha = math.sqrt((2 * n - 1.0) * (2 * n + 1.0) / ((n - m) * (n + m)))
            beta = math.sqrt(
                (2 * n + 1.0) * (n + m - 1.0) * (n - m - 1.0) / ((n - m) * (n + m) * (2 * n - 3.0))
            )
            P[n, m] = alpha * sphi * P[n - 1, m] - beta * P[n - 2, m]

    Cb, Sb = model._cbar, model._sbar
    total = 0.0
    ratio = model.r_ref / r
    pw = 1.0
    for n in range(nmax + 1):
        inner = 0.0
        for m in range(n + 1):
            inner += P[n, m] * (Cb[n, m] * math.cos(m * lam) + Sb[n, m] * math.sin(m * lam))
        total += pw * inner
        pw *= ratio
    # sign puts the field on the physics convention: accel = -grad U
    return -model.mu / r * total
