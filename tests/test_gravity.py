"""Gravity model: loader, dual-route field values, curl, truncation."""

import math

import numpy as np
import pytest

from lvim.errors import DomainViolationError
from lvim.gravity import (
    GravityModel,
    bundled_gravity_path,
    gravity_accel,
    gravity_potential,
    load_gravity_model,
)

MU = 3.986004415e14
R_REF = 6378136.3
J2_BAR = -4.841651e-4

TEST_POINT = np.array([5.2e6, -3.1e6, 2.4e6])


@pytest.fixture(scope="module")
def model2():
    return load_gravity_model(bundled_gravity_path("egm_test.txt"))


@pytest.fixture(scope="module")
def model8():
    return load_gravity_model(bundled_gravity_path("egm8.txt"))


def test_loader_reads_bundled_file(model2):
    assert model2.mu == MU
    assert model2.r_ref == R_REF
    assert model2.degree == 2
    assert model2.coeffs[(2, 0)][0] == J2_BAR
    assert model2.coeffs[(0, 0)] == (1.0, 0.0)


def test_loader_rejects_duplicates(tmp_path):
    bad = tmp_path / "dup.txt"
    bad.write_text(
        "mu 1.0 r_ref 1.0 degree 2\n2 0 1e-3 0\n2 0 2e-3 0\n")
    with pytest.raises(ValueError):
        load_gravity_model(str(bad))


def test_loader_accepts_comments(tmp_path):
    f = tmp_path / "c.txt"
    f.write_text(
        "# leading comment\nmu 1.0 r_ref 2.0 degree 1  # trailing\n"
        "0 0 1.0 0.0\n1 1 1e-6 2e-6\n")
    m = load_gravity_model(str(f))
    assert m.degree == 1
    assert m.coeffs[(1, 1)] == (1e-6, 2e-6)


def test_model_validation():
    with pytest.raises(ValueError):
        GravityModel(mu=-1.0, r_ref=1.0, degree=0, coeffs={(0, 0): (1.0, 0.0)})
    with pytest.raises(ValueError):
        GravityModel(mu=1.0, r_ref=1.0, degree=1, coeffs={(2, 0): (1.0, 0.0)})
    with pytest.raises(ValueError):
        # a present monopole row must be unity
        GravityModel(mu=1.0, r_ref=1.0, degree=0, coeffs={(0, 0): (0.5, 0.0)})


def test_degree_zero_is_point_mass(model2):
    m0 = model2.truncate(0)
    a = gravity_accel(m0, TEST_POINT)
    r = np.linalg.norm(TEST_POINT)
    expected = -MU * TEST_POINT / r ** 3
    assert np.max(np.abs(a - expected)) < 1e-15 * np.max(np.abs(expected)) * 10


def test_oblateness_term_closed_form(model2):
    """Keep only the (2,0) coefficient and compare against the textbook
    closed-form acceleration of that harmonic."""
    m = GravityModel(mu=MU, r_ref=R_REF, degree=2,
                     coeffs={(0, 0): (1.0, 0.0), (2, 0): (J2_BAR, 0.0)})
    x, y, z = TEST_POINT
    r = math.sqrt(x * x + y * y + z * z)
    j2 = -J2_BAR * math.sqrt(5.0)  # unnormalized, conventional sign
    f = 1.5 * j2 * MU * R_REF ** 2 / r ** 5
    zr = (z / r) ** 2
    expected = np.array([
        -MU * x / r ** 3 + f * x * (5 * zr - 1),
        -MU * y / r ** 3 + f * y * (5 * zr - 1),
        -MU * z / r ** 3 + f * z * (5 * zr - 3),
    ])
    a = gravity_accel(m, TEST_POINT)
    assert np.max(np.abs(a - expected)) < 1e-12 * np.max(np.abs(expected))


def test_accel_is_minus_potential_gradient(model8):
    """Independent route: central differences of the normalized-Legendre
    potential against the recursion-based acceleration."""
    h = 0.5  # meters; optimal scale for a ~7e6 m field point
    a = gravity_accel(model8, TEST_POINT)
    grad = np.empty(3)
    for i in range(3):
        qp, qm = TEST_POINT.copy(), TEST_POINT.copy()
        qp[i] += h
        qm[i] -= h
        grad[i] = (gravity_potential(model8, qp)
                   - gravity_potential(model8, qm)) / (2 * h)
    assert np.max(np.abs(a + grad)) < 1e-6 * np.max(np.abs(a))


def test_curl_free_by_complex_step(model8):
    """The field is a gradient, so its Jacobian is symmetric; complex-step
    differentiation has no cancellation floor and must show that to
    machine precision."""
    h = 1e-200
    jac = np.empty((3, 3))
    for i in range(3):
        q = TEST_POINT.astype(complex)
        q[i] += 1j * h
        jac[:, i] = np.imag(gravity_accel(model8, q)) / h
    asym = np.max(np.abs(jac - jac.T))
    a_scale = np.max(np.abs(gravity_accel(model8, TEST_POINT)))
    assert asym <= 1e-12 * a_scale / np.max(np.abs(TEST_POINT))


def test_truncation_prefix_is_bitwise(model8):
    """Dropping terms above a degree must leave the retained terms with
    the exact same contribution."""
    m2 = model8.truncate(2)
    a8 = gravity_accel(model8, TEST_POINT)
    a2 = gravity_accel(m2, TEST_POINT)
    m8_again = model8.truncate(8)
    assert np.array_equal(gravity_accel(m8_again, TEST_POINT), a8)
    # degree-2 difference is the degree>2 contribution, small but nonzero
    assert 0 < np.max(np.abs(a8 - a2)) < 1e-3


def _reference_accel(model, q):
    """The original double-loop evaluation of the V/W sums, kept as a
    reference for the table-driven kernel."""
    x, y, z = (float(v) for v in q)
    nmax = model.degree
    R = model.r_ref
    r2 = x * x + y * y + z * z
    xf, yf, zf, rf = x * R / r2, y * R / r2, z * R / r2, R * R / r2
    size = nmax + 2
    V = [[0.0] * size for _ in range(size)]
    W = [[0.0] * size for _ in range(size)]
    V[0][0] = R / r2 ** 0.5
    for m in range(1, size):
        V[m][m] = (2 * m - 1) * (xf * V[m - 1][m - 1] - yf * W[m - 1][m - 1])
        W[m][m] = (2 * m - 1) * (xf * W[m - 1][m - 1] + yf * V[m - 1][m - 1])
    for m in range(size - 1):
        V[m + 1][m] = (2 * m + 1) * zf * V[m][m]
        W[m + 1][m] = (2 * m + 1) * zf * W[m][m]
        for n in range(m + 2, size):
            V[n][m] = ((2 * n - 1) * zf * V[n - 1][m] - (n + m - 1) * rf * V[n - 2][m]) / (n - m)
            W[n][m] = ((2 * n - 1) * zf * W[n - 1][m] - (n + m - 1) * rf * W[n - 2][m]) / (n - m)
    ax = ay = az = 0.0
    for n in range(nmax + 1):
        for m in range(n + 1):
            c, s = float(model._c[n, m]), float(model._s[n, m])
            if m == 0:
                ax += -c * V[n + 1][1]
                ay += -c * W[n + 1][1]
            else:
                fac = (n - m + 1) * (n - m + 2)
                ax += 0.5 * (-c * V[n + 1][m + 1] - s * W[n + 1][m + 1]
                             + fac * (c * V[n + 1][m - 1] + s * W[n + 1][m - 1]))
                ay += 0.5 * (-c * W[n + 1][m + 1] + s * V[n + 1][m + 1]
                             + fac * (-c * W[n + 1][m - 1] + s * V[n + 1][m - 1]))
            az += (n - m + 1) * (-c * V[n + 1][m] - s * W[n + 1][m])
    scale = model.mu / (R * R)
    return np.array([scale * ax, scale * ay, scale * az])


def _kernel_points():
    """Seeded field points from 0.95 to 3 r_ref, plus fixed polar,
    near-polar and equatorial ones."""
    rng = np.random.default_rng(20)
    dirs = rng.normal(size=(14, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, np.newaxis]
    radii = rng.uniform(0.95, 3.0, 14)
    fixed = np.array([[0.0, 0.0, 1.0], [1e-7, 0.0, -1.0], [0.0, 1e-9, 1.0],
                      [1.0, 0.0, 0.0], [0.6, -0.8, 0.0], [-1.0, 1.0, 0.0]])
    fixed /= np.linalg.norm(fixed, axis=1)[:, np.newaxis]
    radii_fixed = np.array([0.95, 1.3, 3.0, 0.95, 1.1, 2.2])
    return np.vstack([dirs * radii[:, np.newaxis],
                      fixed * radii_fixed[:, np.newaxis]]) * R_REF


def _degree3(coeffs):
    return GravityModel(mu=MU, r_ref=R_REF, degree=3,
                        coeffs={(0, 0): (1.0, 0.0), **coeffs})


@pytest.mark.parametrize("case", ["deg0", "deg1", "deg2", "deg8", "s_m_ge_1", "s_m_0"])
def test_kernel_matches_reference_loop(model8, case):
    model = {
        "deg0": lambda: model8.truncate(0),
        "deg1": lambda: model8.truncate(1),
        "deg2": lambda: model8.truncate(2),
        "deg8": lambda: model8,
        "s_m_ge_1": lambda: _degree3({
            (1, 1): (2e-6, -3e-6), (2, 0): (J2_BAR, 0.0), (2, 1): (-1e-6, 4e-6),
            (2, 2): (2.4e-6, -1.4e-6), (3, 1): (2e-6, 2.5e-7),
            (3, 2): (9e-7, -6e-7), (3, 3): (7e-7, 1.4e-6)}),
        # the old loop reads S at m = 0 only in the z component, where it
        # multiplies W_n0, which is identically zero
        "s_m_0": lambda: _degree3({(2, 0): (J2_BAR, 3e-4), (3, 0): (9.6e-7, -2e-4),
                                   (3, 3): (7e-7, 1.4e-6)}),
    }[case]()
    for q in _kernel_points():
        a = gravity_accel(model, q)
        ref = _reference_accel(model, q)
        assert np.max(np.abs(a - ref)) <= 1e-14 * np.linalg.norm(ref), (case, q)


def test_complex_input_with_zero_imaginary_part(model8):
    for q in _kernel_points()[::4]:
        a = gravity_accel(model8, q)
        ac = gravity_accel(model8, q.astype(complex))
        assert np.iscomplexobj(ac)
        assert np.all(ac.imag == 0.0)
        assert np.max(np.abs(ac.real - a)) <= 1e-15 * np.linalg.norm(a)


def test_interior_guard(model2):
    with pytest.raises(DomainViolationError):
        gravity_accel(model2, np.array([0.1 * R_REF, 0.0, 0.0]))


def test_potential_route_consistency(model2):
    # both routes must agree on the raw potential-energy-like scale too
    u = gravity_potential(model2, TEST_POINT)
    r = np.linalg.norm(TEST_POINT)
    assert u == pytest.approx(-MU / r, rel=1e-3)  # harmonics are small
    assert u != pytest.approx(-MU / r, rel=1e-9)  # but present
