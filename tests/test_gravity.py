"""Gravity model: loader, dual-route field values, curl, truncation."""

import math
import os
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvim import gravity
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


@pytest.mark.parametrize("text, message", [
    ("mu 1.0 r_ref 1.0\n0 0 1.0 0.0\n", "malformed header line: 'mu 1.0 r_ref 1.0'"),
    ("mu 1.0 r_ref 1.0 degree 0\n0 0 1.0\n", "malformed coefficient line: '0 0 1.0'"),
    ("", "empty gravity file"),
    ("mu 1.0 r_ref 1.0 degree 2.5\n0 0 1.0 0.0\n",
     "degree must be an integer, got '2.5' in header line: 'mu 1.0 r_ref 1.0 degree 2.5'"),
    ("mu 1.0 r_ref 1.0 degree 2\n2.5 0 1e-3 0.0  # J2\n",
     "n must be an integer, got '2.5' in coefficient line: '2.5 0 1e-3 0.0  # J2'"),
    ("mu 1.0 r_ref 1.0 degree 2\n2 0 1e-3 x\n",
     "Sbar must be a number, got 'x' in coefficient line: '2 0 1e-3 x'")])
def test_loader_refuses_a_malformed_file(tmp_path, text, message):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_gravity_model(str(f))


def test_loader_reads_a_zipped_file(tmp_path, model8):
    """A bundled file of a zipped install is a ``zipfile.Path``, which
    ``open()`` does not take; it loads the model the plain file does."""
    archive = tmp_path / "lvim.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        zf.write(bundled_gravity_path("egm8.txt"), "lvim/data/egm8.txt")
    with zipfile.ZipFile(archive) as zf:
        path = zipfile.Path(zf, "lvim/data/egm8.txt")
        assert not isinstance(path, os.PathLike)
        assert load_gravity_model(path) == model8


def test_unknown_bundled_file_is_refused():
    with pytest.raises(FileNotFoundError, match="no bundled gravity file named 'nope.txt'"):
        bundled_gravity_path("nope.txt")


@pytest.mark.parametrize("name", ["/no/such/dir/egm8.txt", "../data/egm8.txt", "./egm8.txt"])
def test_a_bundled_file_is_named_by_its_bare_name(name):
    with pytest.raises(FileNotFoundError, match="no bundled gravity file named"):
        bundled_gravity_path(name)


@pytest.fixture
def nothing_allocated(monkeypatch):
    """Any array or kernel a model would build fails the test."""
    def never(*args, **kwargs):
        raise AssertionError("allocated before the degree was checked")

    monkeypatch.setattr(gravity.np, "zeros", never)
    monkeypatch.setattr(gravity, "_kernel_code", never)


def test_degree_bound_covers_the_degree_70_field():
    assert gravity._MAX_DEGREE >= 70


def test_model_refuses_a_degree_above_the_bound(nothing_allocated):
    too_big = gravity._MAX_DEGREE + 1
    with pytest.raises(ValueError, match=f"^degree must be an integer and in \\[0, {too_big - 1}\\], got {too_big}$"):
        GravityModel(mu=1.0, r_ref=1.0, degree=too_big, coeffs={})


def test_model_refuses_a_fractional_degree(nothing_allocated):
    with pytest.raises(ValueError, match=f"^degree must be an integer and in \\[0, {gravity._MAX_DEGREE}\\], got 2.5$"):
        GravityModel(mu=1.0, r_ref=1.0, degree=2.5, coeffs={})


def test_loader_refuses_a_header_degree_above_the_bound(tmp_path, nothing_allocated):
    f = tmp_path / "typo.txt"
    f.write_text(f"mu 1.0 r_ref 1.0 degree {gravity._MAX_DEGREE + 1}\n0 0 1.0 0.0\n")
    with pytest.raises(ValueError, match="^degree must be an integer and in"):
        load_gravity_model(str(f))


@pytest.mark.parametrize("mu, r_ref", [
    (float("nan"), R_REF), (float("inf"), R_REF), (MU, float("nan")),
    (MU, float("inf")), (MU, -float("inf"))])
def test_model_rejects_non_finite_constants(mu, r_ref):
    with pytest.raises(ValueError, match="finite"):
        GravityModel(mu=mu, r_ref=r_ref, degree=0, coeffs={})


@pytest.mark.parametrize("header", ["mu nan r_ref 1.0 degree 0",
                                    "mu 1.0 r_ref inf degree 0"])
def test_loader_rejects_non_finite_constants(tmp_path, header):
    f = tmp_path / "nonfinite.txt"
    f.write_text(header + "\n0 0 1.0 0.0\n")
    with pytest.raises(ValueError, match="finite"):
        load_gravity_model(str(f))


def test_model_validation():
    with pytest.raises(ValueError):
        GravityModel(mu=-1.0, r_ref=1.0, degree=0, coeffs={(0, 0): (1.0, 0.0)})


@pytest.mark.parametrize("coeffs, message", [
    ({(2, 0): (1e-6, 0.0)}, r"coefficient index \(2,0\) out of range"),
    ({(1, 2): (1e-6, 0.0)}, r"coefficient index \(1,2\) out of range"),
    ({(1, -1): (1e-6, 0.0)}, r"coefficient index \(1,-1\) out of range"),
    ({(1, 0): (math.nan, 0.0)}, r"non-finite coefficient at \(1,0\)"),
    ({(1, 1): (0.0, math.inf)}, r"non-finite coefficient at \(1,1\)"),
    # a present monopole row must be unity
    ({(0, 0): (0.5, 0.0)}, r"\(0,0\) coefficient must be \(1, 0\)"),
    ({(0, 0): (1.0, 0.1)}, r"\(0,0\) coefficient must be \(1, 0\)"),
])
def test_model_refuses_each_bad_coefficient(coeffs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GravityModel(mu=1.0, r_ref=1.0, degree=1, coeffs=coeffs)


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


def test_int_values_and_list_pairs_read_as_floats():
    """A model built from int values and list pairs is the float/tuple model
    bit for bit, and keeps its own copy: a later edit of the given dict
    changes neither its acceleration nor its potential."""
    given = {(0, 0): [1, 0], (2, 0): [J2_BAR, 0], (2, 2): [2, -1]}
    mixed = GravityModel(mu=MU, r_ref=R_REF, degree=2, coeffs=given)
    floats = GravityModel(mu=MU, r_ref=R_REF, degree=2,
                          coeffs={(0, 0): (1.0, 0.0), (2, 0): (J2_BAR, 0.0), (2, 2): (2.0, -1.0)})
    given[2, 0] = [0, 0]
    for q in _kernel_points():
        assert np.array_equal(gravity_accel(mixed, q), gravity_accel(floats, q))
        assert gravity_potential(mixed, q) == gravity_potential(floats, q)


def test_a_float_coefficient_index_is_refused():
    with pytest.raises(TypeError):
        GravityModel(mu=MU, r_ref=R_REF, degree=2, coeffs={(2.0, 0): (J2_BAR, 0.0)})


def _reference_accel(model, q):
    """The original double-loop evaluation of the V/W sums, with its own
    arithmetic, kept as a tolerance-level reference for the kernel."""
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
            f = gravity._denorm_factor(n, m)
            cb, sb = model.coeffs.get((n, m), (1.0, 0.0) if n == 0 else (0.0, 0.0))
            c, s = cb * f, sb * f
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


@pytest.fixture(scope="module")
def models(model8, model2):
    """egm8, egm_test, every truncation of egm8, and two degree-3 fields
    with S terms."""
    out = {"egm8": model8, "egm_test": model2,
           "s_m_ge_1": _degree3({
               (1, 1): (2e-6, -3e-6), (2, 0): (J2_BAR, 0.0), (2, 1): (-1e-6, 4e-6),
               (2, 2): (2.4e-6, -1.4e-6), (3, 1): (2e-6, 2.5e-7),
               (3, 2): (9e-7, -6e-7), (3, 3): (7e-7, 1.4e-6)}),
           # the old loop reads S at m = 0 only in the z component, where it
           # multiplies W_n0, which is identically zero
           "s_m_0": _degree3({(2, 0): (J2_BAR, 3e-4), (3, 0): (9.6e-7, -2e-4),
                              (3, 3): (7e-7, 1.4e-6)})}
    out.update((f"deg{d}", model8.truncate(d)) for d in range(9))
    return out


@pytest.mark.parametrize("case", ["deg0", "deg1", "deg2", "deg8", "s_m_ge_1", "s_m_0"])
def test_kernel_matches_reference_loop(models, case):
    model = models[case]
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
    """Both field routes refuse the same points with the same errors."""
    q = np.array([0.1 * R_REF, 0.0, 0.0])
    for field in (gravity_accel, gravity_potential):
        with pytest.raises(DomainViolationError) as info:
            field(model2, q)
        assert str(info.value) == "|q| = 637814 m is not above 0.9 * r_ref = 5.74032e+06 m"
        assert np.array_equal(info.value.state, q)
        with pytest.raises(ValueError, match="^position must be a 3-vector$"):
            field(model2, q[:2])


def test_far_field_guard_does_not_overflow(model8):
    # squaring 1e200 as a Python power raises OverflowError; the guard's
    # sum of products goes to inf, which passes, and the field underflows
    a = gravity_accel(model8, [1e200, -1e200, 3e6])
    assert np.array_equal(a, np.zeros(3))


def test_far_complex_position_is_a_domain_violation(model8):
    # complex arithmetic overflows where the real path underflows; the
    # error carries the position, as the reference-sphere guard's does
    q = np.array([1e200, -1e200, 3e6]) + 0j
    with pytest.raises(DomainViolationError, match="overflows") as info:
        gravity_accel(model8, q)
    assert info.value.t is None
    assert np.array_equal(info.value.state, q)


def test_potential_route_consistency(model2):
    # both routes must agree on the raw potential-energy-like scale too
    u = gravity_potential(model2, TEST_POINT)
    r = np.linalg.norm(TEST_POINT)
    assert u == pytest.approx(-MU / r, rel=1e-3)  # harmonics are small
    assert u != pytest.approx(-MU / r, rel=1e-9)  # but present


# ---------------------------------------------- bitwise reference kernel

def _vw_ref(model, q):
    """The V/W column recursion as the loop the kernel is compiled from:
    V_nm then W_nm, column by column, in the row order of ``model._g``."""
    q = np.asarray(q)
    if np.iscomplexobj(q):
        x, y, z = complex(q[0]), complex(q[1]), complex(q[2])
    else:
        x, y, z = float(q[0]), float(q[1]), float(q[2])
    R = model.r_ref
    r2 = x * x + y * y + z * z
    xf = x * R / r2
    yf = y * R / r2
    zf = z * R / r2
    rf = R * R / r2
    size = model.degree + 2
    V = []
    W = []
    v, w = R / r2 ** 0.5, 0.0
    for m in range(size):
        if m:
            k = 2 * m - 1
            v, w = k * (xf * v - yf * w), k * (xf * w + yf * v)
        V.append(v)
        W.append(w)
        v1, w1, v2, w2 = v, w, 0.0, 0.0
        for n in range(m + 1, size):
            a = (2 * n - 1) / (n - m) * zf
            b = (n + m - 1) / (n - m) * rf
            v1, v2 = a * v1 - b * v2, v1
            w1, w2 = a * w1 - b * w2, w1
            V.append(v1)
            W.append(w1)
    return V + W


def _accel_ref(model, q):
    """The acceleration gravity_accel must reproduce bit for bit."""
    return np.array(_vw_ref(model, q)) @ model._g


def _assert_bitwise(model, q):
    """gravity_accel equals the loop bit for bit: signs of zero and NaNs
    included, which ``np.array_equal`` would not tell apart."""
    got, want = gravity_accel(model, q), _accel_ref(model, q)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (q, got, want)


def _with_steps(q):
    """q itself, then q with a 1e-200j complex step on each axis."""
    yield q
    for i in range(3):
        qc = np.asarray(q, dtype=complex)
        qc[i] += 1e-200j
        yield qc


def _octant_points():
    """Points in the equatorial plane (z = +-0) and on the polar axis
    (x = y = +-0), every sign combination, zero signs included."""
    points = []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                points += [(sx * 5.2e6, sy * 4.9e6, sz * 0.0),
                           (sx * 7.1e6, sy * 0.0, sz * 0.0),
                           (sx * 0.0, sy * 6.5e6, sz * 0.0),
                           (sx * 0.0, sy * 0.0, sz * 6.9e6)]
    return np.array(points)


_MODELS = ["egm8", "egm_test"] + [f"deg{d}" for d in range(9)] + ["s_m_ge_1", "s_m_0"]


@pytest.mark.parametrize("name", _MODELS)
def test_kernel_is_the_loop_bitwise(models, name):
    model = models[name]
    for q in np.vstack([_kernel_points(), _octant_points(), [TEST_POINT]]):
        for qq in _with_steps(q):
            _assert_bitwise(model, qq)
    # int and float32 positions are read as today: each entry as a float
    for q in (np.array([5_200_000, -3_100_000, 2_400_000]),
              np.array([0, 0, -7_000_000]), [6_900_000, 0, 0]):
        _assert_bitwise(model, q)
    for q in (TEST_POINT, _octant_points()[3]):
        _assert_bitwise(model, q.astype(np.float32))


@pytest.mark.parametrize("name", ["egm8", "deg0", "deg2"])
def test_float64_views_are_read_in_place_bitwise(models, name):
    """The array route: a position slice of a 6-state, a strided view and a
    read-only array are read without a copy; a byte-swapped float64 array
    is converted first.  Each equals the loop."""
    model = models[name]
    for q in _kernel_points():
        state = np.concatenate((q, [-3.5794e3, 0.0, 6.1997e3]))
        strided = np.empty(6)
        strided[::2] = q
        readonly = q.copy()
        readonly.setflags(write=False)
        for view in (state[:3], strided[::2], readonly, q.astype(">f8")):
            assert view.shape == (3,)
            _assert_bitwise(model, view)


@pytest.mark.parametrize("name", ["egm8", "deg0", "deg1"])
def test_kernel_propagates_non_finite_values_as_the_loop(models, name):
    """Infinite positions pass the guard, and so does a complex position
    whose x^2 + y^2 cancels, leaving r^2 = z^2 = 1e-300 with rf = inf but
    zf finite.  The kernel's V/W values must carry inf and NaN as the loop
    does, term by term, so the first-step ``- b * 0.0`` terms stay."""
    model = models[name]
    a = 0.8 * R_REF
    for q in (np.array([np.inf, 0.0, 0.0]), np.array([-np.inf, np.inf, 3e6]),
              np.array([a + a * 1j, a - a * 1j, 1e-150 + 0j])):
        _assert_bitwise(model, q)
        x, y, z = q.tolist()
        got, want = np.array(model._kernel(x, y, z)), np.array(_vw_ref(model, q))
        assert got.tobytes() == want.tobytes(), q


def test_second_model_of_a_degree_compiles_nothing(model8):
    """The kernel code depends on the degree alone: a further model of a
    degree already built reuses it and reads its own reference radius."""
    misses = gravity._kernel_code.cache_info().misses
    wide = GravityModel(mu=model8.mu, r_ref=2.0 * model8.r_ref,
                        degree=model8.degree, coeffs=model8.coeffs)
    again = model8.truncate(model8.degree)
    assert gravity._kernel_code.cache_info().misses == misses
    assert wide._kernel.__code__ is again._kernel.__code__ is model8._kernel.__code__
    for qq in _with_steps(2.0 * TEST_POINT):
        _assert_bitwise(wide, qq)


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
       .filter(lambda u: math.hypot(*u) > 1e-3),
       st.floats(0.9 + 1e-9, 20.0), st.sampled_from(["egm8", "deg2", "s_m_ge_1"]))
def test_kernel_is_the_loop_bitwise_anywhere(models, u, radius, name):
    q = np.array(u) / math.hypot(*u) * radius * R_REF
    for qq in _with_steps(q):
        _assert_bitwise(models[name], qq)


@pytest.mark.parametrize("name", ["egm8", "deg0", "s_m_ge_1"])
def test_a_list_of_three_floats_is_the_array_bit_for_bit(models, name):
    """The LEO rhs passes its position as a list of three Python floats,
    read as it is: at 1000 seeded positions it gives what the float64
    array gives, byte for byte."""
    model = models[name]
    rng = np.random.default_rng(37)
    dirs = rng.normal(size=(1000, 3))
    radii = rng.uniform(0.95, 3.0, (1000, 1)) * R_REF
    for q in dirs / np.linalg.norm(dirs, axis=1)[:, np.newaxis] * radii:
        got, want = gravity_accel(model, q.tolist()), gravity_accel(model, q)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), q


def test_any_other_list_takes_the_array_route(model8):
    """A list that is not three Python floats is converted as before: of
    another length or nested it is refused as no 3-vector, with a complex
    entry it runs complex, and with ints or numpy scalars it is the float
    array's value."""
    for bad in ([7e6, 0.0], [7e6, 0.0, 0.0, 0.0], [[7e6, 0.0, 0.0]]):
        with pytest.raises(ValueError, match="^position must be a 3-vector$"):
            gravity_accel(model8, bad)
    q = TEST_POINT.tolist()
    for qq in _with_steps(TEST_POINT):
        listed = gravity_accel(model8, qq.tolist())
        assert listed.tobytes() == gravity_accel(model8, qq).tobytes()
    assert np.iscomplexobj(gravity_accel(model8, [q[0] + 1e-200j, q[1], q[2]]))
    for mixed in ([5_200_000, -3_100_000, 2_400_000], [np.float64(q[0]), q[1], q[2]]):
        want = gravity_accel(model8, np.array(mixed, dtype=float))
        assert gravity_accel(model8, mixed).tobytes() == want.tobytes()


def test_reference_sphere_guard_reads_a_list(model2):
    q = [0.1 * R_REF, 0.0, 0.0]
    with pytest.raises(DomainViolationError, match="is not above 0.9 \\* r_ref") as info:
        gravity_accel(model2, q)
    assert info.value.t is None
    assert type(info.value.state) is np.ndarray and info.value.state.tolist() == q
