import math

import numpy as np
import pytest

from wignerlab.semicircle import (
    SpectralDomainError,
    SpectralPoint,
    classical_locations,
    m_sc,
    n_sc,
    rho_sc,
)


def test_msc_near_real_axis_origin():
    assert m_sc(1e-9j) == pytest.approx(1j, abs=1e-6)


def test_msc_at_i():
    expected = 1j * (math.sqrt(5) - 1) / 2
    assert m_sc(1j) == pytest.approx(expected, abs=1e-14)


def test_msc_defining_equation_residual():
    rng = np.random.default_rng(0)
    for _ in range(500):
        z = complex(rng.uniform(-5, 5), 10 ** rng.uniform(-9, 1))
        m = m_sc(z)
        assert abs(m + 1.0 / (z + m)) < 1e-12
        assert m.imag > 0


def test_msc_modulus_identity():
    # |m| = 1/|m + z| <= 1
    rng = np.random.default_rng(1)
    for _ in range(200):
        z = complex(rng.uniform(-5, 5), 10 ** rng.uniform(-6, 1))
        m = m_sc(z)
        assert abs(m) <= 1.0 + 1e-14
        assert abs(m) * abs(m + z) == pytest.approx(1.0, abs=1e-12)


def test_msc_imag_recovers_density():
    for e in np.linspace(-1.9, 1.9, 39):
        val = m_sc(complex(e, 1e-8)).imag / math.pi
        assert abs(val - rho_sc(e)) <= 1e-3


def test_msc_rejects_lower_half_plane():
    with pytest.raises(SpectralDomainError):
        m_sc(1.0 - 0.5j)


def test_rho_values():
    assert rho_sc(0.0) == pytest.approx(1.0 / math.pi)
    assert rho_sc(2.0) == 0.0
    assert rho_sc(-2.0) == 0.0
    assert rho_sc(3.0) == 0.0


def test_rho_array_matches_scalar_formula_bitwise():
    e = np.array([-1e3, -3.0, -2.0 - 1e-15, -2.0, -1.3, -0.0, 0.0, 0.7,
                  2.0 - 1e-15, 2.0, 2.5, np.inf])
    got = rho_sc(e)
    assert got.shape == e.shape
    for x, g in zip(e.tolist(), got):
        t = 4.0 - x * x
        want = math.sqrt(t) / (2.0 * math.pi) if t > 0.0 else 0.0
        assert np.float64(want).tobytes() == g.tobytes()
        assert np.float64(rho_sc(x)).tobytes() == g.tobytes()


def test_nsc_endpoints():
    assert n_sc(-2.0) == 0.0
    assert n_sc(0.0) == pytest.approx(0.5, abs=1e-15)
    assert n_sc(2.0) == 1.0
    assert n_sc(-5.0) == 0.0 and n_sc(5.0) == 1.0


def scalar_n_sc(e):
    # the closed form one point at a time, with math.sqrt and math.asin
    if e <= -2.0:
        return 0.0
    if e >= 2.0:
        return 1.0
    return 0.5 + (e * math.sqrt(4.0 - e * e) + 4.0 * math.asin(e / 2.0)) / (4.0 * math.pi)


def test_nsc_elementwise_keeps_scalar_bits():
    # np.arcsin differs from math.asin in the last bit at some of these points
    specials = [2.0, -2.0, 0.0, -0.0, np.nan, np.inf, -np.inf,
                np.nextafter(2.0, 0.0), np.nextafter(-2.0, 0.0), 1e-300, -1e-300]
    e = np.concatenate([np.linspace(-2.5, 2.5, 200_001), specials])
    got = n_sc(e)
    assert got.shape == e.shape and got.dtype == np.float64
    assert got.tobytes() == np.array([scalar_n_sc(float(x)) for x in e]).tobytes()
    for x in (0.3, -1.999, -0.0, 2.0, -7.0, np.nan, np.float64(1.1)):
        v = n_sc(x)
        assert np.ndim(v) == 0
        assert np.float64(v).tobytes() == np.float64(scalar_n_sc(x)).tobytes()


def test_nsc_against_quadrature():
    quad = pytest.importorskip("scipy.integrate").quad
    for e in (-1.7, -0.9, -0.2, 0.4, 1.1, 1.95):
        ref, err = quad(rho_sc, -2.0, e, epsabs=1e-14, epsrel=1e-13)
        assert abs(n_sc(e) - ref) <= 1e-12


def test_classical_locations_small():
    assert np.allclose(classical_locations(2), [0.0, 2.0], atol=1e-12)
    g4 = classical_locations(4)
    assert g4[1] == pytest.approx(0.0, abs=1e-12)
    assert g4[-1] == 2.0


def test_classical_locations_residual_and_symmetry():
    n = 200
    g = classical_locations(n)
    for j, x in enumerate(g, 1):
        assert abs(n_sc(x) - j / n) <= 1e-12
    assert np.max(np.abs(g[: n - 1] + g[: n - 1][::-1])) <= 1e-10
    assert np.all(np.diff(g) > 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 64, 65, 255, 256, 1000, 2048])
def test_classical_locations_match_scipy(n):
    brentq = pytest.importorskip("scipy.optimize").brentq
    want = np.empty(n)
    want[-1] = 2.0
    for j in range(1, n):
        q = j / n
        want[j - 1] = brentq(lambda x: n_sc(x) - q, -2.0, 2.0, xtol=1e-14, rtol=8.9e-16)
    assert np.max(np.abs(classical_locations(n) - want)) <= 1e-14


def test_classical_locations_residual_at_a_million():
    n = 10**6
    g = classical_locations(n)
    ends = [*range(1, 6), *range(n - 5, n)]  # gamma_n is pinned
    assert max(abs(n_sc(g[j - 1]) - j / n) for j in ends) <= 1e-15


def test_spectral_point_validation():
    with pytest.raises(SpectralDomainError):
        SpectralPoint(0.0, 0.0)
    pt = SpectralPoint(-2.5, 0.1)
    assert pt.z == complex(-2.5, 0.1)
