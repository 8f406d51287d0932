
import numpy as np
import pytest

from vesture import checks, cli, spectral
from vesture.errors import DomainError
from vesture.spectral import DomainPoint


def test_domain_point_requires_positive_rho():
    with pytest.raises(DomainError):
        DomainPoint(rho=0.0, z=1.0)
    with pytest.raises(DomainError):
        DomainPoint(rho=-1.0, z=0.0)


def test_varpi_values():
    x = DomainPoint(rho=1.0, z=0.0)
    np.testing.assert_allclose(spectral.varpi(1j, x), -1j, atol=1e-15)
    # branch point value z - i*rho at lam = i*rho
    x2 = DomainPoint(rho=0.7, z=1.3)
    np.testing.assert_allclose(spectral.varpi(0.7j, x2), 1.3 - 0.7j, atol=1e-15)
    with pytest.raises(DomainError):
        spectral.varpi(0.0, x)


def test_varpi_deck_invariant():
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = DomainPoint(rho=0.3 + 2 * rng.random(), z=rng.normal())
        lam = complex(rng.normal(), rng.normal()) or 1.0
        w1 = spectral.varpi(lam, x)
        w2 = spectral.varpi(spectral.deck(lam, x), x)
        assert abs(w1 - w2) <= 1e-12 * max(1.0, abs(w1))


def test_deck_involution_and_fixed_point():
    x = DomainPoint(rho=1.5, z=0.2)
    assert spectral.deck(1.5j, x) == 1.5j
    np.testing.assert_allclose(spectral.deck(1.5, x), -1.5)
    rng = np.random.default_rng(7)
    for _ in range(20):
        lam = complex(rng.normal(), rng.normal()) or 0.5
        np.testing.assert_allclose(spectral.deck(spectral.deck(lam, x), x), lam, rtol=1e-14)
    with pytest.raises(DomainError):
        spectral.deck(0.0, x)


def test_pole_pair_example_and_vieta():
    lam_in, lam_out, branch = spectral.pole_pairs([1j], [1.0], [1.0])
    assert lam_in.shape == lam_out.shape == branch.shape == (1, 1) and not branch[0, 0]
    np.testing.assert_allclose(lam_in[0, 0], -0.27202 - 0.21385j, atol=5e-6)
    np.testing.assert_allclose(lam_out[0, 0], 2.27202 - 1.78615j, atol=5e-6)
    np.testing.assert_allclose(lam_in[0, 0] * lam_out[0, 0], -1.0, atol=1e-14)
    assert abs(lam_in[0, 0]) < 1.0 < abs(lam_out[0, 0])


def test_pole_pair_against_polynomial_roots():
    # one surface coordinate per point: a (P, 1) varpi0s gives (P, 1) pairs
    rng = np.random.default_rng(9)
    rho, z = 0.2 + 3 * rng.random(25), 2 * rng.normal(size=25)
    w0 = rng.normal(size=25) + 1j * (0.2 + rng.random(25)) * np.where(rng.random(25) < 0.5, 1, -1)
    lam_in, lam_out, _ = spectral.pole_pairs(w0[:, None], rho, z)
    for k in range(25):
        got = sorted([lam_in[k, 0], lam_out[k, 0]], key=lambda c: (c.real, c.imag))
        want = sorted(np.roots([1.0, -2.0 * (z[k] - w0[k]), -rho[k] ** 2]),
                      key=lambda c: (c.real, c.imag))
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(lam_in * lam_out, -rho[:, None] ** 2, rtol=1e-12)


def test_pole_pair_boyer_lindquist_root_set():
    m, s = 1.0, 1.0
    r, th = np.array([2.0, 3.5, 5.0]), np.array([0.7, 2.2, np.pi / 2])
    rho = np.sqrt((r - m) ** 2 + s ** 2) * np.sin(th)
    z = (r - m) * np.cos(th)
    lam_in, lam_out, _ = spectral.pole_pairs([1j * s], rho, z)
    for k in range(3):
        expect = [((r[k] - m) - 1j * s) * (np.cos(th[k]) + 1),
                  ((r[k] - m) + 1j * s) * (np.cos(th[k]) - 1)]
        for g in (lam_in[k, 0], lam_out[k, 0]):
            assert min(abs(g - e) for e in expect) < 1e-12


def test_pole_pairs_flag_branch_points():
    # branch point: (z - w0)^2 + rho^2 = 0 at w0 = z + i*rho; a pair there
    # is flagged, not raised, and real poles are refused by SolitonConfig
    _, _, branch = spectral.pole_pairs([1j, 1j + 1e-3], [1.0, 1.0], [0.0, 0.0])
    assert branch.tolist() == [[True, False], [True, False]]


def test_ab_values_and_constraints():
    x = DomainPoint(rho=1.3, z=-0.4)
    a0, b0 = spectral.ab(0.0, x)
    assert a0 == 1.0 and b0 == 0.0
    rng = np.random.default_rng(13)
    for _ in range(30):
        lam = complex(rng.normal(), rng.normal())
        if abs(lam * lam + x.rho ** 2) < 1e-6:
            continue
        a, b = spectral.ab(lam, x)
        assert abs(a * a + x.rho ** 2 * b * b - a) < 1e-13
        at, bt = spectral.ab(spectral.deck(lam, x) if lam != 0 else 1.0, x)
        if lam != 0:
            assert abs(at - (1 - a)) < 1e-12
            assert abs(bt + b) < 1e-12
    with pytest.raises(DomainError):
        spectral.ab(1.3j, x)


def test_ab_simple_pole_structure():
    # |(lam - i rho) * a| stays bounded approaching the pole
    x = DomainPoint(rho=1.0, z=0.0)
    vals = []
    for eps in (1e-3, 1e-5, 1e-7):
        lam = 1j + eps
        a, _ = spectral.ab(lam, x)
        vals.append(abs((lam - 1j) * a))
    assert max(vals) < 1.0
    assert max(vals) - min(vals) < 1e-3


def test_omega_closed_forms_and_ratio():
    x = DomainPoint(rho=0.9, z=0.3)
    rng = np.random.default_rng(17)
    for _ in range(20):
        lam = complex(rng.normal(), rng.normal()) or 1.0
        if abs(lam * lam + x.rho ** 2) < 1e-6:
            continue
        om_r, om_z = spectral.omega_forms(lam, x)
        np.testing.assert_allclose(om_z / om_r, lam / x.rho, rtol=1e-12)
    with pytest.raises(DomainError):
        spectral.omega_forms(0.0, x)
    with pytest.raises(DomainError):
        spectral.omega_forms(0.9j, x)


def test_omega_against_finite_differences_of_varpi():
    # d_mu varpi = omega_mu * d_lam varpi, central differences converge O(h^2)
    x = DomainPoint(rho=1.1, z=0.4)
    lam = 0.8 - 0.5j
    om_r, om_z = spectral.omega_forms(lam, x)
    dvarpi_dlam = -x.rho ** 2 / (2 * lam * lam) - 0.5
    for h in (1e-2, 5e-3):
        fd_r = (spectral.varpi(lam, DomainPoint(x.rho + h, x.z))
                - spectral.varpi(lam, DomainPoint(x.rho - h, x.z))) / (2 * h)
        fd_z = (spectral.varpi(lam, DomainPoint(x.rho, x.z + h))
                - spectral.varpi(lam, DomainPoint(x.rho, x.z - h))) / (2 * h)
        # the surface coordinate is quadratic in rho and linear in z, so the
        # central stencil is exact up to round-off
        assert abs(fd_r - om_r * dvarpi_dlam) < 1e-12
        assert abs(fd_z - om_z * dvarpi_dlam) < 1e-12


def test_d_identity_residual_vanishes():
    rng = np.random.default_rng(19)
    for _ in range(50):
        x = DomainPoint(rho=0.2 + 2.5 * rng.random(), z=rng.normal())
        lam = complex(rng.normal(), rng.normal()) or 0.7
        if abs(lam * lam + x.rho ** 2) < 1e-4 or abs(lam) < 1e-3:
            continue
        assert spectral.ab_d_identity_residual(lam, x) < 1e-12


def test_spectral_identities_gate_holds_for_every_seed():
    # each residual is relative to the size of its terms, which grow without
    # bound next to the poles lam = +-i rho; absolute residuals failed the
    # gate on some draws there, so whether it passed depended on the seed
    gate = next(g for name, _, g in cli.SELFTEST_SUITES if name == "spectral-identities")
    failing = [seed for seed in range(200, 300)
               if not gate(checks.spectral_identities(seed, 100))[0]]
    assert failing == []
