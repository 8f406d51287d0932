import math

import numpy as np
import pytest

from _problems import SU21
from vesture import algebra, dressing, selftest, spectral, targets, verification
from vesture.algebra import Signature
from vesture.errors import ConfigError, SingularPointError
from vesture.spectral import DomainPoint
from vesture.verification import FieldGrid

EPS = np.finfo(float).eps


def constant_field(n_r=7, n_z=9, q=None):
    rhos = np.linspace(1.0, 2.2, n_r)
    zs = np.linspace(-1.0, 1.0, n_z)
    q = np.eye(2, dtype=complex) if q is None else q
    values = np.tile(q, (n_r, n_z, 1, 1))
    return FieldGrid(rhos=rhos, zs=zs, values=values, mask=np.ones((n_r, n_z), bool))


def test_grid_validation():
    with pytest.raises(ConfigError):
        FieldGrid(rhos=np.array([0.0, 1.0]), zs=np.array([0.0, 1.0]),
                  values=np.zeros((2, 2, 2, 2), complex), mask=np.ones((2, 2), bool))
    with pytest.raises(ConfigError):
        FieldGrid(rhos=np.array([1.0, 1.5, 2.5]), zs=np.array([0.0, 1.0]),
                  values=np.zeros((3, 2, 2, 2), complex), mask=np.ones((3, 2), bool))


def test_constant_field_residuals_exactly_zero():
    assert np.nanmax(verification.hodge_residual(constant_field())) == 0.0


def test_hodge_needs_three_points_per_axis():
    grid = constant_field(n_r=2, n_z=5)
    with pytest.raises(ConfigError):
        verification.hodge_residual(grid)


def test_kerr_residuals_converge_second_order():
    box = (3.2, 5.2, -1.5, 1.5)
    fine = selftest.kerr_field(box, 0.05)
    assert 3.5 <= verification.refinement_ratios(fine) <= 4.5


def test_the_coarse_grid_is_the_every_other_point_sublattice():
    # the ratio of one lattice is the ratio of its sublattice dressed on its
    # own against it: the sublattice's points and maps are the coarse ones
    box = (3.2, 5.2, -1.5, 1.5)
    coarse, fine = selftest.kerr_field(box, 0.1), selftest.kerr_field(box, 0.05)
    assert np.array_equal(fine.values[::2, ::2], coarse.values)
    rc = verification.hodge_residual(coarse)
    rf = verification.hodge_residual(fine)[::2, ::2]
    interior = verification.interior_mask(rc.shape)
    assert verification.refinement_ratios(fine) == float(np.median(rc[interior] / rf[interior]))


def test_convergence_dresses_one_lattice(monkeypatch):
    # the coarse grid is the sublattice of the one dressed at h/2
    calls, dress = [], dressing.dress
    monkeypatch.setattr(dressing, "dress", lambda *args: calls.append(1) or dress(*args))
    assert 3.5 <= selftest.convergence(selftest._KERR_BOX, 0.1).divergence <= 4.5
    assert len(calls) == 1


def test_convergence_order_exact_for_constant():
    assert verification.refinement_ratios(constant_field(n_r=13, n_z=13)) == math.inf


@pytest.mark.parametrize("n_r, n_z", [(4, 9), (9, 4)])
def test_refinement_needs_three_sublattice_points_per_axis(n_r, n_z):
    # a fine axis of 4 points leaves 2 in the sublattice, too few for a stencil
    with pytest.raises(ConfigError, match="at least 3 grid points per axis"):
        verification.refinement_ratios(constant_field(n_r=n_r, n_z=n_z))


def test_perturbed_field_fails_to_converge():
    # model error dominates: residuals stay bounded away from zero
    box = (3.2, 4.4, -0.6, 0.6)
    rng = np.random.default_rng(31)
    fine = selftest.kerr_field(box, 0.05)
    noise = rng.normal(size=fine.values.shape) * 1e-3
    fine.values = fine.values + (noise + np.swapaxes(noise, -1, -2).conj()) / 2
    coarse = FieldGrid(fine.rhos[::2], fine.zs[::2], fine.values[::2, ::2], fine.mask[::2, ::2])
    for grid in (coarse, fine):
        res = verification.hodge_residual(grid)
        assert np.nanmedian(res[verification.interior_mask(res.shape)]) > 1e-3
    assert verification.refinement_ratios(fine) < 2.0  # far from the second-order 4


def test_holes_propagate_no_data():
    grid = constant_field()
    grid.mask[3, 4] = False
    grid.values[3, 4] = np.nan
    res = verification.hodge_residual(grid)
    assert np.isnan(res[3, 4])
    assert np.isnan(res[2, 4]) and np.isnan(res[4, 4])
    assert np.isnan(res[3, 3]) and np.isnan(res[3, 5])
    assert res[0, 0] == 0.0  # far cells unaffected


def test_an_exactly_singular_q_is_a_hole():
    # q = 0 at a point not marked as a hole, beside a NaN hole: no
    # LinAlgError or warning, and the residuals are those of the same
    # field with that point a hole
    singular, hole = constant_field(), constant_field()
    for grid in (singular, hole):
        grid.mask[1, 1], grid.values[1, 1] = False, np.nan
    singular.values[3, 4] = 0.0
    hole.mask[3, 4] = False
    got, want = verification.hodge_residual(singular), verification.hodge_residual(hole)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got[3, 4]) and got[6, 0] == 0.0


def _hodge_matmul(field):
    """hodge_residual with numpy's stacked matmul products, frozen as a
    reference; also returns max ||W||_F."""
    grad = verification._grad
    hole = ~field.mask[..., None, None]
    q = np.where(hole, np.nan, field.values)
    qinv = np.where(hole, np.nan, np.linalg.inv(np.where(hole, np.eye(q.shape[-1]), q)))
    w_rho = -np.matmul(grad(q, field.h_rho, 0), qinv)
    w_z = -np.matmul(grad(q, field.h_z, 1), qinv)
    rho_col = field.rhos[:, None, None, None]
    div = grad(rho_col * w_rho, field.h_rho, 0) + rho_col * grad(w_z, field.h_z, 1)
    w_max = max(np.nanmax(np.linalg.norm(w, axis=(-2, -1))) for w in (w_rho, w_z))
    return np.linalg.norm(div, axis=(-2, -1)), w_max


def _symspace_matmul(q, g):
    """symspace_components with numpy's stacked matmul, frozen as a reference."""
    norm = np.linalg.norm
    return (norm(np.matmul(q, algebra.sigma(q, g)) - np.eye(q.shape[-1]), axis=(-2, -1)),
            norm(q - q.conj().swapaxes(-1, -2), axis=(-2, -1)), np.abs(np.linalg.det(q) - 1.0))


def _drift_field(name):
    """The selftest's Kerr convergence box at both of its spacings, or
    the dressed SU(2,1) example lattice (three branch points, so holes)."""
    if name == "su21":
        cfg, rho, z = SU21
        dressed = dressing.dress(cfg, rho, z)
        return FieldGrid(rho[:, 0], z[0], dressed.q.reshape(rho.shape + (3, 3)),
                         ~dressed.singular.reshape(rho.shape)), algebra.gamma(cfg.signature)
    return selftest.kerr_field(selftest._KERR_BOX, float(name)), algebra.gamma(Signature(1, 1))


@pytest.mark.parametrize("name", ["0.1", "0.05", "su21"])
def test_diagnostics_drift_from_matmul_at_rounding_level(name):
    field, g = _drift_field(name)
    ref, w_max = _hodge_matmul(field)
    # the products' rounding in W, O(eps ||W||), enters the residual
    # through one difference quotient and the rho factor
    bound = 8 * EPS * max(1.0, field.rhos.max()) * w_max / min(field.h_rho, field.h_z)
    got = verification.hodge_residual(field)
    assert np.array_equal(np.isnan(got), np.isnan(ref)) and np.isfinite(ref).any()
    assert np.nanmax(np.abs(got - ref)) <= bound
    q = field.values[field.mask]
    quad, *rest = algebra.symspace_components(q, g)
    quad_ref, *rest_ref = _symspace_matmul(q, g)
    # |q sigma(q)| <= ||q||_F^2 entrywise bounds the product's drift (test_mul_matches_matmul)
    assert np.all(np.abs(quad - quad_ref) <= 4 * EPS * np.linalg.norm(q, axis=(-2, -1)) ** 2)
    assert all(np.array_equal(got, ref) for got, ref in zip(rest, rest_ref))


def test_hodge_on_analytically_embedded_field():
    # independent route: build q from the closed-form potentials through the
    # Ernst embedding (no dressing pipeline involved) and check the same
    # second-order convergence of the field-equation residual
    m, s = 1.0, 1.0
    a_spin = math.sqrt(m * m + s * s)

    def field(h):
        rhos = 3.2 + h * np.arange(round(2.0 / h) + 1)
        zs = -1.0 + h * np.arange(round(2.0 / h) + 1)
        values = np.empty((rhos.size, zs.size, 2, 2), dtype=complex)
        for i, rho in enumerate(rhos):
            for j, z in enumerate(zs):
                r, th = _bl_of_weyl_point(float(rho), float(z), m, s)
                o = targets.kerr_oracle(m, a_spin, r, th)
                values[i, j] = targets.ernst_embed_g11(o.x, o.y)
        return FieldGrid(rhos=rhos, zs=zs, values=values,
                         mask=np.ones((rhos.size, zs.size), bool))

    assert 3.5 <= verification.refinement_ratios(field(0.05)) <= 4.5


def _abelian_field(f, h):
    """q = [[cosh f, sinh f], [sinh f, cosh f]] on the Weyl box [1, 2] x
    [-0.5, 0.5] with spacing h: a map into the (1,1) target for any f,
    harmonic iff f solves the axisymmetric Laplace equation."""
    rhos = 1.0 + h * np.arange(round(1.0 / h) + 1)
    zs = -0.5 + h * np.arange(round(1.0 / h) + 1)
    v = f(*np.meshgrid(rhos, zs, indexing="ij"))
    values = np.empty(v.shape + (2, 2), dtype=complex)
    values[..., 0, 0] = values[..., 1, 1] = np.cosh(v)
    values[..., 0, 1] = values[..., 1, 0] = np.sinh(v)
    return FieldGrid(rhos=rhos, zs=zs, values=values, mask=np.ones(v.shape, bool))


def test_the_divergence_residual_sees_a_non_harmonic_map():
    # the divergence residual is the field equation: on the abelian map of
    # f = 0.3 (rho^2 + z), which is not harmonic, it reads O(1) and does not
    # fall under refinement, where the harmonic f = 0.3 log(rho) converges
    # at second order
    def not_harmonic(rho, z):
        return 0.3 * (rho * rho + z)

    coarse, fine = _abelian_field(not_harmonic, 0.1), _abelian_field(not_harmonic, 0.05)
    divergence = verification.hodge_residual(coarse)
    assert 2.0 <= np.median(divergence[verification.interior_mask(divergence.shape)]) <= 3.0
    assert 0.9 <= verification.refinement_ratios(fine) <= 1.1
    harmonic = _abelian_field(lambda rho, z: 0.3 * np.log(rho), 0.05)
    assert 3.5 <= verification.refinement_ratios(harmonic) <= 4.5


def _bl_of_weyl_point(rho, z, m=1.0, s=1.0):
    c2 = s * s - rho * rho - z * z
    u = 0.5 * (-c2 + math.sqrt(c2 * c2 + 4 * z * z * s * s))
    return m + math.sqrt(u), math.acos(z / math.sqrt(u))


def test_lambda_flow_residual_richardson():
    x = DomainPoint(rho=1.0, z=1.0)
    r1 = verification.lambda_flow_residual(1j, x, 1e-3)
    assert r1 <= 1e-5
    r2 = verification.lambda_flow_residual(1j, x, 5e-4)
    assert 3.5 <= r1 / r2 <= 4.5
    # a stencil point on the branch point z + i rho = varpi0 is refused
    with pytest.raises(SingularPointError):
        verification.lambda_flow_residual(1j, DomainPoint(rho=1.0, z=1e-3), 1e-3)


def test_lambda_flow_residual_checks_the_outer_root(monkeypatch):
    # a fault in the deck partner lambda_out alone, at the stencil's centre,
    # breaks the identity for that root only: the residual sees it
    pole_pairs = spectral.pole_pairs

    def moved(varpi0, rho, z):
        lam_in, lam_out, branch = pole_pairs(varpi0, rho, z)
        lam_out[0] += 1e-3
        return lam_in, lam_out, branch

    monkeypatch.setattr(spectral, "pole_pairs", moved)
    assert verification.lambda_flow_residual(1j, DomainPoint(rho=1.0, z=1.0), 1e-3) > 1e-4


def test_locus_mask_sign_changes_cannot_overflow(monkeypatch):
    # det A values whose products overflow or underflow: the gate's locus
    # (taken before its margin) is the singular points and both ends of every
    # strict sign change along either axis, NaN and zero ends excepted, as the
    # comparisons below do, and it warns of nothing
    monkeypatch.setattr(verification, "exclusion_mask", lambda locus: locus)
    rng = np.random.default_rng(13)
    values = [1e300, -1e300, 1e-200, -1e-200, 2.0, -2.0, 0.0, -0.0, np.nan, np.inf, -np.inf]
    for shape in ((1, 1), (1, 5), (5, 1), (4, 6), (7, 3)):
        re = rng.choice(values, size=shape)
        singular = rng.random(shape) < 0.2
        expected = singular.copy()
        for axis in (0, 1):
            a, b = (np.moveaxis(re, axis, 0)[k] for k in (slice(None, -1), slice(1, None)))
            cross = ((a < 0) & (b > 0)) | ((a > 0) & (b < 0))
            view = np.moveaxis(expected, axis, 0)
            view[:-1] |= cross
            view[1:] |= cross
        flags = singular.copy()
        assert np.array_equal(verification.gate_exclusion(singular, re + 0j), expected)
        # the flags are left as they were
        assert np.array_equal(singular, flags)


def test_exclusion_mask_is_the_chebyshev_dilation(monkeypatch):
    # the radius is GATE_MARGIN, read at call time
    rng = np.random.default_rng(3)
    for shape in np.ndindex(8, 8):
        shape = (shape[0] + 1, shape[1] + 1)
        locus = rng.random(shape) < 0.15
        for margin in range(6):
            monkeypatch.setattr(verification, "GATE_MARGIN", margin)
            expected = np.zeros(shape, dtype=bool)
            for i, j in zip(*np.nonzero(locus)):
                expected[max(0, i - margin):i + margin + 1,
                         max(0, j - margin):j + margin + 1] = True
            assert np.array_equal(verification.exclusion_mask(locus), expected), \
                (shape, margin)

@pytest.mark.parametrize("rhos, zs", [([], [0.0, 1.0]), ([1.0, 2.0], [])])
def test_field_grid_rejects_an_empty_axis(rhos, zs):
    shape = (len(rhos), len(zs))
    with pytest.raises(ConfigError, match="must not be empty"):
        FieldGrid(rhos=np.array(rhos), zs=np.array(zs),
                  values=np.zeros(shape + (2, 2)), mask=np.ones(shape, bool))
