import math

import numpy as np
import pytest

from vesture import algebra, dressing, targets, verification
from vesture.errors import ConfigError
from vesture.spectral import DomainPoint
from vesture.verification import FieldGrid

G11 = algebra.gamma(targets.SIG_11)


def constant_field(n_r=7, n_z=9, q=None):
    rhos = np.linspace(1.0, 2.2, n_r)
    zs = np.linspace(-1.0, 1.0, n_z)
    q = np.eye(2, dtype=complex) if q is None else q
    values = np.tile(q, (n_r, n_z, 1, 1))
    return FieldGrid(rhos=rhos, zs=zs, values=values, mask=np.ones((n_r, n_z), bool))


def kerr_field(box, h, m=1.0, s=1.0):
    cfg = targets.kerr_config(m, s)
    rho0, rho1, z0, z1 = box
    rhos = rho0 + h * np.arange(round((rho1 - rho0) / h) + 1)
    zs = z0 + h * np.arange(round((z1 - z0) / h) + 1)
    rho, z = np.meshgrid(rhos, zs, indexing="ij")
    return FieldGrid.from_results(rhos, zs, dressing.dress(cfg, rho, z, audit_chi=False))


def test_grid_validation():
    with pytest.raises(ConfigError):
        FieldGrid(rhos=np.array([0.0, 1.0]), zs=np.array([0.0, 1.0]),
                  values=np.zeros((2, 2, 2, 2), complex), mask=np.ones((2, 2), bool))
    with pytest.raises(ConfigError):
        FieldGrid(rhos=np.array([1.0, 1.5, 2.5]), zs=np.array([0.0, 1.0]),
                  values=np.zeros((3, 2, 2, 2), complex), mask=np.ones((3, 2), bool))


def test_constant_field_residuals_exactly_zero():
    res1, res2 = verification.hodge_residual(constant_field())
    assert np.nanmax(res1) == 0.0
    assert np.nanmax(res2) == 0.0


def test_hodge_needs_three_points_per_axis():
    grid = constant_field(n_r=2, n_z=5)
    with pytest.raises(ConfigError):
        verification.hodge_residual(grid)


def test_kerr_residuals_converge_second_order():
    box = (3.2, 5.2, -1.5, 1.5)
    coarse = kerr_field(box, 0.1)
    fine = kerr_field(box, 0.05)
    r1, r2 = verification.refinement_ratios(coarse, fine)
    assert 3.5 <= r1 <= 4.5
    assert 3.5 <= r2 <= 4.5
    order = verification.convergence_order(coarse, fine)
    assert 1.8 <= order <= 2.2


def test_convergence_order_exact_for_constant():
    coarse = constant_field(n_r=7, n_z=7)
    fine = constant_field(n_r=13, n_z=13)
    assert math.isinf(verification.convergence_order(coarse, fine))


def test_perturbed_field_fails_to_converge():
    # model error dominates: residuals stay bounded away from zero
    box = (3.2, 4.4, -0.6, 0.6)
    rng = np.random.default_rng(31)

    def perturb(grid):
        noise = rng.normal(size=grid.values.shape) * 1e-3
        noise = (noise + np.swapaxes(noise, -1, -2).conj()) / 2
        return FieldGrid(rhos=grid.rhos, zs=grid.zs,
                         values=grid.values + noise, mask=grid.mask)

    coarse = perturb(kerr_field(box, 0.1))
    fine = perturb(kerr_field(box, 0.05))
    res1_c, _ = verification.hodge_residual(coarse)
    res1_f, _ = verification.hodge_residual(fine)
    inner_c = verification.interior_mask(res1_c.shape)
    inner_f = verification.interior_mask(res1_f.shape)
    assert np.nanmedian(res1_c[inner_c]) > 1e-3
    assert np.nanmedian(res1_f[inner_f]) > 1e-3
    order = verification.convergence_order(coarse, fine)
    assert order < 1.0  # far from second order


def test_holes_propagate_no_data():
    grid = constant_field()
    grid.mask[3, 4] = False
    grid.values[3, 4] = np.nan
    res1, _ = verification.hodge_residual(grid)
    assert np.isnan(res1[3, 4])
    assert np.isnan(res1[2, 4]) and np.isnan(res1[4, 4])
    assert np.isnan(res1[3, 3]) and np.isnan(res1[3, 5])
    assert res1[0, 0] == 0.0  # far cells unaffected


def test_constraint_scan():
    kerr = kerr_field((3.0, 4.0, -0.5, 0.5), 0.1)
    scan = verification.constraint_scan(kerr, G11)
    assert scan["symspace"] <= 1e-9
    const = constant_field()
    assert verification.constraint_scan(const, G11)["symspace"] == 0.0
    # first-order perturbation off the symmetric space
    bad = constant_field(q=(1.0 + 1e-3) * np.eye(2, dtype=complex))
    assert verification.constraint_scan(bad, G11)["quadratic"] > 1e-4
    skew = constant_field(q=np.array([[1.0, 1e-3], [0.0, 1.0]], dtype=complex))
    assert verification.constraint_scan(skew, G11)["hermiticity"] > 1e-4


def _f_locus_value(rho, z, m=1.0, s=1.0):
    # closed-form ring-locus function in Boyer-Lindquist terms, evaluated
    # through the inverse coordinate transform
    c2 = s * s - rho * rho - z * z
    u = 0.5 * (-c2 + math.sqrt(c2 * c2 + 4 * z * z * s * s))
    a2 = m * m + s * s
    if u < 1e-14:
        # disk segment z = 0, rho < s: r = m and cos^2 = 1 - (rho/s)^2
        return s * s * (-m * m + a2 * (1.0 - (rho / s) ** 2))
    r = m + math.sqrt(u)
    cos_th = z / math.sqrt(u)
    return s * s * (r * r - 2 * m * r + a2 * cos_th * cos_th)


def test_singular_locus_matches_ring():
    m, s = 1.0, 1.0
    cfg = targets.kerr_config(m, s)
    rhos = np.linspace(0.5, 1.8, 27)
    zs = np.linspace(-0.8, 0.8, 33)
    rows = [[DomainPoint(rho=float(r), z=float(z)) for z in zs] for r in rhos]
    results = dressing.dress_grid(cfg, rows, audit_chi=False)
    det_a = np.array([[res.det_a for res in row] for row in results])
    locus = verification.singular_locus(det_a, rhos, zs, tol=1e-12)
    assert len(locus) > 10
    h = max(rhos[1] - rhos[0], zs[1] - zs[0])
    for pt in locus:
        # each locus point sits within a grid cell of the true F = 0 ring
        assert abs(_f_locus_value(pt.rho, pt.z, m, s)) < 4 * h


def test_singular_locus_empty_cases():
    det_ones = np.ones((5, 5), dtype=complex)
    assert verification.singular_locus(det_ones, np.linspace(1, 2, 5),
                                       np.linspace(-1, 1, 5)) == []
    # flat-limit configuration: det A keeps one sign on r > m grids
    cfg = targets.kerr_config(0.0, 1.0)
    rhos = np.linspace(1.5, 3.0, 9)
    zs = np.linspace(-1.0, 1.0, 9)
    rows = [[DomainPoint(rho=float(r), z=float(z)) for z in zs] for r in rhos]
    results = dressing.dress_grid(cfg, rows, audit_chi=False)
    det_a = np.array([[res.det_a for res in row] for row in results])
    assert verification.singular_locus(det_a, rhos, zs, tol=1e-12) == []


def test_hodge_on_analytically_embedded_field():
    # independent route: build q from the closed-form potentials through the
    # Ernst embedding (no dressing pipeline involved) and check the same
    # second-order convergence of the field-equation residuals
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

    r1, r2 = verification.refinement_ratios(field(0.1), field(0.05))
    assert 3.5 <= r1 <= 4.5
    assert 3.5 <= r2 <= 4.5


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
    # deck-paired root satisfies the same identity
    r_out = verification.lambda_flow_residual(1j, x, 1e-3, outer_root=True)
    assert r_out <= 1e-5


def test_exclusion_mask_is_the_chebyshev_dilation():
    rng = np.random.default_rng(3)
    for shape in np.ndindex(8, 8):
        shape = (shape[0] + 1, shape[1] + 1)
        locus = rng.random(shape) < 0.15
        for margin in range(6):
            expected = np.zeros(shape, dtype=bool)
            for i, j in zip(*np.nonzero(locus)):
                expected[max(0, i - margin):i + margin + 1,
                         max(0, j - margin):j + margin + 1] = True
            assert np.array_equal(verification.exclusion_mask(locus, margin), expected), \
                (shape, margin)
