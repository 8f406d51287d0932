import math

import numpy as np
import pytest

from vesture import algebra, dressing, seeds, targets, verification
from vesture.dressing import SolitonConfig
from vesture.errors import DomainError, SingularPointError

from vesture.targets import SIG_11, SIG_21, BLParams

G2 = algebra.gamma(SIG_11)
G3 = algebra.gamma(SIG_21)


def kerr_q(r, theta):
    """The dressed Kerr (1, 1) map at Boyer-Lindquist (r, theta): one map,
    or a stack for arrays."""
    x = targets.bl_to_weyl(r, theta, BLParams(m=1.0, s=1.0))
    q = dressing.dress(targets.kerr_config(1.0, 1.0), x.rho, x.z).q
    return q if np.ndim(r) else q[0]

def test_bl_to_weyl():
    p = BLParams(m=0.0, s=1.0)
    x = targets.bl_to_weyl(1.0, math.pi / 2, p)
    np.testing.assert_allclose([x.rho, x.z], [math.sqrt(2.0), 0.0], atol=1e-15)
    with pytest.raises(DomainError):
        targets.bl_to_weyl(2.0, 0.0, p)
    with pytest.raises(DomainError):
        targets.bl_to_weyl(2.0, math.pi, p)

def test_cayley_identity_and_reality():
    np.testing.assert_allclose(targets.cayley2(np.eye(2, dtype=complex)), np.eye(2),
                               atol=1e-15)
    # symmetric-space elements map to real matrices
    qp = targets.cayley2(kerr_q(2.5, 1.0))
    assert np.abs(qp.imag).max() < 1e-12

def test_ernst_g11_roundtrip_and_identity():
    e = targets.ernst_g11(np.eye(2, dtype=complex))
    np.testing.assert_allclose([e.x, e.y], [1.0, 0.0], atol=1e-15)
    q = targets.ernst_embed_g11(2.0, 3.0)
    back = targets.ernst_g11(q)
    np.testing.assert_allclose([back.x, back.y], [2.0, 3.0], rtol=1e-12)
    assert algebra.symspace_residual(q, G2) < 1e-12

def test_kerr_oracle_values():
    assert targets.kerr_oracle(0.0, 1.3, 2.0, 0.4) == targets.ErnstValue11(1.0, 0.0)
    e = targets.kerr_oracle(1.0, 2.0, 3.0, math.pi / 2)
    np.testing.assert_allclose([e.x, e.y], [1.0 - 2.0 / 3.0, 0.0], atol=1e-15)
    e = targets.kerr_oracle(1.0, math.sqrt(2.0), 2.0, math.pi / 3)
    np.testing.assert_allclose([e.x, e.y], [1.0 / 9.0, math.sqrt(2.0) / 4.5], rtol=1e-14)

def test_kerr_params_identities():
    a, d, pole = targets.kerr_params(0.0, 1.0)
    np.testing.assert_allclose([a, d], [1.0, 0.0], atol=1e-15)
    assert pole == 1j
    for m, s in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.3)):
        alpha, delta, _ = targets.kerr_params(m, s)
        np.testing.assert_allclose(alpha * delta, m / 2, rtol=1e-14)
        np.testing.assert_allclose(alpha ** 2 - delta ** 2, s, atol=1e-14)
        np.testing.assert_allclose(alpha ** 2 + delta ** 2, math.sqrt(m * m + s * s),
                                   rtol=1e-14)

def test_kerr_pipeline_point():
    q = kerr_q(2.0, math.pi / 3)
    e = targets.ernst_g11(q)
    np.testing.assert_allclose([e.x, e.y], [1.0 / 9.0, math.sqrt(2.0) / 4.5], rtol=1e-10)
    assert algebra.symspace_residual(q, G2) <= 1e-9

def test_basis_change_u3():
    u = targets.basis_change_u3()
    np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(u @ G3 @ u.conj().T, targets.GAMMA_TILDE, atol=1e-14)
    np.testing.assert_allclose(targets.to_tilde_rep(np.eye(3, dtype=complex)),
                               np.eye(3), atol=1e-14)

def test_ernst_g21_identity_and_roundtrip():
    e = targets.ernst_g21(np.eye(3, dtype=complex))
    np.testing.assert_allclose(e.E, 1.0, atol=1e-15)
    assert e.Phi == 0.0
    ref_e, ref_phi = 1.5 + 0.2j, 0.3 - 0.1j
    qt = targets.ptilde_matrix(ref_e, ref_phi)
    ext = targets.ernst_g21(targets.from_tilde_rep(qt))
    np.testing.assert_allclose(ext.E, ref_e, atol=1e-12)
    np.testing.assert_allclose(ext.Phi, ref_phi, atol=1e-12)
    assert abs(ext.consistency) < 1e-12

def test_ernst_g21_reduces_to_g11_on_embedded_block():
    q = kerr_q(2.8, 1.3)
    e2 = targets.ernst_g11(q)
    e3 = targets.ernst_g21(targets.embed_g11_in_g21(q))
    np.testing.assert_allclose([e3.x, e3.y], [e2.x, e2.y], rtol=1e-11)
    assert abs(e3.Phi) < 1e-13

def test_ernst_g21_scale_consistency():
    qt = targets.ptilde_matrix(1.2 + 0.4j, 0.2 + 0.1j)
    q = targets.from_tilde_rep(qt)
    a = targets.ernst_g21(q)
    b = targets.ernst_g21(dressing.normalize_det(q)[0])  # det is already 1
    np.testing.assert_allclose([a.E, a.Phi], [b.E, b.Phi], atol=1e-13)

def test_kn_oracle():
    e = targets.kn_oracle(0.0, 0.0, 1.0, 3.0, 1.0)
    assert (e.E, e.Phi) == (1.0, 0.0)
    m, s = 1.0, 1.0
    a_k = math.sqrt(m * m + s * s)
    for r, th in ((2.5, 0.7), (4.0, 2.0)):
        kn = targets.kn_oracle(m, 0.0, -a_k, r, th)
        ke = targets.kerr_oracle(m, a_k, r, th)
        np.testing.assert_allclose([kn.E.real - abs(kn.Phi) ** 2, kn.E.imag],
                                   [ke.x, ke.y], rtol=1e-13)
    # charged sample point, direct evaluation
    m, e_ch, s = 1.0, 0.5, 1.0
    a = -math.sqrt(m * m + s * s - e_ch * e_ch)
    v = targets.kn_oracle(m, e_ch, a, 3.0, 1.1)
    den = 3.0 - 1j * a * math.cos(1.1)
    np.testing.assert_allclose(v.Phi, e_ch / den, rtol=1e-14)
    np.testing.assert_allclose(v.E, 1 - 2 * m / den, rtol=1e-14)

def test_g21_family_trivial_and_kerr_block():
    p = BLParams(m=1.0, s=1.0)
    q = targets.g21_soliton_family(1.0, 1.5, 0, 0, 0, 0, p, 3.0, 1.0)
    np.testing.assert_array_equal(q, np.eye(3))
    # e = 0 identification reproduces the dressed Kerr block
    fam = targets.kn_family_params(BLParams(m=1.0, s=1.0, e=0.0))
    r, th = 2.9, 0.8
    q3 = targets.g21_soliton_family(fam["a_param"], fam["b_param"], fam["n1"], fam["n2"],
                                    fam["n3"], fam["n4"], p, r, th)
    np.testing.assert_allclose(q3, targets.embed_g11_in_g21(kerr_q(r, th)), rtol=1e-9)

def test_g21_family_matches_vector_dressing_at_realizable_params():
    # independent oracle: the actual 3x3 dressing pipeline with vectors
    rng = np.random.default_rng(41)
    p = BLParams(m=1.0, s=1.0)
    seed3 = seeds.identity_seed(SIG_21)
    for _ in range(8):
        al, be, ga = rng.normal(size=3) + 1j * rng.normal(size=3)
        r = 2.0 + 6 * rng.random()
        th = 0.5 + 2.0 * rng.random()
        cfg = SolitonConfig(SIG_21, (1j * p.s,), (np.array([al, be, ga]),), seed3)
        x = targets.bl_to_weyl(r, th, p)
        res = dressing.dress(cfg, x.rho, x.z, audit_chi=False)
        if res.singular[0]:
            continue
        ag, bg = al * np.conj(ga), be * np.conj(ga)
        a_par = abs(al) ** 2 + abs(be) ** 2 - abs(ga) ** 2
        b_par = abs(al) ** 2 + abs(be) ** 2 + abs(ga) ** 2
        qf = targets.g21_soliton_family(a_par, b_par, ag.real, ag.imag, bg.real, bg.imag,
                                        p, r, th)
        assert np.abs(res.q[0] - qf).max() < 1e-10
        assert algebra.symspace_residual(res.q[0], G3) < 1e-9

def _kn_vector(fam):
    """Soliton vector (alpha, c, delta) whose bilinears are the family's
    (n1 + i n2, n3 + i n4) = (alpha, c) * delta and whose
    a_param = alpha^2 + c^2 - delta^2, b_param = alpha^2 + c^2 + delta^2."""
    delta = math.sqrt((fam["b_param"] - fam["a_param"]) / 2)
    return np.array([fam["n1"] + 1j * fam["n2"], fam["n3"] + 1j * fam["n4"],
                     delta * delta], dtype=complex) / delta

def test_kn_family_params_validation():
    for m, s, e in ((0.5, 0.5, 1.0), (1.0, 1.0, 0.5), (1.0, 0.5, 0.9)):
        fam = targets.kn_family_params(BLParams(m=m, s=s, e=e))
        np.testing.assert_allclose(fam["b_param"] ** 2, m * m + s * s + e * e, rtol=1e-14)
        # realizability: n1^2 + n2^2 + n3^2 + n4^2 = (b^2 - a^2)/4
        np.testing.assert_allclose(
            fam["n1"] ** 2 + fam["n2"] ** 2 + fam["n3"] ** 2 + fam["n4"] ** 2,
            (fam["b_param"] ** 2 - fam["a_param"] ** 2) / 4, rtol=1e-14)
    fam = targets.kn_family_params(BLParams(m=1.0, s=1.0, e=0.5))
    assert fam["b_param"] > 0
    assert fam["oracle_a"] == -fam["b_param"]
    np.testing.assert_allclose(fam["n1"], 0.5)
    np.testing.assert_allclose(fam["n3"], -0.25)

KN_SETS = ((1.0, 0.5, 1.0), (1.0, 0.9, 0.5))

def _bl_of_weyl(rho, z, m, s):
    c2 = s * s - rho * rho - z * z
    u = 0.5 * (-c2 + math.sqrt(c2 * c2 + 4 * z * z * s * s))
    return m + math.sqrt(u), math.acos(z / math.sqrt(u))

def _kn_potential_field(m, e, s, a, h):
    """from_tilde_rep(ptilde_matrix(kn_oracle)) on the Weyl box of
    acceptance 05, with the Boyer-Lindquist chart of pole height s."""
    rho0, rho1, z0, z1 = 3.2, 5.2, -1.5, 1.5
    rhos = rho0 + h * np.arange(round((rho1 - rho0) / h) + 1)
    zs = z0 + h * np.arange(round((z1 - z0) / h) + 1)
    values = np.empty((rhos.size, zs.size, 3, 3), dtype=complex)
    for i, rho in enumerate(rhos):
        for j, z in enumerate(zs):
            o = targets.kn_oracle(m, e, a, *_bl_of_weyl(float(rho), float(z), m, s))
            values[i, j] = targets.from_tilde_rep(targets.ptilde_matrix(o.E, o.Phi))
    return verification.FieldGrid(rhos, zs, values, np.ones(values.shape[:2], bool))

def test_kn_potentials_solve_field_equations_only_on_family_chart():
    # the divergence residual of a harmonic map is pure truncation error
    # and quarters under h -> h/2; on the Einstein-Maxwell chart
    # a^2 = m^2 + s^2 - e^2 it stalls near 1 (a genuine residual)
    for m, e, s in KN_SETS:
        a = targets.kn_family_params(BLParams(m=m, s=s, e=e))["oracle_a"]
        a_em = -math.sqrt(m * m + s * s - e * e)
        _, div = verification.refinement_ratios(_kn_potential_field(m, e, s, a, 0.1),
                                                _kn_potential_field(m, e, s, a, 0.05))
        _, div_em = verification.refinement_ratios(_kn_potential_field(m, e, s, a_em, 0.1),
                                                   _kn_potential_field(m, e, s, a_em, 0.05))
        assert 3.5 <= div <= 4.5
        assert div_em < 2.0

def test_kn_family_matches_vector_dressing_pipeline():
    # independent of the closed form: the 3x3 dressing pipeline with the
    # vector realizing kn_family_params reproduces the Kerr-Newman oracle
    seed3 = seeds.identity_seed(SIG_21)
    for m, e, s in KN_SETS:
        bl = BLParams(m=m, s=s, e=e)
        fam = targets.kn_family_params(bl)
        cfg = SolitonConfig(SIG_21, (1j * s,), (_kn_vector(fam),), seed3)
        r, th = np.meshgrid(np.linspace(m + 1.5, m + 10.0, 10),
                            np.linspace(math.pi / 8, 7 * math.pi / 8, 10), indexing="ij")
        x = targets.bl_to_weyl(r, th, bl)
        dressed = dressing.dress(cfg, x.rho, x.z, audit_chi=False)
        assert not dressed.singular.any()
        for q, r_k, th_k in zip(dressed.q, r.ravel().tolist(), th.ravel().tolist()):
            ext = targets.ernst_g21(dressing.normalize_det(q)[0])
            o = targets.kn_oracle(m, e, fam["oracle_a"], r_k, th_k)
            assert abs(ext.E - o.E) <= 1e-12 * abs(o.E)
            assert abs(ext.Phi - o.Phi) <= 1e-12 * abs(o.Phi)

def test_su21_basis_membership_and_independence():
    basis = targets.su21_basis()
    gt = targets.GAMMA_TILDE
    for x in basis:
        assert algebra.frobenius(x.conj().T @ gt + gt @ x) < 1e-15
        assert abs(np.trace(x)) < 1e-15
    flat = np.array([np.concatenate([x.real.ravel(), x.imag.ravel()]) for x in basis])
    assert np.linalg.matrix_rank(flat) == 8

def test_commutation_check_passes_and_spot_values():
    report = targets.commutation_check()
    assert len(report) == 28
    assert all(report.values())
    b = targets.su21_basis()

    def brk(i, j):
        return b[i - 1] @ b[j - 1] - b[j - 1] @ b[i - 1]

    np.testing.assert_allclose(brk(1, 3), -2 * b[0], atol=1e-15)
    np.testing.assert_allclose(brk(5, 6), 2 * b[0], atol=1e-15)
    np.testing.assert_allclose(brk(1, 4), np.zeros((3, 3)), atol=1e-15)
    np.testing.assert_allclose(brk(4, 5), 3 * b[5], atol=1e-15)

def test_commutation_check_negative_control(monkeypatch):
    bad = {k: dict(v) for k, v in targets.COMMUTATION_TABLE.items()}
    bad[(5, 7)] = {3: -1}  # flip one structure constant
    monkeypatch.setattr(targets, "COMMUTATION_TABLE", bad)
    report = targets.commutation_check()
    failing = [k for k, ok in report.items() if not ok]
    assert failing == [(5, 7)]

def test_cartan_embed():
    np.testing.assert_allclose(targets.cartan_embed_su21(0, 0, 0, 0), np.eye(3),
                               atol=1e-15)
    # unipotent factor's (1,3) entry: delta + (i/2)(eta^2 + theta^2)
    d, eta, th = 0.7, 0.4, -0.9
    w = eta + 1j * th
    n = np.array([[1, w, d + 0.5j * (eta ** 2 + th ** 2)],
                  [0, 1, 1j * np.conj(w)],
                  [0, 0, 1]], dtype=complex)
    q = targets.cartan_embed_su21(0.0, d, eta, th)
    np.testing.assert_allclose(q, n @ n.conj().T, atol=1e-14)
    rng = np.random.default_rng(43)
    gt = targets.GAMMA_TILDE
    for _ in range(20):
        mu, dd, ee, tt = rng.normal(size=4) * 0.6
        q = targets.cartan_embed_su21(mu, dd, ee, tt)
        phi = (ee + 1j * tt) / math.sqrt(2.0)
        ernst = math.exp(2 * mu) + abs(phi) ** 2 + 1j * dd
        np.testing.assert_allclose(q, targets.ptilde_matrix(ernst, phi), atol=1e-12)
        assert algebra.frobenius(q @ gt @ q @ gt - np.eye(3)) < 1e-12
        assert algebra.frobenius(q - q.conj().T) < 1e-12
        assert abs(np.linalg.det(q) - 1) < 1e-12


def test_array_coordinates_and_oracle_round_as_single_points():
    p = BLParams(m=1.1, s=0.7)
    rs, ths = np.linspace(1.2, 9.0, 13), np.linspace(0.3, 2.8, 11)
    x = targets.bl_to_weyl(rs[:, None], ths[None, :], p)
    o = targets.kerr_oracle(1.1, 1.3, rs[:, None], ths[None, :])
    for i, j in np.ndindex(x.rho.shape):
        one = targets.bl_to_weyl(float(rs[i]), float(ths[j]), p)
        assert (x.rho[i, j], x.z[i, j]) == (one.rho, one.z)
        assert type(one.rho) is float
        single = targets.kerr_oracle(1.1, 1.3, float(rs[i]), float(ths[j]))
        assert (o.x[i, j], o.y[i, j]) == (single.x, single.y)
    with pytest.raises(DomainError):
        targets.bl_to_weyl(rs, np.full(rs.shape, math.pi), p)


def test_stacked_ernst_extraction_matches_single_maps():
    rng = np.random.default_rng(7)
    maps = kerr_q(2.0 + 3 * rng.random(6), 0.3 + 2.5 * rng.random(6))
    # a map with q'_22 = 0 and one that is not finite give NaN in a stack
    zero = np.zeros((2, 2))
    with pytest.raises(SingularPointError):
        targets.ernst_g11(zero)
    q2 = np.array([*maps, zero, np.full((2, 2), np.nan)])
    e2 = targets.ernst_g11(q2)
    for k, q in enumerate(q2[:6]):
        assert (e2.x[k], e2.y[k]) == (targets.ernst_g11(q).x, targets.ernst_g11(q).y)
    assert np.isnan(e2.x[6:]).all() and np.isnan(e2.y[6:]).all()
    zero3 = np.zeros((3, 3))
    with pytest.raises(SingularPointError):
        targets.ernst_g21(zero3)
    q3 = np.array([targets.embed_g11_in_g21(q) for q in maps]
                  + [zero3, np.full((3, 3), np.nan)])
    e3 = targets.ernst_g21(q3)
    for k, q in enumerate(q3[:6]):
        one = targets.ernst_g21(q)
        assert (e3.E[k], e3.Phi[k], e3.x[k], e3.y[k], e3.consistency[k]) == \
            (one.E, one.Phi, one.x, one.y, one.consistency)
    for field in (e3.E, e3.Phi):
        assert np.isnan(field[6:].real).all() and np.isnan(field[6:].imag).all()
