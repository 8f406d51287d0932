import dataclasses
import math

import numpy as np
import pytest

import _closed_forms as closed_forms
from vesture import algebra, dressing, seeds, spectral, targets, verification
from vesture.dressing import SolitonConfig
from vesture.errors import DomainError, NumericError
from vesture.spectral import DomainPoint

from vesture.targets import SIG_11, SIG_21, BLParams

G2 = algebra.gamma(SIG_11)
G3 = algebra.gamma(SIG_21)


def kerr_q(r, theta):
    """The dressed Kerr (1, 1) map at Boyer-Lindquist (r, theta): one map,
    or a stack for arrays."""
    rho, z = targets.bl_chart(r, theta, BLParams(m=1.0, s=1.0))
    q = dressing.dress(targets.kerr_config(1.0, 1.0), rho, z).q
    return q if np.ndim(r) else q[0]

def test_bl_chart():
    p = BLParams(m=0.0, s=1.0)
    np.testing.assert_allclose(targets.bl_chart(1.0, math.pi / 2, p), [math.sqrt(2.0), 0.0],
                               atol=1e-15)
    with pytest.raises(DomainError):
        targets.bl_chart(2.0, 0.0, p)
    with pytest.raises(DomainError):
        targets.bl_chart(2.0, math.pi, p)

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
    for m, s in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.3), (-1.0, 1.0), (-2.0, 0.3)):
        alpha, delta, _ = targets.kerr_params(m, s)
        np.testing.assert_allclose(alpha * delta, m / 2, rtol=1e-14)
        np.testing.assert_allclose(alpha ** 2 - delta ** 2, s, atol=1e-14)
        np.testing.assert_allclose(alpha ** 2 + delta ** 2, math.sqrt(m * m + s * s),
                                   rtol=1e-14)
        # delta carries the sign of m
        assert targets.kerr_params(-m, s) == (alpha, -delta, 1j * s)

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
    ext = targets.ernst_g21(closed_forms.from_tilde_rep(qt))
    np.testing.assert_allclose(ext.E, ref_e, atol=1e-12)
    np.testing.assert_allclose(ext.Phi, ref_phi, atol=1e-12)
    assert abs(ext.consistency) < 1e-12

def test_ernst_g21_reduces_to_g11_on_embedded_block():
    q = kerr_q(2.8, 1.3)
    e2 = targets.ernst_g11(q)
    e3 = targets.ernst_g21(closed_forms.embed_g11_in_g21(q))
    np.testing.assert_allclose([e3.x, e3.y], [e2.x, e2.y], rtol=1e-11)
    assert abs(e3.Phi) < 1e-13

def test_ernst_g21_scale_consistency():
    qt = targets.ptilde_matrix(1.2 + 0.4j, 0.2 + 0.1j)
    q = closed_forms.from_tilde_rep(qt)
    a = targets.ernst_g21(q)
    # det is already 1, so rescaling q to det 1 leaves E and Phi where they are
    b = targets.ernst_g21(q * np.linalg.det(q) ** (-1 / 3))
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
    # arrays broadcast, and round as single points (0-d)
    rs, ths = np.linspace(0.5, 9.0, 13), np.linspace(0.3, 2.8, 11)
    o = targets.kn_oracle(m, e_ch, a, rs[:, None], ths[None, :])
    for i, j in np.ndindex(o.E.shape):
        one = targets.kn_oracle(m, e_ch, a, float(rs[i]), float(ths[j]))
        assert np.shape(one.E) == np.shape(one.consistency) == ()
        assert (o.E[i, j], o.Phi[i, j], o.x[i, j], o.y[i, j], o.consistency[i, j]) == \
            (one.E, one.Phi, one.x, one.y, one.consistency)
    # a zero denominator, r = 0 on a non-rotating chart
    with pytest.raises(DomainError):
        targets.kn_oracle(m, e_ch, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        targets.kn_oracle(m, e_ch, 0.0, np.array([1.0, 0.0]), np.array([1.0, 2.0]))

def test_g21_family_trivial_and_kerr_block():
    p = BLParams(m=1.0, s=1.0)
    q = closed_forms.g21_soliton_family(1.0, 1.5, 0, 0, 0, 0, p, 3.0, 1.0)
    np.testing.assert_array_equal(q, np.eye(3))
    # e = 0 identification reproduces the dressed Kerr block
    fam = closed_forms.kn_family_params(1.0, 0.0, 1.0)
    r, th = 2.9, 0.8
    q3 = closed_forms.g21_soliton_family(fam["a_param"], fam["b_param"], fam["n1"], fam["n2"],
                                    fam["n3"], fam["n4"], p, r, th)
    np.testing.assert_allclose(q3, closed_forms.embed_g11_in_g21(kerr_q(r, th)), rtol=1e-9)

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
        res = dressing.dress(cfg, *targets.bl_chart(r, th, p), audit_chi=False)
        if res.singular[0]:
            continue
        ag, bg = al * np.conj(ga), be * np.conj(ga)
        a_par = abs(al) ** 2 + abs(be) ** 2 - abs(ga) ** 2
        b_par = abs(al) ** 2 + abs(be) ** 2 + abs(ga) ** 2
        qf = closed_forms.g21_soliton_family(a_par, b_par, ag.real, ag.imag, bg.real, bg.imag,
                                        p, r, th)
        assert np.abs(res.q[0] - qf).max() < 1e-10
        assert algebra.symspace_residual(res.q[0], G3) < 1e-9

def test_kn_family_params_validation():
    for m, s, e in ((0.5, 0.5, 1.0), (1.0, 1.0, 0.5), (1.0, 0.5, 0.9)):
        fam = closed_forms.kn_family_params(m, e, s)
        np.testing.assert_allclose(fam["b_param"] ** 2, m * m + s * s + e * e, rtol=1e-14)
        # realizability: n1^2 + n2^2 + n3^2 + n4^2 = (b^2 - a^2)/4
        np.testing.assert_allclose(
            fam["n1"] ** 2 + fam["n2"] ** 2 + fam["n3"] ** 2 + fam["n4"] ** 2,
            (fam["b_param"] ** 2 - fam["a_param"] ** 2) / 4, rtol=1e-14)
    fam = closed_forms.kn_family_params(1.0, 0.5, 1.0)
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
            values[i, j] = closed_forms.from_tilde_rep(targets.ptilde_matrix(o.E, o.Phi))
    return verification.FieldGrid(rhos, zs, values, np.ones(values.shape[:2], bool))

def test_kn_potentials_solve_field_equations_only_on_family_chart():
    # the divergence residual of a harmonic map is pure truncation error
    # and quarters under h -> h/2; on the Einstein-Maxwell chart
    # a^2 = m^2 + s^2 - e^2 it stalls near 1 (a genuine residual)
    for m, e, s in KN_SETS:
        a = -targets.kn_b_param(m, e, s)
        a_em = -math.sqrt(m * m + s * s - e * e)
        div = verification.refinement_ratios(_kn_potential_field(m, e, s, a, 0.05))
        div_em = verification.refinement_ratios(_kn_potential_field(m, e, s, a_em, 0.05))
        assert 3.5 <= div <= 4.5
        assert div_em < 2.0

def test_kn_family_matches_vector_dressing_pipeline():
    # kn_config's vector, dressed by the pipeline, reproduces the closed-form
    # family (q to 1e-12 relative) and the Kerr-Newman oracle (E, Phi)
    for m, e, s in KN_SETS:
        bl = BLParams(m=m, s=s)
        fam = closed_forms.kn_family_params(m, e, s)
        r, th = np.linspace(m + 1.5, m + 10.0, 10), np.linspace(math.pi / 8, 7 * math.pi / 8, 10)
        dressed = dressing.dress(targets.kn_config(m, e, s),
                                 *targets.bl_chart(r[:, None], th[None, :], bl))
        assert not dressed.singular.any()
        rr, tt = np.meshgrid(r, th, indexing="ij")
        for q, r_k, th_k in zip(dressed.q, rr.ravel().tolist(), tt.ravel().tolist()):
            qf = closed_forms.g21_soliton_family(fam["a_param"], fam["b_param"], fam["n1"],
                                            fam["n2"], fam["n3"], fam["n4"], bl, r_k, th_k)
            assert algebra.frobenius(q - qf) <= 1e-12 * algebra.frobenius(qf)
        ext = targets.ernst_g21(dressed.q)
        o = targets.kn_oracle(m, e, fam["oracle_a"], rr.ravel(), tt.ravel())
        assert np.all(np.abs(ext.E - o.E) <= 1e-12 * np.abs(o.E))
        assert np.all(np.abs(ext.Phi - o.Phi) <= 1e-12 * np.abs(o.Phi))

def test_kn_config_realizes_the_family_and_its_flat_limit():
    for m, e, s in KN_SETS + ((0.0, 0.5, 1.0), (-1.0, 0.5, 1.0), (1e-7, 0.0, 1.0)):
        fam = closed_forms.kn_family_params(m, e, s)
        cfg = targets.kn_config(m, e, s)
        (alpha, c, delta), = cfg.vectors
        assert cfg.poles == (1j * s,) and cfg.signature == SIG_21
        np.testing.assert_allclose([alpha * delta, c * delta], [fam["n1"], fam["n3"]],
                                   rtol=1e-14, atol=1e-300)
        np.testing.assert_allclose([abs(alpha) ** 2 + abs(c) ** 2 - abs(delta) ** 2,
                                    abs(alpha) ** 2 + abs(c) ** 2 + abs(delta) ** 2],
                                   [fam["a_param"], fam["b_param"]], rtol=1e-14)
    flat = targets.kn_config(0.0, 0.0, 2.0)  # no division by delta = 0
    np.testing.assert_array_equal(flat.vectors[0], [math.sqrt(2.0), 0, 0])
    dressed = dressing.dress(flat, *targets.bl_chart(np.linspace(1.5, 10.0, 6)[:, None],
                                                     np.linspace(0.4, 2.7, 6)[None, :],
                                                     BLParams(m=0.0, s=2.0)))
    ext = targets.ernst_g21(dressed.q)
    assert not dressed.singular.any()
    assert np.abs(ext.E - 1).max() <= 1e-14 and np.abs(ext.Phi).max() == 0

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


def _rows(out) -> np.ndarray:
    """A function's value, or its tuple or Ernst record of values, as one
    array with the values last and the points first."""
    if isinstance(out, (targets.ErnstValue11, targets.ErnstValue21)):
        out = dataclasses.astuple(out)
    if isinstance(out, tuple):
        out = np.stack(np.broadcast_arrays(*out), axis=-1)
    return np.asarray(out)


def test_array_coordinates_and_oracle_round_as_single_points():
    # a row of a stack equals the same point as a batch of one, bitwise: the
    # chart and the oracles at 0-d points, the spectral functions at batches
    # of length 1 (numpy's scalar complex arithmetic rounds unlike its loops)
    p = BLParams(m=1.1, s=0.7)
    rs, ths = np.linspace(1.2, 9.0, 13), np.linspace(0.3, 2.8, 11)
    rho, z = targets.bl_chart(rs[:, None], ths[None, :], p)
    o = targets.kerr_oracle(1.1, 1.3, rs[:, None], ths[None, :])
    for i, j in np.ndindex(rho.shape):
        assert (rho[i, j], z[i, j]) == targets.bl_chart(float(rs[i]), float(ths[j]), p)
        single = targets.kerr_oracle(1.1, 1.3, float(rs[i]), float(ths[j]))
        assert (o.x[i, j], o.y[i, j]) == (single.x, single.y)
    with pytest.raises(DomainError):
        targets.bl_chart(rs, np.full(rs.shape, math.pi), p)
    rng = np.random.default_rng(11)
    x = DomainPoint(rho.ravel(), z.ravel())
    lam = rng.normal(size=rho.size) + 1j * rng.normal(size=rho.size)
    for f in (spectral.varpi, spectral.deck, spectral.ab, spectral.omega_forms,
              lambda l, x: sum(spectral.ab_partials(l, x), ()),
              spectral.ab_d_identity_residual):
        stack = _rows(f(lam, x))
        for k in range(rho.size):
            one = _rows(f(lam[k:k + 1], DomainPoint(x.rho[k:k + 1], x.z[k:k + 1])))
            assert one.shape[0] == 1 and stack[k].tobytes() == one[0].tobytes()
    # a refusal anywhere in the batch is the single point's refusal
    for f in (spectral.varpi, spectral.deck, spectral.omega_forms):
        with pytest.raises(DomainError):
            f(np.array([1.0, 0.0]), DomainPoint(np.ones(2), np.zeros(2)))
    for f in (spectral.ab, spectral.omega_forms, spectral.ab_partials,
              spectral.ab_d_identity_residual):
        with pytest.raises(DomainError):
            f(np.array([1.0, 1.3j]), DomainPoint(np.full(2, 1.3), np.zeros(2)))


def test_stacked_ernst_extraction_matches_single_maps():
    # a row of a stack equals the same map alone, bitwise, for every map
    # function; a map with q'_22 = 0 (Re qt_33 = 0), or one that is not
    # finite, gives NaN alone and in a stack
    rng = np.random.default_rng(7)
    maps = kerr_q(2.0 + 3 * rng.random(6), 0.3 + 2.5 * rng.random(6))
    maps3 = np.array([closed_forms.embed_g11_in_g21(q) for q in maps])
    for f, stack in ((targets.cayley2, maps), (targets.ernst_g11, maps),
                     (targets.ernst_g21, maps3), (algebra.inv, maps), (algebra.inv, maps3),
                     (lambda q: algebra.tau(q, G2), maps), (lambda q: algebra.tau(q, G3), maps3),
                     (lambda q: algebra.group_residual(q, G2), maps),
                     (lambda q: algebra.group_residual(q, G3), maps3)):
        out = _rows(f(stack))
        for k, q in enumerate(stack):
            assert out[k].tobytes() == _rows(f(q)).tobytes()
    for extract, n, regular in ((targets.ernst_g11, 2, maps), (targets.ernst_g21, 3, maps3)):
        bad = [np.zeros((n, n)), np.full((n, n), np.nan)]
        for q in bad:
            assert np.isnan(_rows(extract(q))).all()
        out = _rows(extract(np.array([*regular, *bad])))
        assert out[:6].tobytes() == _rows(extract(regular)).tobytes()
        assert np.isnan(out[6:]).all()
    # inv refuses a stack with the refusal of its first refused matrix
    with pytest.raises(NumericError, match="numerically singular"):
        algebra.inv(np.array([maps[0], np.zeros((2, 2)), np.diag([1.0, 1e-13])]))
    with pytest.raises(NumericError, match="exceeds cap"):
        algebra.inv(np.array([maps[0], np.diag([1.0, 1e-13]), np.zeros((2, 2))]))
