import math

import numpy as np
import pytest

from vesture import algebra, dressing, seeds, spectral, targets
from vesture.algebra import Signature
from vesture.dressing import SolitonConfig, Tolerances
from vesture.errors import ConfigError, DomainError, SeedError, SingularPointError
from vesture.spectral import DomainPoint
from test_equivalence import KERR_RING, SU21, TIGHT

SIG11 = Signature(1, 1)
G11 = algebra.gamma(SIG11)


def kerr_cfg(m=1.0, s=1.0):
    return targets.kerr_config(m, s)


def bl_point(r, th, m=1.0, s=1.0):
    return targets.bl_to_weyl(r, th, targets.BLParams(m=m, s=s))


def test_config_validation():
    seed = seeds.identity_seed(SIG11)
    with pytest.raises(ConfigError):
        SolitonConfig(SIG11, poles=(1.0,), vectors=(np.array([1, 0]),), seed=seed)
    with pytest.raises(ConfigError):
        SolitonConfig(SIG11, poles=(1j, 1j), vectors=(np.array([1, 0]),) * 2, seed=seed)
    with pytest.raises(ConfigError):
        SolitonConfig(SIG11, poles=(1j,), vectors=(np.array([0, 0]),), seed=seed)
    with pytest.raises(ConfigError):
        SolitonConfig(SIG11, poles=(1j,), vectors=(np.array([1, 0, 0]),), seed=seed)


def test_spectral_data_invariants():
    cfg = kerr_cfg()
    x = DomainPoint(rho=1.0, z=1.0)
    sd = dressing.spectral_data(cfg, x)
    assert sd.lambdas.shape == (2,)
    np.testing.assert_allclose(sd.lambdas[0] * sd.lambdas[1], -x.rho ** 2, atol=1e-13)
    np.testing.assert_array_equal(sd.vs[1], G11 @ sd.vs[0])
    np.testing.assert_array_equal(sd.psi0[0], np.eye(2))
    pair = spectral.pole_pair(1j, x)
    np.testing.assert_allclose(sd.lambdas, [pair.lambda_in, pair.lambda_out], atol=1e-15)


def test_build_system_identity_seed_structure():
    # with the trivial seed the seed coupling reduces to the metric itself,
    # so a_kj = v_k* Gamma v_j / (lam_k - conj lam_j)
    alpha, delta = 1.1, 0.4
    cfg = SolitonConfig(SIG11, poles=(1j,),
                        vectors=(np.array([alpha, delta], dtype=complex),),
                        seed=seeds.identity_seed(SIG11))
    x = bl_point(2.3, 1.1)
    sd = dressing.spectral_data(cfg, x)
    a, b = dressing.build_system(sd, G11)
    aa = alpha ** 2 - delta ** 2
    bb = alpha ** 2 + delta ** 2
    l1, l2 = sd.lambdas
    expect = np.array([
        [aa / (l1 - np.conj(l1)), bb / (l1 - np.conj(l2))],
        [bb / (l2 - np.conj(l1)), aa / (l2 - np.conj(l2))],
    ])
    np.testing.assert_allclose(a, expect, rtol=1e-13)
    np.testing.assert_allclose(b.conj().T, np.array([[-alpha, delta], [-alpha, -delta]]),
                               rtol=1e-13)
    assert np.all(np.isfinite(a.view(float)))


def test_build_system_g21_structure():
    # 3x3 target with the trivial seed: diagonal entries carry
    # (|al|^2 + |be|^2 - |ga|^2), off-diagonal the +|ga|^2 variant, and the
    # right-hand columns are -conj(v) with the last component sign-split
    al, be, ga = 1.2, 0.5, 0.8
    sig = Signature(2, 1)
    g3 = algebra.gamma(sig)
    cfg = SolitonConfig(sig, poles=(1j,),
                        vectors=(np.array([al, be, ga], dtype=complex),),
                        seed=seeds.identity_seed(sig))
    x = DomainPoint(rho=1.1, z=0.7)
    sd = dressing.spectral_data(cfg, x)
    a, b = dressing.build_system(sd, g3)
    minus, plus = al ** 2 + be ** 2 - ga ** 2, al ** 2 + be ** 2 + ga ** 2
    l1, l2 = sd.lambdas
    np.testing.assert_allclose(a[0, 0], minus / (l1 - np.conj(l1)), rtol=1e-13)
    np.testing.assert_allclose(a[1, 1], minus / (l2 - np.conj(l2)), rtol=1e-13)
    np.testing.assert_allclose(a[0, 1], plus / (l1 - np.conj(l2)), rtol=1e-13)
    np.testing.assert_allclose(b.conj().T,
                               np.array([[-al, -be, ga], [-al, -be, -ga]]), rtol=1e-13)


def test_constant_seed_coupling_and_pairing():
    # any valid constant seed has coupling S_kj = Gamma, and the deck
    # partner of v is q0 Gamma v (plain Gamma v for the trivial seed)
    t = 0.45
    q0 = np.array([[np.cosh(2 * t), np.sinh(2 * t)],
                   [np.sinh(2 * t), np.cosh(2 * t)]], dtype=complex)
    v = np.array([0.8, 0.3j], dtype=complex)
    x = DomainPoint(rho=1.4, z=-0.2)
    cfg = SolitonConfig(SIG11, (0.5 + 1j,), (v,), seeds.constant_seed(q0, SIG11))
    sd = dressing.spectral_data(cfg, x)
    for k in range(2):
        for j in range(2):
            s_kj = sd.psi0_inv[k] @ G11 @ sd.psi0_inv[j].conj().T
            np.testing.assert_allclose(s_kj, G11, atol=1e-14)
    np.testing.assert_allclose(sd.vs[1], q0 @ G11 @ v, atol=1e-15)
    # paired diagonal bilinears coincide: (q0 G v)* G (q0 G v) = v* G v
    d0 = sd.vs[0].conj() @ G11 @ sd.vs[0]
    d1 = sd.vs[1].conj() @ G11 @ sd.vs[1]
    np.testing.assert_allclose(d0, d1, atol=1e-14)


def test_solve_matches_closed_form_kerr_solution():
    m, s = 1.0, 1.0
    alpha, delta, _ = targets.kerr_params(m, s)
    cfg = kerr_cfg(m, s)
    r, th = 2.7, 0.9
    x = bl_point(r, th, m, s)
    sd = dressing.spectral_data(cfg, x)
    a, b = dressing.build_system(sd, G11)
    u = dressing.solve_system(a, b, cfg.tolerances)
    big_r, c = r - m, np.cos(th)
    aa, bb = alpha ** 2 - delta ** 2, alpha ** 2 + delta ** 2
    d = bb ** 2 / (4 * (big_r ** 2 + s ** 2)) - aa ** 2 / (4 * s ** 2 * np.sin(th) ** 2)
    u_closed = (1 / (2 * d)) * np.array([
        [alpha * (1j * aa / (s * (c + 1)) - bb / (big_r - 1j * s)),
         alpha * (-1j * aa / (s * (c - 1)) + bb / (big_r + 1j * s))],
        [delta * (-1j * aa / (s * (c + 1)) - bb / (big_r - 1j * s)),
         delta * (-1j * aa / (s * (c - 1)) - bb / (big_r + 1j * s))]])
    np.testing.assert_allclose(u, u_closed, rtol=1e-11)
    np.testing.assert_allclose(np.linalg.det(a), d, rtol=1e-12)
    resid = np.linalg.norm(a @ u.conj().T - b.conj().T)
    assert resid <= 1e-10 * np.linalg.norm(b)


def test_solve_system_singular_flag():
    a = np.array([[1e-7, 1.0], [1.0, 1e-7]], dtype=complex) * 1e-6
    a[1, 1] = a[0, 1] * a[1, 0] / a[0, 0]  # force det = 0 up to round-off
    with pytest.raises(SingularPointError):
        dressing.solve_system(a, np.eye(2, dtype=complex), Tolerances())


def test_reconstruct_empty_and_kerr_entries():
    # zero solitons: q = q0 exactly
    cfg0 = SolitonConfig(SIG11, poles=(), vectors=(), seed=seeds.identity_seed(SIG11))
    res = dressing.dress_point(cfg0, DomainPoint(rho=1.0, z=0.0))
    np.testing.assert_array_equal(res.q, np.eye(2))
    assert res.residuals["symspace"] == 0.0
    assert res.det_a == 1.0

    # dressed entries match the closed forms
    m, s = 1.0, 1.0
    alpha, delta, _ = targets.kerr_params(m, s)
    r, th = 3.1, 1.2
    res = dressing.dress_point(kerr_cfg(m, s), bl_point(r, th, m, s))
    big_r, c = r - m, np.cos(th)
    aa, bb = alpha ** 2 - delta ** 2, alpha ** 2 + delta ** 2
    f = aa ** 2 * (big_r ** 2 + s ** 2) - bb ** 2 * s ** 2 * np.sin(th) ** 2
    q11 = 1 + 8 * alpha ** 2 * delta ** 2 * s ** 2 / f
    q12 = -4 * s * alpha * delta * (1j * aa * big_r - bb * s * c) / f
    np.testing.assert_allclose(res.q[0, 0], q11, rtol=1e-11)
    np.testing.assert_allclose(res.q[0, 1], q12, rtol=1e-11)
    np.testing.assert_allclose(res.q[1, 0], np.conj(q12), rtol=1e-11)


def test_v_scaling_invariance():
    rng = np.random.default_rng(23)
    cfg = kerr_cfg()
    x = bl_point(2.4, 0.8)
    base = dressing.dress_point(cfg, x)
    c = complex(rng.normal(), rng.normal()) + 1.5
    scaled_cfg = SolitonConfig(SIG11, cfg.poles, (c * cfg.vectors[0],), cfg.seed)
    scaled = dressing.dress_point(scaled_cfg, x)
    assert algebra.frobenius(base.q - scaled.q) < 1e-10


def test_normalize_det_branches():
    q, warn = dressing.normalize_det(np.eye(2, dtype=complex))
    np.testing.assert_array_equal(q, np.eye(2))
    assert not warn
    q, warn = dressing.normalize_det(2 * np.eye(2, dtype=complex))
    np.testing.assert_allclose(q, np.eye(2), rtol=1e-15)
    assert not warn
    # non-real determinant: principal branch with the warning flag
    q, warn = dressing.normalize_det(np.diag([np.exp(0.3j), 1.0]))
    assert warn
    np.testing.assert_allclose(np.linalg.det(q), 1.0, atol=1e-14)
    with pytest.raises(SingularPointError):
        dressing.normalize_det(np.zeros((2, 2), dtype=complex))


def test_kerr_determinant_already_one():
    res = dressing.dress_point(kerr_cfg(), bl_point(2.9, 1.4))
    assert res.residuals["unit_det"] <= 1e-9
    assert res.residuals["det_branch_warning"] == 0.0


def test_chi_properties():
    cfg = kerr_cfg()
    x = bl_point(2.2, 1.0)
    sd = dressing.spectral_data(cfg, x)
    a, b = dressing.build_system(sd, G11)
    u = dressing.solve_system(a, b, cfg.tolerances)
    chi_far = dressing.chi_at(1e8, u, sd)
    assert algebra.frobenius(chi_far - np.eye(2)) < 1e-6
    q = dressing.reconstruct_q(u, sd, np.eye(2, dtype=complex))
    np.testing.assert_allclose(dressing.chi_at(0.0, u, sd), q, atol=1e-12)
    for k in range(2):
        rank_one = np.outer(u[:, k], sd.vs[k].conj())
        assert abs(np.linalg.det(rank_one)) < 1e-13
    with pytest.raises(DomainError):
        dressing.chi_at(sd.lambdas[0], u, sd)


def test_dominance_check_examples():
    assert dressing.dominance_check([np.array([1.0, 0.3])], G11)
    assert not dressing.dominance_check([np.array([1.0, 1.0])], G11)  # null vector
    assert dressing.dominance_check([np.array([1, 0]), np.array([0, 1])], G11)
    assert not dressing.dominance_check([np.array([1, 0]), np.array([1, 1e-3])], G11)


def test_dress_point_singular_at_branch_point():
    cfg = kerr_cfg(1.0, 1.0)  # pole at i, branch point where (z-i)^2 + rho^2 = 0
    res = dressing.dress_point(cfg, DomainPoint(rho=1.0, z=0.0))
    assert res.singular
    assert res.q is None
    assert "branch point" in res.note


def test_dress_point_numeric_failure_flagged():
    cfg = SolitonConfig(SIG11, (1j,), (np.array([1.2, 0.4]),),
                        seeds.identity_seed(SIG11),
                        Tolerances(condition_cap=1.0))
    res = dressing.dress_point(cfg, DomainPoint(rho=1.0, z=1.0))
    assert res.singular and res.q is None


def test_dress_point_with_nontrivial_constant_seed():
    t = 0.35
    q0 = np.array([[np.cosh(2 * t), np.sinh(2 * t)],
                   [np.sinh(2 * t), np.cosh(2 * t)]], dtype=complex)
    cfg = SolitonConfig(SIG11, (0.4 + 0.9j,), (np.array([1.0, 0.2 - 0.1j]),),
                        seeds.constant_seed(q0, SIG11))
    res = dressing.dress_point(cfg, DomainPoint(rho=1.2, z=0.3))
    assert not res.singular
    assert res.residuals["symspace"] <= 1e-9
    assert res.residuals["chi_reality"] <= 1e-9
    assert res.residuals["chi_involution"] <= 1e-9


def test_multi_soliton_g21_constraints():
    # two-soliton 3x3 dressings stay on the symmetric space and pass the
    # dressing-matrix audits at regular points
    rng = np.random.default_rng(53)
    sig = Signature(2, 1)
    seed3 = seeds.identity_seed(sig)
    checked = 0
    while checked < 6:
        poles = (complex(rng.normal(), 0.5 + rng.random()),
                 complex(rng.normal(), -0.4 - rng.random()))
        vectors = tuple(rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(2))
        cfg = SolitonConfig(sig, poles, vectors, seed3)
        x = DomainPoint(rho=0.8 + 2 * rng.random(), z=rng.normal())
        res = dressing.dress_point(cfg, x)
        if res.singular:
            continue
        assert res.residuals["symspace"] <= 1e-8
        assert res.residuals["chi_reality"] <= 1e-8
        assert res.residuals["chi_involution"] <= 1e-8
        checked += 1


def test_spectral_data_swap_length_guard():
    cfg = kerr_cfg()
    with pytest.raises(ConfigError):
        dressing.spectral_data(cfg, DomainPoint(rho=1.0, z=1.0), swap=(True, False))


def test_dress_grid_row_major():
    cfg = kerr_cfg()
    rhos = [1.5, 2.0]
    zs = [-0.5, 0.0, 0.5]
    rows = [[DomainPoint(rho=r, z=z) for z in zs] for r in rhos]
    out = dressing.dress_grid(cfg, rows)
    assert len(out) == 2 and len(out[0]) == 3
    assert out[0][0].x == rows[0][0]


def test_dressed_arrays_agree_with_the_point_view():
    # tight tolerances flag points by det A, the condition cap and the chi audit
    cfg = targets.kerr_config(1.0, 1.0, Tolerances(singular_tol=0.1, condition_cap=30.0))
    rhos, zs = np.linspace(0.25, 2.5, 6), np.linspace(-1.0, 1.5, 6)
    rho, z = np.meshgrid(rhos, zs, indexing="ij")
    dressed = dressing.dress(cfg, rho, z)
    rows = [[DomainPoint(rho=float(r), z=float(zz)) for zz in zs] for r in rhos]
    points = [p for row in dressing.dress_grid(cfg, rows) for p in row]
    assert dressed.rho.tolist() == [p.x.rho for p in points]
    assert dressed.singular.tolist() == [p.singular for p in points]
    assert dressed.notes == {i: p.note for i, p in enumerate(points) if p.singular}
    assert {note.split(" ")[0] for note in dressed.notes.values()} == {"det", "system", "chi"}
    for i, p in enumerate(points):
        assert dressed.has_q[i] == (p.q is not None)
        assert np.isnan(dressed.q[i]).all() == (p.q is None)
        if p.q is not None:
            assert np.array_equal(dressed.q[i], p.q)
        assert np.isnan(dressed.det_a[i]) == math.isnan(p.det_a.real)
        assert {k: math.isnan(v) for k, v in p.residuals.items()} == \
            {k: bool(np.isnan(col[i])) for k, col in dressed.residuals.items()}


@pytest.mark.parametrize("example", [KERR_RING, SU21, TIGHT], ids=["kerr-ring", "su21", "tight"])
def test_dressing_does_not_depend_on_the_batch_split(example):
    # bit-identical output however the points are batched: the ring locus,
    # branch points, and det A, condition and chi-audit flags
    cfg, rows = example
    rho, z = np.array([(x.rho, x.z) for row in rows for x in row]).T
    whole = dressing.dress(cfg, rho, z)
    half = len(rho) // 2
    parts = [dressing.dress(cfg, rho[part], z[part])
             for part in (slice(None, half), slice(half, None))]
    for key in ("q", "has_q", "det_a", "singular"):
        np.testing.assert_array_equal(getattr(whole, key),
                                      np.concatenate([getattr(p, key) for p in parts]))
    for key, col in whole.residuals.items():
        np.testing.assert_array_equal(col, np.concatenate([p.residuals[key] for p in parts]))
    second = {i + half: note for i, note in parts[1].notes.items()}
    assert whole.notes == {**parts[0].notes, **second}


def test_solve_residual_above_bound_flags_point_singular(monkeypatch):
    cfg = kerr_cfg()
    x = DomainPoint(rho=1.5, z=0.5)
    assert not dressing.dress_point(cfg, x).singular
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1 + 1e-6))
    res = dressing.dress_point(cfg, x)
    assert res.singular and res.q is None
    assert res.note.startswith("solve residual")


def _boost11(t):
    return np.array([[np.cosh(2 * t), np.sinh(2 * t)],
                     [np.sinh(2 * t), np.cosh(2 * t)]], dtype=complex)


@pytest.mark.parametrize("make_cfg, prefix, keeps_q", [
    # rho = 1, z = 0 is the branch point of the pole at i
    (lambda: kerr_cfg(), "branch point of varpi0=1j", False),
    (lambda: targets.kerr_config(1.0, 1.0, Tolerances(singular_tol=10.0)),
     "det A = ", False),
    (lambda: targets.kerr_config(1.0, 1.0, Tolerances(condition_cap=2.0)),
     "system condition ", False),
    # cond(psi0) = e^1.4 for the boosted seed
    (lambda: SolitonConfig(SIG11, (1j,), (np.array([1.2, 0.4]),),
                           seeds.constant_seed(_boost11(0.35), SIG11),
                           Tolerances(condition_cap=2.0)),
     "condition estimate 4.055e+00 exceeds cap", False),
    # conjugate poles: lam_0 = conj(lam_1) at every point
    (lambda: SolitonConfig(SIG11, (1j, -1j), (np.array([1.2, 0.4]), np.array([0.3, 1.0])),
                           seeds.identity_seed(SIG11)),
     "coincident pole pair: lam_0 - conj(lam_1) ~ 0", False),
    # cond(A) = 11 passes the cap, chi at some audit sample does not
    (lambda: targets.kerr_config(1.0, 1.0, Tolerances(condition_cap=50.0)),
     "chi audit failed: condition estimate", True),
])
def test_every_singular_reason_is_flagged_with_its_note(make_cfg, prefix, keeps_q):
    # a small grid: the branch point of the pole at i, and a regular point
    rows = [[DomainPoint(rho=1.0, z=0.0)], [DomainPoint(rho=1.5, z=0.5)]]
    out = dressing.dress_grid(make_cfg(), rows)
    res = out[0][0] if prefix.startswith("branch") else out[1][0]
    assert res.singular
    assert res.note.startswith(prefix), res.note
    assert (res.q is not None) == keeps_q
    if prefix.startswith("branch"):
        assert not out[1][0].singular and out[1][0].note == ""
    if prefix.startswith(("det A", "system")):
        assert np.isfinite(res.det_a)


def test_per_point_seed_dresses_like_the_constant_seed():
    q0 = _boost11(0.35)
    per_point = seeds.Seed(q0_eval=lambda x: q0, psi0_eval=lambda lam, x: q0,
                           signature=SIG11, constant=False)
    poles, vectors = (1j, 0.5 + 0.8j), (np.array([1.2, 0.4]), np.array([0.3, 1.0 + 0.2j]))
    rows = [[DomainPoint(rho=r, z=z) for z in (-0.5, 0.0, 0.5, 1.0)] for r in (0.8, 1.0, 1.6)]
    const = dressing.dress_grid(
        SolitonConfig(SIG11, poles, vectors, seeds.constant_seed(q0, SIG11)), rows)
    varying = dressing.dress_grid(SolitonConfig(SIG11, poles, vectors, per_point), rows)
    # the branch points of both poles lie on the grid
    assert sum(res.singular for row in const for res in row) == 2
    for a, b in zip((r for row in const for r in row), (r for row in varying for r in row)):
        assert (a.singular, a.note) == (b.singular, b.note)
        if a.q is not None:
            assert np.linalg.norm(a.q - b.q) <= 1e-13 * np.linalg.norm(a.q)
            assert abs(a.det_a - b.det_a) <= 1e-13 * abs(a.det_a)


def test_seed_marked_constant_that_varies_is_refused():
    q0 = _boost11(0.35)
    rows = [[DomainPoint(rho=r, z=0.3) for r in (0.8, 1.6)]]
    varying_q0 = seeds.Seed(q0_eval=lambda x: q0 if x.rho < 1 else np.eye(2, dtype=complex),
                            psi0_eval=lambda lam, x: q0, signature=SIG11, constant=True)
    varying_psi0 = seeds.Seed(q0_eval=lambda x: q0,
                              psi0_eval=lambda lam, x: q0 * (1.0 + 0.0 * lam) if x.rho < 1 else 2 * q0,
                              signature=SIG11, constant=True)
    for seed in (varying_q0, varying_psi0):
        with pytest.raises(SeedError, match="marked constant"):
            dressing.dress_grid(SolitonConfig(SIG11, (1j,), (np.array([1.2, 0.4]),), seed), rows)
