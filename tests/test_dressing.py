import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vesture import algebra, dressing, seeds, spectral, targets
from vesture.algebra import Signature
from vesture.dressing import SolitonConfig, Tolerances
from vesture.errors import ConfigError, SeedError, SingularPointError
from vesture.spectral import DomainPoint
from test_equivalence import KERR_RING, SU21, TIGHT, coords

SIG11 = Signature(1, 1)
G11 = algebra.gamma(SIG11)


def kerr_cfg(m=1.0, s=1.0):
    return targets.kerr_config(m, s)


def bl_point(r, th, m=1.0, s=1.0):
    return targets.bl_to_weyl(r, th, targets.BLParams(m=m, s=s))


def kernels(cfg, x):
    """The batch kernels at the one point x: spectral data, A, B*, the
    columns u_k of U and q before det normalisation, each with its batch
    axis."""
    fails = dressing._Failures(1)
    sd, q0 = dressing._spectral(cfg, np.array([x.rho]), np.array([x.z]), None, fails)
    a, b_star = dressing._system(sd, algebra.gamma(cfg.signature), fails)
    u = dressing._solve(a, b_star, cfg.tolerances, fails)[0].conj().swapaxes(-1, -2)
    q = dressing._reconstruct(dressing._residues(u, sd), sd.lambdas, q0, fails)
    assert fails.ok[0], fails.error[0]
    return sd, a, b_star, u, q


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
    sd = kernels(cfg, x)[0]
    assert sd.lambdas.shape == (1, 2)
    (l1, l2), vs = sd.lambdas[0], sd.vs[0]
    np.testing.assert_allclose(l1 * l2, -x.rho ** 2, atol=1e-13)
    np.testing.assert_array_equal(vs[1], G11 @ vs[0])
    np.testing.assert_array_equal(sd.psi0[0, 0], np.eye(2))
    pair = spectral.pole_pair(1j, x)
    np.testing.assert_allclose([l1, l2], [pair.lambda_in, pair.lambda_out], atol=1e-15)


def test_build_system_identity_seed_structure():
    # with the trivial seed the seed coupling reduces to the metric itself,
    # so a_kj = v_k* Gamma v_j / (lam_k - conj lam_j)
    alpha, delta = 1.1, 0.4
    cfg = SolitonConfig(SIG11, poles=(1j,),
                        vectors=(np.array([alpha, delta], dtype=complex),),
                        seed=seeds.identity_seed(SIG11))
    sd, a, b_star, _, _ = kernels(cfg, bl_point(2.3, 1.1))
    aa = alpha ** 2 - delta ** 2
    bb = alpha ** 2 + delta ** 2
    l1, l2 = sd.lambdas[0]
    expect = np.array([
        [aa / (l1 - np.conj(l1)), bb / (l1 - np.conj(l2))],
        [bb / (l2 - np.conj(l1)), aa / (l2 - np.conj(l2))],
    ])
    np.testing.assert_allclose(a[0], expect, rtol=1e-13)
    np.testing.assert_allclose(b_star[0], np.array([[-alpha, delta], [-alpha, -delta]]),
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
    sd, a, b_star, _, _ = kernels(cfg, DomainPoint(rho=1.1, z=0.7))
    minus, plus = al ** 2 + be ** 2 - ga ** 2, al ** 2 + be ** 2 + ga ** 2
    (l1, l2), a = sd.lambdas[0], a[0]
    np.testing.assert_allclose(a[0, 0], minus / (l1 - np.conj(l1)), rtol=1e-13)
    np.testing.assert_allclose(a[1, 1], minus / (l2 - np.conj(l2)), rtol=1e-13)
    np.testing.assert_allclose(a[0, 1], plus / (l1 - np.conj(l2)), rtol=1e-13)
    np.testing.assert_allclose(b_star[0],
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
    sd = kernels(cfg, x)[0]
    psi0_inv, vs = sd.psi0_inv[0], sd.vs[0]
    for k in range(2):
        for j in range(2):
            s_kj = psi0_inv[k] @ G11 @ psi0_inv[j].conj().T
            np.testing.assert_allclose(s_kj, G11, atol=1e-14)
    np.testing.assert_allclose(vs[1], q0 @ G11 @ v, atol=1e-15)
    # paired diagonal bilinears coincide: (q0 G v)* G (q0 G v) = v* G v
    d0 = vs[0].conj() @ G11 @ vs[0]
    d1 = vs[1].conj() @ G11 @ vs[1]
    np.testing.assert_allclose(d0, d1, atol=1e-14)


def test_solve_matches_closed_form_kerr_solution():
    m, s = 1.0, 1.0
    alpha, delta, _ = targets.kerr_params(m, s)
    cfg = kerr_cfg(m, s)
    r, th = 2.7, 0.9
    _, a, b_star, u, _ = kernels(cfg, bl_point(r, th, m, s))
    a, b_star, u = a[0], b_star[0], u[0]
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
    resid = np.linalg.norm(a @ u.conj().T - b_star)
    assert resid <= 1e-10 * np.linalg.norm(b_star)


def test_solve_system_singular_flag():
    a = np.array([[1e-7, 1.0], [1.0, 1e-7]], dtype=complex) * 1e-6
    a[1, 1] = a[0, 1] * a[1, 0] / a[0, 0]  # force det = 0 up to round-off
    fails = dressing._Failures(1)
    dressing._solve(a[None], np.eye(2, dtype=complex)[None], Tolerances(), fails)
    assert isinstance(fails.error[0], SingularPointError)


def test_reconstruct_empty_and_kerr_entries():
    # zero solitons: q = q0 exactly
    cfg0 = SolitonConfig(SIG11, poles=(), vectors=(), seed=seeds.identity_seed(SIG11))
    res = dressing.dress(cfg0, 1.0, 0.0)
    np.testing.assert_array_equal(res.q[0], np.eye(2))
    assert res.residuals["symspace"][0] == 0.0
    assert res.det_a[0] == 1.0

    # dressed entries match the closed forms
    m, s = 1.0, 1.0
    alpha, delta, _ = targets.kerr_params(m, s)
    r, th = 3.1, 1.2
    x = bl_point(r, th, m, s)
    q = dressing.dress(kerr_cfg(m, s), x.rho, x.z).q[0]
    big_r, c = r - m, np.cos(th)
    aa, bb = alpha ** 2 - delta ** 2, alpha ** 2 + delta ** 2
    f = aa ** 2 * (big_r ** 2 + s ** 2) - bb ** 2 * s ** 2 * np.sin(th) ** 2
    q11 = 1 + 8 * alpha ** 2 * delta ** 2 * s ** 2 / f
    q12 = -4 * s * alpha * delta * (1j * aa * big_r - bb * s * c) / f
    np.testing.assert_allclose(q[0, 0], q11, rtol=1e-11)
    np.testing.assert_allclose(q[0, 1], q12, rtol=1e-11)
    np.testing.assert_allclose(q[1, 0], np.conj(q12), rtol=1e-11)


def test_v_scaling_invariance():
    rng = np.random.default_rng(23)
    cfg = kerr_cfg()
    x = bl_point(2.4, 0.8)
    base = dressing.dress(cfg, x.rho, x.z)
    c = complex(rng.normal(), rng.normal()) + 1.5
    scaled_cfg = SolitonConfig(SIG11, cfg.poles, (c * cfg.vectors[0],), cfg.seed)
    scaled = dressing.dress(scaled_cfg, x.rho, x.z)
    assert algebra.frobenius(base.q[0] - scaled.q[0]) < 1e-10


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
    x = bl_point(2.9, 1.4)
    res = dressing.dress(kerr_cfg(), x.rho, x.z)
    assert res.residuals["unit_det"][0] <= 1e-9
    assert res.residuals["det_branch_warning"][0] == 0.0


def test_chi_properties():
    cfg = kerr_cfg()
    sd, _, _, u, q = kernels(cfg, bl_point(2.2, 1.0))
    res = dressing._residues(u, sd)
    # chi at infinity, at 0 and at its first pole
    chi, at_pole = dressing._chi(np.array([[1e8, 0.0, sd.lambdas[0, 0]]]), res, sd.lambdas)
    assert algebra.frobenius(chi[0, 0] - np.eye(2)) < 1e-6
    np.testing.assert_allclose(chi[0, 1], q[0], atol=1e-12)
    for k in range(2):
        rank_one = np.outer(u[0, :, k], sd.vs[0, k].conj())
        assert abs(np.linalg.det(rank_one)) < 1e-13
    assert at_pole[0].tolist() == [[False, False], [False, False], [True, False]]


def test_dominance_check_examples():
    assert dressing.dominance_check([np.array([1.0, 0.3])], G11)
    assert not dressing.dominance_check([np.array([1.0, 1.0])], G11)  # null vector
    assert dressing.dominance_check([np.array([1, 0]), np.array([0, 1])], G11)
    assert not dressing.dominance_check([np.array([1, 0]), np.array([1, 1e-3])], G11)


def test_dress_point_singular_at_branch_point():
    cfg = kerr_cfg(1.0, 1.0)  # pole at i, branch point where (z-i)^2 + rho^2 = 0
    res = dressing.dress(cfg, 1.0, 0.0)
    assert res.singular[0] and not res.has_q[0]
    assert np.isnan(res.q).all()
    assert "branch point" in res.notes[0]


def test_dress_point_numeric_failure_flagged():
    cfg = SolitonConfig(SIG11, (1j,), (np.array([1.2, 0.4]),),
                        seeds.identity_seed(SIG11),
                        Tolerances(condition_cap=1.0))
    res = dressing.dress(cfg, 1.0, 1.0)
    assert res.singular[0] and not res.has_q[0]


def test_dress_point_with_nontrivial_constant_seed():
    t = 0.35
    q0 = np.array([[np.cosh(2 * t), np.sinh(2 * t)],
                   [np.sinh(2 * t), np.cosh(2 * t)]], dtype=complex)
    cfg = SolitonConfig(SIG11, (0.4 + 0.9j,), (np.array([1.0, 0.2 - 0.1j]),),
                        seeds.constant_seed(q0, SIG11))
    res = dressing.dress(cfg, 1.2, 0.3)
    assert not res.singular[0]
    for key in ("symspace", "chi_reality", "chi_involution"):
        assert res.residuals[key][0] <= 1e-9


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
        res = dressing.dress(cfg, 0.8 + 2 * rng.random(), rng.normal())
        if res.singular[0]:
            continue
        for key in ("symspace", "chi_reality", "chi_involution"):
            assert res.residuals[key][0] <= 1e-8
        checked += 1


def test_spectral_data_swap_length_guard():
    with pytest.raises(ConfigError):
        dressing.dress(kerr_cfg(), 1.0, 1.0, swap=(True, False))


def test_an_empty_batch_has_the_arrays_of_one_point():
    cfg = SU21[0]
    empty, one = dressing.dress(cfg, [], []), dressing.dress(cfg, [1.0], [0.3])
    assert empty.q.shape == (0, 3, 3) and empty.notes == {}
    for key in ("rho", "z", "q", "has_q", "det_a", "singular"):
        got, want = getattr(empty, key), getattr(one, key)
        assert (got.shape, got.dtype) == ((0,) + want.shape[1:], want.dtype), key
    assert list(empty.residuals) == list(one.residuals)
    for key, col in empty.residuals.items():
        assert col.shape == (0,) and col.dtype == one.residuals[key].dtype == float, key


@pytest.mark.parametrize("example", [KERR_RING, SU21, TIGHT], ids=["kerr-ring", "su21", "tight"])
def test_dressing_does_not_depend_on_the_batch_split(example):
    # bit-identical output however the points are batched: the ring locus,
    # branch points, and det A, condition and chi-audit flags
    cfg, rows = example
    rho, z = coords(rows).reshape(2, -1)
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
    assert not dressing.dress(cfg, 1.5, 0.5).singular[0]
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1 + 1e-6))
    res = dressing.dress(cfg, 1.5, 0.5)
    assert res.singular[0] and not res.has_q[0]
    assert res.notes[0].startswith("solve residual")


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
    # two points: the branch point of the pole at i, and a regular point
    out = dressing.dress(make_cfg(), [1.0, 1.5], [0.0, 0.5])
    i = 0 if prefix.startswith("branch") else 1
    assert out.singular[i]
    assert out.notes[i].startswith(prefix), out.notes[i]
    assert out.has_q[i] == np.isfinite(out.q[i]).all() == keeps_q
    if prefix.startswith("branch"):
        assert not out.singular[1] and 1 not in out.notes
    if prefix.startswith(("det A", "system")):
        assert np.isfinite(out.det_a[i])


def test_per_point_seed_dresses_like_the_constant_seed():
    q0 = _boost11(0.35)
    per_point = seeds.Seed(q0_eval=lambda x: q0, psi0_eval=lambda lam, x: q0,
                           signature=SIG11, constant=False)
    poles, vectors = (1j, 0.5 + 0.8j), (np.array([1.2, 0.4]), np.array([0.3, 1.0 + 0.2j]))
    rho, z = np.meshgrid([0.8, 1.0, 1.6], [-0.5, 0.0, 0.5, 1.0], indexing="ij")
    const = dressing.dress(
        SolitonConfig(SIG11, poles, vectors, seeds.constant_seed(q0, SIG11)), rho, z)
    varying = dressing.dress(SolitonConfig(SIG11, poles, vectors, per_point), rho, z)
    # the branch points of both poles lie on the grid
    assert const.singular.sum() == 2
    assert (const.singular.tolist(), const.notes) == (varying.singular.tolist(), varying.notes)
    for i in np.flatnonzero(const.has_q):
        a, b = const.q[i], varying.q[i]
        assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(a)
        assert abs(const.det_a[i] - varying.det_a[i]) <= 1e-13 * abs(const.det_a[i])


def test_seed_marked_constant_that_varies_is_refused():
    q0 = _boost11(0.35)
    varying_q0 = seeds.Seed(q0_eval=lambda x: q0 if x.rho < 1 else np.eye(2, dtype=complex),
                            psi0_eval=lambda lam, x: q0, signature=SIG11, constant=True)
    varying_psi0 = seeds.Seed(q0_eval=lambda x: q0,
                              psi0_eval=lambda lam, x: q0 * (1.0 + 0.0 * lam) if x.rho < 1 else 2 * q0,
                              signature=SIG11, constant=True)
    for seed in (varying_q0, varying_psi0):
        with pytest.raises(SeedError, match="marked constant"):
            dressing.dress(SolitonConfig(SIG11, (1j,), (np.array([1.2, 0.4]),), seed),
                           [0.8, 1.6], [0.3, 0.3])


def _rescanned_audit_samples(lambdas, rho):
    """The audit-sample search as first written, frozen here: every sample is
    rescanned on every pass, with one np.hypot per probe and pole."""
    scale = np.maximum(1.0, np.hypot(lambdas.real, lambdas.imag).max(axis=-1, initial=0.0))
    gap = 1e-3 * scale[:, None]
    samples = np.asarray(dressing.CHI_SAMPLES) * np.maximum(1.0, 0.3 * scale)[:, None]
    avoid = np.concatenate([lambdas, lambdas.conj()], axis=-1).T[..., None]
    moving = np.ones(samples.shape, dtype=bool)
    for _ in range(60):
        dist = np.full(samples.shape, np.inf)
        for probe in (samples, samples.conj(), -(rho * rho)[:, None] / samples):
            for pole in avoid:
                d = probe - pole
                dist = np.minimum(dist, np.hypot(d.real, d.imag))
        moving &= ~(dist > gap)
        if not moving.any():
            break
        samples = np.where(moving, samples * 1.171, samples)
    return samples


def _moved(sample: int, k: int) -> complex:
    """An audit sample after k moves, where no pole rescales the samples."""
    lam = np.asarray(dressing.CHI_SAMPLES)[sample]
    for _ in range(k):
        lam = lam * 1.171
    return complex(lam)


#: a pole whose distance from the first sample rounds to the gap 1e-3 exactly
ONE_GAP = 0.3692877000010982 + 0.6192981248604171j
#: (poles, rho) with ONE_GAP on the decision boundary: the first sample moves once
BOUNDARY = (np.array([[ONE_GAP, 2.0 + 2.0j]]), np.array([1.0]))
#: poles on the first sample after 0-3 moves, reached by lam, its conjugate and
#: its deck image: the first sample moves four times
CHAIN = (np.array([[_moved(0, 0), _moved(0, 1).conjugate(), _moved(0, 2), -1.0 / _moved(0, 3)],
                   [1.0j, -1.0j, 0.5, 0.25]]), np.array([1.0, 0.3]))


@st.composite
def _sample_problems(draw):
    """Pole rows (P, 2N) and radii: free poles, poles on a sample, on its
    conjugate or on its deck image after a few moves, and ONE_GAP."""
    rows, rhos, width = [], [], 2 * draw(st.integers(1, 3))
    for _ in range(draw(st.integers(1, 3))):
        rho = draw(st.floats(0.05, 4.0))
        row = []
        for _ in range(width):
            kind = draw(st.sampled_from(["free", "sample", "conj", "deck", "one-gap"]))
            near = _moved(draw(st.integers(0, 7)), draw(st.integers(0, 4)))
            if kind == "free":
                pole = complex(draw(st.floats(-6.0, 6.0)), draw(st.floats(-6.0, 6.0)))
            elif kind == "one-gap":
                pole = ONE_GAP
            else:
                pole = {"sample": near, "conj": near.conjugate(),
                        "deck": -(rho * rho) / near}[kind]
            row.append(pole)
        rows.append(row)
        rhos.append(rho)
    return np.array(rows, dtype=complex), np.array(rhos)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_sample_problems())
@example(BOUNDARY)
@example(CHAIN)
def test_audit_samples_match_the_full_rescan(problem):
    lambdas, rho = problem
    got = dressing._audit_samples(lambdas, rho)
    want = _rescanned_audit_samples(lambdas, rho)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_audit_sample_edge_cases_are_exercised():
    first = dressing.CHI_SAMPLES[0]
    assert np.hypot((first - ONE_GAP).real, (first - ONE_GAP).imag) == 1e-3
    assert dressing._audit_samples(*BOUNDARY)[0, 0] == _moved(0, 1)
    assert dressing._audit_samples(*CHAIN)[0, 0] == _moved(0, 4)


@pytest.mark.parametrize("problem", [KERR_RING, SU21, TIGHT], ids=["kerr-ring", "su21", "tight"])
def test_audit_inverts_only_samples_its_bound_cannot_clear(monkeypatch, problem):
    # the reality residual needs no inverse; LU runs only where the
    # inverse-free condition bound does not clear the cap by 10x
    cfg, rows = problem
    cap, inverted, inside = cfg.tolerances.condition_cap, [], []
    inv, audit = np.linalg.inv, dressing._audit

    def counted_inv(m):
        if inside:
            inverted.extend(np.reshape(m, (-1,) + np.shape(m)[-2:]))
        return inv(m)

    def traced_audit(*args, **kwargs):
        inside.append(True)
        try:
            return audit(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    monkeypatch.setattr(dressing, "_audit", traced_audit)
    out = dressing.dress(cfg, *coords(rows))
    refusals = [note for note in out.notes.values() if note.startswith("chi audit failed: cond")]
    if problem is not TIGHT:
        assert inverted == [] and refusals == []
        return
    audited = out.has_q.sum() * len(dressing.CHI_SAMPLES)
    assert len(refusals) == 6 and len(refusals) <= len(inverted) < audited
    for m in inverted:
        assert 10.0 * algebra.frobenius(m) * algebra.frobenius(inv(m)) > cap * (1 - 1e-9)
