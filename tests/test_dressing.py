import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _closed_forms as closed_forms
import _exact_dressing as exact_dressing
from _exact_dressing import CHI_SAMPLES, forward_bound
from _problems import KERR_RING, LARGE_Q, NEAR_LOCUS, SU21, TIGHT, boosted, kernels, thresholds
from vesture import algebra, dressing, seeds, spectral, targets, verification
from vesture.algebra import Signature
from vesture.dressing import SolitonConfig
from vesture.errors import ConfigError
from vesture.spectral import DomainPoint
from vesture.verification import gate_exclusion

SIG11 = Signature(1, 1)
G11 = algebra.gamma(SIG11)


def kerr_cfg(m=1.0, s=1.0):
    return targets.kerr_config(m, s)


def bl_point(r, th, m=1.0, s=1.0):
    return DomainPoint(*targets.bl_chart(r, th, targets.BLParams(m=m, s=s)))


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
    l1, l2 = sd.lambdas[0]
    np.testing.assert_allclose(l1 * l2, -x.rho ** 2, atol=1e-13)
    # the flat seed's Psi0 is I, so w_k = v_k*, once for every point, and
    # the deck partner of v is Gamma v
    v = cfg.vectors[0]
    np.testing.assert_array_equal(sd.w, np.array([[v, G11 @ v]]).conj())
    lam_in, lam_out, _ = spectral.pole_pairs([1j], [x.rho], [x.z])
    np.testing.assert_allclose([l1, l2], [lam_in[0, 0], lam_out[0, 0]], atol=1e-15)


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
    # any valid constant seed has coupling S_kj = Gamma, so the Gram
    # numerators w_k Gamma w_j^* are v_k* Gamma v_j, and the deck partner of
    # v is q0 Gamma v (plain Gamma v for the trivial seed)
    q0 = boosted(SIG11, 0.45)
    v = np.array([0.8, 0.3j], dtype=complex)
    x = DomainPoint(rho=1.4, z=-0.2)
    cfg = SolitonConfig(SIG11, (0.5 + 1j,), (v,), seeds.constant_seed(q0, SIG11))
    sd = kernels(cfg, x)[0]
    w, vs = sd.w[0], np.array([v, q0 @ G11 @ v])
    np.testing.assert_allclose(w @ G11 @ w.conj().T, vs.conj() @ G11 @ vs.T, atol=1e-14)
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
    np.testing.assert_allclose(u.T, u_closed, rtol=1e-11)
    np.testing.assert_allclose(np.linalg.det(a), d, rtol=1e-12)
    resid = np.linalg.norm(a @ u.conj() - b_star)
    assert resid <= 1e-10 * np.linalg.norm(b_star)


def test_solve_system_singular_flag():
    a = np.array([[1e-7, 1.0], [1.0, 1e-7]], dtype=complex) * 1e-6
    a[1, 1] = a[0, 1] * a[1, 0] / a[0, 0]  # force det = 0 up to round-off
    fails = dressing._Failures(1)
    dressing._solve(a[None], np.eye(2, dtype=complex)[None], fails)
    assert fails.note[0].startswith("det A = ")
    assert fails.note[0].endswith(" below singular threshold")


def _solve_by_whole_stack(a, b_star, fails):
    """The solve as it was before det A bounded the condition, frozen as a
    reference: algebra.checked_inv over the whole stack."""
    eye, cap = np.eye(a.shape[-1]), algebra.CONDITION_CAP
    det = np.linalg.det(a)
    fails.flag(np.abs(det) < dressing.SINGULAR_TOL,
               lambda i: f"det A = {complex(det[i]):.3e} below singular threshold")
    a = np.where(fails.ok[:, None, None], a, eye)
    cond = algebra.checked_inv(a)[1]
    fails.flag(~(cond <= cap), lambda i: f"system condition {cond[i]:.3e} exceeds cap {cap:.3e}")
    a = np.where(fails.ok[:, None, None], a, eye)
    u_star = np.linalg.solve(a, b_star)
    resid = algebra.frobenius(algebra.mul(a, u_star) - b_star)
    bound = dressing.SOLVE_RESIDUAL_REL * np.maximum(algebra.frobenius(b_star), 1e-300)
    fails.flag(resid > bound, lambda i:
               f"solve residual {resid[i]:.3e} above {dressing.SOLVE_RESIDUAL_REL:.0e}*||B||")
    return u_star, det


@st.composite
def _systems(draw):
    """(A, B*, singular_tol, cap): a (P, m, m) stack, m in {2, 4, 6}, of
    matrices with a chosen 2-norm condition (up to 1e16) or a zero row,
    scaled as A is when the vectors are rescaled by c; the |det A| flag 0
    or 1e-12 and the condition cap 30 or 1e12 to dress it at."""
    m, c = draw(st.sampled_from([2, 4, 6])), draw(st.sampled_from([0.01, 1.0, 100.0]))
    limits = draw(st.sampled_from([0.0, 1e-12])), draw(st.sampled_from([30.0, 1e12]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = []
    for _ in range(draw(st.integers(1, 6))):
        u, _, vh = np.linalg.svd(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        cond = draw(st.sampled_from([1.0, 3.0, 10.0, 30.0, 100.0, 1e3, 1e11, 1e12, 1e13, 1e16]))
        a = (u * np.geomspace(1.0, 1.0 / cond, m)[rng.permutation(m)]) @ vh
        if draw(st.booleans()) and draw(st.booleans()):
            a[rng.integers(m)] = 0.0  # exactly singular
        stack.append(c * c * a)
    b_star = rng.normal(size=(len(stack), m, 2)) + 1j * rng.normal(size=(len(stack), m, 2))
    return np.array(stack), b_star, *limits


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_systems())
def test_system_condition_from_det_a_flags_as_the_whole_stack_did(problem):
    a, b_star, singular_tol, cap = problem
    checked, inv = [], algebra.checked_inv

    def recorded(m):
        checked.extend(m)
        return inv(m)

    fails, want = dressing._Failures(len(a)), dressing._Failures(len(a))
    with thresholds(singular_tol, cap):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algebra, "checked_inv", recorded)
            got_u, got_det = dressing._solve(a, b_star, fails)
        want_u, want_det = _solve_by_whole_stack(a, b_star, want)
    assert np.array_equal(fails.ok, want.ok)
    assert fails.note == want.note
    assert np.array_equal(got_u.view(float), want_u.view(float))
    assert np.array_equal(got_det.view(float), want_det.view(float))
    # a system the det A bound accepted has its condition within the cap
    passed = {m.tobytes() for m in checked}
    for i in np.flatnonzero(np.abs(got_det) >= singular_tol):
        if a[i].tobytes() not in passed:
            assert np.linalg.cond(a[i]) <= cap


@st.composite
def _flag_problems(draw):
    """(config, rho, z, singular_tol, cap): N <= 3 solitons of a target with
    n <= 4 on a small Weyl lattice, a pole possibly on a lattice point's
    branch point or the conjugate of the one before; the |det A| flag in
    {1e-30, 1e-12, 0.1, 10} and the condition cap 30 or 1e12 to dress at."""
    sig = Signature(*draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3)])))
    rhos = np.linspace(draw(st.floats(0.3, 1.0)), draw(st.floats(1.5, 3.0)),
                       draw(st.integers(2, 5)))
    zs = np.linspace(draw(st.floats(-2.0, -0.5)), draw(st.floats(0.5, 2.0)),
                     draw(st.integers(2, 5)))
    coord, poles = st.floats(-1.5, 1.5), []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["free", "branch", "conjugate"]))
        if kind == "branch":
            pole = complex(draw(st.sampled_from(list(zs))), draw(st.sampled_from(list(rhos))))
        elif kind == "conjugate" and poles:
            pole = poles[-1].conjugate()
        else:
            sign = draw(st.sampled_from([1.0, -1.0]))
            pole = complex(draw(coord), sign * draw(st.floats(0.3, 1.5)))
        if pole not in poles:
            poles.append(pole)
    vectors = [np.array([complex(draw(coord), draw(coord)) for _ in range(sig.n)])
               for _ in poles]
    assume(all(np.linalg.norm(v) > 0.2 for v in vectors))
    singular_tol = draw(st.sampled_from([1e-30, 1e-12, 0.1, 10.0]))
    cap = draw(st.sampled_from([30.0, 1e12]))
    rho, z = np.meshgrid(rhos, zs, indexing="ij")
    return (SolitonConfig(sig, tuple(poles), tuple(vectors), seeds.identity_seed(sig)), rho, z,
            singular_tol, cap)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_flag_problems())
def test_a_det_a_below_the_threshold_or_not_finite_is_flagged(problem):
    # the lattice gate reads the flags and the sign of det A alone: a point
    # the threshold or a non-finite det A would catch must already be flagged
    cfg, rho, z, singular_tol, cap = problem
    with thresholds(singular_tol, cap):
        dressed = dressing.dress(cfg, rho, z)
    caught = (np.abs(dressed.det_a) < singular_tol) | ~np.isfinite(dressed.det_a)
    assert np.all(dressed.singular[caught])


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


def test_kerr_determinant_already_one():
    x = bl_point(2.9, 1.4)
    res = dressing.dress(kerr_cfg(), x.rho, x.z)
    assert res.residuals["unit_det"][0] <= 1e-9


@pytest.mark.parametrize("problem, point, bound", [
    (LARGE_Q, (0.5, -2.0), 1e-11),  # ||q||_F^2 = 2.3e7
    (NEAR_LOCUS, (1.0, -0.375), 1e-9),  # cond(A) = 3.8e5, next to a det A zero
], ids=["large-q", "near-locus"])
def test_q_is_close_to_its_50_digit_value(problem, point, bound):
    # the forward error of q against the same dressing evaluated in 50-digit
    # arithmetic from the same float inputs
    exact = exact_dressing.dressed(problem[0], *point).q[0]
    got = dressing.dress(problem[0], *point).q[0]
    assert np.linalg.norm(got - exact) <= bound * np.linalg.norm(exact)


def test_the_named_problems_cover_branch_points_and_the_locus():
    cfg, rho, z = SU21
    assert dressing.dress(cfg, rho, z).singular.sum() == 3
    cfg, rho, z = KERR_RING
    dressed = dressing.dress(cfg, rho, z)
    band = gate_exclusion(dressed.singular.reshape(rho.shape), dressed.det_a.reshape(rho.shape))
    assert not dressed.singular.any() and band.any() and not band.all()
    cfg, rho, z, *limits = TIGHT
    with thresholds(*limits):
        dressed = dressing.dress(cfg, rho, z)
    assert {note.split(" ")[0] for note in dressed.notes.values()} == {"det", "system"}
    assert not dressed.singular.all()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "spectral.pole_pairs forms lambda_in = c - sqrt(c^2 + rho^2) by subtraction, which "
    "loses about eps (|c| / rho)^2 where |c| >> rho: on this axis q reads 1.9e-11, "
    "1.6e-9 and 1.8e-7 relative at rho = 1e-2, 1e-3 and 1e-4"))
def test_q_is_close_to_its_50_digit_value_next_to_the_axis():
    cfg, z = kerr_cfg(), np.linspace(4.0, 12.0, 5)
    for rho in (1e-2, 1e-3, 1e-4):
        got = dressing.dress(cfg, np.full(z.shape, rho), z)
        assert not got.singular.any()
        exact = exact_dressing.dressed(cfg, np.full(z.shape, rho), z).q
        err = np.linalg.norm(got.q - exact, axis=(-2, -1))
        assert np.all(err <= 1e-13 * np.linalg.norm(exact, axis=(-2, -1)))


def test_unit_det_audits_the_reconstructed_determinant(monkeypatch):
    # a q off the symmetric space by a factor 1 + 1e-6 reads det q - 1 = n 1e-6
    rho, z = np.meshgrid([1.5, 2.5], [-0.5, 0.5])
    cfg = SU21[0]
    clean = dressing.dress(cfg, rho, z)
    reconstruct = dressing._reconstruct
    monkeypatch.setattr(dressing, "_reconstruct",
                        lambda *args: reconstruct(*args) * (1.0 + 1e-6))
    scaled = dressing.dress(cfg, rho, z)
    assert not clean.singular.any() and not scaled.singular.any()
    assert clean.residuals["unit_det"].max() <= 1e-12
    np.testing.assert_allclose(scaled.residuals["unit_det"], 3e-6, rtol=1e-5)


def test_chi_properties():
    cfg = kerr_cfg()
    sd, _, _, u, q = kernels(cfg, bl_point(2.2, 1.0))
    # chi at infinity, at 0 and at its first pole
    chi, at_pole = dressing._chi(np.array([[1e8, 0.0, sd.lambdas[0, 0]]]), u, sd.w, sd.lambdas)
    assert algebra.frobenius(chi[0, 0] - np.eye(2)) < 1e-6
    np.testing.assert_allclose(chi[0, 1], q[0], atol=1e-12)
    for k in range(2):
        rank_one = np.outer(u[0, k], sd.w[0, k])
        assert abs(np.linalg.det(rank_one)) < 1e-13
    assert at_pole[0].tolist() == [[False, False], [False, False], [True, False]]


def test_dominance_check_examples():
    assert closed_forms.dominance_check([np.array([1.0, 0.3])], G11)
    assert not closed_forms.dominance_check([np.array([1.0, 1.0])], G11)  # null vector
    assert closed_forms.dominance_check([np.array([1, 0]), np.array([0, 1])], G11)
    assert not closed_forms.dominance_check([np.array([1, 0]), np.array([1, 1e-3])], G11)


def test_dress_point_singular_at_branch_point():
    cfg = kerr_cfg(1.0, 1.0)  # pole at i, branch point where (z-i)^2 + rho^2 = 0
    res = dressing.dress(cfg, 1.0, 0.0)
    assert res.singular[0] and np.isnan(res.q).all()
    assert "branch point" in res.notes[0]


def test_dress_point_numeric_failure_flagged(monkeypatch):
    cfg = SolitonConfig(SIG11, (1j,), (np.array([1.2, 0.4]),), seeds.identity_seed(SIG11))
    monkeypatch.setattr(algebra, "CONDITION_CAP", 1.0)
    res = dressing.dress(cfg, 1.0, 1.0)
    assert res.singular[0] and np.isnan(res.q[0]).all()


def test_dress_point_with_nontrivial_constant_seed():
    q0 = boosted(SIG11, 0.35)
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
    for key in ("rho", "z", "q", "det_a", "singular"):
        got, want = getattr(empty, key), getattr(one, key)
        assert (got.shape, got.dtype) == ((0,) + want.shape[1:], want.dtype), key
    assert list(empty.residuals) == list(one.residuals)
    for key, col in empty.residuals.items():
        assert col.shape == (0,) and col.dtype == one.residuals[key].dtype == float, key


@pytest.mark.parametrize("example", [KERR_RING, SU21, TIGHT], ids=["kerr-ring", "su21", "tight"])
def test_dressing_does_not_depend_on_the_batch_split(example):
    # bit-identical output however the points are batched: the ring locus,
    # branch points, det A and condition flags, and the chi audits
    cfg, rho, z, *limits = example
    rho, z = rho.ravel(), z.ravel()
    half = len(rho) // 2
    with thresholds(*limits):
        whole = dressing.dress(cfg, rho, z)
        parts = [dressing.dress(cfg, rho[part], z[part])
                 for part in (slice(None, half), slice(half, None))]
    for key in ("q", "det_a", "singular"):
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
    assert res.singular[0] and np.isnan(res.q[0]).all()
    assert res.notes[0].startswith("solve residual")


@pytest.mark.parametrize("make_cfg, prefix, keeps_q", [
    # rho = 1, z = 0 is the branch point of the pole at i
    (lambda: (kerr_cfg(), {}), "branch point of varpi0=1j", False),
    (lambda: (kerr_cfg(), {"singular_tol": 10.0}), "det A = ", False),
    (lambda: (kerr_cfg(), {"cap": 2.0}), "system condition ", False),
    # cond(psi0) = e^1.4 for the boosted seed
    (lambda: (SolitonConfig(SIG11, (1j,), (np.array([1.2, 0.4]),),
                            seeds.constant_seed(boosted(SIG11, 0.35), SIG11)), {"cap": 2.0}),
     "condition estimate 4.055e+00 exceeds cap", False),
    # conjugate poles: lam_0 = conj(lam_1) at every point
    (lambda: (SolitonConfig(SIG11, (1j, -1j), (np.array([1.2, 0.4]), np.array([0.3, 1.0])),
                            seeds.identity_seed(SIG11)), {}),
     "coincident pole pair: lam_0 - conj(lam_1) ~ 0", False),
])
def test_every_singular_reason_is_flagged_with_its_note(make_cfg, prefix, keeps_q):
    # two points: the branch point of the pole at i, and a regular point;
    # make_cfg gives the config and the thresholds it is dressed at
    cfg, limits = make_cfg()
    with thresholds(**limits):
        out = dressing.dress(cfg, [1.0, 1.5], [0.0, 0.5])
    i = 0 if prefix.startswith("branch") else 1
    assert out.singular[i]
    assert out.notes[i].startswith(prefix), out.notes[i]
    assert np.isfinite(out.q[i]).all() == keeps_q
    if prefix.startswith("branch"):
        assert not out.singular[1] and 1 not in out.notes
    if prefix.startswith(("det A", "system")):
        assert np.isfinite(out.det_a[i])


def test_per_point_seed_dresses_like_the_constant_seed():
    # evaluators that return full (P, M) batch axes of one constant matrix
    q0 = boosted(SIG11, 0.35)
    calls = []

    def psi0(lam, rho, z):
        calls.append(lam.shape)
        return np.broadcast_to(q0, lam.shape + q0.shape), {}

    per_point = seeds.Seed(psi0, q0, SIG11)
    poles, vectors = (1j, 0.5 + 0.8j), (np.array([1.2, 0.4]), np.array([0.3, 1.0 + 0.2j]))
    rho, z = np.meshgrid([0.8, 1.0, 1.6], [-0.5, 0.0, 0.5, 1.0], indexing="ij")
    const = dressing.dress(
        SolitonConfig(SIG11, poles, vectors, seeds.constant_seed(q0, SIG11)), rho, z)
    varying = dressing.dress(SolitonConfig(SIG11, poles, vectors, per_point), rho, z)
    # the branch points of both poles lie on the grid; Psi0 is called once,
    # at lam = 0 and the four poles of every point
    assert const.singular.sum() == 2 and calls == [(12, 5)]
    assert (const.singular.tolist(), const.notes) == (varying.singular.tolist(), varying.notes)
    for i in np.flatnonzero(~const.singular):
        a, b = const.q[i], varying.q[i]
        assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(a)
        assert abs(const.det_a[i] - varying.det_a[i]) <= 1e-13 * abs(const.det_a[i])


@pytest.mark.parametrize("problem", [KERR_RING, SU21, TIGHT], ids=["kerr-ring", "su21", "tight"])
def test_audit_inverts_only_samples_its_bound_cannot_clear(monkeypatch, problem):
    # the residue form inverts nothing, so it has nothing to refuse: no
    # inverse, condition estimate or solve runs inside the audit, and every
    # point it audits keeps its map unflagged
    cfg, rho, z, *limits = problem
    calls, audited, inside, audit = [], [], [], dressing._audit

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if inside:
                calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    def traced_audit(*args):
        audited.append(len(args[0]))
        inside.append(True)
        try:
            return audit(*args)
        finally:
            inside.pop()

    for name in ("inv", "cond", "svd", "solve"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(dressing, "_audit", traced_audit)
    with thresholds(*limits):
        out = dressing.dress(cfg, rho, z)
    assert calls == []
    assert audited == [(~out.singular).sum()] and not out.singular.all()
    assert np.isfinite(out.residuals["chi_involution"][~out.singular]).all()


#: (signature, first vector, second vector) of the iterated dressings
ITERATED = [(SIG11, [1.2, 0.4], [0.3, 1.0 + 0.2j]),
            (Signature(2, 1), [1.0 + 0.1j, 0.3, 0.2], [0.2, 1.1, 0.5 + 0.1j])]


def _two_ways(sig, v1, v2, rho, z):
    """The two-soliton map (poles 0.4 + 1.2i, -0.7 + 0.8i) on the flat seed
    dressed at once, and dressed one soliton at a time."""
    flat = seeds.identity_seed(sig)
    poles, vectors = (0.4 + 1.2j, -0.7 + 0.8j), (np.array(v1), np.array(v2))
    once = dressing.dress(SolitonConfig(sig, poles, vectors, flat), rho, z)
    first = dressing.dressed_seed(SolitonConfig(sig, poles[:1], vectors[:1], flat))
    twice = dressing.dress(SolitonConfig(sig, poles[1:], vectors[1:], first), rho, z)
    return once, twice


@pytest.mark.parametrize("sig, v1, v2", ITERATED, ids=["g11", "g21"])
def test_dressing_a_dressed_seed_composes(sig, v1, v2):
    # the lattice holds the branch point of each pole, (1.2, 0.4) and
    # (0.8, -0.7); its rho step misses the two ring points of the first
    # (1,1) soliton on z = 0.4, rho = 0.96 and about 1.5
    rho, z = np.meshgrid(np.linspace(0.8, 1.6, 19), np.linspace(-0.7, 0.5, 25), indexing="ij")
    once, twice = _two_ways(sig, v1, v2, rho, z)
    assert once.singular.sum() == 2
    assert np.array_equal(once.singular, twice.singular)
    # index 247, (1.2, 0.4), is the first pole's branch point: the seed's own
    # dressing flags it, and the iterated dressing's note carries its reason
    assert once.notes[247].startswith("branch point of varpi0=(0.4+1.2j)")
    assert twice.notes[247].startswith("seed Psi0 is not finite at DomainPoint(rho=1.2")
    assert twice.notes[247].endswith(": the seed's dressing flagged it: " + once.notes[247])
    gated = ~gate_exclusion(once.singular.reshape(rho.shape), once.det_a.reshape(rho.shape)).ravel()
    assert gated.sum() > 100
    rel = (np.linalg.norm(once.q - twice.q, axis=(-2, -1))
           / np.linalg.norm(once.q, axis=(-2, -1)))[gated]
    assert rel.max() <= 1e-10
    assert twice.residuals["symspace"][gated].max() <= 1e-9
    for key in ("chi_reality", "chi_involution"):
        assert twice.residuals[key][gated].max() <= 1e-6, key


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_dressing_the_kth_iterated_seed_runs_the_pipeline_k_times(monkeypatch, k):
    # one soliton per level: each dressed seed's Psi0 and the Psi0 of the
    # seed under it share one dressing of its points, on a box with no flagged point and on one that
    # holds (1.2, 0.4), the branch point of the first level's pole
    poles = (0.4 + 1.2j, -0.7 + 0.8j, 0.2 + 1.6j, -0.3 + 0.5j)
    vectors = [np.array(v) for v in ([1.2, 0.4], [0.3, 1.0 + 0.2j], [1.0, 0.2j], [0.5, 1.3])]
    runs, run = [], dressing._dress

    def counted(*args):
        runs.append(args[0])
        return run(*args)

    monkeypatch.setattr(dressing, "_dress", counted)
    for (rho, z), flagged in ((np.meshgrid(np.linspace(2.0, 3.0, 5), np.linspace(-0.5, 0.5, 5),
                                           indexing="ij"), 0),
                              (np.meshgrid([1.0, 1.2, 1.4], [0.2, 0.4, 0.6], indexing="ij"), 1)):
        seed = seeds.identity_seed(SIG11)
        for j in range(k - 1):
            seed = dressing.dressed_seed(
                SolitonConfig(SIG11, poles[j:j + 1], vectors[j:j + 1], seed))
        runs.clear()
        out = dressing.dress(SolitonConfig(SIG11, poles[k - 1:k], vectors[k - 1:k], seed), rho, z)
        assert out.singular.sum() == flagged and len(runs) == k


@pytest.mark.parametrize("sig, v1, v2", ITERATED, ids=["g11", "g21"])
def test_dressed_seed_map_converges_second_order(sig, v1, v2):
    # a box clear of both rings and of every branch point
    def field(h):
        rhos, zs = np.arange(2.0, 3.0 + h / 2, h), np.arange(-0.5, 0.5 + h / 2, h)
        rho, z = np.meshgrid(rhos, zs, indexing="ij")
        twice = _two_ways(sig, v1, v2, rho, z)[1]
        assert not twice.singular.any()
        return verification.FieldGrid(rhos, zs, twice.q.reshape(rho.shape + twice.q.shape[1:]),
                                      ~twice.singular.reshape(rho.shape))

    assert 3.5 <= verification.refinement_ratios(field(0.05)) <= 4.5


def _iterated():
    """The second soliton of _two_ways on the dressed first, on a box clear
    of both rings and of every branch point."""
    sig, v1, v2 = ITERATED[0]
    first = dressing.dressed_seed(SolitonConfig(sig, (0.4 + 1.2j,), (np.array(v1),),
                                                seeds.identity_seed(sig)))
    rho, z = np.meshgrid(np.linspace(2.0, 3.0, 6), np.linspace(-0.5, 0.5, 6), indexing="ij")
    return SolitonConfig(sig, (-0.7 + 0.8j,), (np.array(v2),), first), rho, z


AUDITED = [lambda: KERR_RING, lambda: SU21, _iterated]


def _factors(cfg, rho, z):
    """The dressed points with a map: the grid, u, w (batch 1 where the seed
    does not vary) and the poles, as _dress gives them, at those points."""
    grid, u, w, lambdas = dressing._dress(cfg, rho, z, True, None)
    keep = ~grid.singular
    return grid, u[keep], w if len(w) == 1 else w[keep], lambdas[keep], keep


def _explicit_audit(u, w, lambdas, q, q0, g, rho):
    """_audit's reality and involution residuals, formed on the n x n
    residues R_k = u_k w_k: chi(conj lam_k)^* sigma(R_k) and R_k -
    (lam_k^2/rho^2) q sigma(R_k') sigma(q0), each over 1 + ||R_k||_F, and
    I - q sigma(q) at infinity."""
    n, half = len(g), lambdas.shape[-1] // 2
    res = u[..., :, None] * w[..., None, :]
    size = 1.0 + algebra.frobenius(res)
    gap = lambdas[:, :, None] - lambdas.conj()[:, None, :]
    chi_conj = np.eye(n) + np.einsum("pkj,pjab->pkab", 1 / gap, res.conj().swapaxes(-1, -2))
    reality = algebra.frobenius(chi_conj @ algebra.sigma(res, g)) / size
    partner = (np.arange(2 * half) + half) % (2 * half)
    weight = lambdas * lambdas / (rho * rho)[:, None]
    involution = algebra.frobenius(res - weight[..., None, None] * (
        q[:, None] @ algebra.sigma(res[:, partner], g) @ algebra.sigma(q0, g)[:, None])) / size
    inner = np.abs(weight[:, :half]) <= np.abs(weight[:, half:])
    involution = np.where(inner, involution[:, :half], involution[:, half:]).max(axis=-1)
    infinity = algebra.frobenius(np.eye(n) - q @ algebra.sigma(q, g))
    return reality.max(axis=-1), np.maximum(infinity, involution)


@pytest.mark.parametrize("problem", AUDITED, ids=["kerr-ring", "su21", "iterated"])
def test_chi_at_the_reference_samples_stays_under_the_residue_bound(problem):
    # F(s) = chi(conj s)^* sigma(chi(s)) - I and G(s) = chi(s) - q sigma(chi(-rho^2/s))
    # sigma(q0) are their values at infinity plus their principal parts, so
    # the audit's residuals bound them at every s, for the dressed chi and for
    # one whose residues are perturbed. G's residue at the partner of an
    # audited pole follows from G(-rho^2/lam) = -q sigma(G(lam)) sigma(q0).
    cfg, rho, z = problem()
    grid, u, w, lambdas, keep = _factors(cfg, rho, z)
    rho, z, q, quadratic = grid.rho[keep], grid.z[keep], grid.q[keep], \
        grid.residuals["quadratic"][keep]
    q0 = np.broadcast_to(cfg.seed.psi0(np.zeros((len(rho), 1)), rho, z)[0][:, 0], q.shape)
    g, half, norm = algebra.gamma(cfg.signature), len(cfg.poles), algebra.frobenius
    samples = np.broadcast_to(CHI_SAMPLES, (len(rho), len(CHI_SAMPLES)))
    dist = np.abs(samples[..., None] - lambdas[:, None])
    dist_conj = np.abs(samples[..., None] - lambdas.conj()[:, None])
    # each deck pair's audited pole, the one nearer 0, and its partner
    own = np.arange(half) + np.where(np.abs(lambdas[:, :half]) <= np.abs(lambdas[:, half:]),
                                     0, half)
    dist_own, dist_mate = (np.take_along_axis(dist, k[:, None], axis=-1)
                           for k in (own, (own + half) % (2 * half)))
    # the partner residue is at most rho^2/|lam_k|^2 ||q|| ||q0|| times the audited one
    amplify = ((rho * rho)[:, None] / np.abs(np.take_along_axis(lambdas, own, axis=1)) ** 2
               * (norm(q) * norm(q0))[:, None])
    # mixing the rows w_k by M and the columns u_k / lam_k by M^-1 moves every
    # residue but keeps chi(0) = I - sum_k u_k w_k / lam_k, and so G at infinity
    mix = np.eye(2 * half) + 1e-2 * np.random.default_rng(7).normal(
        size=(2 * half, 2 * half, 2)).view(complex)[..., 0]
    mixed = (lambdas[..., None] * (np.linalg.inv(mix).T @ (u / lambdas[..., None])), mix @ w)
    for perturbed, (fu, fw) in enumerate(((u, w), mixed)):
        reality, involution = dressing._audit(fu, fw, lambdas, q, quadratic, q0, g, rho)
        if perturbed:  # residuals far above rounding: each is its residue formula
            np.testing.assert_allclose(
                (reality, involution),
                _explicit_audit(fu, fw, lambdas, q, q0, g, rho), rtol=1e-10)
        chi = dressing._chi(samples, fu, fw, lambdas)[0]
        chi_conj = dressing._chi(samples.conj(), fu, fw, lambdas)[0]
        chi_deck = dressing._chi(-(rho * rho)[:, None] / samples, fu, fw, lambdas)[0]
        f = chi_conj.conj().swapaxes(-1, -2) @ algebra.sigma(chi, g) - np.eye(len(g))
        rhs = q[:, None] @ algebra.sigma(chi_deck, g) @ algebra.sigma(q0, g)[:, None]
        size = 1.0 + np.linalg.norm(fu, axis=-1) * np.linalg.norm(fw, axis=-1)
        f_bound = reality[:, None] * (size[:, None] * (1 / dist + 1 / dist_conj)).sum(axis=-1)
        size_own = np.take_along_axis(size, own, axis=1)[:, None]
        g_bound = involution[:, None] * (
            1.0 + (size_own * (1 / dist_own + amplify[:, None] / dist_mate)).sum(axis=-1))
        slack = 1e-12 * (1.0 + norm(chi_conj) * norm(chi) + norm(chi)
                         + (norm(q) * norm(q0))[:, None] * norm(chi_deck))
        assert np.all(norm(f) <= f_bound + slack)
        assert np.all(norm(chi - rhs) <= g_bound + slack)


@pytest.mark.parametrize("problem", AUDITED[:2], ids=["kerr-ring", "su21"])
def test_rank_one_factors_match_the_reference_residues_and_chi(problem):
    # chi's residues are u_k w_k, a column times a row; the 50-digit reference
    # forms the same products from its own solve. The poles, the residues and
    # chi at the samples agree with it at every point with a map. A pole
    # c -+ t, t = sqrt(c^2 + rho^2), rounds within a few eps of |c| + |t|.
    cfg, rho, z = problem()
    grid, u, w, lambdas, keep = _factors(cfg, rho, z)
    exact = exact_dressing.dressed(cfg, grid.rho[keep], grid.z[keep], CHI_SAMPLES)
    c = grid.z[keep, None] - np.array(cfg.poles)
    t = np.sqrt(c * c + (grid.rho[keep] ** 2)[:, None])
    assert np.all(np.abs(lambdas - exact.lambdas)
                  <= 4 * np.finfo(float).eps * np.tile(np.abs(c) + np.abs(t), 2))
    bound, norm = forward_bound(exact.a)[:, None], np.linalg.norm
    residues = u[..., :, None] * w[..., None, :]
    chi = dressing._chi(np.broadcast_to(CHI_SAMPLES, (len(u), CHI_SAMPLES.size)), u, w, lambdas)[0]
    for got, want in ((residues, exact.residues), (chi, exact.chi)):
        assert np.all(norm(got - want, axis=(-2, -1)) <= bound * norm(want, axis=(-2, -1)))


def test_a_mispaired_deck_constant_fails_the_involution_audit():
    # a boosted constant seed pairs the vectors by J = q0; given J = I, the
    # deck partners are wrong and chi breaks the deck involution everywhere
    right = seeds.constant_seed(boosted(SIG11, 0.35), SIG11)
    wrong = seeds.Seed(right.psi0, np.eye(2), SIG11)
    rho, z = np.meshgrid([0.8, 1.5, 2.5], [-0.5, 0.3, 1.0], indexing="ij")
    vectors = (np.array([1.0, 0.2 - 0.1j]),)
    involution = [dressing.dress(SolitonConfig(SIG11, (0.4 + 0.9j,), vectors, seed),
                                 rho, z).residuals["chi_involution"] for seed in (right, wrong)]
    assert involution[0].max() <= 1e-13
    assert involution[1].min() >= 1.0
