import numpy as np
import pytest

import _reference_dressing as reference
from vesture import algebra, dressing, seeds
from vesture.algebra import Signature
from vesture.dressing import SolitonConfig
from vesture.errors import SeedError

SIG11 = Signature(1, 1)
SIG21 = Signature(2, 1)
RHO, Z = np.array([1.0]), np.array([0.5])


def hyperbolic_seed_matrix(t: float = 0.3) -> np.ndarray:
    # g g* for g = [[cosh t, sinh t], [sinh t, cosh t]] in the 2x2 group
    return np.array([[np.cosh(2 * t), np.sinh(2 * t)],
                     [np.sinh(2 * t), np.cosh(2 * t)]], dtype=complex)


def test_identity_seeds():
    for sig in (SIG11, SIG21):
        seed = seeds.identity_seed(sig)
        np.testing.assert_array_equal(seed.q0(RHO, Z), np.eye(sig.n)[None])
        np.testing.assert_array_equal(seed.psi0(np.array([[0.3 + 1j]]), RHO, Z),
                                      np.eye(sig.n)[None, None])
        np.testing.assert_array_equal(seed.deck, np.eye(sig.n))


def test_constant_seed_accepts_valid_matrix():
    q0 = hyperbolic_seed_matrix()
    seed = seeds.constant_seed(q0, SIG11)
    np.testing.assert_array_equal(seed.q0(RHO, Z)[0], q0)
    # one matrix for every lambda and point: both batch axes have length 1
    lam = np.array([[0.0, 1.2 - 0.4j, 100.0], [1j, 2.0, -3.0]])
    psi0 = seed.psi0(lam, np.array([1.0, 2.0]), np.array([0.5, -0.5]))
    assert psi0.shape == (1, 1, 2, 2)
    np.testing.assert_array_equal(psi0[0, 0], q0)
    np.testing.assert_array_equal(seed.deck, q0)


def test_constant_seed_rejects_nonmember():
    # diag(2, 1/2) is Hermitian with det 1 but q Gamma q Gamma = diag(4, 1/4) != I
    with pytest.raises(SeedError):
        seeds.constant_seed(np.diag([2.0, 0.5]).astype(complex), SIG11)
    with pytest.raises(SeedError):
        seeds.constant_seed(np.array([[1.0, 0.3], [0.1, 1.0]], dtype=complex), SIG11)


def test_psi0_initial_condition_matches_q0():
    seed = seeds.constant_seed(hyperbolic_seed_matrix(0.5), SIG11)
    np.testing.assert_array_equal(seed.psi0(np.zeros((1, 1)), RHO, Z)[0], seed.q0(RHO, Z))


def _varying(q0=None, psi0=None) -> seeds.Seed:
    """The identity seed with full batch axes, its q0 or Psi0 replaced at
    the points with rho > 1."""
    eye = np.eye(2, dtype=complex)

    def at(value, rho, shape):
        out = np.broadcast_to(eye, shape).copy()
        if value is not None:
            out[rho > 1] = value
        return out

    return seeds.Seed(q0=lambda rho, z: at(q0, rho, (len(rho), 2, 2)),
                      psi0=lambda lam, rho, z: at(psi0, rho, lam.shape + (2, 2)),
                      deck=eye, signature=SIG11)


def test_singular_custom_seed_flags_its_points():
    # a seed that is not finite or singular at a point flags that point and
    # dresses the others; a wrong-shaped evaluation is refused
    poles, vectors = (1j,), (np.array([1.2, 0.4]),)
    rho, z = np.array([0.8, 1.6, 0.9]), np.array([0.3, 0.3, -0.2])
    clean = dressing.dress(SolitonConfig(SIG11, poles, vectors, _varying()), rho, z)
    for seed, note in [(_varying(q0=np.nan), "seed q0 is not finite at DomainPoint(rho=1.6"),
                       (_varying(psi0=np.inf), "seed Psi0 is not finite at DomainPoint(rho=1.6"),
                       (_varying(psi0=0.0), "matrix is numerically singular")]:
        out = dressing.dress(SolitonConfig(SIG11, poles, vectors, seed), rho, z)
        assert out.singular.tolist() == [False, True, False]
        assert out.notes[1].startswith(note), out.notes[1]
        np.testing.assert_array_equal(out.q[[0, 2]], clean.q[[0, 2]])
    bad_shape = seeds.Seed(q0=lambda rho, z: np.eye(2)[None],
                           psi0=lambda lam, rho, z: np.eye(2)[None], deck=np.eye(2),
                           signature=SIG11)
    with pytest.raises(SeedError, match="Psi0 evaluation has shape"):
        dressing.dress(SolitonConfig(SIG11, poles, vectors, bad_shape), rho, z)


def _dressed(sig: Signature) -> seeds.Seed:
    """The one-soliton map with pole 0.4 + 1.2i on the flat seed, as a seed."""
    v = {2: [1.2, 0.4], 3: [1.0 + 0.1j, 0.3, 0.2]}[sig.n]
    return dressing.dressed_seed(
        SolitonConfig(sig, (0.4 + 1.2j,), (np.array(v),), seeds.identity_seed(sig)))


def test_constant_seed_deck_symmetry():
    # Psi0(deck(lam)) = q0 sigma(Psi0(lam)) J at the reference's chi-audit
    # samples, with J the seed's deck constant: sigma(q0)^{-1} = q0 for a
    # constant seed, the identity for a map dressed from the flat seed
    rho, z = np.array([1.3, 2.0, 0.7]), np.array([0.2, -0.4, 1.1])
    lam = np.broadcast_to(np.asarray(reference.CHI_SAMPLES), (3, len(reference.CHI_SAMPLES)))
    boosted = seeds.constant_seed(hyperbolic_seed_matrix(0.4), SIG11)
    for seed in (seeds.identity_seed(SIG11), boosted, _dressed(SIG11), _dressed(SIG21)):
        g = algebra.gamma(seed.signature)
        np.testing.assert_allclose(np.linalg.inv(algebra.sigma(seed.q0(rho, z), g)),
                                   seed.q0(rho, z), atol=1e-12)
        lhs = seed.psi0(-(rho * rho)[:, None] / lam, rho, z)
        rhs = seed.q0(rho, z)[:, None] @ algebra.sigma(seed.psi0(lam, rho, z), g) @ seed.deck
        scale = np.linalg.norm(lhs, axis=(-2, -1))
        assert np.all(np.linalg.norm(lhs - rhs, axis=(-2, -1)) <= 1e-12 * scale)
