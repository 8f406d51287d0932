import numpy as np
import pytest

from _problems import boosted
from vesture import algebra, dressing, seeds
from vesture.algebra import Signature
from vesture.dressing import SolitonConfig
from vesture.errors import SeedError

SIG11 = Signature(1, 1)
SIG21 = Signature(2, 1)
RHO, Z = np.array([1.0]), np.array([0.5])
#: values of lam at which the deck symmetry of Psi0 is checked
SAMPLES = np.array([0.37 + 0.62j, -1.4 + 0.9j, 2.2 - 1.3j, 0.05 - 0.8j,
                    -0.66 - 0.45j, 1.7 + 2.5j, -2.8 + 0.2j, 0.9 + 1.1j])


def _q0(seed: seeds.Seed, rho: np.ndarray, z: np.ndarray) -> np.ndarray:
    """q0 = Psi0(0) at the points (rho, z), with its batch axis."""
    return seed.psi0(np.zeros((len(rho), 1)), rho, z)[0][:, 0]


def test_identity_seeds():
    for sig in (SIG11, SIG21):
        seed = seeds.identity_seed(sig)
        values, notes = seed.psi0(np.array([[0.0, 0.3 + 1j]]), RHO, Z)
        np.testing.assert_array_equal(values, np.eye(sig.n)[None, None])
        assert notes == {}
        np.testing.assert_array_equal(seed.deck, np.eye(sig.n))


def test_constant_seed_accepts_valid_matrix():
    q0 = boosted(SIG11, 0.3)
    seed = seeds.constant_seed(q0, SIG11)
    np.testing.assert_array_equal(_q0(seed, RHO, Z)[0], q0)
    # one matrix for every lambda and point: both batch axes have length 1
    lam = np.array([[0.0, 1.2 - 0.4j, 100.0], [1j, 2.0, -3.0]])
    psi0 = seed.psi0(lam, np.array([1.0, 2.0]), np.array([0.5, -0.5]))[0]
    assert psi0.shape == (1, 1, 2, 2)
    np.testing.assert_array_equal(psi0[0, 0], q0)
    np.testing.assert_array_equal(seed.deck, q0)


def test_constant_seed_rejects_nonmember():
    # diag(2, 1/2) is Hermitian with det 1 but q Gamma q Gamma = diag(4, 1/4) != I
    with pytest.raises(SeedError):
        seeds.constant_seed(np.diag([2.0, 0.5]).astype(complex), SIG11)
    with pytest.raises(SeedError):
        seeds.constant_seed(np.array([[1.0, 0.3], [0.1, 1.0]], dtype=complex), SIG11)


def _varying(q0=None, psi0=None) -> seeds.Seed:
    """The identity seed with full batch axes, its value at lam = 0 (q0) or
    at the other lam (Psi0 at the poles) replaced at the points with rho > 1."""
    eye = np.eye(2, dtype=complex)

    def at(lam, rho, z):
        out = np.broadcast_to(eye, lam.shape + (2, 2)).copy()
        for value, columns in ((q0, lam == 0), (psi0, lam != 0)):
            if value is not None:
                out[(rho > 1)[:, None] & columns] = value
        return out, {}

    return seeds.Seed(at, eye, SIG11)


def test_singular_custom_seed_flags_its_points():
    # a seed that is not finite or singular at a point flags that point and
    # dresses the others; a wrong-shaped evaluation is refused
    poles, vectors = (1j,), (np.array([1.2, 0.4]),)
    rho, z = np.array([0.8, 1.6, 0.9]), np.array([0.3, 0.3, -0.2])
    clean = dressing.dress(SolitonConfig(SIG11, poles, vectors, _varying()), rho, z)
    for seed, note in [(_varying(q0=np.nan), "seed Psi0 is not finite at DomainPoint(rho=1.6"),
                       (_varying(psi0=np.inf), "seed Psi0 is not finite at DomainPoint(rho=1.6"),
                       (_varying(psi0=0.0), "matrix is numerically singular")]:
        out = dressing.dress(SolitonConfig(SIG11, poles, vectors, seed), rho, z)
        assert out.singular.tolist() == [False, True, False]
        assert out.notes[1].startswith(note), out.notes[1]
        np.testing.assert_array_equal(out.q[[0, 2]], clean.q[[0, 2]])
    # q0 is never inverted: one far above the condition cap flags nothing
    big = dressing.dress(SolitonConfig(SIG11, poles, vectors,
                                       _varying(q0=boosted(SIG11, 15.0))), rho, z)
    assert not big.singular.any()
    bad_shape = seeds.Seed(lambda lam, rho, z: (np.eye(2)[None], {}), np.eye(2), SIG11)
    with pytest.raises(SeedError, match="Psi0 evaluation has shape"):
        dressing.dress(SolitonConfig(SIG11, poles, vectors, bad_shape), rho, z)


def _dressed(sig: Signature) -> seeds.Seed:
    """The one-soliton map with pole 0.4 + 1.2i on the flat seed, as a seed."""
    v = {2: [1.2, 0.4], 3: [1.0 + 0.1j, 0.3, 0.2]}[sig.n]
    return dressing.dressed_seed(
        SolitonConfig(sig, (0.4 + 1.2j,), (np.array(v),), seeds.identity_seed(sig)))


def test_constant_seed_deck_symmetry():
    # Psi0(deck(lam)) = q0 sigma(Psi0(lam)) J at the samples, with J the
    # seed's deck constant: sigma(q0)^{-1} = q0 for a constant seed, the
    # identity for a map dressed from the flat seed
    rho, z = np.array([1.3, 2.0, 0.7]), np.array([0.2, -0.4, 1.1])
    lam = np.broadcast_to(SAMPLES, (3, len(SAMPLES)))
    lifted = seeds.constant_seed(boosted(SIG11, 0.4), SIG11)
    for seed in (seeds.identity_seed(SIG11), lifted, _dressed(SIG11), _dressed(SIG21)):
        g = algebra.gamma(seed.signature)
        q0 = _q0(seed, rho, z)
        np.testing.assert_allclose(np.linalg.inv(algebra.sigma(q0, g)), q0, atol=1e-12)
        lhs = seed.psi0(-(rho * rho)[:, None] / lam, rho, z)[0]
        rhs = q0[:, None] @ algebra.sigma(seed.psi0(lam, rho, z)[0], g) @ seed.deck
        scale = np.linalg.norm(lhs, axis=(-2, -1))
        assert np.all(np.linalg.norm(lhs - rhs, axis=(-2, -1)) <= 1e-12 * scale)
