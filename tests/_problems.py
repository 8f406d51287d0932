"""The dressing problems the tests share: named configurations on small
Weyl lattices, the strategy that draws more of them, the constant seeds
they use, a patch of the dress thresholds and the pipeline's kernels at
one point."""
from __future__ import annotations

import contextlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from vesture import algebra, dressing, seeds, targets
from vesture.algebra import Signature
from vesture.dressing import SolitonConfig

SIG11, SIG21 = Signature(1, 1), Signature(2, 1)


def boosted(sig: Signature, t: float) -> np.ndarray:
    """A constant seed matrix on the symmetric space (t = 0: the identity)."""
    if sig.n == 2:
        return np.array([[math.cosh(2 * t), math.sinh(2 * t)],
                         [math.sinh(2 * t), math.cosh(2 * t)]], dtype=complex)
    ch, sh = math.cosh(t), math.sinh(t) / math.sqrt(2.0)
    return np.array([[ch, 0, sh * (1 + 1j)], [0, 1, 0], [sh * (1 - 1j), 0, ch]])


@contextlib.contextmanager
def thresholds(singular_tol: float | None = None, cap: float | None = None):
    """Dress at another |det A| flag and condition cap, where given. Every
    check reads the library constants at call time, so one patch moves
    them all."""
    with pytest.MonkeyPatch.context() as patch:
        if singular_tol is not None:
            patch.setattr(dressing, "SINGULAR_TOL", singular_tol)
        if cap is not None:
            patch.setattr(algebra, "CONDITION_CAP", cap)
        yield


def lattice(rhos, zs) -> tuple[np.ndarray, np.ndarray]:
    """rho and z of the points of the (rhos, zs) lattice, two arrays of its
    shape, rho along the first axis."""
    return tuple(np.meshgrid(np.asarray(rhos, dtype=float), np.asarray(zs, dtype=float),
                             indexing="ij"))


def kernels(cfg: SolitonConfig, x):
    """The batch kernels at the one point x: the poles and rows w_k as a
    namespace, A, B*, the factors u_k of chi's residues as rows and q, each
    with its batch axis."""
    fails = dressing._Failures(1)
    lambdas, w, q0 = dressing._spectral(cfg, np.array([x.rho]), np.array([x.z]), None, fails)
    a, b_star = dressing._system(lambdas, w, algebra.gamma(cfg.signature), fails)
    u = dressing._solve(a, b_star, fails)[0].conj()
    q = dressing._reconstruct(u, w, lambdas, q0, fails)
    assert fails.ok[0], fails.note[0]
    return SimpleNamespace(lambdas=lambdas, w=w), a, b_star, u, q


@st.composite
def problems(draw):
    """(config, rho, z): a soliton configuration on a small Weyl lattice. A
    pole may sit on the branch point of a lattice point (w = z -+ i rho) or
    be the conjugate of the previous pole, which makes their pole pairs
    coincide."""
    sig = draw(st.sampled_from([SIG11, SIG21]))
    n_sol = draw(st.integers(1, 3))
    rhos = np.linspace(draw(st.floats(0.3, 1.0)), draw(st.floats(1.5, 3.0)),
                       draw(st.integers(3, 7)))
    zs = np.linspace(draw(st.floats(-2.0, -0.5)), draw(st.floats(0.5, 2.0)),
                     draw(st.integers(3, 7)))
    coord = st.floats(-1.5, 1.5)
    poles = []
    for _ in range(n_sol):
        sign = draw(st.sampled_from([1.0, -1.0]))
        kind = draw(st.sampled_from(["free", "branch", "conjugate"]))
        if kind == "branch":
            pole = complex(zs[draw(st.integers(0, len(zs) - 1))],
                           sign * rhos[draw(st.integers(0, len(rhos) - 1))])
        elif kind == "conjugate" and poles:
            pole = poles[-1].conjugate()
        else:
            pole = complex(draw(coord), sign * draw(st.floats(0.3, 1.5)))
        poles.append(pole)
    assume(len(set(poles)) == n_sol)
    vectors = [np.array([complex(draw(coord), draw(coord)) for _ in range(sig.n)])
               for _ in range(n_sol)]
    assume(all(np.linalg.norm(v) > 0.2 for v in vectors))
    t = draw(st.sampled_from([0.0, 0.35, -0.6]))
    seed = seeds.constant_seed(boosted(sig, t), sig)
    return (SolitonConfig(sig, tuple(poles), tuple(vectors), seed), *lattice(rhos, zs))


# the named problems, (config, rho, z) and for TIGHT the thresholds to dress at

# the Kerr ring: the lattice crosses the det A sign change
KERR_RING = (targets.kerr_config(2.0, 0.3),
             *lattice(np.linspace(0.5, 4.0, 12), np.linspace(-2.0, 2.0, 12)))
# three solitons on a boosted SU(2,1) seed with all three branch points on the lattice
SU21 = (SolitonConfig(SIG21, (1j, 0.7 + 0.6j, -0.8 + 1.4j),
                      (np.array([1.0 + 0.1j, 0.3, 0.2 + 0.1j]),
                       np.array([0.2, 1.1 + 0.2j, 0.3]),
                       np.array([0.5 + 0.1j, 0.1, 0.9])),
                      seeds.constant_seed(boosted(SIG21, 1.0), SIG21)),
        *lattice(np.linspace(0.6, 1.4, 3), np.linspace(-0.8, 0.7, 16)))
# tightened thresholds, dressed at a |det A| flag of 0.1 and a condition cap
# of 30 (its last two entries): det A threshold and condition cap failures
TIGHT = (targets.kerr_config(1.0, 1.0),
         *lattice(np.linspace(0.25, 2.5, 6), np.linspace(-1.0, 1.5, 6)), 0.1, 30.0)
# no solitons: q = q0 at every point
FLAT = (SolitonConfig(SIG21, (), (), seeds.constant_seed(boosted(SIG21, 0.35), SIG21)),
        *lattice(np.linspace(0.5, 2.0, 3), np.linspace(-1.0, 1.0, 4)))
# ||q||_F^2 = 2.3e7 at (0.5, -2)
LARGE_Q = (SolitonConfig(SIG21, (1.0625 + 0.3125j, 1.25j, 1 + 1j),
                         (np.array([0, 0, 1j]), np.array([0.640625j, -1.4375j, 1.5j]),
                          np.array([-0.5625, -1.25, 0])), seeds.identity_seed(SIG21)),
           *lattice([0.5, 1.25, 2.0], [-2.0, -0.5, 1.0]))
# det A = -4.45e-5 at (1, -0.375), a point next to a det A zero that no sign
# change on the lattice shows, so outside the gate-exclusion band: cond(A) = 3.8e5
NEAR_LOCUS = (SolitonConfig(SIG21, (0.5j,), (np.array([0, 0.59375 + 0.859375j, 1.25 + 1.125j]),),
                            seeds.constant_seed(boosted(SIG21, 0.35), SIG21)),
              *lattice([1.0, 1.5, 2.0], [-1.375, -0.375, 0.625]))
