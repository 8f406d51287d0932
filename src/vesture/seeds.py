"""Seed solutions: the harmonic map being dressed, its generating matrix
Psi0(lam, x) with Psi0(0, x) = q0(x), and the constant J of the deck symmetry
Psi0(-rho^2/lam) = q0 sigma(Psi0(lam)) J, which pairs the dressing vectors.

For a constant q0 the connection vanishes identically, so Psi0 == q0 solves
the linear system with the right initial value; dressing.dressed_seed turns
a finished dressing into the next seed.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import algebra
from .algebra import ComplexMatrix, Signature
from .errors import SeedError


@dataclass(frozen=True)
class Seed:
    """q0(rho, z) takes (P,) coordinate arrays and returns (P or 1, n, n);
    psi0(lam, rho, z) takes lam of shape (P, M) and returns (P or 1, M or 1,
    n, n), a batch axis of length 1 meaning no variation along it. ``deck``
    is J, checked on construction to be a finite n x n matrix."""

    q0: Callable[[np.ndarray, np.ndarray], np.ndarray]
    psi0: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    deck: ComplexMatrix
    signature: Signature

    def __post_init__(self) -> None:
        object.__setattr__(self, "deck", algebra.as_matrix(self.deck, self.signature.n))


def constant_seed(q0: ComplexMatrix, sig: Signature, tol: float = 1e-9) -> Seed:
    """Seed with q0 and Psi0 both identically equal to a constant matrix,
    which must lie in the Cartan-embedded symmetric space (Hermitian, det 1,
    q gamma q gamma = I) to within ``tol``; there sigma(q0)^{-1} = q0, so
    the deck constant J is q0 itself."""
    q0 = algebra.as_matrix(q0, sig.n)
    resid = algebra.symspace_residual(q0, algebra.gamma(sig))
    if resid > tol:
        raise SeedError(f"constant seed violates the membership constraints (residual {resid:.3e})")
    return _constant(q0, sig)


def _constant(q0: ComplexMatrix, sig: Signature) -> Seed:
    """The constant seed of a q0 that lies in the symmetric space."""
    frozen = q0.copy()
    frozen.setflags(write=False)
    return Seed(q0=lambda rho, z: frozen[None], psi0=lambda lam, rho, z: frozen[None, None],
                deck=frozen, signature=sig)


@functools.cache
def identity_seed(sig: Signature) -> Seed:
    """The trivial (flat) seed q0 = I; built on first use for each
    signature, as its values are read-only. I lies in the symmetric space
    exactly, so it takes no membership check."""
    return _constant(np.eye(sig.n, dtype=complex), sig)
