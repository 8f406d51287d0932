"""Seed solutions: the harmonic map being dressed, given by its generating
matrix Psi0(lam, x), whose value at lam = 0 is the map q0(x), and the
constant J of the deck symmetry Psi0(-rho^2/lam) = q0 sigma(Psi0(lam)) J,
which pairs the dressing vectors.

For a constant q0 the connection vanishes identically, so Psi0 == q0 solves
the linear system with the right initial value; dressing.dressed_seed turns
a finished dressing into the next seed.
"""
from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from . import algebra
from .algebra import ComplexMatrix, Signature
from .errors import SeedError


class Seed:
    """psi0(lam, rho, z) takes lam of shape (P, M) and (P,) coordinate
    arrays and returns (values, notes): values of shape (P or 1, M or 1, n,
    n), a batch axis of length 1 meaning no variation along it, and notes
    {point: reason} for points where the seed has no value. q0 is Psi0 at
    lam = 0. ``deck`` is J, checked on construction to be a finite n x n
    matrix."""

    __slots__ = ("psi0", "deck", "signature")

    def __init__(self, psi0: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple],
                 deck: ComplexMatrix, signature: Signature) -> None:
        self.psi0, self.signature = psi0, signature
        self.deck = algebra.as_matrix(deck, signature.n)


def constant_seed(q0: ComplexMatrix, sig: Signature) -> Seed:
    """Seed with Psi0 identically equal to a constant matrix q0, which must
    lie in the Cartan-embedded symmetric space (Hermitian, det 1, q gamma q
    gamma = I) to within algebra.CONSTRAINT_TOL; there sigma(q0)^{-1} = q0,
    so the deck constant J is q0 itself."""
    q0 = algebra.as_matrix(q0, sig.n)
    resid = algebra.symspace_residual(q0, algebra.gamma(sig))
    if resid > algebra.CONSTRAINT_TOL:
        raise SeedError(f"constant seed violates the membership constraints (residual {resid:.3e})")
    return _constant(q0, sig)


def _constant(q0: ComplexMatrix, sig: Signature) -> Seed:
    """The constant seed of a q0 that lies in the symmetric space."""
    frozen = q0.copy()
    frozen.setflags(write=False)
    return Seed(lambda lam, rho, z: (frozen[None, None], {}), frozen, sig)


@functools.cache
def identity_seed(sig: Signature) -> Seed:
    """The trivial (flat) seed q0 = I; built on first use for each
    signature, as its values are read-only. I lies in the symmetric space
    exactly, so it takes no membership check."""
    return _constant(np.eye(sig.n, dtype=complex), sig)
