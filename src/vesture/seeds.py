"""Seed solutions: the harmonic map being dressed and its generating matrix.

A Seed supplies q0(x) and the generating-matrix evaluations Psi0(lam, x)
needed by the dressing solver, with Psi0(0, x) = q0(x). The package ships
constant seeds (for a constant q0 the connection vanishes identically, so
Psi0 == q0 solves the linear system with the right initial value); custom
seeds may plug in their own evaluator pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import algebra
from .algebra import ComplexMatrix, Signature
from .errors import SeedError
from .spectral import DomainPoint


@dataclass(frozen=True)
class Seed:
    """A seed map q0(x) and its generating matrix Psi0(lam, x).

    ``constant=True`` promises that neither evaluator depends on x or lam:
    the dressing pipeline then evaluates each once per grid and reuses the
    result at every point, and refuses the seed when a second evaluation
    differs. ``constant_seed`` is the way to build one.
    """

    q0_eval: Callable[[DomainPoint], ComplexMatrix]
    psi0_eval: Callable[[complex, DomainPoint], ComplexMatrix]
    signature: Signature
    constant: bool = False


def constant_seed(q0: ComplexMatrix, sig: Signature, tol: float = 1e-9) -> Seed:
    """Seed with q0 and Psi0 both identically equal to a constant matrix.

    The matrix must lie in the Cartan-embedded symmetric space (Hermitian,
    det 1, q gamma q gamma = I) to within ``tol``.
    """
    q0 = algebra.as_matrix(q0, sig.n)
    resid = algebra.symspace_residual(q0, algebra.gamma(sig))
    if resid > tol:
        raise SeedError(f"constant seed violates the membership constraints (residual {resid:.3e})")
    frozen = q0.copy()
    frozen.setflags(write=False)
    return Seed(
        q0_eval=lambda x: frozen,
        psi0_eval=lambda lam, x: frozen,
        signature=sig,
        constant=True,
    )


def identity_seed(sig: Signature) -> Seed:
    """The trivial (flat) seed q0 = I."""
    return constant_seed(np.eye(sig.n, dtype=complex), sig)


def psi0_at(seed: Seed, lam: complex, x: DomainPoint) -> ComplexMatrix:
    """Evaluate the generating matrix at a prescribed pole location.

    The evaluation must be finite and invertible (the prescribed poles may
    not already be poles of Psi0).
    """
    m = np.asarray(seed.psi0_eval(lam, x), dtype=complex)
    if m.shape != (seed.signature.n, seed.signature.n):
        raise SeedError(f"psi0 evaluation has shape {m.shape}, expected square of size {seed.signature.n}")
    if not np.all(np.isfinite(m.view(float))):
        raise SeedError(f"psi0 evaluation is not finite at lam={lam}, x={x!r}")
    if abs(np.linalg.det(m)) == 0.0:
        raise SeedError(f"psi0 evaluation is singular at lam={lam}, x={x!r}")
    return m
