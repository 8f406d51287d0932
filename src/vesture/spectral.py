"""Spectral-plane machinery on the two-sheeted surface over the half plane.

For a point x = (rho, z) with rho > 0, the surface is the zero set of
F_x(lam, w) = lam^2 - 2 lam (z - w) - rho^2. Over a fixed surface
coordinate w the two roots form a pole pair with product -rho^2, swapped
by the deck map lam -> -rho^2/lam. The rational coefficients a, b and the
connection components (omega_rho, omega_z) below are the fixed choices that
make the covariant derivative D_mu = d_mu - omega_mu d_lam reduce to d at
lam = 0.
"""
from __future__ import annotations

import numpy as np

from . import algebra
from .errors import DomainError

#: points closer than this to a branch point are flagged singular
BRANCH_EXCLUSION = 1e-12


class DomainPoint:
    """Weyl half-plane point, or a batch of points as arrays of one shape;
    rho is strictly positive (axis excluded)."""

    __slots__ = ("rho", "z")

    def __init__(self, rho: float | np.ndarray, z: float | np.ndarray) -> None:
        self.rho, self.z = rho, z
        ok = (rho > 0.0) & np.isfinite(rho) & np.isfinite(z)
        if algebra.all_of(ok):
            return
        # one line for a batch, a single point too: its first bad point and the count
        at = np.unravel_index(np.argmin(ok), np.shape(ok))
        rho, z = (float(np.broadcast_to(v, np.shape(ok))[at]) for v in (rho, z))
        raise DomainError(f"domain points need rho > 0 and finite coords, got rho={rho!r}, "
                          f"z={z!r} and {np.size(ok) - np.count_nonzero(ok) - 1} more")

    def __repr__(self) -> str:
        return f"DomainPoint(rho={self.rho!r}, z={self.z!r})"


def varpi(lam, x: DomainPoint):
    """Surface coordinate rho^2/(2 lam) + z - lam/2; deck-invariant."""
    if algebra.any_of(lam == 0):
        raise DomainError("varpi is undefined at lam = 0")
    return x.rho * x.rho / (2.0 * lam) + x.z - lam / 2.0


def deck(lam, x: DomainPoint):
    """Sheet-swapping involution lam -> -rho^2 / lam."""
    if algebra.any_of(lam == 0):
        raise DomainError("deck map is undefined at lam = 0")
    return -x.rho * x.rho / lam


def pole_pairs(varpi0s, rho, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pole pairs of N surface coordinates at a batch of points.

    ``rho`` and ``z`` have shape (P,); returns (lambda_in, lambda_out,
    branch), each of shape (P, N), or (P, 1) for a (P, 1) ``varpi0s`` of one
    coordinate per point: c = z - varpi0, disc = c^2 + rho^2 (DomainError if
    it overflows), lambda_in = c - sqrt(disc) (principal root), lambda_out = c + sqrt(disc),
    and ``branch`` marks points within BRANCH_EXCLUSION of a branch point.
    The labels are continuous wherever the principal branch is; the dressed
    map is invariant under relabeling a pair, so they are a determinism choice.
    """
    rho, z = np.asarray(rho, dtype=float)[..., None], np.asarray(z, dtype=float)[..., None]
    c = z - np.asarray(varpi0s, dtype=complex)
    # c^2 from separately rounded real products, as scalar complex arithmetic
    # does it (an array complex multiply may fuse them); the + 0.0 puts a
    # negative real disc on the upper side of the cut, as c*c + rho^2 does
    disc = np.empty(c.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        disc.real = c.real * c.real - c.imag * c.imag + rho * rho
        disc.imag = c.real * c.imag + c.imag * c.real + 0.0
    if not algebra.all_of(np.isfinite(disc)):  # a coordinate too large to square
        at = np.unravel_index(np.argmin(np.isfinite(disc)), disc.shape)[:-1] + (0,)
        raise DomainError(f"pole pairs overflow: c^2 + rho^2 is not finite at "
                          f"rho={float(rho[at])!r}, z={float(z[at])!r}")
    root = np.sqrt(disc)
    return c - root, c + root, np.abs(disc) < BRANCH_EXCLUSION


def ab(lam, x: DomainPoint):
    """The rational pair a = rho^2/(lam^2 + rho^2), b = lam/(lam^2 + rho^2).

    Satisfies a(0) = 1, b(0) = 0 and the algebraic constraint
    a^2 + rho^2 b^2 - a = 0 identically; simple poles at lam = +-i rho.
    """
    den = lam * lam + x.rho * x.rho
    if algebra.any_of(den == 0):
        raise DomainError("a, b have a pole at lam = +-i*rho")
    return x.rho * x.rho / den, lam / den


def omega_forms(lam, x: DomainPoint):
    """Connection components (omega_rho, omega_z) of D_mu = d_mu - omega_mu d_lam.

    Closed forms from differentiating the surface coordinate:
    omega_rho = -2 rho lam / (lam^2 + rho^2), omega_z = -2 lam^2 / (lam^2 + rho^2).
    """
    if algebra.any_of(lam == 0):
        raise DomainError("omega is defined away from lam = 0")
    den = lam * lam + x.rho * x.rho
    if algebra.any_of(den == 0):
        raise DomainError("omega has a pole at lam = +-i*rho")
    return -2.0 * x.rho * lam / den, -2.0 * lam * lam / den


def ab_partials(lam, x: DomainPoint):
    """Closed-form partial derivatives of a and b wrt (rho, z, lam)."""
    rho = x.rho
    den = lam * lam + rho * rho
    if algebra.any_of(den == 0):
        raise DomainError("a, b partials undefined on the pole set lam = +-i*rho")
    d2 = den * den
    da = (2.0 * rho * lam * lam / d2, 0.0, -2.0 * lam * rho * rho / d2)
    db = (-2.0 * rho * lam / d2, 0.0, (rho * rho - lam * lam) / d2)
    return da, db


def ab_d_identity_residual(lam, x: DomainPoint):
    """Relative residual of the duality identity Da = rho * (hodge dual of Db).

    Componentwise: |D_rho a + rho D_z b| + |D_z a - rho D_rho b| over the
    sum of the moduli of those four terms, with D_mu f = d_mu f - omega_mu
    d_lam f assembled from closed-form partials. Vanishes identically for
    the fixed (a, b) pair; D_z a = -4 lam^3 rho^2 / (lam^2 + rho^2)^3 keeps
    the sum positive wherever omega is defined.
    """
    om_r, om_z = omega_forms(lam, x)
    (da_r, da_z, da_l), (db_r, db_z, db_l) = ab_partials(lam, x)
    d_rho_a = da_r - om_r * da_l
    d_z_a = da_z - om_z * da_l
    d_rho_b = db_r - om_r * db_l
    d_z_b = db_z - om_z * db_l
    scale = abs(d_rho_a) + abs(x.rho * d_z_b) + abs(d_z_a) + abs(x.rho * d_rho_b)
    return (abs(d_rho_a + x.rho * d_z_b) + abs(d_z_a - x.rho * d_rho_b)) / scale
