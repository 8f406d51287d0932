"""Finite-difference certification of dressed fields.

Works on rectangular Weyl-coordinate grids with uniform spacing per axis.
The residual is the divergence ||d_rho(rho W_rho) + d_z(rho W_z)|| of the
connection W = -(dq) q^{-1}: the field equation, which vanishes iff q is
harmonic. The curvature of W is not formed: it vanishes identically for
every smooth invertible q, as W is a pure gauge, so it cannot see a map
that is not harmonic. Central second-order stencils are used in the
interior and second-order one-sided stencils on the boundary; boundary
values and a margin around the singular locus are excluded from pass/fail
statistics. Stencils touching a singular hole yield no data (NaN), never
zero. ``audit`` gives sweep and verify the exit gate of an (r, theta) or
(rho, z) lattice, from its singular flags and det A signs, and the residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, spectral
from .errors import ConfigError, SingularPointError
from .spectral import DomainPoint

#: the cells by which gate_exclusion widens the singular locus
GATE_MARGIN = 3


@dataclass
class FieldGrid:
    """Per-point q values on a rectangular (rho, z) lattice.

    values[i, j] is the matrix at (rhos[i], zs[j]); mask[i, j] is False at
    singular holes.
    """

    rhos: np.ndarray
    zs: np.ndarray
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        self.rhos = np.asarray(self.rhos, dtype=float)
        self.zs = np.asarray(self.zs, dtype=float)
        if self.rhos.ndim != 1 or self.zs.ndim != 1:
            raise ConfigError("grid axes must be one-dimensional")
        if self.rhos.size == 0 or self.zs.size == 0:
            raise ConfigError("grid axes must not be empty")
        if self.rhos.min() <= 0:
            raise ConfigError("grid must satisfy rho > 0")
        for axis in (self.rhos, self.zs):
            if axis.size >= 2:
                d = np.diff(axis)
                if d.min() <= 0 or (d.max() - d.min()) > 1e-9 * d.max():
                    raise ConfigError("grid spacing must be uniform and increasing per axis")
        if self.values.shape[:2] != (self.rhos.size, self.zs.size):
            raise ConfigError("values shape does not match the grid axes")
        if self.mask.shape != self.values.shape[:2]:
            raise ConfigError("mask shape does not match the grid axes")

    @property
    def h_rho(self) -> float:
        return float(self.rhos[1] - self.rhos[0])

    @property
    def h_z(self) -> float:
        return float(self.zs[1] - self.zs[0])


def _grad(arr: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order gradient: central in the interior, one-sided on the
    boundary, assembled from value differences so that constant input
    yields exactly zero. NaN propagates to any stencil touching it."""
    a = arr.swapaxes(axis, 0)
    out = np.empty_like(a)
    out[1:-1] = (a[2:] - a[:-2]) / (2.0 * h)
    out[0] = (4.0 * (a[1] - a[0]) - (a[2] - a[0])) / (2.0 * h)
    out[-1] = (4.0 * (a[-1] - a[-2]) - (a[-1] - a[-3])) / (2.0 * h)
    return out.swapaxes(0, axis)


def hodge_residual(field: FieldGrid) -> np.ndarray:
    """Per-point divergence residual, the field equation (see the module
    docstring).

    Returns an array of shape (n_rho, n_z); NaN marks points whose stencil
    touched a hole. Needs at least 3 points per axis.
    """
    if field.rhos.size < 3 or field.zs.size < 3:
        raise ConfigError("hodge residual needs at least 3 grid points per axis")
    hole = ~field.mask[..., None, None]
    filled = np.where(hole, np.eye(field.values.shape[-1]), field.values)
    try:
        qinv = np.linalg.inv(filled)
    except np.linalg.LinAlgError:  # an exactly singular q is a hole too
        hole = hole | (np.linalg.det(filled) == 0)[..., None, None]
        qinv = np.linalg.inv(np.where(hole, np.eye(filled.shape[-1]), filled))
    q = np.where(hole, np.nan, field.values)
    qinv = np.where(hole, np.nan, qinv)
    h_rho, h_z = field.h_rho, field.h_z
    w_rho = -algebra.mul(_grad(q, h_rho, 0), qinv)
    w_z = -algebra.mul(_grad(q, h_z, 1), qinv)
    rho_col = field.rhos[:, None, None, None]
    div = _grad(rho_col * w_rho, h_rho, 0) + rho_col * _grad(w_z, h_z, 1)
    return algebra.frobenius(div)


def interior_mask(shape: tuple[int, int]) -> np.ndarray:
    """True on points at least 2 cells away from the grid boundary."""
    m = np.zeros(shape, dtype=bool)
    m[2:shape[0] - 2, 2:shape[1] - 2] = True
    return m


def exclusion_mask(locus: np.ndarray) -> np.ndarray:
    """Dilate a boolean locus mask by the Chebyshev radius margin = GATE_MARGIN:
    the OR over a window of 2 margin + 1 cells along each axis of the mask
    padded with margin empty cells. The window grows by doubling, each step
    one OR per axis: margin 3 takes three steps (1 -> 2 -> 4 -> 7)."""
    margin = GATE_MARGIN
    n1, n2 = np.shape(locus)
    out = np.zeros((n1 + 2 * margin, n2 + 2 * margin), dtype=bool)
    out[margin:margin + n1, margin:margin + n2] = locus
    width = 1
    while width < 2 * margin + 1:
        k = min(width, 2 * margin + 1 - width)
        out = out[:-k] | out[k:]
        out = out[:, :-k] | out[:, k:]
        width += k
    return out


def refinement_ratios(fine: FieldGrid) -> float:
    """Median divergence-residual ratio under h -> h/2.

    The coarse grid is the every-other-point sublattice of ``fine``, so one
    stored lattice gives both; the ratio is taken at coarse interior points
    where both residuals are finite. Exactly-zero residual pairs (constant
    fields) yield math.inf.
    """
    coarse = FieldGrid(fine.rhos[::2], fine.zs[::2], fine.values[::2, ::2], fine.mask[::2, ::2])
    rc = hodge_residual(coarse)
    rf = hodge_residual(fine)[::2, ::2]
    valid = interior_mask(rc.shape) & np.isfinite(rc) & np.isfinite(rf)
    num, den = rc[valid], rf[valid]
    if num.size == 0:
        raise ConfigError("no interior points with data to compare")
    if np.all(num == 0) and np.all(den == 0):
        return math.inf
    pos = den > 0
    if not np.any(pos):
        raise ConfigError("fine-grid residuals vanish where coarse ones do not")
    return float(np.median(num[pos] / den[pos]))


def gate_exclusion(singular: np.ndarray, det_a: np.ndarray | None) -> np.ndarray:
    """Mask of lattice points excluded from exit gates: the singular points
    and both ends of each sign change of Re det A along either axis (the
    singular points alone when det_a is None), widened by GATE_MARGIN cells.
    The dress flags every |det A| below its threshold and every non-finite
    det A, so this takes no tolerance."""
    locus = np.array(singular, dtype=bool)
    if det_a is not None:
        sign = np.sign(np.real(det_a))  # a product of signs cannot overflow as one of values can
        cross_r = sign[:-1, :] * sign[1:, :] < 0
        cross_z = sign[:, :-1] * sign[:, 1:] < 0
        locus[:-1, :] |= cross_r
        locus[1:, :] |= cross_r
        locus[:, :-1] |= cross_z
        locus[:, 1:] |= cross_z
    return exclusion_mask(locus)


def lattice_order(a1: np.ndarray, a2: np.ndarray):
    """((axis1, axis2), order) when the points (a1[k], a2[k]) form a complete
    rectangular lattice in any order of the rows, the axes sorted and
    order[i * len(axis2) + j] the row at (axis1[i], axis2[j]); else None."""
    axis1, axis2 = np.unique(a1), np.unique(a2)
    if axis1.size * axis2.size != a1.size:
        return None
    ids = np.full((axis1.size, axis2.size), -1)
    ids[np.searchsorted(axis1, a1), np.searchsorted(axis2, a2)] = np.arange(a1.size)
    if np.any(ids < 0):
        return None
    return (axis1, axis2), ids.ravel()


def audit(axes: tuple[np.ndarray, np.ndarray], q: np.ndarray, singular: np.ndarray,
          det_a: np.ndarray | None, weyl: bool) -> tuple[np.ndarray, np.ndarray, str]:
    """The exit gate and the field equation on the row-major lattice of two
    axes, from the (P, n, n) maps, singular flags and det A values (or None,
    see gate_exclusion) of its P points.

    Returns the gate-exclusion mask; the divergence residual when ``weyl``
    says the axes are (rho, z), a singular or non-finite q being a hole, NaN
    where it is not formed; and why it was not formed, or "" when it was.
    """
    shape = (len(axes[0]), len(axes[1]))
    excluded = gate_exclusion(singular.reshape(shape),
                              None if det_a is None else det_a.reshape(shape)).ravel()
    if not weyl:
        return (excluded, np.full(len(q), math.nan),
                "the points form an (r, theta) lattice, not a (rho, z) one")
    holes = singular | ~np.all(np.isfinite(q), axis=(-2, -1))
    try:
        field = FieldGrid(*axes, values=q.reshape(shape + q.shape[1:]), mask=~holes.reshape(shape))
        return excluded, hodge_residual(field).ravel(), ""
    except ConfigError as exc:
        return excluded, np.full(len(q), math.nan), str(exc)


def lambda_flow_residual(varpi0: complex, x: DomainPoint, h: float) -> float:
    """Residual of the pole-flow identity d(lam_k) + omega(lam_k(x), x) = 0,
    the larger of those of the two roots of the pole pair, as the identity
    holds for either.

    The gradient of each root is taken by central differences with step h,
    from the pole pairs at x and its four stencil points. O(h^2) for smooth
    branches; a stencil that meets a branch point raises SingularPointError.
    """
    stencil = DomainPoint(x.rho + np.array([0.0, h, -h, 0.0, 0.0]),
                          x.z + np.array([0.0, 0.0, 0.0, h, -h]))
    lam_in, lam_out, branch = spectral.pole_pairs([varpi0], stencil.rho, stencil.z)
    if algebra.any_of(branch):
        raise SingularPointError(f"branch point of varpi0={varpi0} on the stencil at {x!r}")
    lam = np.concatenate([lam_in, lam_out], axis=-1)
    d_rho, d_z = (lam[1::2] - lam[2::2]) / (2 * h)
    om_rho, om_z = spectral.omega_forms(lam[0], x)
    return float(np.max(abs(d_rho + om_rho) + abs(d_z + om_z)))
