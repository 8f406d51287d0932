"""Frozen per-point dressing pipeline: the oracle for the batched one.

This is the point-by-point implementation that `vesture.dressing` used
before the grid became one array pipeline, kept as it was (together with
the scalar pole pair, Frobenius norm, checked inverse and membership
residuals it called) so that the equivalence tests compare the batched
pipeline against an independent reference. Do not edit it to follow the
library; it reads the library's threshold constants at call time, so a
test that patches one moves both pipelines. The library's singular-point
error carries no det A, so the reference raises its own subclass that does.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from vesture import algebra, dressing, seeds, spectral
from vesture.algebra import ComplexMatrix
from vesture.dressing import SolitonConfig
from vesture.errors import ConfigError, DomainError, NumericError, SingularPointError
from vesture.spectral import BRANCH_EXCLUSION, DomainPoint

CHI_SAMPLES = (
    0.37 + 0.62j,
    -1.40 + 0.90j,
    2.20 - 1.30j,
    0.05 - 0.80j,
    -0.66 - 0.45j,
    1.70 + 2.50j,
    -2.80 + 0.20j,
    0.90 + 1.10j,
)

SOLVE_RESIDUAL_REL = 1e-10


class SingularDetA(SingularPointError):
    """The singular-point error of a |det A| below the threshold, carrying
    det A, as the reference's solve raised it."""

    def __init__(self, message: str, det_a: complex):
        super().__init__(message)
        self.det_a = det_a


@dataclass
class DressedPoint:
    """One dressed grid point: the map (None when singular), det A, the
    membership/symmetry residual record, and the singular flag."""

    x: DomainPoint
    q: ComplexMatrix | None
    det_a: complex
    residuals: dict[str, float]
    singular: bool
    note: str = ""


@dataclass(frozen=True)
class PolePair:
    """The two roots over one surface coordinate (the library's scalar pole
    pair container, kept here as the reference used it)."""

    lambda_in: complex
    lambda_out: complex


def _pole_pair(varpi0: complex, x: DomainPoint) -> PolePair:
    w0 = complex(varpi0)
    if w0.imag == 0.0:
        raise ConfigError(f"pole position must be non-real, got {w0}")
    c = x.z - w0
    disc = c * c + x.rho * x.rho
    if abs(disc) < BRANCH_EXCLUSION:
        raise SingularPointError(f"branch point of varpi0={w0} at {x!r}")
    root = cmath.sqrt(disc)
    return PolePair(lambda_in=c - root, lambda_out=c + root)


def _frobenius(m: ComplexMatrix) -> float:
    return float(np.linalg.norm(m, "fro"))


def _inv(m: ComplexMatrix) -> ComplexMatrix:
    a, condition_cap = np.asarray(m, dtype=complex), algebra.CONDITION_CAP
    cond = np.linalg.cond(a)
    if not np.isfinite(cond):
        raise NumericError("matrix is numerically singular")
    if cond > condition_cap:
        raise NumericError(f"condition estimate {cond:.3e} exceeds cap {condition_cap:.3e}")
    return np.linalg.inv(a)


def _symspace_components(m: ComplexMatrix, gamma_mat: ComplexMatrix) -> tuple[float, float, float]:
    n = m.shape[0]
    quad = _frobenius(m @ gamma_mat @ m @ gamma_mat - np.eye(n))
    herm = _frobenius(m - m.conj().T)
    det_dev = abs(np.linalg.det(m) - 1.0)
    return quad, herm, det_dev


@dataclass
class SpectralData:
    """Per-point cache: pole locations, paired vectors, seed evaluations."""

    lambdas: np.ndarray  # (2N,)
    vs: np.ndarray       # (2N, n)
    psi0: np.ndarray     # (2N, n, n)
    psi0_inv: np.ndarray # (2N, n, n)


def spectral_data(cfg: SolitonConfig, x: DomainPoint,
                  swap: tuple[bool, ...] | None = None) -> SpectralData:
    """Assemble pole pairs, paired vectors, and seed matrices at one point.

    The deck partner of (lam_k, v_k) is (−rho²/lam_k, q0 gamma v_k): the
    seed's own deck-symmetry constant enters the vector pairing, reducing
    to the plain gamma v_k for the trivial seed. ``swap`` optionally
    relabels selected pole pairs, which leaves the dressed map invariant.
    """
    n_sol = len(cfg.poles)
    if swap is not None and len(swap) != n_sol:
        raise ConfigError(f"swap has {len(swap)} flags for {n_sol} pole pairs")
    n = cfg.signature.n
    g = algebra.gamma(cfg.signature)
    q0 = algebra.as_matrix(
        cfg.seed.psi0(np.zeros((1, 1)), np.array([x.rho]), np.array([x.z]))[0][0, 0], n)
    lambdas = np.zeros(2 * n_sol, dtype=complex)
    vs = np.zeros((2 * n_sol, n), dtype=complex)
    for k, (w, v) in enumerate(zip(cfg.poles, cfg.vectors)):
        pair = _pole_pair(w, x)
        lam_k, lam_pk = pair.lambda_in, pair.lambda_out
        v_k, v_pk = v, q0 @ (g @ v)
        if swap is not None and swap[k]:
            lam_k, lam_pk = lam_pk, lam_k
            v_k, v_pk = v_pk, v_k
        lambdas[k], lambdas[n_sol + k] = lam_k, lam_pk
        vs[k], vs[n_sol + k] = v_k, v_pk
    psi0 = np.zeros((2 * n_sol, n, n), dtype=complex)
    psi0_inv = np.zeros_like(psi0)
    for k in range(2 * n_sol):
        m = cfg.seed.psi0(np.array([[lambdas[k]]]), np.array([x.rho]), np.array([x.z]))[0][0, 0]
        psi0[k] = m
        psi0_inv[k] = _inv(m)
    return SpectralData(lambdas=lambdas, vs=vs, psi0=psi0, psi0_inv=psi0_inv)


def build_system(sd: SpectralData, gamma_mat: ComplexMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Entries of the 2N x 2N system A U* = B*.

    a_kj = v_k* S_kj v_j / (lam_k - conj lam_j) with the seed coupling
    S_kj = psi0_k^{-1} gamma (psi0_j^*)^{-1}; b_k* = -v_k* psi0_k^{-1} gamma.
    Returns (A, B) with B the n x 2N matrix whose columns are b_k.
    """
    m = sd.lambdas.size
    n = gamma_mat.shape[0]
    a = np.zeros((m, m), dtype=complex)
    b_star = np.zeros((m, n), dtype=complex)
    for k in range(m):
        row_k = sd.vs[k].conj() @ sd.psi0_inv[k]
        b_star[k] = -(row_k @ gamma_mat)
        for j in range(m):
            denom = sd.lambdas[k] - np.conj(sd.lambdas[j])
            scale = max(1.0, abs(sd.lambdas[k]), abs(sd.lambdas[j]))
            if abs(denom) < 1e-13 * scale:
                raise SingularPointError(
                    f"coincident pole pair: lam_{k} - conj(lam_{j}) ~ 0")
            s_kj = sd.psi0_inv[k] @ gamma_mat @ sd.psi0_inv[j].conj().T
            a[k, j] = (sd.vs[k].conj() @ s_kj @ sd.vs[j]) / denom
    return a, b_star.conj().T


def solve_system(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A U* = B* for the column vectors u_k; returns U (n x 2N).

    Flags the point singular when |det A| drops below the singular
    threshold (the zero set of det A is the ring-singularity locus of the
    dressed map, reported rather than crossed) and refuses the solve when
    the condition estimate exceeds the cap.
    """
    singular_tol, condition_cap = dressing.SINGULAR_TOL, algebra.CONDITION_CAP
    m = a.shape[0]
    if m == 0:
        return np.zeros((b.shape[0], 0), dtype=complex)
    det_a = complex(np.linalg.det(a))
    if abs(det_a) < singular_tol:
        raise SingularDetA(f"det A = {det_a:.3e} below singular threshold", det_a=det_a)
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > condition_cap:
        raise NumericError(f"system condition {cond:.3e} exceeds cap {condition_cap:.3e}")
    b_star = b.conj().T
    u_star = np.linalg.solve(a, b_star)
    resid = np.linalg.norm(a @ u_star - b_star)
    if resid > SOLVE_RESIDUAL_REL * max(np.linalg.norm(b_star), 1e-300):
        raise NumericError(f"solve residual {resid:.3e} above {SOLVE_RESIDUAL_REL:.0e}*||B||")
    return u_star.conj().T


def reconstruct_q(u: np.ndarray, sd: SpectralData, q0: ComplexMatrix) -> ComplexMatrix:
    """Dressed map q = q0 - sum_k (1/lam_k) u_k v_k* psi0_k^{-1} q0."""
    q = q0.astype(complex).copy()
    for k in range(sd.lambdas.size):
        lam = sd.lambdas[k]
        if lam == 0:
            raise DomainError("pole at lam = 0 cannot be inverted in the reconstruction")
        q -= np.outer(u[:, k], sd.vs[k].conj()) @ sd.psi0_inv[k] @ q0 / lam
    return q


def normalize_det(q: ComplexMatrix, tol: float = 1e-9) -> tuple[ComplexMatrix, bool]:
    """Rescale q by det(q)^{-1/n}.

    Uses the real n-th root when det q is real positive (within ``tol``
    relative imaginary part), which preserves Hermiticity exactly. A real
    negative or genuinely complex determinant falls back to the principal
    branch and returns a warning flag: the scaling is then a phase and may
    break Hermiticity (reported, not hidden).
    """
    n = q.shape[0]
    d = complex(np.linalg.det(q))
    if d == 0:
        raise SingularPointError("determinant vanishes; cannot normalize")
    if abs(d.imag) <= tol * abs(d) and d.real > 0:
        return q * (d.real ** (-1.0 / n)), False
    return q * (d ** (-1.0 / n)), True


def chi_at(lam: complex, u: np.ndarray, sd: SpectralData) -> ComplexMatrix:
    """Dressing matrix chi(lam) = I + sum_k u_k v_k* psi0_k^{-1} / (lam - lam_k)."""
    n = u.shape[0] if u.size else sd.psi0.shape[1]
    chi = np.eye(n, dtype=complex)
    for k in range(sd.lambdas.size):
        gap = lam - sd.lambdas[k]
        if abs(gap) < 1e-13 * max(1.0, abs(lam), abs(sd.lambdas[k])):
            raise DomainError(f"chi evaluated at its pole lam_{k} = {sd.lambdas[k]}")
        chi += np.outer(u[:, k], sd.vs[k].conj()) @ sd.psi0_inv[k] / gap
    return chi


def _audit_samples(sd: SpectralData, x: DomainPoint) -> list[complex]:
    """Deterministic sample points keeping lam, conj(lam) and the deck image
    clear of the poles (and of their conjugates, where chi inverts)."""
    scale = max([1.0] + [abs(l) for l in sd.lambdas])
    gap = 1e-3 * scale
    out = []
    for base in CHI_SAMPLES:
        lam = base * max(1.0, 0.3 * scale)
        for _ in range(60):
            probes = [lam, np.conj(lam), spectral.deck(lam, x)]
            dist = min(
                (abs(p - l) for p in probes for l in
                 list(sd.lambdas) + [np.conj(l) for l in sd.lambdas]),
                default=math.inf,
            )
            if dist > gap:
                break
            lam *= 1.171
        out.append(lam)
    return out


def chi_symmetry_residuals(u: np.ndarray, sd: SpectralData, q: ComplexMatrix,
                           q0: ComplexMatrix, gamma_mat: ComplexMatrix,
                           x: DomainPoint) -> tuple[float, float]:
    """Max reality / deck-involution residuals of chi over the fixed samples.

    reality:    || tau(chi(conj lam)) - chi(lam) ||_F
    involution: || chi(lam) - q sigma(chi(-rho^2/lam)) sigma(q0) ||_F
    """
    reality = 0.0
    involution = 0.0
    for lam in _audit_samples(sd, x):
        chi = chi_at(lam, u, sd)
        chi_conj = chi_at(np.conj(lam), u, sd)
        tau_chi = gamma_mat @ _inv(chi_conj.conj().T) @ gamma_mat
        reality = max(reality, _frobenius(tau_chi - chi))
        chi_deck = chi_at(spectral.deck(lam, x), u, sd)
        rhs = q @ (gamma_mat @ chi_deck @ gamma_mat) @ (gamma_mat @ q0 @ gamma_mat)
        involution = max(involution, _frobenius(chi - rhs))
    return reality, involution


_NAN_RESIDUALS = {
    "quadratic": math.nan, "hermiticity": math.nan, "unit_det": math.nan,
    "symspace": math.nan, "chi_reality": math.nan, "chi_involution": math.nan,
    "det_branch_warning": 0.0,
}


def dress_point(cfg: SolitonConfig, x: DomainPoint,
                swap: tuple[bool, ...] | None = None,
                audit_chi: bool = True) -> DressedPoint:
    """Run the full pipeline at one point; singular points become flagged
    data rather than failures. Configuration errors still raise.
    """
    g = algebra.gamma(cfg.signature)
    q0 = algebra.as_matrix(
        cfg.seed.psi0(np.zeros((1, 1)), np.array([x.rho]), np.array([x.z]))[0][0, 0],
        cfg.signature.n)
    det_a: complex = complex("nan")
    try:
        sd = spectral_data(cfg, x, swap)
        a, b = build_system(sd, g)
        if a.size:
            det_a = complex(np.linalg.det(a))
        else:
            det_a = 1.0
        u = solve_system(a, b)
        q_raw = reconstruct_q(u, sd, q0)
        q, warn = normalize_det(q_raw, algebra.CONSTRAINT_TOL)
    except (SingularPointError, NumericError) as exc:
        if isinstance(exc, SingularDetA):
            det_a = exc.det_a
        return DressedPoint(x=x, q=None, det_a=det_a,
                            residuals=dict(_NAN_RESIDUALS), singular=True, note=str(exc))
    quad, herm, det_dev = _symspace_components(q, g)
    residuals = {
        "quadratic": quad,
        "hermiticity": herm,
        "unit_det": det_dev,
        "symspace": quad + herm + det_dev,
        "chi_reality": math.nan,
        "chi_involution": math.nan,
        "det_branch_warning": 1.0 if warn else 0.0,
    }
    if audit_chi and len(cfg.poles) > 0:
        try:
            reality, involution = chi_symmetry_residuals(u, sd, q, q0, g, x)
            residuals["chi_reality"] = reality
            residuals["chi_involution"] = involution
        except (NumericError, DomainError) as exc:
            return DressedPoint(x=x, q=q, det_a=det_a, residuals=residuals,
                                singular=True, note=f"chi audit failed: {exc}")
    elif len(cfg.poles) == 0:
        residuals["chi_reality"] = 0.0
        residuals["chi_involution"] = 0.0
    return DressedPoint(x=x, q=q, det_a=det_a, residuals=residuals, singular=False)


def dress_grid(cfg: SolitonConfig, points: list[list[DomainPoint]],
               audit_chi: bool = True) -> list[list[DressedPoint]]:
    """Dress a grid of points (rows of DomainPoints) in row-major order."""
    return [[dress_point(cfg, x, audit_chi=audit_chi) for x in row] for row in points]
