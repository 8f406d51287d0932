"""The dressing on a constant seed, evaluated in mpmath at 50 digits from
the same float inputs: the values the forward errors of the pipeline's q,
det A and chi are measured against. Each step is the pipeline's formula
(dressing._spectral, _system, _solve, _reconstruct and _chi) without its
rounding. Matrices are lists of rows of mpc, which mpmath multiplies
several times faster than its matrix class; what does not depend on the
point (the rows w_k, the numerators of A, B* and w_k q0) is formed once.
"""
from __future__ import annotations

from typing import NamedTuple

import mpmath
import numpy as np

from vesture import algebra
from vesture.dressing import SolitonConfig

DIGITS = 50


#: values of lam at which chi is held to its 50-digit value and to its audit's bound
CHI_SAMPLES = np.array([0.37 + 0.62j, -1.4 + 0.9j, 2.2 - 1.3j, 0.05 - 0.8j])


class Exact(NamedTuple):
    """The 50-digit values at P points, rounded to complex128: q (P, n, n),
    det A (P,), A itself (P, 2N, 2N), for its condition, chi at the S
    samples (P, S, n, n), the poles lam_k (P, 2N) and chi's residues
    R_k = u_k w_k (P, 2N, n, n)."""
    q: np.ndarray
    det_a: np.ndarray
    a: np.ndarray
    chi: np.ndarray
    lambdas: np.ndarray
    residues: np.ndarray


def forward_bound(a: np.ndarray) -> np.ndarray:
    """The relative forward error that q, det A and chi are held to at each
    point of a stack of systems A: 1e-12 where cond(A) < 1e4, else 10 eps
    cond(A). To first order a backward-stable solve of an A whose entries
    carry a few eps of rounding is off by that many eps times cond(A)
    (Higham, Accuracy and Stability of Numerical Algorithms, section 7.1)."""
    cond = np.linalg.cond(a) if a.shape[-1] else np.ones(len(a))
    return np.where(cond < 1e4, 1e-12, 10 * np.finfo(float).eps * cond)


def _rows(values) -> list[list]:
    return [[mpmath.mpc(x) for x in row] for row in np.asarray(values).tolist()]


def _eliminate(a: list[list], b: list[list]) -> tuple:
    """det a and a^-1 b, by Gauss-Jordan elimination with partial pivoting
    of the rows [a | b]."""
    m, det = len(a), mpmath.mpf(1)
    rows = [ra + rb for ra, rb in zip(a, b)]
    for c in range(m):
        p = max(range(c, m), key=lambda r: abs(rows[r][c]))
        if p != c:
            rows[c], rows[p], det = rows[p], rows[c], -det
        det *= rows[c][c]
        scale = 1 / rows[c][c]
        rows[c] = [x * scale for x in rows[c]]
        for r in range(m):
            if r != c:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return det, [row[m:] for row in rows]


def dressed(cfg: SolitonConfig, rho, z, samples=()) -> Exact:
    """The dressing at the points (rho, z), two numbers or arrays of one
    shape, whose seed is constant (Psi0 = q0 = J), with chi at the given
    values of lam."""
    rho, z = np.ravel(rho).tolist(), np.ravel(z).tolist()
    with mpmath.workdps(DIGITS):
        n, half, conj = cfg.signature.n, len(cfg.poles), mpmath.conj
        flip = algebra.gamma(cfg.signature).diagonal().real.tolist()
        q0 = _rows(cfg.seed.psi0(np.zeros((1, 1)), np.array(rho[:1]), np.array(z[:1]))[0][0, 0])
        deck = _rows(cfg.seed.deck)
        # the paired vectors v_k and J gamma v_k, and the rows w_k = v_k* Psi0^-1
        own = _rows(cfg.vectors) if half else []
        vs = own + [[sum(d[j] * flip[j] * v[j] for j in range(n)) for d in deck] for v in own]
        q0_inv = _eliminate(q0, [[int(i == j) for j in range(n)] for i in range(n)])[1]
        ws = [[sum(conj(v[i]) * q0_inv[i][j] for i in range(n)) for j in range(n)] for v in vs]
        # A_kj = w_k gamma w_j^* / (lam_k - conj lam_j) and B*_k = -w_k gamma
        num = [[sum(wk[i] * flip[i] * conj(wj[i]) for i in range(n)) for wj in ws] for wk in ws]
        b_star = [[-wk[i] * flip[i] for i in range(n)] for wk in ws]
        wq0 = [[sum(w[i] * q0[i][j] for i in range(n)) for j in range(n)] for w in ws]
        qs, dets, systems, chis, poles, residue_sets = [], [], [], [], [], []
        for r, h in zip(rho, z):
            # the pole pairs: c -+ sqrt(c^2 + rho^2) with c = z - varpi0
            cs = [mpmath.mpf(h) - mpmath.mpc(w) for w in cfg.poles]
            roots = [mpmath.sqrt(c * c + mpmath.mpf(r) ** 2) for c in cs]
            lambdas = [c - t for c, t in zip(cs, roots)] + [c + t for c, t in zip(cs, roots)]
            a = [[nk / (lk - conj(lj)) for nk, lj in zip(row, lambdas)]
                 for row, lk in zip(num, lambdas)]
            det_a, u_star = _eliminate(a, b_star)  # 50 digits absorb cond(A)
            # u_k is the conjugate of row k of U*; q = q0 - sum_k (u_k / lam_k) (w_k q0)
            us = [[conj(x) for x in row] for row in u_star]
            scaled = [[x / lam for x in u] for u, lam in zip(us, lambdas)]
            qs.append([[q0[i][j] - sum(u[i] * wq[j] for u, wq in zip(scaled, wq0))
                        for j in range(n)] for i in range(n)])
            # chi(s) = I + sum_k R_k / (s - lam_k), with the residues R_k = u_k w_k
            residues = [[[u[i] * w[j] for j in range(n)] for i in range(n)]
                        for u, w in zip(us, ws)]
            chi = []
            for s in samples:
                weights = [1 / (mpmath.mpc(s) - lam) for lam in lambdas]
                chi.append([[int(i == j) + sum(res[i][j] * t for res, t in zip(residues, weights))
                             for j in range(n)] for i in range(n)])
            dets.append(det_a)
            systems.append(a)
            chis.append(chi)
            poles.append(lambdas)
            residue_sets.append(residues)
        size, m = len(rho), 2 * half
        return Exact(np.array(qs, dtype=complex).reshape(size, n, n),
                     np.array(dets, dtype=complex).reshape(size),
                     np.array(systems, dtype=complex).reshape(size, m, m),
                     np.array(chis, dtype=complex).reshape(size, len(samples), n, n),
                     np.array(poles, dtype=complex).reshape(size, m),
                     np.array(residue_sets, dtype=complex).reshape(size, m, n, n))
