"""One point's dressing on a constant seed, evaluated in mpmath at 50
digits from the same float inputs: the value a forward error of the
pipeline's q is measured against. Each step is the pipeline's formula
(dressing._spectral, _system, _solve and _reconstruct) without its rounding.
"""
from __future__ import annotations

import mpmath
import numpy as np

from vesture import algebra
from vesture.dressing import SolitonConfig

DIGITS = 50


def dressed_q(cfg: SolitonConfig, rho: float, z: float) -> np.ndarray:
    """q at the point (rho, z) of a dressing whose seed is constant (Psi0 =
    q0 = J), rounded to complex128 from its 50-digit value."""
    with mpmath.workdps(DIGITS):
        n, half = cfg.signature.n, len(cfg.poles)
        flip = algebra.gamma(cfg.signature).diagonal().real.tolist()
        q0 = mpmath.matrix(cfg.seed.q0(np.array([rho]), np.array([z]))[0].tolist())
        deck = mpmath.matrix(cfg.seed.deck.tolist())
        # the pole pairs: c -+ sqrt(c^2 + rho^2) with c = z - varpi0
        cs = [mpmath.mpf(z) - mpmath.mpc(w) for w in cfg.poles]
        roots = [mpmath.sqrt(c * c + mpmath.mpf(rho) ** 2) for c in cs]
        lambdas = [c - r for c, r in zip(cs, roots)] + [c + r for c, r in zip(cs, roots)]
        # the paired vectors v_k and J gamma v_k, and the rows w_k = v_k* Psi0^-1
        own = [mpmath.matrix(v.tolist()) for v in cfg.vectors]
        vs = own + [deck * mpmath.matrix([f * v[i] for i, f in enumerate(flip)]) for v in own]
        q0_inv = mpmath.inverse(q0)
        ws = [v.H * q0_inv for v in vs]
        # A_kj = w_k gamma w_j^* / (lam_k - conj lam_j) and B*_k = -w_k gamma
        m = 2 * half
        a = mpmath.matrix(m, m)
        b_star = mpmath.matrix(m, n)
        for k in range(m):
            for j in range(m):
                dot = sum(ws[k][i] * flip[i] * mpmath.conj(ws[j][i]) for i in range(n))
                a[k, j] = dot / (lambdas[k] - mpmath.conj(lambdas[j]))
            for i in range(n):
                b_star[k, i] = -ws[k][i] * flip[i]
        u_star = mpmath.inverse(a) * b_star  # 50 digits absorb cond(A)
        # q = q0 - sum_k u_k w_k q0 / lam_k, with u_k the conjugate of row k of U*
        q = q0.copy()
        for k in range(m):
            u = mpmath.matrix([mpmath.conj(u_star[k, i]) for i in range(n)])
            q -= u * (ws[k] * q0) / lambdas[k]
        return np.array(q.tolist(), dtype=complex)
