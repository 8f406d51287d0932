"""Closed forms that only the tests use: the inverse basis change of the 3x3
target, the embedding of the 2x2 target into it, the closed-form
one-soliton family on the 3x3 target that the dressed Kerr-Newman maps are
held against, with its parameters at a Kerr-Newman triple, and the paper's
dominance condition at infinity on the input vectors."""
from __future__ import annotations

import math

import numpy as np

from vesture import algebra, targets
from vesture.algebra import ComplexMatrix
from vesture.errors import SingularPointError
from vesture.targets import BLParams, basis_change_u3

_U3 = basis_change_u3()


def from_tilde_rep(qt: ComplexMatrix) -> ComplexMatrix:
    """Antidiagonal-metric picture -> diagonal-metric picture; the inverse
    of targets.to_tilde_rep."""
    return _U3.conj().T @ qt @ _U3


def embed_g11_in_g21(q2: ComplexMatrix) -> ComplexMatrix:
    """Totally geodesic embedding of the 2x2 target into the 3x3 one:
    the 2x2 block occupies rows/columns (1, 3) around a middle identity."""
    q2 = algebra.as_matrix(q2, 2)
    out = np.eye(3, dtype=complex)
    out[np.ix_([0, 2], [0, 2])] = q2
    return out


def kn_family_params(m: float, e: float, s: float) -> dict[str, float]:
    """The parameters of g21_soliton_family identified with the Kerr-Newman
    triple (m, e, s) (see targets.kn_b_param): a_param = s, b_param, the
    bilinears n1 = m/2, n2 = 0, n3 = -e/2, n4 = 0, and the oracle spin
    oracle_a = -b_param."""
    b = targets.kn_b_param(m, e, s)
    return {"a_param": s, "b_param": b, "n1": m / 2.0, "n2": 0.0,
            "n3": -e / 2.0, "n4": 0.0, "oracle_a": -b}


def g21_soliton_family(a_param: float, b_param: float,
                       n1: float, n2: float, n3: float, n4: float,
                       p: BLParams, r: float, theta: float) -> ComplexMatrix:
    """Closed-form one-soliton 3x3 map with the vector bilinears replaced
    by free products: the pair (n1 + i n2, n3 + i n4) stands in for the
    first two components paired against the third, with squared moduli
    n1^2 + n2^2 and n3^2 + n4^2 on the diagonal.
    """
    s = p.s
    big_r = r - p.m
    c = math.cos(theta)
    f = a_param ** 2 * (big_r ** 2 + s * s) - b_param ** 2 * s * s * math.sin(theta) ** 2
    if f == 0:
        raise SingularPointError("family evaluated on its singular locus F = 0")
    ag = n1 + 1j * n2
    bg = n3 + 1j * n4
    aag = n1 * n1 + n2 * n2
    bbg = n3 * n3 + n4 * n4
    w = 1j * a_param * big_r - b_param * s * c
    q = np.empty((3, 3), dtype=complex)
    q[0, 0] = 1 + 8 * aag * s * s / f
    q[0, 1] = 8 * ag * np.conj(bg) * s * s / f
    q[0, 2] = -4 * s * ag * w / f
    q[1, 1] = 1 + 8 * bbg * s * s / f
    q[1, 2] = -4 * s * bg * w / f
    q[2, 2] = 1 + 8 * (aag + bbg) * s * s / f
    q[1, 0] = np.conj(q[0, 1])
    q[2, 0] = np.conj(q[0, 2])
    q[2, 1] = np.conj(q[1, 2])
    return q


def dominance_check(vectors, gamma_mat: ComplexMatrix) -> bool:
    """Strict diagonal-dominance condition on the input vectors.

    True iff sum_{j != k} |v_k* gamma v_j| < |v_k* gamma v_k| / 2 for every
    k, the sum running over the N input vectors only (the deck-paired
    columns decay at infinity and need no condition).
    """
    vecs = np.array(vectors, dtype=complex).reshape(len(vectors), len(gamma_mat))
    gram = np.abs(vecs.conj() @ gamma_mat @ vecs.T)
    off = np.where(np.eye(len(vecs), dtype=bool), 0.0, gram).sum(axis=-1)
    return bool(np.all(off < 0.5 * np.diagonal(gram)))
