"""Dense complex small-matrix arithmetic and the group-theoretic predicates.

Matrices are plain ``numpy.ndarray`` of complex128; this module adds the
pseudo-unitary structure: the indefinite metric ``gamma``, the involutions
``tau`` and ``sigma``, and residuals measuring membership in SU(p,q) and in
the Cartan-embedded symmetric space ("Hermitian, unit determinant, and
q*gamma*q*gamma = I").

All residuals are returned as numbers, never booleans; the thresholds shared
by seeds, dressing and cli are the constants below, read at call time. The
Frobenius norm is used throughout.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

ComplexMatrix = np.ndarray  # square, complex128

#: the membership gate: the largest symmetric-space residual of a seed or a gated point
CONSTRAINT_TOL = 1e-9
#: the largest 2-norm condition number of a matrix that checked_inv inverts
CONDITION_CAP = 1e12

#: a.any() and a.all() over every axis as one C call; the methods pass
#: through numpy's Python layer, which is most of their cost on small arrays
any_of = functools.partial(np.logical_or.reduce, axis=None)
all_of = functools.partial(np.logical_and.reduce, axis=None)


@dataclass(frozen=True)
class Signature:
    """Target signature (p, q) of SU(p, q); n = p + q."""

    p: int
    q_minus: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q_minus < 1:
            raise ConfigError(f"signature needs p >= 1 and q >= 1, got ({self.p}, {self.q_minus})")

    @property
    def n(self) -> int:
        return self.p + self.q_minus


def as_matrix(m, n: int) -> ComplexMatrix:
    """Coerce to a finite n x n complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] != n:
        raise ConfigError(f"expected a {n}x{n} matrix, got {a.shape[0]}x{a.shape[0]}")
    if not all_of(np.isfinite(a.view(float))):
        raise ConfigError("matrix has non-finite entries")
    return a


@functools.cache
def gamma(sig: Signature) -> ComplexMatrix:
    """Indefinite metric diag(+1 x p, -1 x q). Hermitian, squares to I.
    Built on first use for each signature and read-only, so every caller
    shares one."""
    g = np.diag(np.array([1.0] * sig.p + [-1.0] * sig.q_minus, dtype=complex))
    g.setflags(write=False)
    return g


@functools.cache
def identity(n: int) -> np.ndarray:
    """The n x n identity of a target of n = p + q, read-only and built once
    per size."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def frobenius(m: ComplexMatrix) -> float | np.ndarray:
    """Frobenius norm of a matrix, or of each matrix of a (..., n, n) stack:
    numpy.linalg.norm's own expression for it, without its axis handling."""
    return np.sqrt(np.add.reduce((np.conjugate(m) * m).real, axis=(-2, -1)))


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over broadcast stacks of small (..., m, k) @ (..., k, n) matrices.

    For k <= 3, a sum over k of elementwise products: numpy's matmul makes
    one BLAS call per matrix, ~5x slower on a 1024-point 2x2 stack. The sum
    runs in another order than BLAS, whose complex kernels also fuse
    multiply-adds, so entries differ at rounding level; residuals use it,
    while q, det A and the products of chi's rank-one factors keep matmul,
    as their outputs outgrow their inner dimension (a (45, 6, 3) @
    (45, 3, 6) Gram stack: 16 us by matmul, 24 us as the sum). For k > 3
    the sum costs k elementwise passes over the stack and matmul wins (a
    (48, 6, 6) @ (48, 6, 3) stack: 53 us against 19 us), so the product is
    matmul's."""
    if a.shape[-1] > 3:
        return np.matmul(a, b)
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j:j + 1] * b[..., j:j + 1, :]
    return out


def shared_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a (..., m, k) stack a and one (k, n) matrix b (or a stack
    of one), as one BLAS product of a's stacked rows: numpy's matmul makes
    one BLAS call per matrix of the stack (25 us against 5 us for 64 2x2
    maps, Xeon, 2 cores). Each entry is the same dot product in the same order, and the
    bytes are matmul's. A b that varies along the stack goes to matmul."""
    if b.ndim > 2 and b.shape[0] != 1:
        return np.matmul(a, b)
    rows = a.reshape(math.prod(a.shape[:-1]), a.shape[-1]) @ b.reshape(b.shape[-2:])
    return rows.reshape(a.shape[:-1] + b.shape[-1:])


def checked_inv(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a (..., n, n) stack and the 2-norm condition number of each.

    The stack is inverted once, by LU on each matrix, and that inverse gives
    the upper bound ||A||_F ||A^-1||_F >= cond(A). The SVD is taken only for
    the matrices whose bound does not clear CONDITION_CAP by a factor
    10, so every refusal and every reported condition near the cap is the
    SVD's; elsewhere the bound is returned. A matrix whose condition is not
    finite or exceeds the cap is refused: its slot holds the identity, and
    refusal() says why. An exactly singular matrix makes the stack's LU
    fail; then every condition is the SVD's and the stack, refused slots
    replaced by the identity, is inverted again.
    """
    a = np.asarray(m, dtype=complex)
    flat = a.reshape((-1,) + a.shape[-2:])
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(flat)
            cond = frobenius(flat) * frobenius(inv)
        except np.linalg.LinAlgError:  # an exactly singular matrix in the stack
            inv, cond = None, np.full(len(flat), np.inf)
    clear = 10.0 * cond <= CONDITION_CAP
    if not all_of(clear):  # a refusal needs a bound that does not clear the cap
        near = ~clear
        try:
            cond[near] = np.linalg.cond(flat[near])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - cond rarely fails
            raise NumericError(f"condition estimate failed: {exc}") from exc
        refused = ~(cond <= CONDITION_CAP)
        eye = np.eye(a.shape[-1])
        if inv is None:
            inv = np.linalg.inv(np.where(refused[:, None, None], eye, flat))
        else:
            inv[refused] = eye
    return inv.reshape(a.shape), cond.reshape(a.shape[:-2])


def refusal(cond: float) -> str:
    """Why checked_inv refused a matrix of condition ``cond``."""
    if not np.isfinite(cond):
        return "matrix is numerically singular"
    return f"condition estimate {cond:.3e} exceeds cap {CONDITION_CAP:.3e}"


def inv(m: ComplexMatrix) -> ComplexMatrix:
    """Inverse of a matrix, or of each matrix of a (..., n, n) stack, via LU
    with a condition estimate. Raises NumericError with the refusal of the
    first refused matrix when a matrix is singular or its estimated 2-norm
    condition number exceeds CONDITION_CAP."""
    out, cond = checked_inv(m)
    refused = ~(cond <= CONDITION_CAP)
    if any_of(refused):
        raise NumericError(refusal(cond.flat[np.argmax(refused)]))
    return out


def tau(m: ComplexMatrix, gamma_mat: ComplexMatrix) -> ComplexMatrix:
    """Conjugate-linear involution g -> gamma (g*)^{-1} gamma, applied to a
    matrix or to each matrix of a (..., n, n) stack.

    Its fixed-point set is SU(p,q) (together with det = 1). Involutive on
    invertible input; singular input raises NumericError.
    """
    return gamma_mat @ inv(np.conjugate(m).swapaxes(-1, -2)) @ gamma_mat


def sigma(m: ComplexMatrix, gamma_mat: ComplexMatrix) -> ComplexMatrix:
    """Linear involution g -> gamma g gamma fixing S(U(p) x U(q)), applied
    to a matrix or to each matrix of a (..., n, n) stack.

    ``gamma_mat`` is the diagonal metric of gamma(), so the involution
    flips the sign of each entry g_ij with gamma_ii != gamma_jj.
    """
    d = gamma_mat.diagonal()
    return m * (d[:, None] * d[None, :])


def group_residual(m: ComplexMatrix, gamma_mat: ComplexMatrix) -> float | np.ndarray:
    """||m* gamma m - gamma||_F + |det m - 1| of a matrix, or of each matrix
    of a (..., n, n) stack; zero iff m is in SU(p,q)."""
    metric = frobenius(np.conjugate(m).swapaxes(-1, -2) @ gamma_mat @ m - gamma_mat)
    return metric + np.abs(np.linalg.det(m) - 1.0)


def symspace_components(m: ComplexMatrix, gamma_mat: ComplexMatrix) -> tuple:
    """(quadratic, hermiticity, unit-det) components of the symmetric-space
    membership residual: ||m gamma m gamma - I||_F, ||m - m*||_F, |det m - 1|;
    one value per matrix of a (..., n, n) stack."""
    n = m.shape[-1]
    quad = frobenius(mul(m, sigma(m, gamma_mat)) - identity(n))
    herm = frobenius(m - np.conjugate(m).swapaxes(-1, -2))
    det_dev = np.abs(np.linalg.det(m) - 1.0)
    return quad, herm, det_dev


def symspace_residual(m: ComplexMatrix, gamma_mat: ComplexMatrix) -> float:
    """Total membership residual for the Cartan-embedded symmetric space,
    of a matrix or of each matrix of a stack."""
    return sum(symspace_components(m, gamma_mat))
