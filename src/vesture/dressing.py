"""Batched dressing pipeline.

Given N prescribed pole positions (non-real surface coordinates), constant
vectors, and a seed, each domain point yields a 2N x 2N linear system whose
solution reconstructs the dressed map q and the rational dressing matrix
chi(lam) = I + sum_k R_k / (lam - lam_k). Pole pairs are deck-related
(lam_{N+k} = -rho^2 / lam_k) and vector pairs related by the seed's deck
constant J and the metric (v_{N+k} = J gamma v_k; J = q0 for a constant
seed), which builds the symmetry conditions chi(inf) = I,
tau(chi(conj lam)) = chi(lam) and the deck involution into the ansatz.
So q = chi(0) q0 lies on the symmetric space, det q = 1 included, in exact
arithmetic: it is returned as it is, and its residuals measure its rounding.

Each residue has rank one, R_k = u_k w_k: a column u_k from the solve times
a row w_k = v_k* Psi0(lam_k)^{-1} (Belinski & Zakharov 1978). P points are
dressed as one array pipeline on these factors, never on n x n residues,
into a DressedGrid; a seed that does not vary keeps a batch axis of length
1, so w is computed once. A point that fails a check is flagged, and its
first failure in pipeline order becomes its note. A single point is a
batch of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import algebra, spectral
from .algebra import ComplexMatrix, Signature
from .errors import ConfigError, DomainError, SeedError
from .seeds import Seed
from .spectral import DomainPoint

#: relative solve-residual bound enforced after the linear solve
SOLVE_RESIDUAL_REL = 1e-10
#: |det A| below which a point is flagged singular
SINGULAR_TOL = 1e-12
#: two poles, or a value and a pole, coincide where their gap is below this
#: times the largest of 1 and their moduli (_coincide)
POLE_GAP = 1e-13


@dataclass(frozen=True)
class SolitonConfig:
    """Full description of one dressing problem.

    poles: N distinct finite non-real surface coordinates (upper half plane
    by convention, but only non-reality is required).
    vectors: N nonzero finite constant vectors of length n.
    """

    signature: Signature
    poles: tuple[complex, ...]
    vectors: tuple[np.ndarray, ...]
    seed: Seed

    def __post_init__(self) -> None:
        problems = []
        if len(self.poles) != len(self.vectors):
            problems.append(f"{len(self.poles)} poles but {len(self.vectors)} vectors")
        for k, w in enumerate(self.poles):
            if not np.isfinite(complex(w)):
                problems.append(f"pole {k} is not finite ({w})")
            elif complex(w).imag == 0.0:
                problems.append(f"pole {k} is real ({w}); real poles are not supported")
        for k, w in enumerate(self.poles):
            for j in range(k + 1, len(self.poles)):
                if self.poles[j] == w:
                    problems.append(f"poles {k} and {j} coincide ({w})")
        vecs = []
        for k, v in enumerate(self.vectors):
            v = np.asarray(v, dtype=complex).reshape(-1)
            if v.size != self.signature.n:
                problems.append(f"vector {k} has length {v.size}, expected {self.signature.n}")
            elif not algebra.all_of(np.isfinite(v)):
                problems.append(f"vector {k} has non-finite entries")
            elif not algebra.any_of(v != 0):
                problems.append(f"vector {k} is zero")
            v.setflags(write=False)
            vecs.append(v)
        if self.seed.signature != self.signature:
            problems.append("seed signature does not match the target signature")
        if problems:
            raise ConfigError("; ".join(problems))
        object.__setattr__(self, "vectors", tuple(vecs))
        object.__setattr__(self, "poles", tuple(complex(w) for w in self.poles))


@dataclass
class SpectralData:
    """Pole locations and the row factors of chi's residues: lambdas (P, 2N);
    w (P, 2N, n), row k v_k* Psi0(lam_k)^{-1} with the paired vectors
    v_{N+k} = J gamma v_k, and 1 in place of P where the seed does not vary."""

    lambdas: np.ndarray
    w: np.ndarray


@dataclass
class DressedGrid:
    """P dressed points as (P, ...) arrays in input order: q is NaN at the
    singular points, det A where the system was not built; residuals holds
    one float column per name in _RESIDUALS, and notes the reason for each
    singular point, by index."""

    rho: np.ndarray
    z: np.ndarray
    q: np.ndarray
    det_a: np.ndarray
    residuals: dict[str, np.ndarray]
    singular: np.ndarray
    notes: dict[int, str]


class _Failures:
    """The first failure of each point, in pipeline order: its note."""

    def __init__(self, size: int) -> None:
        self.ok = np.ones(size, dtype=bool)
        self.note: list[str | None] = [None] * size

    def flag(self, bad, make, at=None) -> None:
        """Record the note make(j) for every j with bad[j] (any of bad[j],
        when it is an array) whose point (at[j], or j) has not failed yet; a
        bad of length 1 stands for every point."""
        if not algebra.any_of(bad):
            return
        if bad.ndim > 1:
            bad = bad.reshape(len(bad), -1).any(axis=-1)
        for j in np.flatnonzero(bad & (self.ok if at is None else self.ok[at])):
            i = j if at is None else at[j]
            self.ok[i] = False
            self.note[i] = make(j)


def _seed_values(value, batch: tuple[int, ...], n: int, what: str, fails: _Failures,
                 where) -> np.ndarray:
    """A seed evaluation at every point, its non-finite matrices flagged and
    replaced by I; SeedError unless each batch axis has its length in
    ``batch`` or 1 and n x n matrices follow."""
    a = np.asarray(value, dtype=complex)
    if a.shape[len(batch):] != (n, n) or [k for k, b in zip(a.shape, batch) if k not in (1, b)]:
        raise SeedError(f"seed {what} evaluation has shape {a.shape} for a batch of {batch}")
    finite = np.isfinite(a)
    if algebra.all_of(finite):
        return a
    bad = ~finite.all(axis=(-2, -1))
    fails.flag(bad.any(axis=tuple(range(1, bad.ndim))),
               lambda i: f"seed {what} is not finite at {where(i)}")
    return np.where(bad[..., None, None], algebra.identity(n), a)


def _spectral(cfg: SolitonConfig, rho: np.ndarray, z: np.ndarray,
              swap, fails: _Failures) -> tuple[SpectralData, np.ndarray]:
    """Pole pairs and the row factors w_k = v_k* Psi0(lam_k)^{-1} of the paired
    vectors at every point (coordinates rho, z); returns the spectral data and q0,
    each with a batch axis of length 1 where the seed does not vary. Each
    seed evaluator is called once, at every point, flagged or not; a Psi0
    above the condition cap flags its point."""
    n_sol, n = len(cfg.poles), cfg.signature.n
    if swap is not None and len(swap) != n_sol:
        raise ConfigError(f"swap has {len(swap)} flags for {n_sol} pole pairs")
    size = len(rho)

    def where(i: int) -> str:  # the point's DomainPoint repr, without building one
        return f"DomainPoint(rho={float(rho[i])!r}, z={float(z[i])!r})"

    lam_in, lam_out, branch = spectral.pole_pairs(cfg.poles, rho, z)
    fails.flag(branch, lambda i:
               f"branch point of varpi0={cfg.poles[np.argmax(branch[i])]} at {where(i)}")
    value = cfg.seed.q0(rho, z)
    notes = cfg.seed.notes() if isinstance(cfg.seed, _DressedSeed) else {}
    q0 = _seed_values(value, (size,), n, "q0", fails, lambda i: where(i) + (
        f": the seed's dressing flagged it: {notes[i]}" if i in notes else ""))
    own = np.array(cfg.vectors, dtype=complex).reshape(n_sol, n)
    partners = (own * algebra.gamma(cfg.signature).diagonal()) @ cfg.seed.deck.T
    if swap is not None:
        pair = np.asarray(swap, dtype=bool)
        lam_in, lam_out = np.where(pair, lam_out, lam_in), np.where(pair, lam_in, lam_out)
        own, partners = (np.where(pair[:, None], partners, own),
                         np.where(pair[:, None], own, partners))
    lambdas = np.concatenate([lam_in, lam_out], axis=-1)
    vs = np.concatenate([own, partners])
    psi0 = _seed_values(cfg.seed.psi0(lambdas, rho, z), (size, 2 * n_sol), n, "Psi0", fails,
                        where)
    psi0_inv, cond = algebra.checked_inv(psi0)
    refused = ~(cond <= algebra.CONDITION_CAP)
    fails.flag(refused, lambda i: algebra.refusal(
        cond[i % len(cond)][np.argmax(refused[i % len(cond)])]))
    w = (np.conjugate(vs)[:, None, :] @ psi0_inv)[..., 0, :]
    return SpectralData(lambdas, w), q0


def _coincide(gap: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where a and b, whose difference (or a - conj b) is ``gap``, coincide:
    |gap| < POLE_GAP max(1, |a|, |b|), elementwise."""
    return np.abs(gap) < POLE_GAP * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _system(sd: SpectralData, gamma_mat: ComplexMatrix,
            fails: _Failures) -> tuple[np.ndarray, np.ndarray]:
    """A (P, 2N, 2N) and B* (P or 1, 2N, n); A is the identity at failed points.

    a_kj = v_k* S_kj v_j / (lam_k - conj lam_j) with the seed coupling
    S_kj = psi0_k^{-1} gamma (psi0_j^*)^{-1}, that is w_k gamma w_j^* /
    (lam_k - conj lam_j): one product (w gamma) w^*; and b_k* = -w_k gamma.
    """
    lambdas, m = sd.lambdas, sd.lambdas.shape[-1]
    wg = sd.w * gamma_mat.diagonal()
    num = wg @ np.conjugate(sd.w).swapaxes(-1, -2)
    denom = lambdas[..., :, None] - np.conjugate(lambdas)[..., None, :]
    coincident = _coincide(denom, lambdas[..., :, None], lambdas[..., None, :])
    fails.flag(coincident, lambda i: "coincident pole pair: lam_{} - conj(lam_{}) ~ 0".format(
        *divmod(int(np.argmax(coincident[i])), m)))
    a = num / np.where(coincident, 1.0, denom)
    return np.where(fails.ok[:, None, None], a, np.eye(m)), -wg


def _solve(a: np.ndarray, b_star: np.ndarray, fails: _Failures) -> tuple[np.ndarray, np.ndarray]:
    """Solve A U* = B* at every point; returns U* and det A.

    Flags a point when |det A| drops below SINGULAR_TOL (the zero set of
    det A is the ring-singularity locus of the dressed map, reported rather
    than crossed), when the condition number exceeds algebra.CONDITION_CAP,
    and when the solve residual exceeds SOLVE_RESIDUAL_REL * ||B||.

    The condition comes from det A first: A^-1 = adj A / det A and the
    singular values of adj A are products of m - 1 of A's, so
    cond(A) <= ||A||_F ||A^-1||_F <= ||A||_F^m / |det A|. A system whose
    bound clears the cap by 10x is accepted as it stands; the others go
    through algebra.checked_inv as one sub-stack, so every refusal and its
    note is the SVD's. A bound that overflows is not a bound.
    """
    m, cap = a.shape[-1], algebra.CONDITION_CAP
    det = np.linalg.det(a)
    small = np.abs(det) < SINGULAR_TOL
    fails.flag(small, lambda i: f"det A = {complex(det[i]):.3e} below singular threshold")
    with np.errstate(over="ignore", invalid="ignore"):
        size = 10.0 * algebra.frobenius(a) ** m
        clear = (size < np.inf) & (size <= cap * np.abs(det))
    unsure = (fails.ok & ~clear).nonzero()[0]
    if unsure.size:
        cond = algebra.checked_inv(a[unsure])[1]
        fails.flag(~(cond <= cap),
                   lambda j: f"system condition {cond[j]:.3e} exceeds cap {cap:.3e}", unsure)
    a = np.where(fails.ok[:, None, None], a, np.eye(m))
    u_star = np.linalg.solve(a, b_star)
    resid = algebra.frobenius(algebra.mul(a, u_star) - b_star)
    bound = SOLVE_RESIDUAL_REL * np.maximum(algebra.frobenius(b_star), 1e-300)
    fails.flag(resid > bound, lambda i:
               f"solve residual {resid[i]:.3e} above {SOLVE_RESIDUAL_REL:.0e}*||B||")
    return u_star, det


def _reconstruct(u: np.ndarray, w: np.ndarray, lambdas: np.ndarray, q0: np.ndarray,
                 fails: _Failures) -> np.ndarray:
    """q = chi(0) q0 = q0 - sum_k (1/lam_k) u_k w_k q0 at every point, one
    product: the rows u_k / lam_k, transposed, times the rows w_k q0. det q
    = det chi(0) det q0 = 1 in exact arithmetic; unit_det audits it."""
    zero = lambdas == 0
    if algebra.any_of(zero & fails.ok[:, None]):
        raise DomainError("pole at lam = 0 cannot be inverted in the reconstruction")
    return q0 - algebra.shared_mul((u / np.where(zero, 1.0, lambdas)[..., None]).swapaxes(-1, -2),
                                   w @ q0)


def _chi(lam: np.ndarray, u: np.ndarray, w: np.ndarray,
         lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """chi = I + sum_k u_k w_k / (lam - lam_k) at (P, S) values lam; returns
    chi (P, S, n, n) and the (P, S, 2N) mask of values at a pole, where chi
    has no value (the term's gap is taken as 1). The sum over the poles is
    one product: the rows u_k / (lam - lam_k), transposed, times the rows w_k."""
    gap = lam[..., None] - lambdas[..., None, :]
    at_pole = _coincide(gap, lam[..., None], lambdas[..., None, :])
    weights = 1.0 / (np.where(at_pole, 1.0, gap) if at_pole.any() else gap)
    terms = (u.swapaxes(-1, -2)[:, None] * weights[..., None, :]) @ w[:, None]
    return algebra.identity(u.shape[-1]) + terms, at_pole


def _audit(u: np.ndarray, w: np.ndarray, lambdas: np.ndarray, q: np.ndarray,
           quadratic: np.ndarray, q0: np.ndarray, gamma_mat: ComplexMatrix,
           rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reality / deck-involution residuals of chi, from its residues
    R_k = u_k w_k (a column times a row) and its value at infinity: both
    identities are rational in lam with simple poles at the lam_k and their
    conjugates (_system flags a lam_k that meets a conj lam_j), so each
    vanishes everywhere iff those do.

    Reality, F(lam) = chi(conj lam)^* sigma(chi(lam)) - I, is 0 at infinity;
    its residue at lam_k is the column chi(conj lam_k)^* gamma u_k = gamma u_k
    + sum_j conj(w_j) (u_j^* gamma u_k) / (lam_k - conj lam_j) times the row
    w_k gamma (at conj lam_k, its adjoint up to gamma). The deck involution,
    G(lam) = chi(lam) - q sigma(chi(-rho^2/lam)) sigma(q0), is I - q sigma(q)
    at infinity, as q = chi(0) q0: the norm of that is the ``quadratic``
    membership residual, which the caller passes in. Its residue at lam_k,
    u_k w_k - (lam_k^2/rho^2) (q gamma u_k')(w_k' q0 gamma) with k' the deck
    partner of k, is formed before its norm: expanding the norm would cancel
    a rounding-level residual away. Where q sigma(q) = q0 sigma(q0) = I,
    G(-rho^2/lam) = -q sigma(G(lam)) sigma(q0), so one residue per deck pair
    says all: the one with |lam_k^2/rho^2| <= 1, which does not amplify
    rounding next to the axis. Each residue is divided by 1 + ||R_k||_F =
    1 + ||u_k|| ||w_k||; a residual is the largest term at a point.
    """
    half, m = lambdas.shape[-1] // 2, lambdas.shape[-1]
    flip = gamma_mat.diagonal().real
    w_len = algebra.frobenius(w[..., None])  # the lengths of vectors, as n x 1 matrices
    size = 1.0 + algebra.frobenius(u[..., None]) * w_len
    ug = u * flip
    denom = lambdas[..., :, None] - np.conjugate(lambdas)[..., None, :]
    gram = (ug @ np.conjugate(u).swapaxes(-1, -2)) / denom
    column = ug + algebra.shared_mul(gram, np.conjugate(w))  # chi(conj lam_k)^* gamma u_k
    reality = algebra.frobenius(column[..., None]) * w_len / size
    partner = np.arange(m) - half  # k + N or k - N, as an index from either end
    mates = u[:, partner] @ (q * flip).swapaxes(-1, -2)
    weight = lambdas * lambdas / (rho * rho)[:, None]
    residue = (u[..., :, None] * w[..., None, :] - weight[..., None, None] * mates[..., :, None]
               * (w @ (q0 * flip))[:, partner, None, :])
    involution = algebra.frobenius(residue) / size
    inner = np.abs(weight[:, :half]) <= np.abs(weight[:, half:])
    involution = np.where(inner, involution[:, :half], involution[:, half:])
    involution = np.maximum(quadratic, np.maximum.reduce(involution, axis=-1))
    return np.maximum.reduce(reality, axis=-1), involution


# ---------------------------------------------------------------------------
# the grid
# ---------------------------------------------------------------------------

#: the residual record of a dressed point, in order
_RESIDUALS = ("quadratic", "hermiticity", "unit_det", "symspace", "chi_reality",
              "chi_involution")


def dress(cfg: SolitonConfig, rho, z, audit_chi: bool = True,
          swap: tuple[bool, ...] | None = None) -> DressedGrid:
    """Dress the points (rho, z), two arrays of one shape, in row-major order
    as one batch (two numbers are a batch of one); singular points become
    flagged data rather than failures. Configuration errors still raise.
    ``swap`` relabels the selected pole pairs, which leaves q invariant."""
    return _dress(cfg, rho, z, audit_chi, swap)[0]


def _dress(cfg: SolitonConfig, rho, z, audit_chi: bool, swap) -> tuple:
    """dress, and the factors u and w of chi's residues and its poles at every
    point (w with a batch axis of length 1 where the seed does not vary).
    The residuals are the rows of one (len(_RESIDUALS), P) table."""
    rho, z = np.asarray(rho, dtype=float).ravel(), np.asarray(z, dtype=float).ravel()
    DomainPoint(rho=rho, z=z)  # raises DomainError unless rho > 0 and all are finite
    size, n_sol = len(rho), len(cfg.poles)
    g = algebra.gamma(cfg.signature)
    fails = _Failures(size)
    sd, q0 = _spectral(cfg, rho, z, swap, fails)
    if n_sol:
        a, b_star = _system(sd, g, fails)
        built = fails.ok.copy()
        u_star, det = _solve(a, b_star, fails)
        det_a = np.where(built, det, math.nan)
        u = np.conjugate(u_star)
    else:
        det_a, u = np.ones(size, dtype=complex), np.zeros((size, 0, len(g)), dtype=complex)
    q = _reconstruct(u, sd.w, sd.lambdas, q0, fails)
    lost = ~fails.ok
    table = np.empty((len(_RESIDUALS), size))
    table[:3] = algebra.symspace_components(q, g)
    table[3] = table[0] + table[1] + table[2]
    table[4:6] = 0.0 if n_sol == 0 else math.nan
    if audit_chi and n_sol:
        idx = slice(None) if algebra.all_of(fails.ok) else fails.ok.nonzero()[0]
        w = sd.w if sd.w.shape[0] == 1 else sd.w[idx]
        q0_at = q0 if q0.shape[0] == 1 else q0[idx]
        table[4:6, idx] = _audit(u[idx], w, sd.lambdas[idx], q[idx], table[0, idx], q0_at, g,
                                 rho[idx])
    table[:, lost] = math.nan
    q[lost] = complex(math.nan, math.nan)
    notes = {int(i): fails.note[i] for i in lost.nonzero()[0]}
    return (DressedGrid(rho, z, q, det_a, dict(zip(_RESIDUALS, table)), lost, notes),
            u, sd.w, sd.lambdas)


@dataclass(frozen=True)
class _DressedSeed(Seed):
    notes: Callable[[], dict[int, str]]  # its last dressing's notes, by point


def dressed_seed(cfg: SolitonConfig) -> Seed:
    """The seed of the finished dressing of ``cfg``: q0 is the dressed map,
    Psi0 = chi Psi0_cfg, and J is that of cfg's seed. An evaluation dresses
    its points without the chi audit, and one at the points of the last
    dressing reuses it, so q0 and Psi0 at the same points dress them once;
    where that flags a point, or lam is a pole of chi, the values are NaN,
    which the next dressing flags (with this dressing's note, if any)."""
    last: list = [None, None]

    def dressed(rho, z) -> tuple:
        key = tuple(np.asarray(v, dtype=float).tobytes() for v in (rho, z))
        if last[0] != key:
            last[:] = key, _dress(cfg, rho, z, False, None)
        return last[1]

    def psi0(lam, rho, z):
        grid, u, w, lambdas = dressed(rho, z)
        chi, at_pole = _chi(lam, u, w, lambdas)
        chi[at_pole.any(axis=-1) | grid.singular[:, None]] = complex(math.nan, math.nan)
        return chi @ cfg.seed.psi0(lam, rho, z)

    return _DressedSeed(q0=lambda rho, z: dressed(rho, z)[0].q.copy(), psi0=psi0,
                        deck=cfg.seed.deck, signature=cfg.signature,
                        notes=lambda: last[1][0].notes)
