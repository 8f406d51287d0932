"""Batched dressing pipeline.

Given N prescribed pole positions (non-real surface coordinates), constant
vectors, and a seed, each domain point yields a 2N x 2N linear system whose
solution reconstructs the dressed map q and the rational dressing matrix
chi(lam) = I + sum_k R_k / (lam - lam_k). Pole pairs are deck-related
(lam_{N+k} = -rho^2 / lam_k) and vector pairs seed-and-metric-related
(v_{N+k} = q0 gamma v_k, plain gamma v_k for the trivial seed), which
builds the symmetry conditions chi(inf) = I, tau(chi(conj lam)) = chi(lam)
and the deck involution into the ansatz.

P points (rho, z arrays) are dressed as one array pipeline into a
DressedGrid: pole pairs as (P, 2N) arrays, one (P, 2N, 2N) solve, and the
chi audits at (P, 8) samples. The reality audit is the product residual
||chi(conj lam)^* sigma(chi(lam)) - I||_F, which needs no inverse and
bounds the condition of chi(conj lam); only the samples that bound cannot
clear are inverted, to refuse those above the cap. For a constant seed
the paired vectors, psi0^{-1}, the Gram numerators and B are computed once
and broadcast; other seeds give them a leading P axis. A point that fails
a check is flagged, and its first failure in pipeline order becomes its
note. A single point is a batch of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra, seeds, spectral
from .algebra import ComplexMatrix, Signature
from .errors import ConfigError, DomainError, NumericError, SeedError, SingularPointError
from .seeds import Seed
from .spectral import DomainPoint

#: fixed deterministic lambda samples for the chi symmetry audits
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

#: relative solve-residual bound enforced after the linear solve
SOLVE_RESIDUAL_REL = 1e-10


@dataclass(frozen=True)
class Tolerances:
    constraint_tol: float = 1e-9
    singular_tol: float = 1e-12
    condition_cap: float = 1e12


@dataclass(frozen=True)
class SolitonConfig:
    """Full description of one dressing problem.

    poles: N distinct non-real surface coordinates (upper half plane by
    convention, but only non-reality is required).
    vectors: N nonzero constant vectors of length n.
    """

    signature: Signature
    poles: tuple[complex, ...]
    vectors: tuple[np.ndarray, ...]
    seed: Seed
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self) -> None:
        problems = []
        if len(self.poles) != len(self.vectors):
            problems.append(f"{len(self.poles)} poles but {len(self.vectors)} vectors")
        for k, w in enumerate(self.poles):
            if complex(w).imag == 0.0:
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
            elif not np.any(v != 0):
                problems.append(f"vector {k} is zero")
            v.setflags(write=False)
            vecs.append(v)
        if self.seed.signature != self.signature:
            problems.append("seed signature does not match the target signature")
        if problems:
            raise ConfigError("; ".join(problems))
        object.__setattr__(self, "vectors", tuple(vecs))
        object.__setattr__(self, "poles", tuple(complex(w) for w in self.poles))

    @property
    def n_solitons(self) -> int:
        return len(self.poles)


@dataclass
class SpectralData:
    """Pole locations, paired vectors, seed evaluations, each with a leading
    batch axis: lambdas (P, 2N); vs (P, 2N, n), psi0 and psi0_inv
    (P, 2N, n, n), with 1 in place of P for a constant seed.
    """

    lambdas: np.ndarray
    vs: np.ndarray
    psi0: np.ndarray
    psi0_inv: np.ndarray


@dataclass
class DressedGrid:
    """P dressed points as (P, ...) arrays in input order: q is NaN where
    has_q is False, det A where the system was not built; residuals holds
    one float column per name in _RESIDUALS, and notes the reason for each
    singular point, by index."""

    rho: np.ndarray
    z: np.ndarray
    q: np.ndarray
    has_q: np.ndarray
    det_a: np.ndarray
    residuals: dict[str, np.ndarray]
    singular: np.ndarray
    notes: dict[int, str]


class _Failures:
    """The first failure of each point, in pipeline order, as an exception
    whose message is the point's note."""

    def __init__(self, size: int) -> None:
        self.ok = np.ones(size, dtype=bool)
        self.error: list[Exception | None] = [None] * size

    def flag(self, bad, make, at=None) -> None:
        """Record make(j) for every j with bad[j] whose point (at[j], or j)
        has not failed yet."""
        if not np.any(bad):
            return
        at = np.arange(self.ok.size) if at is None else at
        for j in np.flatnonzero(np.broadcast_to(bad, at.shape) & self.ok[at]):
            self.ok[at[j]] = False
            self.error[at[j]] = make(j)


def _pick(arr: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows idx of a per-point array; a per-config array (length 1) as is."""
    return arr[idx] if len(arr) > 1 else arr


def _spectral(cfg: SolitonConfig, rho: np.ndarray, z: np.ndarray,
              swap, fails: _Failures) -> tuple[SpectralData, np.ndarray]:
    """Pole pairs, paired vectors and the seed at every point (coordinates
    rho, z); returns the spectral data and q0. A constant seed is evaluated
    once, at the first point, and its arrays keep a batch axis of length 1;
    a second evaluation at the last point and pole must give the same
    matrices. Any other seed is called at every point."""
    n_sol, n = cfg.n_solitons, cfg.signature.n
    if swap is not None and len(swap) != n_sol:
        raise ConfigError(f"swap has {len(swap)} flags for {n_sol} pole pairs")
    size = len(rho)

    def point(i: int) -> DomainPoint:
        return DomainPoint(rho=float(rho[i]), z=float(z[i]))

    at = [point(0)] if cfg.seed.constant else [point(i) for i in range(size)]
    q0 = np.array([algebra.as_matrix(cfg.seed.q0_eval(x), n) for x in at])
    lam_in, lam_out, branch = spectral.pole_pairs(cfg.poles, rho, z)
    fails.flag(branch.any(axis=-1), lambda i: SingularPointError(
        f"branch point of varpi0={cfg.poles[np.argmax(branch[i])]} at {point(i)!r}"))
    g = algebra.gamma(cfg.signature)
    vecs = np.array(cfg.vectors, dtype=complex).reshape(n_sol, n)
    partners = (q0[:, None] @ (g @ vecs[..., None]))[..., 0]
    own = np.broadcast_to(vecs, partners.shape)
    if swap is not None:
        flip = np.asarray(swap, dtype=bool)
        lam_in, lam_out = np.where(flip, lam_out, lam_in), np.where(flip, lam_in, lam_out)
        own, partners = (np.where(flip[:, None], partners, own),
                         np.where(flip[:, None], own, partners))
    lambdas = np.concatenate([lam_in, lam_out], axis=-1)
    vs = np.concatenate([own, partners], axis=-2)
    eye = np.eye(n, dtype=complex)
    psi0 = np.array([[seeds.psi0_at(cfg.seed, lam, x) if cfg.seed.constant or fails.ok[p]
                      else eye for lam in lambdas[p]]
                     for p, x in enumerate(at)]).reshape(len(at), 2 * n_sol, n, n)
    if cfg.seed.constant and not (
            np.array_equal(cfg.seed.q0_eval(point(size - 1)), q0[0])
            and all(np.array_equal(cfg.seed.psi0_eval(lam, point(size - 1)), psi0[0, 0])
                    for lam in lambdas[-1, -1:])):
        raise SeedError("seed marked constant varies with x or lam")
    cap = cfg.tolerances.condition_cap
    psi0_inv, cond = algebra.checked_inv(psi0, cap)
    cond = np.broadcast_to(cond, (size, 2 * n_sol))
    refused = ~(cond <= cap)
    fails.flag(refused.any(axis=-1),
               lambda i: algebra.refusal(cond[i, np.argmax(refused[i])], cap))
    return SpectralData(lambdas=lambdas, vs=vs, psi0=psi0, psi0_inv=psi0_inv), q0


def _system(sd: SpectralData, gamma_mat: ComplexMatrix,
            fails: _Failures) -> tuple[np.ndarray, np.ndarray]:
    """A (P, 2N, 2N) and B* (P or 1, 2N, n); A is the identity at failed points.

    a_kj = v_k* S_kj v_j / (lam_k - conj lam_j) with the seed coupling
    S_kj = psi0_k^{-1} gamma (psi0_j^*)^{-1}; b_k* = -v_k* psi0_k^{-1} gamma.
    The Gram numerators v_k* S_kj v_j and B* depend on the seed only.
    """
    lambdas, vs, psi0_inv = sd.lambdas, sd.vs, sd.psi0_inv
    m = lambdas.shape[-1]
    coupled = psi0_inv.conj().swapaxes(-1, -2)
    num = np.empty(vs.shape[:-2] + (m, m), dtype=complex)
    for k in range(m):
        s_k = (psi0_inv[:, k, None] @ gamma_mat) @ coupled
        num[:, k] = ((vs[:, k, None, None].conj() @ s_k) @ vs[..., None])[..., 0, 0]
    b_star = -((vs.conj()[..., None, :] @ psi0_inv)[..., 0, :] @ gamma_mat)
    denom = lambdas[..., :, None] - lambdas.conj()[..., None, :]
    size = np.abs(lambdas)
    scale = np.maximum(1.0, np.maximum(size[..., :, None], size[..., None, :]))
    coincident = np.abs(denom) < 1e-13 * scale
    fails.flag(coincident.any(axis=(-2, -1)), lambda i: SingularPointError(
        "coincident pole pair: lam_{} - conj(lam_{}) ~ 0".format(
            *divmod(int(np.argmax(coincident[i])), m))))
    a = num / np.where(coincident, 1.0, denom)
    return np.where(fails.ok[:, None, None], a, np.eye(m)), b_star


def _solve(a: np.ndarray, b_star: np.ndarray, tol: Tolerances,
           fails: _Failures) -> tuple[np.ndarray, np.ndarray]:
    """Solve A U* = B* at every point; returns U* and det A.

    Flags a point when |det A| drops below the singular threshold (the zero
    set of det A is the ring-singularity locus of the dressed map, reported
    rather than crossed), when the condition number exceeds the cap, and
    when the solve residual exceeds SOLVE_RESIDUAL_REL * ||B||.
    """
    eye = np.eye(a.shape[-1])
    det = np.linalg.det(a)
    fails.flag(np.abs(det) < tol.singular_tol, lambda i: SingularPointError(
        f"det A = {complex(det[i]):.3e} below singular threshold", det_a=complex(det[i])))
    a = np.where(fails.ok[:, None, None], a, eye)
    cond = algebra.checked_inv(a, tol.condition_cap)[1]
    fails.flag(~(cond <= tol.condition_cap), lambda i: NumericError(
        f"system condition {cond[i]:.3e} exceeds cap {tol.condition_cap:.3e}"))
    a = np.where(fails.ok[:, None, None], a, eye)
    u_star = np.linalg.solve(a, b_star)
    resid = algebra.frobenius(a @ u_star - b_star)
    bound = SOLVE_RESIDUAL_REL * np.maximum(algebra.frobenius(b_star), 1e-300)
    fails.flag(resid > bound, lambda i: NumericError(
        f"solve residual {resid[i]:.3e} above {SOLVE_RESIDUAL_REL:.0e}*||B||"))
    return u_star, det


def _residues(u: np.ndarray, sd: SpectralData) -> np.ndarray:
    """Residues u_k v_k* psi0_k^{-1} of chi at its poles, shape (P, 2N, n, n)."""
    outer = u.swapaxes(-1, -2)[..., :, :, None] * sd.vs.conj()[..., :, None, :]
    return outer @ sd.psi0_inv


def _reconstruct(res: np.ndarray, lambdas: np.ndarray, q0: np.ndarray,
                 fails: _Failures) -> np.ndarray:
    """q = q0 - sum_k (1/lam_k) u_k v_k* psi0_k^{-1} q0 at every point."""
    zero = lambdas == 0
    if np.any(zero & fails.ok[:, None]):
        raise DomainError("pole at lam = 0 cannot be inverted in the reconstruction")
    lambdas = np.where(zero, 1.0, lambdas)
    q = np.broadcast_to(q0, res.shape[:1] + q0.shape[1:])
    for k in range(lambdas.shape[-1]):
        q = q - res[:, k] @ q0 / lambdas[:, k, None, None]
    return q


def _normalize(q: np.ndarray, tol: float, fails: _Failures) -> tuple[np.ndarray, np.ndarray]:
    """Rescale each q by det(q)^{-1/n}; returns q and the branch-warning mask."""
    n = q.shape[-1]
    d = np.linalg.det(q)
    zero = d == 0
    fails.flag(zero, lambda i: SingularPointError("determinant vanishes; cannot normalize"))
    d = np.where(zero, 1.0, d)
    real = (np.abs(d.imag) <= tol * np.abs(d)) & (d.real > 0)
    scale = np.where(real, np.where(real, d.real, 1.0) ** (-1.0 / n), d ** (-1.0 / n))
    return q * scale[..., None, None], ~real


def _chi(lam: np.ndarray, res: np.ndarray, lambdas: np.ndarray,
         const: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """chi = I + sum_k R_k / (lam - lam_k) at (P, S) values lam (or ``const``
    in place of I); returns chi (P, S, n, n) and the (P, S, 2N) mask of
    values at a pole, where chi has no value (the term's gap is taken as 1).
    The sum over the poles is one matmul per point: the (S, 2N) weights
    1/(lam - lam_k) times the residues as a (2N, n*n) matrix."""
    gap = lam[..., None] - lambdas[..., None, :]
    at_pole = np.abs(gap) < 1e-13 * np.maximum(np.maximum(1.0, np.abs(lam))[..., None],
                                               np.abs(lambdas)[..., None, :])
    n = res.shape[-1]
    const = np.eye(n, dtype=complex) if const is None else const[:, None]
    terms = (1.0 / np.where(at_pole, 1.0, gap)) @ res.reshape(res.shape[:-2] + (n * n,))
    return const + terms.reshape(lam.shape + (n, n)), at_pole


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over broadcast stacks of small matrices, as a sum over the inner
    index of elementwise products: numpy's matmul makes one BLAS call per
    2x2 or 3x3 matrix, several times slower on the audit's stacks."""
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j:j + 1] * b[..., j:j + 1, :]
    return out


def _audit_samples(lambdas: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Deterministic (P, S) samples keeping lam, conj(lam) and the deck image
    clear of the poles (and of their conjugates, where chi inverts): each
    sample moves outward by 1.171 until clear, at most 60 times.

    A sample is clear when every probe-to-pole distance, rounded as np.hypot
    rounds it, exceeds the gap. The pole set is closed under conjugation, so
    conj(lam) is exactly as far from it as lam and needs no probe of its own.
    Each probe meets all poles in one broadcast; the squared distance
    decides every pair more than twice the gap apart, and hypot runs on the
    others only. After the first pass only the points with a sample still
    moving are revisited."""
    scale = np.maximum(1.0, np.hypot(lambdas.real, lambdas.imag).max(axis=-1, initial=0.0))
    gap = 1e-3 * scale[:, None, None]
    samples = np.asarray(CHI_SAMPLES) * np.maximum(1.0, 0.3 * scale)[:, None]
    avoid = np.concatenate([lambdas, lambdas.conj()], axis=-1)[:, None, :]
    deck = -(rho * rho)[:, None]
    moving = np.ones(samples.shape, dtype=bool)
    idx = np.arange(len(samples))
    for _ in range(60):
        lam, poles, limit = samples[idx], avoid[idx], gap[idx]
        close = np.zeros(lam.shape, dtype=bool)
        for probe in (lam, deck[idx] / lam):
            re = probe.real[..., None] - poles.real
            im = probe.imag[..., None] - poles.imag
            near = ~(re * re + im * im > 4.0 * limit * limit)
            if near.any():
                at = np.nonzero(near)
                near[at] = ~(np.hypot(re[at], im[at]) > limit[at[0], 0, 0])
                close |= near.any(axis=-1)
        moving[idx] &= close
        idx = idx[moving[idx].any(axis=-1)]
        if not idx.size:
            break
        samples[idx] = np.where(moving[idx], samples[idx] * 1.171, samples[idx])
    return samples


def _audit(res: np.ndarray, lambdas: np.ndarray, q: np.ndarray, q0: np.ndarray,
           gamma_mat: ComplexMatrix, rho: np.ndarray, condition_cap: float,
           fails: _Failures, at=None) -> tuple[np.ndarray, np.ndarray]:
    """Max reality / deck-involution residuals of chi over the samples.

    reality:    || chi(conj lam)^* sigma(chi(lam)) - I ||_F
    involution: || chi(lam) - q sigma(chi(-rho^2/lam)) sigma(q0) ||_F
    The reality residual r is the identity tau(chi(conj lam)) = chi(lam) in
    product form, so it needs no inverse. Where r < 1 it also bounds the
    condition of A = chi(conj lam)^*: cond(A) <= ||A||_F ||chi(lam)||_F / (1 - r).
    A sample with r < 1/2 and ten times that bound within the cap is never
    refused; the others (an exactly singular A has r >= 1) go through
    algebra.checked_inv, whose SVD refuses A above the cap. A sample at a
    pole or a refused A fails the point: the first one in sample order and,
    per sample, in the order chi(lam), chi(conj lam), A, chi(deck).
    """
    samples = _audit_samples(lambdas, rho)
    s = samples.shape[1]
    both, pole_both = _chi(np.concatenate([samples, samples.conj()], axis=-1), res, lambdas)
    chi, adj = both[:, :s], both[:, s:].conj().swapaxes(-1, -2)
    pole_lam, pole_conj = pole_both[:, :s], pole_both[:, s:]
    reality = algebra.frobenius(_mul(adj, algebra.sigma(chi, gamma_mat)) - np.eye(chi.shape[-1]))
    size = algebra.frobenius(both)  # ||A||_F = ||chi(conj lam)||_F
    bound = 10.0 * size[:, s:] * size[:, :s]
    unsure = ~((reality < 0.5) & (bound <= condition_cap * (1.0 - reality)))
    cond = np.zeros(samples.shape)
    if unsure.any():
        cond[unsure] = algebra.checked_inv(adj[unsure], condition_cap)[1]
    # q sigma(chi) sigma(q0) at the deck images, from the residues of chi
    # multiplied through once per point: q sigma(q0) + sum_k q sigma(R_k) sigma(q0) / gap_k
    left, right = q[:, None], algebra.sigma(q0, gamma_mat)[:, None]
    rhs, pole_deck = _chi(-(rho * rho)[:, None] / samples,
                          _mul(_mul(left, algebra.sigma(res, gamma_mat)), right), lambdas,
                          _mul(left, right)[:, 0])
    poles = (pole_lam, pole_conj, None, pole_deck)
    steps = np.stack([pole_lam.any(-1), pole_conj.any(-1), ~(cond <= condition_cap),
                      pole_deck.any(-1)], axis=-1)
    steps = steps.reshape(samples.shape[0], 4 * samples.shape[1])

    def failure(i: int) -> Exception:
        s, step = divmod(int(np.argmax(steps[i])), 4)
        if step == 2:
            return algebra.refusal(cond[i, s], condition_cap)
        k = int(np.argmax(poles[step][i, s]))
        return DomainError(f"chi evaluated at its pole lam_{k} = {lambdas[i, k]}")

    fails.flag(steps.any(axis=-1), failure, at)
    involution = algebra.frobenius(chi - rhs)
    return reality.max(axis=-1, initial=0.0), involution.max(axis=-1, initial=0.0)


def normalize_det(q: ComplexMatrix, tol: float = 1e-9) -> tuple[ComplexMatrix, bool]:
    """Rescale q by det(q)^{-1/n}.

    Uses the real n-th root when det q is real positive (within ``tol``
    relative imaginary part), which preserves Hermiticity exactly. A real
    negative or genuinely complex determinant falls back to the principal
    branch and returns a warning flag: the scaling is then a phase and may
    break Hermiticity (reported, not hidden).
    """
    fails = _Failures(1)
    out, warn = _normalize(np.asarray(q)[None], tol, fails)
    if not fails.ok[0]:
        raise fails.error[0]
    return out[0], bool(warn[0])


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


# ---------------------------------------------------------------------------
# the grid
# ---------------------------------------------------------------------------

#: the residual record of a dressed point, in order
_RESIDUALS = ("quadratic", "hermiticity", "unit_det", "symspace", "chi_reality",
              "chi_involution", "det_branch_warning")


def dress(cfg: SolitonConfig, rho, z, audit_chi: bool = True,
          swap: tuple[bool, ...] | None = None) -> DressedGrid:
    """Dress the points (rho, z), two arrays of one shape, in row-major order
    as one batch (two numbers are a batch of one); singular points become
    flagged data rather than failures. Configuration errors still raise.
    ``swap`` relabels the selected pole pairs, which leaves q invariant."""
    rho, z = (np.asarray(v, dtype=float).ravel() for v in (rho, z))
    DomainPoint(rho=rho, z=z)  # raises DomainError unless rho > 0 and all are finite
    size, n_sol, tol, n = len(rho), cfg.n_solitons, cfg.tolerances, cfg.signature.n
    if size == 0:
        none = np.zeros(0, dtype=bool)
        return DressedGrid(rho, z, np.zeros((0, n, n), complex), none, rho.astype(complex),
                           dict.fromkeys(_RESIDUALS, rho), none, {})
    g = algebra.gamma(cfg.signature)
    fails = _Failures(size)
    sd, q0 = _spectral(cfg, rho, z, swap, fails)
    det_a = np.full(size, 1.0 if n_sol == 0 else math.nan, dtype=complex)
    u_star = np.zeros((size, 0, n), dtype=complex)
    if n_sol:
        a, b_star = _system(sd, g, fails)
        built = fails.ok.copy()
        u_star, det = _solve(a, b_star, tol, fails)
        det_a[built] = det[built]
    res = _residues(u_star.conj().swapaxes(-1, -2), sd)
    q, warn = _normalize(_reconstruct(res, sd.lambdas, q0, fails), tol.constraint_tol, fails)
    has_q = fails.ok.copy()
    quad, herm, det_dev = algebra.symspace_components(q, g)
    reality = np.full(size, 0.0 if n_sol == 0 else math.nan)
    involution = reality.copy()
    if audit_chi and n_sol:
        idx = np.flatnonzero(has_q)
        reality[idx], involution[idx] = _audit(
            res[idx], sd.lambdas[idx], q[idx], _pick(q0, idx), g, rho[idx], tol.condition_cap,
            fails, at=idx)
        reality[~fails.ok] = involution[~fails.ok] = math.nan
    lost = ~has_q
    q[lost] = complex(math.nan, math.nan)
    columns = (quad, herm, det_dev, quad + herm + det_dev, reality, involution)
    residuals = {key: np.where(lost, math.nan, col) for key, col in zip(_RESIDUALS, columns)}
    residuals["det_branch_warning"] = np.where(warn & has_q, 1.0, 0.0)
    notes = {int(i): str(fails.error[i]) if lost[i] else f"chi audit failed: {fails.error[i]}"
             for i in np.flatnonzero(~fails.ok)}
    return DressedGrid(rho, z, q, has_q, det_a, residuals, ~fails.ok, notes)
