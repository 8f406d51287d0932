"""Numerical checks of the construction, shared by ``vesture selftest`` and
the acceptance suite.

Each check takes its inputs (an rng seed and a count, a grid, or parameter
sets) and returns the measured numbers; the pass/fail thresholds stay with
the callers. A check that draws random items under a precondition draws
until ``count`` of them meet it. Library functions are called through their
modules (``spectral.ab``, not a local name), so a fault injected into one
reaches every check that uses it.
"""
from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from . import algebra, dressing, seeds, spectral, targets, verification
from .dressing import SolitonConfig
from .errors import NumericError
from .spectral import DomainPoint


class Spectral(NamedTuple):
    identity: float      # rational-pair, deck, varpi and closed-form duality identities
    product: float       # lambda_in * lambda_out + rho^2, relative
    duality_fd: float    # duality identity with finite-difference partials of spectral.ab
    flow_ratio: float    # pole-flow residual ratio under h -> h/2


class KerrOracle(NamedTuple):
    error: float         # max kerr_error at the non-singular points
    quadratic: float     # max membership-residual components at the non-singular points
    hermiticity: float
    unit_det: float
    singular: int        # singular points over all sweeps
    slowest: float       # seconds of the slowest sweep's dressing


class Convergence(NamedTuple):
    curvature: float     # median residual ratios under h -> h/2 on the Kerr box
    divergence: float
    constant_exact: bool  # a constant field's residuals are exactly zero


def worst(values) -> float:
    """The largest of ``values`` (numbers or arrays), 0.0 for none; NaN when
    any value is NaN, so a NaN measurement fails every ``<=`` gate."""
    return float(np.max(np.concatenate([np.zeros(0), *map(np.ravel, values)]), initial=0.0))


def rel_err(value, ref) -> np.ndarray:
    """|value - ref| / |ref| (|value - ref| where ref = 0), |.| by hypot."""
    diff = np.subtract(value, ref)
    scale = np.hypot(np.real(ref), np.imag(ref))
    return np.hypot(diff.real, diff.imag) / np.where(scale == 0, 1.0, scale)


def kerr_reference(m: float, s: float, r, theta) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Kerr potentials x, y of the (m, s) family on the (r, theta)
    lattice of two axes, row-major."""
    o = targets.kerr_oracle(m, math.sqrt(m * m + s * s), r[:, None], theta[None, :])
    return o.x.ravel(), o.y.ravel()


def kn_reference(m: float, e: float, s: float, r, theta) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Kerr-Newman potentials E, Phi of the (m, e, s) family on
    the (r, theta) lattice of two axes, row-major."""
    a = targets.kn_family_params(targets.BLParams(m=m, s=s, e=e))["oracle_a"]
    o = targets.kn_oracle(m, e, a, r[:, None], theta[None, :])
    return o.E.ravel(), o.Phi.ravel()


def kerr_error(ernst: targets.ErnstValue11, oracle_x, oracle_y) -> np.ndarray:
    """Per-point relative error of the dressed x + iy as one complex number,
    robust where one component passes through zero; NaN where either is."""
    return rel_err(ernst.x + 1j * ernst.y, oracle_x + 1j * oracle_y)


def kn_error(ernst: targets.ErnstValue21, oracle_e, oracle_phi) -> np.ndarray:
    """Per-point relative error of the dressed (E, Phi), the larger of the
    two; NaN where either is NaN."""
    return np.maximum(rel_err(ernst.E, oracle_e), rel_err(ernst.Phi, oracle_phi))


def _bl_axes(m: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The presets' default window r in [m+1.5, m+10], theta in [pi/8, 7pi/8]."""
    return (np.linspace(m + 1.5, m + 10.0, count),
            np.linspace(math.pi / 8, 7 * math.pi / 8, count))


def _draws(count: int, draw) -> np.ndarray:
    """The first ``count`` results of draw() that are not None, the draws
    whose precondition held, as rows; 100 draws per item at most."""
    items = []
    for _ in range(100 * count):
        if len(items) == count:
            break
        item = draw()
        if item is not None:
            items.append(item)
    if len(items) < count:
        raise NumericError(f"only {len(items)} of {count} draws met their precondition")
    return np.array(items, dtype=float).reshape(count, -1)


# ---------------------------------------------------------------------------
# algebra and the spectral surface
# ---------------------------------------------------------------------------

def algebra_involutions(rng_seed: int, count: int) -> float:
    """Max relative residual of tau^2 = sigma^2 = 1 and tau sigma = sigma tau
    on ``count`` random matrices per target, and of SU(1,1) membership and
    tau-invariance on ``count`` random SU(1,1) elements."""
    rng = np.random.default_rng(rng_seed)
    residuals = []
    for sig in (targets.SIG_11, targets.SIG_21):
        g = algebra.gamma(sig)
        for _ in range(count):
            m = rng.normal(size=(sig.n, sig.n)) + 1j * rng.normal(size=(sig.n, sig.n))
            m += 2 * np.eye(sig.n)
            scale = algebra.frobenius(m)
            residuals += [
                algebra.frobenius(algebra.tau(algebra.tau(m, g), g) - m) / scale,
                algebra.frobenius(algebra.sigma(algebra.sigma(m, g), g) - m) / scale,
                algebra.frobenius(algebra.tau(algebra.sigma(m, g), g)
                                  - algebra.sigma(algebra.tau(m, g), g)) / scale]
    g2 = algebra.gamma(targets.SIG_11)
    for _ in range(count):
        b = rng.normal() + 1j * rng.normal()
        a = math.sqrt(1 + abs(b) ** 2) * np.exp(1j * rng.normal())
        su11 = np.array([[a, b], [np.conj(b), np.conj(a)]])
        residuals += [algebra.group_residual(su11, g2),
                      algebra.frobenius(algebra.tau(su11, g2) - su11)]
    return worst(residuals)


def _ab_duality_residual_fd(lam: complex, x: DomainPoint, h: float = 1e-6) -> float:
    """Duality identity Da = rho * (dual of Db) with the coefficient partials
    taken by central differences of the live ab implementation (independent
    of the closed-form partials, so it catches implementation drift). The
    step keeps the O(h^2) error well below 1e-6 down to |lam^2 + rho^2| = 1e-3
    at rho = 0.2."""
    def ab_at(l, rho, z):
        return spectral.ab(l, DomainPoint(rho, z))

    da_r, db_r = [(p - q) / (2 * h) for p, q in
                  zip(ab_at(lam, x.rho + h, x.z), ab_at(lam, x.rho - h, x.z))]
    da_z, db_z = [(p - q) / (2 * h) for p, q in
                  zip(ab_at(lam, x.rho, x.z + h), ab_at(lam, x.rho, x.z - h))]
    da_l, db_l = [(p - q) / (2 * h) for p, q in
                  zip(ab_at(lam + h, x.rho, x.z), ab_at(lam - h, x.rho, x.z))]
    om_r, om_z = spectral.omega_forms(lam, x)
    d_rho_a, d_z_a = da_r - om_r * da_l, da_z - om_z * da_l
    d_rho_b, d_z_b = db_r - om_r * db_l, db_z - om_z * db_l
    return abs(d_rho_a + x.rho * d_z_b) + abs(d_z_a - x.rho * d_rho_b)


def spectral_identities(rng_seed: int, count: int) -> Spectral:
    """The surface identities at ``count`` random (x, lam) draws clear of
    lam = 0 and of the poles lam = +-i rho, each with a random pole pair;
    and the pole-flow residual ratio at x = (1, 1)."""
    rng = np.random.default_rng(rng_seed)

    def draw():
        x = DomainPoint(rho=0.2 + 2.8 * rng.random(), z=2.0 * rng.normal())
        lam = complex(rng.normal(), rng.normal())
        if abs(lam) < 1e-2 or abs(lam * lam + x.rho ** 2) < 1e-3:
            return None
        a, b = spectral.ab(lam, x)
        t = spectral.deck(lam, x)
        at, bt = spectral.ab(t, x)
        identity = worst([abs(a * a + x.rho ** 2 * b * b - a), abs(at - (1 - a)), abs(bt + b),
                          abs(spectral.varpi(t, x) - spectral.varpi(lam, x))
                          / max(1.0, abs(spectral.varpi(lam, x))),
                          spectral.ab_d_identity_residual(lam, x)])
        pair = spectral.pole_pair(complex(rng.normal(), 0.3 + rng.random()), x)
        product = abs(pair.lambda_in * pair.lambda_out + x.rho ** 2) / max(1.0, x.rho ** 2)
        return identity, product, _ab_duality_residual_fd(lam, x)

    identity, product, duality_fd = _draws(count, draw).max(axis=0)
    r1 = verification.lambda_flow_residual(1j, DomainPoint(1.0, 1.0), 1e-3)
    r2 = verification.lambda_flow_residual(1j, DomainPoint(1.0, 1.0), 5e-4)
    return Spectral(float(identity), float(product), float(duality_fd), r1 / r2)


def su21_commutators() -> tuple[int, int]:
    """(brackets matching the structure constants, brackets checked)."""
    report = targets.commutation_check()
    return sum(report.values()), len(report)


def cartan_embedding(rng_seed: int, count: int) -> float:
    """Max deviation of the solvable-subgroup image g g* from the closed-form
    potential matrix, from q Gamma q Gamma = I, from Hermiticity and from
    unit determinant, over ``count`` random parameter draws."""
    rng = np.random.default_rng(rng_seed)
    deviations = []
    gt = targets.GAMMA_TILDE
    for _ in range(count):
        mu, d, eta, th = rng.normal(size=4) * 0.6
        q = targets.cartan_embed_su21(mu, d, eta, th)
        phi = (eta + 1j * th) / math.sqrt(2.0)
        ernst = math.exp(2 * mu) + abs(phi) ** 2 + 1j * d
        deviations += [np.abs(q - targets.ptilde_matrix(ernst, phi)),
                       algebra.frobenius(q @ gt @ q @ gt - np.eye(3)),
                       algebra.frobenius(q - q.conj().T), abs(np.linalg.det(q) - 1)]
    return worst(deviations)


# ---------------------------------------------------------------------------
# the dressing
# ---------------------------------------------------------------------------

def invariance(rng_seed: int, count: int) -> float:
    """Max |q - q'| between a dressed point and the same point dressed with
    rescaled vectors, and with every pole pair relabeled, over ``count``
    random one- or two-soliton SU(1,1) configurations with distinct poles
    where all three dressings are regular."""
    rng = np.random.default_rng(rng_seed)
    sig = targets.SIG_11

    def draw():
        n_sol = int(rng.integers(1, 3))
        poles = tuple(complex(rng.normal(), 0.4 + rng.random()) for _ in range(n_sol))
        if len(set(poles)) != n_sol:
            return None
        vectors = tuple(rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(n_sol))
        cfg = SolitonConfig(sig, poles, vectors, seeds.identity_seed(sig))
        x = 0.7 + 2.0 * rng.random(), rng.normal()
        base = dressing.dress(cfg, *x, audit_chi=False)
        if base.singular[0]:
            return None
        scales = tuple(complex(rng.normal(), rng.normal()) + 2.0 for _ in range(n_sol))
        scaled = SolitonConfig(sig, poles, tuple(c * v for c, v in zip(scales, vectors)),
                               seeds.identity_seed(sig))
        alt = dressing.dress(scaled, *x, audit_chi=False)
        swapped = dressing.dress(cfg, *x, audit_chi=False, swap=(True,) * n_sol)
        if alt.singular[0] or swapped.singular[0]:
            return None
        return worst([algebra.frobenius(base.q - alt.q), algebra.frobenius(base.q - swapped.q)])

    return float(_draws(count, draw).max())


def chi_audit(rng_seed: int, count: int) -> float:
    """Max reality / deck-involution audit residual of the Kerr (1, 1)
    dressing matrix over ``count`` random regular points."""
    rng = np.random.default_rng(rng_seed)
    cfg = targets.kerr_config(1.0, 1.0)

    def draw():
        res = dressing.dress(cfg, 0.5 + 4.5 * rng.random(), 3.0 * rng.normal())
        if res.singular[0]:
            return None
        return worst([res.residuals["chi_reality"], res.residuals["chi_involution"]])

    return float(_draws(count, draw).max())


def kerr_oracle(param_sets) -> KerrOracle:
    """The Kerr family (m, s) of each set dressed from the flat seed on the
    40x40 default Boyer-Lindquist grid against the closed form."""
    errors, slowest, singular = [], 0.0, 0
    constraints = {key: [] for key in ("quadratic", "hermiticity", "unit_det")}
    for m, s in param_sets:
        r, theta = _bl_axes(m, 40)
        x = targets.bl_to_weyl(r[:, None], theta[None, :], targets.BLParams(m=m, s=s))
        t0 = time.perf_counter()
        dressed = dressing.dress(targets.kerr_config(m, s), x.rho, x.z, audit_chi=False)
        slowest = max(slowest, time.perf_counter() - t0)
        keep = ~dressed.singular
        singular += int(dressed.singular.sum())
        error = kerr_error(targets.ernst_g11(dressed.q), *kerr_reference(m, s, r, theta))
        errors.append(error[keep])
        for key, found in constraints.items():
            found.append(dressed.residuals[key][keep])
    return KerrOracle(worst(errors), **{key: worst(found) for key, found in constraints.items()},
                      singular=singular, slowest=slowest)


class KNOracle(NamedTuple):
    error: float         # max relative error of E and Phi at the non-singular points
    singular: int        # singular points of the dressing


def kn_oracle(param_sets) -> list[KNOracle]:
    """For each (m, e, s) set, the Kerr-Newman family dressed from the flat
    (2,1) seed, chi audits included, on the 40x40 default Boyer-Lindquist
    grid against the closed-form potentials."""
    results = []
    for m, e, s in param_sets:
        r, theta = _bl_axes(m, 40)
        x = targets.bl_to_weyl(r[:, None], theta[None, :], targets.BLParams(m=m, s=s, e=e))
        dressed = dressing.dress(targets.kn_config(m, e, s), x.rho, x.z)
        error = kn_error(targets.ernst_g21(dressed.q), *kn_reference(m, e, s, r, theta))
        results.append(KNOracle(worst([error[~dressed.singular]]),
                                int(dressed.singular.sum())))
    return results


def kerr_field(box: tuple[float, float, float, float], h: float) -> verification.FieldGrid:
    """The Kerr (1, 1) map dressed on the Weyl box (rho0, rho1, z0, z1) with
    spacing h."""
    rho0, rho1, z0, z1 = box
    rhos = np.linspace(rho0, rho1, round((rho1 - rho0) / h) + 1)
    zs = np.linspace(z0, z1, round((z1 - z0) / h) + 1)
    rho, z = np.meshgrid(rhos, zs, indexing="ij")
    dressed = dressing.dress(targets.kerr_config(1.0, 1.0), rho, z, audit_chi=False)
    return verification.FieldGrid.from_results(rhos, zs, dressed)


def convergence(box: tuple[float, float, float, float], h: float) -> Convergence:
    """Refinement ratios of the Kerr field-equation residuals on ``box``
    under h -> h/2, and whether a constant field's residuals vanish exactly."""
    r1, r2 = verification.refinement_ratios(kerr_field(box, h), kerr_field(box, h / 2))
    const = verification.FieldGrid(
        rhos=np.linspace(1.0, 2.0, 11), zs=np.linspace(-1.0, 1.0, 11),
        values=np.tile(np.eye(2, dtype=complex), (11, 11, 1, 1)), mask=np.ones((11, 11), bool))
    c1, c2 = verification.hodge_residual(const)
    return Convergence(r1, r2, bool(np.nanmax(c1) == 0.0 and np.nanmax(c2) == 0.0))


def flat_limit(count: int) -> float:
    """Max |(x, y) - (1, 0)| of the m = 0 Kerr dressing on the count x count
    default Boyer-Lindquist grid."""
    r, theta = _bl_axes(0.0, count)
    x = targets.bl_to_weyl(r[:, None], theta[None, :], targets.BLParams(m=0.0, s=1.0))
    e = targets.ernst_g11(dressing.dress(targets.kerr_config(0.0, 1.0), x.rho, x.z,
                                         audit_chi=False).q)
    return float(np.max(np.abs([e.x - 1.0, e.y])))
