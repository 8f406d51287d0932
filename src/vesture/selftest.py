"""``vesture selftest``: the built-in invariant suites, their checks and
their gates. cli.main imports this module for that command alone.

Each check takes its inputs (an rng seed and a count, a grid, or parameter
sets) and returns the measured numbers. The pass/fail thresholds live in one
gate table, ``SELFTEST_SUITES``, which the acceptance suite reads too. A
check that draws random items under a precondition draws twice ``count`` and
keeps the first ``count`` that meet it. Library functions are called through
their modules (``spectral.ab``, not a local name), so a fault injected into
one reaches every check that uses it.
"""
from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from . import algebra, checks, dressing, seeds, spectral, targets, verification
from .dressing import SolitonConfig
from .errors import EXIT_CONFIG, EXIT_OK, NumericError
from .spectral import DomainPoint


class Spectral(NamedTuple):
    identity: float      # rational-pair, deck, varpi and closed-form duality identities
    product: float       # lambda_in * lambda_out + rho^2, relative
    duality_fd: float    # duality identity with finite-difference partials of spectral.ab
    flow_ratio: float    # pole-flow residual ratio under h -> h/2


class OracleReport(NamedTuple):
    error: float         # max per-point Ernst error at the non-singular points
    constraint: float    # max membership residual (res_constraint) at the non-singular points
    singular: int        # singular points over all sweeps
    slowest: float       # seconds of the slowest sweep


class Convergence(NamedTuple):
    divergence: float    # median divergence-residual ratio under h -> h/2 on the Kerr box
    constant_exact: bool  # a constant field's residual is exactly zero


def _first(count: int, ok) -> np.ndarray:
    """The indices of the first ``count`` of a batch of draws whose
    precondition ``ok`` holds."""
    keep = np.flatnonzero(ok)[:count]
    if len(keep) < count:
        raise NumericError(f"only {len(keep)} of {count} draws met their precondition")
    return keep


# ---------------------------------------------------------------------------
# algebra and the spectral surface
# ---------------------------------------------------------------------------

def algebra_involutions(rng_seed: int, count: int) -> float:
    """Max relative residual of tau^2 = sigma^2 = 1 and tau sigma = sigma tau
    on ``count`` random matrices per target, and of SU(1,1) membership and
    tau-invariance on ``count`` random SU(1,1) elements; each set is drawn
    and evaluated as one stack."""
    rng = np.random.default_rng(rng_seed)
    residuals = []
    for sig in (targets.SIG_11, targets.SIG_21):
        g = algebra.gamma(sig)
        shape = (count, sig.n, sig.n)
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape) + 2 * np.eye(sig.n)
        scale = algebra.frobenius(m)
        residuals += [
            algebra.frobenius(algebra.tau(algebra.tau(m, g), g) - m) / scale,
            algebra.frobenius(algebra.sigma(algebra.sigma(m, g), g) - m) / scale,
            algebra.frobenius(algebra.tau(algebra.sigma(m, g), g)
                              - algebra.sigma(algebra.tau(m, g), g)) / scale]
    g2 = algebra.gamma(targets.SIG_11)
    b = rng.normal(size=count) + 1j * rng.normal(size=count)
    a = np.sqrt(1 + np.abs(b) ** 2) * np.exp(1j * rng.normal(size=count))
    su11 = np.moveaxis(np.array([[a, b], [np.conj(b), np.conj(a)]]), -1, 0)
    residuals += [algebra.group_residual(su11, g2),
                  algebra.frobenius(algebra.tau(su11, g2) - su11)]
    return checks.worst(residuals)


def _relative(*terms) -> np.ndarray:
    """|t_1 + ... + t_k| / (|t_1| + ... + |t_k|), the residual of an identity
    t_1 + ... + t_k = 0 relative to the size of its terms."""
    return np.abs(sum(terms)) / sum(map(np.abs, terms))


def _ab_duality_residual_fd(lam, x: DomainPoint):
    """Duality identity Da = rho * (dual of Db) at each point of a batch, with
    the coefficient partials taken by central differences (step h) of the live
    ab implementation (independent of the closed-form partials, so it catches
    implementation drift). The residual is relative to the sum of the
    moduli of its four terms, or to 1 where that sum is smaller: the terms
    vanish like lam^2 as lam -> 0, while the differences' rounding, about
    eps |a| / h, does not. Next to a pole +-i rho, at a distance d from lam,
    it reads about 1e-12 / (rho d); the draws keep rho d above ~5e-4."""
    h = 1e-6
    # the six stencil points (rho +- h, z +- h, lam +- h) as one batch
    step = np.kron(np.eye(3), [[h], [-h]])[..., None]
    a, b = spectral.ab(lam + step[:, 2], DomainPoint(x.rho + step[:, 0], x.z + step[:, 1]))
    (da_r, da_z, da_l), (db_r, db_z, db_l) = [(f[0::2] - f[1::2]) / (2 * h) for f in (a, b)]
    om_r, om_z = spectral.omega_forms(lam, x)
    d_rho_a, d_z_a = da_r - om_r * da_l, da_z - om_z * da_l
    d_rho_b, d_z_b = db_r - om_r * db_l, db_z - om_z * db_l
    scale = abs(d_rho_a) + abs(x.rho * d_z_b) + abs(d_z_a) + abs(x.rho * d_rho_b)
    return (abs(d_rho_a + x.rho * d_z_b) + abs(d_z_a - x.rho * d_rho_b)) / np.maximum(1.0, scale)


def spectral_identities(rng_seed: int, count: int) -> Spectral:
    """The surface identities at ``count`` random (x, lam) draws clear of
    lam = 0 and of the poles lam = +-i rho, each with a random pole pair,
    drawn and evaluated as one batch; and the pole-flow residual ratio at
    x = (1, 1). Each identity residual is relative to the size of its terms
    (see spectral.ab_d_identity_residual and _ab_duality_residual_fd), as
    the terms grow without bound next to the poles."""
    rng = np.random.default_rng(rng_seed)
    size = 2 * count
    rho, z = 0.2 + 2.8 * rng.random(size), 2.0 * rng.normal(size=size)
    lam = rng.normal(size=size) + 1j * rng.normal(size=size)
    varpi0 = rng.normal(size=size) + 1j * (0.3 + rng.random(size))
    keep = _first(count, (np.abs(lam) >= 1e-2) & (np.abs(lam * lam + rho * rho) >= 1e-3))
    x, lam = DomainPoint(rho[keep], z[keep]), lam[keep]
    a, b = spectral.ab(lam, x)
    t = spectral.deck(lam, x)
    at, bt = spectral.ab(t, x)
    w = spectral.varpi(lam, x)
    identity = checks.worst([_relative(a * a, x.rho ** 2 * b * b, -a), _relative(at, -1.0, a),
                      _relative(bt, b),
                      np.abs(spectral.varpi(t, x) - w) / np.maximum(1.0, np.abs(w)),
                      spectral.ab_d_identity_residual(lam, x)])
    lam_in, lam_out, _ = spectral.pole_pairs(varpi0[keep, None], x.rho, x.z)
    rho2 = x.rho[:, None] ** 2
    product = checks.worst([np.abs(lam_in * lam_out + rho2) / np.maximum(1.0, rho2)])
    r1 = verification.lambda_flow_residual(1j, DomainPoint(1.0, 1.0), 1e-3)
    r2 = verification.lambda_flow_residual(1j, DomainPoint(1.0, 1.0), 5e-4)
    duality = checks.worst([_ab_duality_residual_fd(lam, x)])
    return Spectral(identity, product, duality, float(r1 / r2))


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
    return checks.worst(deviations)


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
        return checks.worst([algebra.frobenius(base.q - other.q) for other in (alt, swapped)])

    found = [draw() for _ in range(2 * count)]
    return checks.worst([found[k] for k in _first(count, [f is not None for f in found])])


def chi_audit(rng_seed: int, count: int) -> float:
    """Max reality / deck-involution audit residual of the Kerr (1, 1)
    dressing matrix at the first ``count`` regular points of a batch of
    random points, dressed in one call."""
    rng = np.random.default_rng(rng_seed)
    res = dressing.dress(targets.kerr_config(1.0, 1.0), 0.5 + 4.5 * rng.random(2 * count),
                         3.0 * rng.normal(size=2 * count))
    keep = _first(count, ~res.singular)
    return checks.worst([res.residuals[key][keep] for key in ("chi_reality", "chi_involution")])


# ---------------------------------------------------------------------------
# the closed-form families and the field equation
# ---------------------------------------------------------------------------

def oracle_report(family: type[checks.Family], param_sets, count: int = 40) -> OracleReport:
    """The member of ``family`` of each parameter set dressed on the count x
    count default window, against the closed form."""
    errors, constraints, singular, slowest = [], [], 0, 0.0
    for params in param_sets:
        member = family(*params)
        t0 = time.perf_counter()
        axes = tuple(np.linspace(*axis) for axis in checks.default_window(member.m, count))
        dressed, points = checks.sweep(member.config(), axes, member.chart())
        _, error = member.compare(dressed.q, points)
        slowest = max(slowest, time.perf_counter() - t0)
        keep = ~dressed.singular
        errors.append(error[keep])
        constraints.append(dressed.residuals["symspace"][keep])
        singular += int(dressed.singular.sum())
    return OracleReport(checks.worst(errors), checks.worst(constraints), singular, slowest)


def kerr_field(box: tuple[float, float, float, float], h: float) -> verification.FieldGrid:
    """The Kerr (1, 1) map dressed on the Weyl box (rho0, rho1, z0, z1) with
    spacing h."""
    rho0, rho1, z0, z1 = box
    axes = (np.linspace(rho0, rho1, round((rho1 - rho0) / h) + 1),
            np.linspace(z0, z1, round((z1 - z0) / h) + 1))
    dressed, _ = checks.sweep(targets.kerr_config(1.0, 1.0), axes)
    shape = tuple(map(len, axes))
    return verification.FieldGrid(*axes, dressed.q.reshape(shape + dressed.q.shape[1:]),
                                  ~dressed.singular.reshape(shape))


def convergence(box: tuple[float, float, float, float], h: float) -> Convergence:
    """Refinement ratio of the Kerr field-equation residual on ``box`` under
    h -> h/2, from one lattice at h/2, and whether a constant field's
    residual vanishes exactly."""
    ratio = verification.refinement_ratios(kerr_field(box, h / 2))
    const = verification.FieldGrid(
        rhos=np.linspace(1.0, 2.0, 11), zs=np.linspace(-1.0, 1.0, 11),
        values=np.tile(np.eye(2, dtype=complex), (11, 11, 1, 1)), mask=np.ones((11, 11), bool))
    return Convergence(ratio, bool(np.nanmax(verification.hodge_residual(const)) == 0.0))


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------

_KERR_SETS = ((1.0, 1.0), (0.5, 2.0), (2.0, 0.3))
_KN_SETS = ((1.0, 0.5, 1.0), (1.0, 0.9, 0.5))
_KERR_BOX = (3.2, 5.2, -1.5, 1.5)


def _spectral_gate(r: Spectral) -> tuple[bool, str]:
    identity = max(r.identity, r.product)
    ok = identity <= 1e-12 and r.duality_fd <= 1e-6 and 3.5 <= r.flow_ratio <= 4.5
    return ok, (f"max identity residual {identity:.2e}, duality (finite diff) "
                f"{r.duality_fd:.2e}, flow ratio {r.flow_ratio:.3f}")


def _oracle_gate(bound: float):
    """The gate of a family's oracle report: the Ernst error within
    ``bound`` and the membership residual within algebra.CONSTRAINT_TOL at
    the non-singular points, and no singular point, so that a sweep with
    nothing to compare fails it."""
    def gate(r: OracleReport) -> tuple[bool, str]:
        ok = r.error <= bound and r.constraint <= algebra.CONSTRAINT_TOL and r.singular == 0
        return ok, (f"max oracle error {r.error:.2e}, max constraint {r.constraint:.2e}, "
                    f"{r.singular} singular points")
    return gate


def _convergence_gate(r: Convergence) -> tuple[bool, str]:
    ok = 3.5 <= r.divergence <= 4.5 and r.constant_exact
    return ok, f"divergence ratio {r.divergence:.3f}, constant field exact: {r.constant_exact}"


#: (suite, check, gate): the gate turns the check's measurement into
#: (passed, detail). Every pass/fail threshold of the checks is here; the
#: acceptance suite runs the same gates on checks of its own sizes.
SELFTEST_SUITES = (
    ("algebra-involutions", lambda: algebra_involutions(101, 20),
     lambda worst: (worst <= 1e-12, f"max residual {worst:.2e}")),
    ("spectral-identities", lambda: spectral_identities(202, 100), _spectral_gate),
    ("su21-commutators", su21_commutators,
     lambda r: (r[0] == r[1] == 28, f"{r[0]}/{r[1]} brackets match")),
    ("cartan-embedding", lambda: cartan_embedding(404, 50),
     lambda worst: (worst <= 1e-12, f"max deviation {worst:.2e}")),
    ("invariance", lambda: invariance(505, 10),
     lambda worst: (worst <= 1e-10, f"max |q - q'| {worst:.2e}")),
    ("chi-audits", lambda: chi_audit(606, 20),
     lambda worst: (worst <= 1e-9, f"max audit residual {worst:.2e} over 20 points")),
    ("kerr-oracle", lambda: oracle_report(checks.Kerr, _KERR_SETS),
     _oracle_gate(checks.ERNST_TOL)),
    ("kn-oracle", lambda: oracle_report(checks.KerrNewman, _KN_SETS),
     _oracle_gate(checks.ERNST_TOL)),
    ("convergence-order", lambda: convergence(_KERR_BOX, 0.1), _convergence_gate),
    ("flat-limit", lambda: oracle_report(checks.Kerr, [(0.0, 1.0)], 12),
     _oracle_gate(1e-12)),
)


def run_selftest() -> int:
    t0 = time.perf_counter()
    all_ok = True
    print(f"{'suite':<22} {'status':<6} detail")
    for name, check, gate in SELFTEST_SUITES:
        t1 = time.perf_counter()
        ok, detail = gate(check())
        all_ok &= ok
        print(f"{name:<22} {'PASS' if ok else 'FAIL':<6} {detail} "
              f"[{time.perf_counter() - t1:.2f}s]")
    print(f"total {time.perf_counter() - t0:.2f}s: "
          f"{'all suites passed' if all_ok else 'FAILURES present'}")
    return EXIT_OK if all_ok else EXIT_CONFIG
