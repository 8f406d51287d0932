"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Shared sweeps are cached at module level so the whole suite stays fast.
"""
import math
import subprocess
import sys
import time
from functools import lru_cache

import numpy as np

from vesture import algebra, dressing, seeds, targets, verification
from vesture.dressing import SolitonConfig
from vesture.spectral import DomainPoint
from vesture.targets import SIG_11, BLParams

G2 = algebra.gamma(SIG_11)

KERR_SETS = ((1.0, 1.0), (0.5, 2.0), (2.0, 0.3))
KN_SETS = ((1.0, 0.5, 1.0), (1.0, 0.9, 0.5))


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _bl_axes(m: float, counts=(40, 40)):
    return (np.linspace(m + 1.5, m + 10.0, counts[0]),
            np.linspace(math.pi / 8, 7 * math.pi / 8, counts[1]))


@lru_cache(maxsize=None)
def _kerr_sweep(m: float, s: float):
    """(results, r-axis, theta-axis, elapsed seconds) on the acceptance grid."""
    rs, ths = _bl_axes(m)
    bl = BLParams(m=m, s=s)
    rows = [[targets.bl_to_weyl(float(r), float(th), bl) for th in ths] for r in rs]
    cfg = targets.kerr_config(m, s)
    t0 = time.perf_counter()
    results = dressing.dress_grid(cfg, rows, audit_chi=False)
    return results, rs, ths, time.perf_counter() - t0


def _rel(u: float | complex, ref: float | complex) -> float:
    return abs(u - ref) if ref == 0 else abs(u - ref) / abs(ref)


def test_criterion_01_kerr_end_to_end():
    worst = 0.0
    slowest = 0.0
    singular = 0
    for m, s in KERR_SETS:
        results, rs, ths, elapsed = _kerr_sweep(m, s)
        slowest = max(slowest, elapsed)
        a_spin = math.sqrt(m * m + s * s)
        for i, row in enumerate(results):
            for j, res in enumerate(row):
                if res.singular:
                    singular += 1
                    continue
                e = targets.ernst_g11(res.q)
                o = targets.kerr_oracle(m, a_spin, float(rs[i]), float(ths[j]))
                worst = max(worst, _rel(e.x, o.x), _rel(e.y, o.y))
    ok = worst <= 1e-9 and slowest <= 5.0 and singular == 0
    assert _report(1, "kerr-end-to-end", ok,
                   f"max rel err {worst:.3e}, slowest sweep {slowest:.2f}s, "
                   f"{singular} singular points")


def test_criterion_02_kerr_newman_family():
    worst = 0.0
    details = []
    for m, e, s in KN_SETS:
        fam = targets.kn_family_params(BLParams(m=m, s=s, e=e))
        rs, ths = _bl_axes(m)
        bl = BLParams(m=m, s=s, e=e)
        t0 = time.perf_counter()
        phase = None
        w = 0.0
        for r in rs:
            for th in ths:
                q = targets.g21_soliton_family(
                    fam["a_param"], fam["b_param"], fam["n1"], fam["n2"],
                    fam["n3"], fam["n4"], bl, float(r), float(th))
                ext = targets.ernst_g21(q, normalize=True)
                o = targets.kn_oracle(m, e, fam["oracle_a"], float(r), float(th))
                if phase is None and abs(ext.Phi) > 0:
                    ph = o.Phi / ext.Phi
                    phase = ph / abs(ph)
                w = max(w, _rel(ext.E, o.E), _rel(ext.Phi * phase, o.Phi))
        elapsed = time.perf_counter() - t0
        details.append(f"(m={m},e={e},s={s}): {w:.3e} in {elapsed:.2f}s")
        worst = max(worst, w)
    ok = worst <= 1e-9
    assert _report(2, "kerr-newman-family", ok, "; ".join(details))


def test_criterion_03_flat_limit():
    cfg = targets.kerr_config(0.0, 1.0)
    rs, ths = _bl_axes(0.0)
    bl = BLParams(m=0.0, s=1.0)
    worst = 0.0
    for r in rs:
        for th in ths:
            res = dressing.dress_point(cfg, targets.bl_to_weyl(float(r), float(th), bl),
                                       audit_chi=False)
            e = targets.ernst_g11(res.q)
            worst = max(worst, abs(e.x - 1.0), abs(e.y))
    ok = worst <= 1e-12
    assert _report(3, "flat-limit", ok, f"max |(x,y)-(1,0)| = {worst:.3e}")


def test_criterion_04_constraint_suite():
    worst = {"quadratic": 0.0, "hermiticity": 0.0, "unit_det": 0.0}
    for m, s in KERR_SETS:
        results, _, _, _ = _kerr_sweep(m, s)
        for row in results:
            for res in row:
                if res.singular:
                    continue
                for key in worst:
                    worst[key] = max(worst[key], res.residuals[key])
    ok = all(v <= 1e-9 for v in worst.values())
    assert _report(4, "constraint-suite", ok,
                   ", ".join(f"{k} {v:.3e}" for k, v in worst.items()))


def _kerr_field_box(h: float):
    cfg = targets.kerr_config(1.0, 1.0)
    rho0, rho1, z0, z1 = 3.2, 5.2, -1.5, 1.5
    rhos = rho0 + h * np.arange(round((rho1 - rho0) / h) + 1)
    zs = z0 + h * np.arange(round((z1 - z0) / h) + 1)
    rows = [[DomainPoint(rho=float(r), z=float(z)) for z in zs] for r in rhos]
    results = dressing.dress_grid(cfg, rows, audit_chi=False)
    return verification.FieldGrid.from_results(rhos, zs, results)


def _bl_of_weyl(rho: float, z: float, m=1.0, s=1.0):
    c2 = s * s - rho * rho - z * z
    u = 0.5 * (-c2 + math.sqrt(c2 * c2 + 4 * z * z * s * s))
    return m + math.sqrt(u), math.acos(z / math.sqrt(u))


def test_criterion_05_pde_residual_convergence():
    coarse = _kerr_field_box(0.1)
    fine = _kerr_field_box(0.05)
    # the box sits inside the required Boyer-Lindquist window
    for rho in (coarse.rhos[0], coarse.rhos[-1]):
        for z in (coarse.zs[0], coarse.zs[-1]):
            r, th = _bl_of_weyl(float(rho), float(z))
            assert 4.0 <= r <= 8.0 and math.pi / 3 <= th <= 2 * math.pi / 3
    r1, r2 = verification.refinement_ratios(coarse, fine)
    const = verification.FieldGrid(
        rhos=np.linspace(1.0, 2.0, 11), zs=np.linspace(-1.0, 1.0, 11),
        values=np.tile(np.eye(2, dtype=complex), (11, 11, 1, 1)),
        mask=np.ones((11, 11), bool))
    c1, c2 = verification.hodge_residual(const)
    exact = float(np.nanmax(c1)) == 0.0 and float(np.nanmax(c2)) == 0.0
    ok = 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5 and exact
    assert _report(5, "pde-residual-convergence", ok,
                   f"ratios ({r1:.3f}, {r2:.3f}), constant residuals exactly zero: {exact}")


def test_criterion_06_chi_symmetry_audit():
    rng = np.random.default_rng(606)
    cfg = targets.kerr_config(1.0, 1.0)
    worst = 0.0
    audited = 0
    while audited < 20:
        x = DomainPoint(rho=0.5 + 4.5 * rng.random(), z=3.0 * rng.normal())
        res = dressing.dress_point(cfg, x, audit_chi=True)
        if res.singular:
            continue
        worst = max(worst, res.residuals["chi_reality"], res.residuals["chi_involution"])
        audited += 1
    ok = worst <= 1e-9
    assert _report(6, "chi-symmetry-audit", ok,
                   f"max residual over 20 points x 8 samples = {worst:.3e}")


def test_criterion_07_spectral_identities():
    from vesture import spectral

    rng = np.random.default_rng(707)
    worst_alg = 0.0
    worst_prod = 0.0
    count = 0
    while count < 100:
        x = DomainPoint(rho=0.2 + 2.8 * rng.random(), z=2.0 * rng.normal())
        lam = complex(rng.normal(), rng.normal())
        if abs(lam) < 1e-2 or abs(lam * lam + x.rho ** 2) < 1e-3:
            continue
        a, b = spectral.ab(lam, x)
        worst_alg = max(worst_alg, abs(a * a + x.rho ** 2 * b * b - a))
        worst_alg = max(worst_alg, spectral.ab_d_identity_residual(lam, x))
        w0 = complex(rng.normal(), 0.3 + rng.random())
        pair = spectral.pole_pair(w0, x)
        worst_prod = max(worst_prod, abs(pair.lambda_in * pair.lambda_out + x.rho ** 2)
                         / max(1.0, x.rho ** 2))
        count += 1
    r1 = verification.lambda_flow_residual(1j, DomainPoint(1.0, 1.0), 1e-3)
    r2 = verification.lambda_flow_residual(1j, DomainPoint(1.0, 1.0), 5e-4)
    ratio = r1 / r2
    ok = worst_alg <= 1e-12 and worst_prod <= 1e-12 and 3.5 <= ratio <= 4.5
    assert _report(7, "spectral-identities", ok,
                   f"max identity {worst_alg:.3e}, max product defect {worst_prod:.3e}, "
                   f"flow ratio {ratio:.3f}")


def test_criterion_08_algebraic_test_bed():
    report = targets.commutation_check()
    brackets_ok = len(report) == 28 and all(report.values())
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(50):
        mu, d, eta, th = rng.normal(size=4) * 0.6
        q = targets.cartan_embed_su21(mu, d, eta, th)
        phi = (eta + 1j * th) / math.sqrt(2.0)
        ernst = math.exp(2 * mu) + abs(phi) ** 2 + 1j * d
        worst = max(worst, float(np.abs(q - targets.ptilde_matrix(ernst, phi)).max()))
    ok = brackets_ok and worst <= 1e-12
    assert _report(8, "algebraic-test-bed", ok,
                   f"28/28 brackets: {brackets_ok}, max embed deviation {worst:.3e}")


def test_criterion_09_invariance_properties():
    rng = np.random.default_rng(909)
    worst = 0.0
    tested = 0
    while tested < 10:
        n_sol = int(rng.integers(1, 3))
        poles = tuple(complex(rng.normal(), 0.4 + rng.random()) for _ in range(n_sol))
        if len(set(poles)) != n_sol:
            continue
        vectors = tuple(rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(n_sol))
        cfg = SolitonConfig(SIG_11, poles, vectors, seeds.identity_seed(SIG_11))
        x = DomainPoint(rho=0.7 + 2.0 * rng.random(), z=rng.normal())
        base = dressing.dress_point(cfg, x, audit_chi=False)
        if base.singular:
            continue
        scales = tuple(complex(rng.normal(), rng.normal()) + 2.0 for _ in range(n_sol))
        scaled = SolitonConfig(SIG_11, poles,
                               tuple(c * v for c, v in zip(scales, vectors)),
                               seeds.identity_seed(SIG_11))
        alt = dressing.dress_point(scaled, x, audit_chi=False)
        swapped = dressing.dress_point(cfg, x, swap=(True,) * n_sol, audit_chi=False)
        if alt.singular or swapped.singular:
            continue
        worst = max(worst, algebra.frobenius(base.q - alt.q),
                    algebra.frobenius(base.q - swapped.q))
        tested += 1
    ok = worst <= 1e-10
    assert _report(9, "invariance-properties", ok,
                   f"max |q - q'| over {tested} configs = {worst:.3e}")


def test_criterion_10_dominance_at_infinity():
    v1 = np.array([1.0, 0.1], dtype=complex)
    v2 = np.array([0.15, 1.0], dtype=complex)
    assert dressing.dominance_check([v1, v2], G2)
    cfg = SolitonConfig(SIG_11, (1j, 1.0 + 2j), (v1, v2), seeds.identity_seed(SIG_11))
    limit = float(np.prod([abs(v.conj() @ G2 @ v) for v in (v1, v2, v1, v2)]))
    angles = np.linspace(math.pi / 8, 7 * math.pi / 8, 8)
    sups = []
    det_min = math.inf
    for radius in (1e2, 1e3, 1e4):
        sup = 0.0
        for phi in angles:
            x = DomainPoint(rho=radius * math.sin(phi), z=radius * math.cos(phi))
            sd = dressing.spectral_data(cfg, x)
            a, b = dressing.build_system(sd, G2)
            scaled = a * (sd.lambdas - sd.lambdas.conj())[:, None]
            det_min = min(det_min, abs(np.linalg.det(scaled)))
            u = dressing.solve_system(a, b, cfg.tolerances)
            q = dressing.reconstruct_q(u, sd, np.eye(2, dtype=complex))
            sup = max(sup, algebra.frobenius(q - np.eye(2)))
        sups.append(sup)
    ratios = (sups[0] / sups[1], sups[1] / sups[2])
    ok = det_min >= 0.5 * limit and all(8.0 <= r <= 12.0 for r in ratios)
    assert _report(10, "dominance-at-infinity", ok,
                   f"normalized |det A| min {det_min:.3f} (limit {limit:.3f}), "
                   f"decay ratios ({ratios[0]:.2f}, {ratios[1]:.2f})")


def test_criterion_11_selftest():
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "vesture.cli", "selftest"],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and elapsed <= 60.0
    tail = [l for l in proc.stdout.splitlines() if l.strip()][-1]
    assert _report(11, "selftest", ok, f"exit {proc.returncode} in {elapsed:.1f}s ({tail})")
