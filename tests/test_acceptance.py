"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 01-09 run the checks of vesture.checks, which selftest shares, with
their own seeds and sizes; the gates below are this suite's own. The Kerr
sweep feeds two criteria and is cached at module level.
"""
import math
import os
import subprocess
import sys
import time
from functools import lru_cache

import numpy as np

import vesture
from vesture import algebra, checks, dressing, seeds
from vesture.dressing import SolitonConfig
from vesture.spectral import DomainPoint
from vesture.targets import SIG_11
from test_dressing import kernels

G2 = algebra.gamma(SIG_11)

KERR_SETS = ((1.0, 1.0), (0.5, 2.0), (2.0, 0.3))
KN_SETS = ((1.0, 0.5, 1.0), (1.0, 0.9, 0.5))
BOX = (3.2, 5.2, -1.5, 1.5)


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@lru_cache(maxsize=None)
def _kerr() -> checks.KerrOracle:
    return checks.kerr_oracle(KERR_SETS)


def kerr_gate(r: checks.KerrOracle) -> tuple[bool, str]:
    ok = r.error <= 1e-9 and r.slowest <= 5.0 and r.singular == 0
    return ok, (f"max rel err {r.error:.3e}, slowest sweep {r.slowest:.2f}s, "
                f"{r.singular} singular points")


def chi_gate(worst: float) -> tuple[bool, str]:
    return worst <= 1e-9, f"max residual over 20 points x 8 samples = {worst:.3e}"


def spectral_gate(r: checks.Spectral) -> tuple[bool, str]:
    ok = (r.identity <= 1e-12 and r.product <= 1e-12 and r.duality_fd <= 1e-6
          and 3.5 <= r.flow_ratio <= 4.5)
    return ok, (f"max identity {r.identity:.3e}, max product defect {r.product:.3e}, "
                f"duality (finite diff) {r.duality_fd:.3e}, flow ratio {r.flow_ratio:.3f}")


def test_criterion_01_kerr_end_to_end():
    assert _report(1, "kerr-end-to-end", *kerr_gate(_kerr()))


def kn_gate(sets: list[checks.KNOracle]) -> tuple[bool, str]:
    ok = checks.worst([r.error for r in sets]) <= 1e-9 and all(r.singular == 0 for r in sets)
    return ok, "; ".join(f"(m={m},e={e},s={s}): {r.error:.3e}, {r.singular} singular points"
                         for (m, e, s), r in zip(KN_SETS, sets))


def test_criterion_02_kerr_newman_family():
    assert _report(2, "kerr-newman-family", *kn_gate(checks.kn_oracle(KN_SETS)))


def test_criterion_03_flat_limit():
    worst = checks.flat_limit(40)
    assert _report(3, "flat-limit", worst <= 1e-12, f"max |(x,y)-(1,0)| = {worst:.3e}")


def test_criterion_04_constraint_suite():
    r = _kerr()
    worst = {"quadratic": r.quadratic, "hermiticity": r.hermiticity, "unit_det": r.unit_det}
    ok = all(v <= 1e-9 for v in worst.values())
    assert _report(4, "constraint-suite", ok,
                   ", ".join(f"{k} {v:.3e}" for k, v in worst.items()))


def _bl_of_weyl(rho: float, z: float, m=1.0, s=1.0):
    c2 = s * s - rho * rho - z * z
    u = 0.5 * (-c2 + math.sqrt(c2 * c2 + 4 * z * z * s * s))
    return m + math.sqrt(u), math.acos(z / math.sqrt(u))


def test_criterion_05_pde_residual_convergence():
    # the box sits inside the required Boyer-Lindquist window
    for rho in BOX[:2]:
        for z in BOX[2:]:
            r, th = _bl_of_weyl(rho, z)
            assert 4.0 <= r <= 8.0 and math.pi / 3 <= th <= 2 * math.pi / 3
    r = checks.convergence(BOX, 0.1)
    ok = 3.5 <= r.curvature <= 4.5 and 3.5 <= r.divergence <= 4.5 and r.constant_exact
    assert _report(5, "pde-residual-convergence", ok,
                   f"ratios ({r.curvature:.3f}, {r.divergence:.3f}), "
                   f"constant residuals exactly zero: {r.constant_exact}")


def test_criterion_06_chi_symmetry_audit():
    assert _report(6, "chi-symmetry-audit", *chi_gate(checks.chi_audit(606, 20)))


def test_criterion_07_spectral_identities():
    assert _report(7, "spectral-identities", *spectral_gate(checks.spectral_identities(707, 100)))


def test_criterion_08_algebraic_test_bed():
    matched, total = checks.su21_commutators()
    brackets_ok = matched == total == 28
    worst = checks.cartan_embedding(808, 50)
    assert _report(8, "algebraic-test-bed", brackets_ok and worst <= 1e-12,
                   f"28/28 brackets: {brackets_ok}, max embed deviation {worst:.3e}")


def test_criterion_09_invariance_properties():
    worst = checks.invariance(909, 10)
    assert _report(9, "invariance-properties", worst <= 1e-10,
                   f"max |q - q'| over 10 configs = {worst:.3e}")


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
            sd, a, _, _, q = kernels(cfg, x)
            scaled = a[0] * (sd.lambdas[0] - sd.lambdas[0].conj())[:, None]
            det_min = min(det_min, abs(np.linalg.det(scaled)))
            sup = max(sup, algebra.frobenius(q[0] - np.eye(2)))
        sups.append(sup)
    ratios = (sups[0] / sups[1], sups[1] / sups[2])
    ok = det_min >= 0.5 * limit and all(8.0 <= r <= 12.0 for r in ratios)
    assert _report(10, "dominance-at-infinity", ok,
                   f"normalized |det A| min {det_min:.3f} (limit {limit:.3f}), "
                   f"decay ratios ({ratios[0]:.2f}, {ratios[1]:.2f})")


def test_criterion_11_selftest():
    # the subprocess imports the same vesture package as this process,
    # installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(vesture.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "vesture.cli", "selftest"],
                          capture_output=True, text=True, env=env)
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and elapsed <= 60.0
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:  # crashed before printing: show why
        lines = [l for l in proc.stderr.splitlines() if l.strip()] or ["no output"]
    tail = lines[-1]
    assert _report(11, "selftest", ok, f"exit {proc.returncode} in {elapsed:.1f}s ({tail})")
