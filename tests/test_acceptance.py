"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 01-09 run the checks of vesture.selftest with their own seeds
and sizes, and judge them by the gates of ``vesture selftest``, looked up
in selftest.SELFTEST_SUITES by suite name; a criterion adds only its own
extras.
The Kerr sweep feeds two criteria and is cached at module level.
"""
import math
import os
import subprocess
import sys
import time
from functools import lru_cache

import numpy as np

import _closed_forms as closed_forms
from _problems import kernels
import vesture
from vesture import algebra, checks, seeds, selftest
from vesture.dressing import SolitonConfig
from vesture.spectral import DomainPoint
from vesture.targets import SIG_11

G2 = algebra.gamma(SIG_11)
GATES = {name: gate for name, _, gate in selftest.SELFTEST_SUITES}

KERR_SETS = ((1.0, 1.0), (0.5, 2.0), (2.0, 0.3))
KN_SETS = ((1.0, 0.5, 1.0), (1.0, 0.9, 0.5))
BOX = (3.2, 5.2, -1.5, 1.5)


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@lru_cache(maxsize=None)
def _kerr() -> selftest.OracleReport:
    return selftest.oracle_report(checks.Kerr, KERR_SETS)


def test_criterion_01_kerr_end_to_end():
    r = _kerr()
    ok, detail = GATES["kerr-oracle"](r)
    assert _report(1, "kerr-end-to-end", ok and r.slowest <= 5.0,
                   f"{detail}, slowest sweep {r.slowest:.2f}s")


def test_criterion_02_kerr_newman_family():
    report = selftest.oracle_report(checks.KerrNewman, KN_SETS)
    assert _report(2, "kerr-newman-family", *GATES["kn-oracle"](report))


def test_criterion_03_flat_limit():
    report = selftest.oracle_report(checks.Kerr, [(0.0, 1.0)], 40)
    assert _report(3, "flat-limit", *GATES["flat-limit"](report))


def test_criterion_04_constraint_suite():
    worst = _kerr().constraint
    assert _report(4, "constraint-suite", worst <= algebra.CONSTRAINT_TOL,
                   f"max constraint residual {worst:.3e} at the non-singular points")


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
    assert _report(5, "pde-residual-convergence",
                   *GATES["convergence-order"](selftest.convergence(BOX, 0.1)))


def test_criterion_06_chi_symmetry_audit():
    assert _report(6, "chi-symmetry-audit", *GATES["chi-audits"](selftest.chi_audit(606, 20)))


def test_criterion_07_spectral_identities():
    assert _report(7, "spectral-identities",
                   *GATES["spectral-identities"](selftest.spectral_identities(707, 100)))


def test_criterion_08_algebraic_test_bed():
    brackets, brackets_detail = GATES["su21-commutators"](selftest.su21_commutators())
    embedding, embedding_detail = GATES["cartan-embedding"](selftest.cartan_embedding(808, 50))
    assert _report(8, "algebraic-test-bed", brackets and embedding,
                   f"{brackets_detail}, {embedding_detail}")


def test_criterion_09_invariance_properties():
    assert _report(9, "invariance-properties", *GATES["invariance"](selftest.invariance(909, 10)))


def test_criterion_10_dominance_at_infinity():
    v1 = np.array([1.0, 0.1], dtype=complex)
    v2 = np.array([0.15, 1.0], dtype=complex)
    assert closed_forms.dominance_check([v1, v2], G2)
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
