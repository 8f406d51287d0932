"""The batched dressing pipeline, dressing.dress, against the frozen
per-point one.

`_reference_dressing` is the point-by-point implementation the batched
pipeline replaced. On every grid the two must flag the same points with
the same notes, except where the reference refuses to invert chi at an
audit sample, which the residue audit never does. Outside the
gate-exclusion band (singular points and the det A locus, widened by 3
cells, where cond(A) amplifies rounding) q and det A must agree to 1e-13
relative, and every residual-dict entry but the chi audits to 1e-10 plus
the rounding of a residual of q (see assert_equivalent). Two numbers are
held to their conditioning where it is worse than that: det A next to a
det A zero the lattice does not resolve, and the scalar det(q_raw)^(-1/n)
by which the reference normalises q, whose rounding grows with ||q||_F^2.
"""
import dataclasses
import math

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import _reference_dressing as reference
from vesture import algebra, dressing, seeds, targets
from vesture.algebra import Signature
from vesture.verification import gate_exclusion
from vesture.dressing import SolitonConfig, Tolerances
from vesture.spectral import DomainPoint

SIG11, SIG21 = Signature(1, 1), Signature(2, 1)
EPS = np.finfo(float).eps


def boosted(sig: Signature, t: float) -> np.ndarray:
    """A constant seed matrix on the symmetric space (t = 0: the identity)."""
    if sig.n == 2:
        return np.array([[math.cosh(2 * t), math.sinh(2 * t)],
                         [math.sinh(2 * t), math.cosh(2 * t)]], dtype=complex)
    ch, sh = math.cosh(t), math.sinh(t) / math.sqrt(2.0)
    return np.array([[ch, 0, sh * (1 + 1j)], [0, 1, 0], [sh * (1 - 1j), 0, ch]])


def weyl_rows(rhos, zs):
    return [[DomainPoint(rho=float(r), z=float(z)) for z in zs] for r in rhos]


def coords(rows):
    """rho and z of rows of DomainPoints, as two arrays of the rows' shape."""
    return np.moveaxis(np.array([[(x.rho, x.z) for x in row] for row in rows]), -1, 0)


def det_condition(cfg: SolitonConfig, x: DomainPoint) -> float:
    """sum |A^-T| |A| for the reference's A at x: det A moves by at most this
    times delta, relative, when each entry of A moves by delta relative."""
    a = reference.build_system(reference.spectral_data(cfg, x), algebra.gamma(cfg.signature))[0]
    return float(np.sum(np.abs(np.linalg.inv(a).T) * np.abs(a)))


def assert_equivalent(cfg: SolitonConfig, rows, audit_chi: bool = True):
    """Compare both pipelines point by point, the rows dressed as one 2-D
    batch in row-major order; returns the singular mask and the
    gate-exclusion band of the reference."""
    rho, z = coords(rows)
    new = dressing.dress(cfg, rho, z, audit_chi=audit_chi)
    old = [p for row in reference.dress_grid(cfg, rows, audit_chi=audit_chi) for p in row]
    singular = np.array([p.singular for p in old]).reshape(rho.shape)
    det_a = np.array([p.det_a for p in old]).reshape(rho.shape)
    band = gate_exclusion(singular, det_a)
    for k, (o, skip) in enumerate(zip(old, band.ravel())):
        assert (new.rho[k], new.z[k]) == (o.x.rho, o.x.z)
        # the reference inverts chi(conj lam) at its samples and refuses one
        # above the cap; the residue audit inverts nothing, so such a point
        # keeps its map unflagged, with both chi residuals
        refused = o.note.startswith("chi audit failed: condition")
        assert (new.singular[k], new.notes.get(k, "")) == \
            ((False, "") if refused else (o.singular, o.note)), k
        # what is missing (q, det A, residuals) is missing on both sides
        assert (not new.singular[k]) == (o.q is not None)
        assert np.isnan(new.det_a[k]) == math.isnan(o.det_a.real)
        # the reference's det_branch_warning entry flags its own normaliser
        assert {key: bool(np.isnan(col[k])) for key, col in new.residuals.items()} == \
            {key: math.isnan(v) and not (refused and key.startswith("chi"))
             for key, v in o.residuals.items() if key != "det_branch_warning"}, k
        if skip:
            continue
        n = cfg.signature.n
        if not math.isnan(o.det_a.real):
            # each side forms A's entries as sums of n products, within
            # (n + 2) eps / 2 of their size; to first order det A then moves by
            # at most that times det_condition, relative
            gap = abs(new.det_a[k] - o.det_a)
            if gap > 1e-13 * abs(o.det_a):
                assert gap <= (n + 2) * EPS * det_condition(cfg, o.x) * abs(o.det_a), k
        if o.q is None:
            continue
        size = np.linalg.norm(o.q)
        # the reference returns q_raw det(q_raw)^(-1/n), the pipeline q_raw. They
        # agree to rounding but for that scalar: det(q_raw) is 1 in exact
        # arithmetic and its rounding is amplified: q_raw + E with
        # |E| <= eps |q_raw| moves det by |tr(q_raw^-1 E)| <= eps sum |q^-1|^T |q|
        # relative, and as q^-1 = gamma q gamma, that sum is at most ||q||_F^2.
        # So q is held to 1e-13 but for that one scalar, the scalar to its rounding.
        scale = np.vdot(o.q, new.q[k]) / size ** 2
        assert np.linalg.norm(new.q[k] - scale * o.q) <= 1e-13 * size, k
        noise = (n + 2) * EPS * size ** 2
        assert abs(scale - 1) <= 1e-13 + noise / n, (k, scale, size)
        # on one q the two pipelines differ in summation order only: each
        # rounds a complex sum of n products within gamma_(n+2) = (n + 2) eps / 2
        # of sum |q_ik| |sigma(q)_kj|, whose Frobenius norm is at most ||q||_F^2,
        # so the two differ by at most c eps ||q||_F^2 with c = n + 2 (an LU
        # determinant's backward error is of the same order); symspace sums three
        slack = 1e-10 + noise
        bounds = {"quadratic": slack, "hermiticity": slack, "unit_det": slack,
                  "symspace": 3 * slack}
        # the reference's branch warning reports rounding in det(q_raw), real
        # and positive in exact arithmetic; where it fires, its q carries a
        # principal root's phase and is not Hermitian
        if o.residuals["det_branch_warning"]:
            del bounds["hermiticity"], bounds["symspace"]
        for key, bound in bounds.items():
            got, want = new.residuals[key][k], o.residuals[key]
            assert abs(got - want) <= bound, (k, key, got, want)
    return singular, band


@st.composite
def problems(draw):
    """A soliton configuration on a small Weyl lattice. A pole may sit on
    the branch point of a lattice point (w = z -+ i rho) or be the
    conjugate of the previous pole, which makes their pole pairs coincide."""
    sig = draw(st.sampled_from([SIG11, SIG21]))
    n_sol = draw(st.integers(1, 3))
    rhos = np.linspace(draw(st.floats(0.3, 1.0)), draw(st.floats(1.5, 3.0)),
                       draw(st.integers(3, 7)))
    zs = np.linspace(draw(st.floats(-2.0, -0.5)), draw(st.floats(0.5, 2.0)),
                     draw(st.integers(3, 7)))
    coord = st.floats(-1.5, 1.5)
    poles = []
    for _ in range(n_sol):
        sign = draw(st.sampled_from([1.0, -1.0]))
        kind = draw(st.sampled_from(["free", "branch", "conjugate"]))
        if kind == "branch":
            pole = complex(zs[draw(st.integers(0, len(zs) - 1))],
                           sign * rhos[draw(st.integers(0, len(rhos) - 1))])
        elif kind == "conjugate" and poles:
            pole = poles[-1].conjugate()
        else:
            pole = complex(draw(coord), sign * draw(st.floats(0.3, 1.5)))
        poles.append(pole)
    assume(len(set(poles)) == n_sol)
    vectors = [np.array([complex(draw(coord), draw(coord)) for _ in range(sig.n)])
               for _ in range(n_sol)]
    assume(all(np.linalg.norm(v) > 0.2 for v in vectors))
    t = draw(st.sampled_from([0.0, 0.35, -0.6]))
    seed = seeds.constant_seed(boosted(sig, t), sig)
    return SolitonConfig(sig, tuple(poles), tuple(vectors), seed), weyl_rows(rhos, zs)


# the Kerr ring: the lattice crosses the det A sign change
KERR_RING = (targets.kerr_config(2.0, 0.3),
             weyl_rows(np.linspace(0.5, 4.0, 12), np.linspace(-2.0, 2.0, 12)))
# three solitons on a boosted SU(2,1) seed with all three branch points on the lattice
SU21 = (SolitonConfig(SIG21, (1j, 0.7 + 0.6j, -0.8 + 1.4j),
                      (np.array([1.0 + 0.1j, 0.3, 0.2 + 0.1j]),
                       np.array([0.2, 1.1 + 0.2j, 0.3]),
                       np.array([0.5 + 0.1j, 0.1, 0.9])),
                      seeds.constant_seed(boosted(SIG21, 1.0), SIG21)),
        weyl_rows(np.linspace(0.6, 1.4, 3), np.linspace(-0.8, 0.7, 16)))
# tightened tolerances: det A threshold and condition cap failures; the
# reference also refuses chi(conj lam) above the cap at its audit samples
TIGHT = (dataclasses.replace(targets.kerr_config(1.0, 1.0),
                             tolerances=Tolerances(singular_tol=0.1, condition_cap=30.0)),
         weyl_rows(np.linspace(0.25, 2.5, 6), np.linspace(-1.0, 1.5, 6)))
# no solitons: q = q0 at every point
FLAT = (SolitonConfig(SIG21, (), (), seeds.constant_seed(boosted(SIG21, 0.35), SIG21)),
        weyl_rows(np.linspace(0.5, 2.0, 3), np.linspace(-1.0, 1.0, 4)))
# ||q||_F^2 = 2.3e7 at (0.5, -2): the two pipelines' quadratic residuals
# differ by 2.9e-10 for one q, in summation order alone
LARGE_Q = (SolitonConfig(SIG21, (1.0625 + 0.3125j, 1.25j, 1 + 1j),
                         (np.array([0, 0, 1j]), np.array([0.640625j, -1.4375j, 1.5j]),
                          np.array([-0.5625, -1.25, 0])), seeds.identity_seed(SIG21)),
           weyl_rows([0.5, 1.25, 2.0], [-2.0, -0.5, 1.0]))

# det A = -4.45e-5 at (1, -0.375), a point next to a det A zero that no sign
# change on the lattice shows, so outside the band: cond(A) = 3.8e5
NEAR_LOCUS = (SolitonConfig(SIG21, (0.5j,), (np.array([0, 0.59375 + 0.859375j, 1.25 + 1.125j]),),
                            seeds.constant_seed(boosted(SIG21, 0.35), SIG21)),
              weyl_rows([1.0, 1.5, 2.0], [-1.375, -0.375, 0.625]))


@settings(max_examples=100, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(problems(), st.booleans())
@example(KERR_RING, True)
@example(SU21, True)
@example(FLAT, True)
@example(TIGHT, True)
@example(LARGE_Q, False)
@example(NEAR_LOCUS, False)
def test_batched_pipeline_matches_per_point_reference(problem, audit_chi):
    assert_equivalent(*problem, audit_chi=audit_chi)


def test_reference_examples_cover_branch_points_and_the_locus():
    singular, band = assert_equivalent(*SU21)
    assert singular.sum() == 3
    singular, band = assert_equivalent(*KERR_RING)
    assert not singular.any() and band.any() and not band.all()
    dressed = dressing.dress(TIGHT[0], *coords(TIGHT[1]))
    assert {note.split(" ")[0] for note in dressed.notes.values()} == {"det", "system"}
    assert not dressed.singular.all()
