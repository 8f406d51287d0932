"""The batched dressing pipeline, dressing.dress, against the per-point one
that `_exact_dressing` evaluates at 50 digits from the same float inputs.

At every unflagged point checked, q, det A and chi are held to their
50-digit values within `forward_bound`: 1e-12 relative where cond(A) < 1e4,
else 10 eps cond(A). The checks that do not depend on rounding (which
values are missing where, and that the chi audit changes no output) hold at
every point.
"""
import numpy as np
from hypothesis import HealthCheck, example, given, settings

import _exact_dressing as exact_dressing
from _exact_dressing import CHI_SAMPLES, forward_bound
from _problems import FLAT, KERR_RING, LARGE_Q, NEAR_LOCUS, SU21, TIGHT, problems, thresholds
from vesture import dressing

#: the notes of a point flagged after its system was built, which keeps its det A
SOLVE_NOTES = ("det A = ", "system condition ", "solve residual ")


@settings(max_examples=60, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(problems())
@example(KERR_RING)
@example(SU21)
@example(FLAT)
@example(TIGHT)
@example(LARGE_Q)
@example(NEAR_LOCUS)
def test_batched_pipeline_matches_per_point_reference(problem):
    cfg, rho, z, *limits = problem
    with thresholds(*limits):
        out, u, w, lambdas = dressing._dress(cfg, rho, z, True, None)
        bare = dressing.dress(cfg, rho, z, audit_chi=False)
    singular = out.singular
    # the chi audit changes no q, det A, flag or note
    assert (bare.singular.tolist(), bare.notes) == (singular.tolist(), out.notes)
    np.testing.assert_array_equal(bare.q, out.q)
    np.testing.assert_array_equal(bare.det_a, out.det_a)
    # q is finite exactly where the point is not singular, det A is NaN
    # exactly where no system was built, and a residual is NaN exactly where
    # the point is singular, a chi residual also where no audit ran
    assert np.array_equal(np.isfinite(out.q).all(axis=(-2, -1)), ~singular)
    unbuilt = [k in out.notes and not out.notes[k].startswith(SOLVE_NOTES)
               for k in range(len(singular))]
    assert np.isnan(out.det_a).tolist() == unbuilt
    for grid, audited in ((out, True), (bare, False)):
        for key, col in grid.residuals.items():
            unaudited = key.startswith("chi") and not audited and len(cfg.poles) > 0
            assert np.array_equal(np.isnan(col), singular | unaudited), key
    # q, det A and chi at up to 8 unflagged points, spread over the lattice
    ok = np.flatnonzero(~singular)
    at = ok[np.unique(np.linspace(0, ok.size - 1, min(8, ok.size)).astype(int))]
    if not at.size:
        return
    exact = exact_dressing.dressed(cfg, out.rho[at], out.z[at], CHI_SAMPLES)
    chi = dressing._chi(np.broadcast_to(CHI_SAMPLES, (at.size, CHI_SAMPLES.size)), u[at], w[:1],
                        lambdas[at])[0]
    bound = forward_bound(exact.a)
    norm = np.linalg.norm
    assert np.all(norm(out.q[at] - exact.q, axis=(-2, -1)) <= bound * norm(exact.q, axis=(-2, -1)))
    assert np.all(np.abs(out.det_a[at] - exact.det_a) <= bound * np.abs(exact.det_a))
    assert np.all(norm(chi - exact.chi, axis=(-2, -1))
                  <= bound[:, None] * norm(exact.chi, axis=(-2, -1)))
