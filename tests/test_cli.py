import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vesture import (algebra, checks, cli, dressing, selftest, spectral, targets, verification,
                     verify)
from vesture.errors import ConfigError

def minimal_config(tmp_path, **overrides):
    doc = {
        "target": {"p": 1, "q": 1},
        "seed": "identity",
        "solitons": [{"omega": [0.0, 1.0], "v": [[1.2, 0.0], [0.5, 0.0]]}],
        "grid": {"coords": "weyl", "rho": [2.5, 3.5, 4], "z": [-0.5, 0.5, 3]},
        "outputs": {"fields": ["q", "detA", "residuals", "ernst"],
                    "path": str(tmp_path / "out.csv"), "format": "csv"},
    }
    doc.update(overrides)
    return doc

def test_parse_config_valid(tmp_path):
    cfg = cli.parse_config(json.dumps(minimal_config(tmp_path)))
    assert cfg.solitons.signature.n == 2
    assert len(cfg.solitons.poles) == 1
    # a grid without a chart is a (rho, z) one
    assert cfg.grid == cli.GridSpec((2.5, 3.5, 4), (-0.5, 0.5, 3), None)
    bl = cli.parse_config(json.dumps(minimal_config(tmp_path, grid={
        "coords": "boyer-lindquist", "r": [2.5, 5.0, 4], "theta": [0.5, 2.5, 4],
        "params": {"m": 1.0, "s": 2.0}})))
    assert bl.grid == cli.GridSpec((2.5, 5.0, 4), (0.5, 2.5, 4), targets.BLParams(m=1.0, s=2.0))
    # a JSON integer is a number: integer spellings parse as the float ones
    ints = cli.parse_config(json.dumps(minimal_config(
        tmp_path, grid={"coords": "weyl", "rho": [2, 3, 4], "z": [-1, 1, 3]},
        solitons=[{"omega": [0, 1], "v": [[1, 0], [0.5, 0]]}])))
    assert ints.grid == cli.GridSpec((2.0, 3.0, 4), (-1.0, 1.0, 3), None)
    assert ints.solitons.poles == (1j,)
    np.testing.assert_array_equal(ints.solitons.vectors[0], [1.0, 0.5])

def test_parse_config_malformed_json():
    with pytest.raises(ConfigError, match="malformed JSON"):
        cli.parse_config(b"{not json")

def test_parse_config_collects_all_violations(tmp_path):
    doc = minimal_config(tmp_path)
    doc["target"] = {"p": 0, "q": 1}
    doc["solitons"] = [
        {"omega": [1.0, 0.0], "v": [[1.0, 0.0], [0.0, 0.0]]},
        {"omega": [0.0, 1.0], "v": [[0.0, 0.0], [0.0, 0.0]]},
    ]
    with pytest.raises(ConfigError) as err:
        cli.parse_config(json.dumps(doc))
    msg = str(err.value)
    assert "real pole" in msg
    assert "zero vector" in msg
    assert "target" in msg

@pytest.mark.parametrize("overrides, message", [
    ({"solitons": [1]}, "solitons[0] must be a JSON object"),
    ({"target": [1, 1]}, "target must be a JSON object"),
    # the gate thresholds are fixed: a tolerances section is refused
    ({"tolerances": {"constraint_tol": "x"}}, "config: unknown keys 'tolerances'"),
    ({"continuity_tracking": True}, "config: unknown keys 'continuity_tracking'"),
    ({"tolerances": {"iterative_refinement": True}}, "config: unknown keys 'tolerances'"),
    ({"target": {"p": 1, "q": 1, "r": 0}}, "target: unknown keys 'r'"),
    ({"grid": {"coords": "weyl", "rho": [1.0, 2.0, 4], "z": [-0.5, 0.5, 3], "step": 1}},
     "grid: unknown keys 'step'"),
    ({"outputs": {"fields": ["q"], "colour": "red"}}, "outputs: unknown keys 'colour'"),
    ({"solitons": [{"omega": [0.0, 1.0], "v": [[1.0, 0.0], [0.5, 0.0]], "w": 1}]},
     "solitons[0]: unknown keys 'w'"),
    ({"grid": {"coords": "boyer-lindquist", "r": [2.5, 5.0, 4], "theta": [0.5, 2.5, 4],
               "params": {"m": 1.0, "s": 1.0, "a": 1.4}}}, "grid.params: unknown keys 'a'"),
    # lattices that overflow: an axis whose span does not fit a float, and
    # coordinates whose pole-pair discriminant c^2 + rho^2 does not, which
    # the dress refuses as a domain error
    ({"grid": {"coords": "weyl", "rho": [1.0, 2.0, 3], "z": [-1e308, 1e308, 3]}},
     "grid.z spans max - min = inf, which overflows"),
    ({"grid": {"coords": "weyl", "rho": [1e-300, 1.7e308, 3], "z": [-0.5, 0.5, 3]}},
     "pole pairs overflow: c^2 + rho^2 is not finite at rho=8.5e+307, z=-0.5"),
    # the chart reads m and s only
    ({"grid": {"coords": "boyer-lindquist", "r": [2.5, 5.0, 4], "theta": [0.5, 2.5, 4],
               "params": {"m": 1.0, "s": 1.0, "e": 0.7}}}, "grid.params: unknown keys 'e'"),
])
def test_parse_config_bad_section_is_a_violation(tmp_path, capsys, overrides, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(tmp_path, **overrides)))
    assert cli.main(["dress", "-c", str(path)]) == cli.EXIT_CONFIG
    # the one violation parse_config finds, or the dress's one-line refusal
    assert capsys.readouterr().err in (f"invalid config:\n  - {message}\n", message + "\n")
    assert not (tmp_path / "out.csv").exists()

_BL_GRID = {"coords": "boyer-lindquist", "r": [2.5, 5.0, 4], "theta": [0.5, 2.5, 4],
            "params": {"m": 1.0, "s": 1.0}}

@pytest.mark.parametrize("overrides, message", [
    # a count, p and q are JSON integers: not a float, however round, nor a bool
    ({"grid": {"coords": "weyl", "rho": [0.7, 2.1, 4.9], "z": [-0.5, 0.5, 3]}},
     "grid.rho[2] must be a JSON integer, got 4.9"),
    ({"grid": {"coords": "weyl", "rho": [0.7, 2.1, 4.0], "z": [-0.5, 0.5, 3]}},
     "grid.rho[2] must be a JSON integer, got 4.0"),
    ({"grid": {"coords": "weyl", "rho": [0.7, 2.1, True], "z": [-0.5, 0.5, 3]}},
     "grid.rho[2] must be a JSON integer, got true"),
    ({"target": {"p": 1.9, "q": 1}}, "target.p must be a JSON integer, got 1.9"),
    ({"target": {"p": True, "q": 1}}, "target.p must be a JSON integer, got true"),
    ({"target": {"p": 1, "q": "1"}}, 'target.q must be a JSON integer, got "1"'),
    # every other number is a JSON number, not a string or a bool
    ({"grid": {"coords": "weyl", "rho": [0.7, "2.1", 4], "z": [-0.5, 0.5, 3]}},
     'grid.rho[1] must be a JSON number, got "2.1"'),
    ({"grid": {**_BL_GRID, "params": {"m": "1", "s": 1.0}}},
     'grid.params.m must be a JSON number, got "1"'),
    ({"solitons": [{"omega": [0.0, 1.0], "v": [[1.2, False], [0.5, 0.0]]}]},
     "solitons[0].v[0][1] must be a JSON number, got false"),
    ({"seed": {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], ["1", 0.0]]]}},
     'seed.matrix[1][1][0] must be a JSON number, got "1"'),
    # a pair has exactly two entries and an axis exactly three
    ({"solitons": [{"omega": [0, 1, 5], "v": [[1.2, 0.0], [0.5, 0.0]]}]},
     "solitons[0].omega must be a [re, im] pair"),
    ({"solitons": [{"omega": [0.0, 1.0], "v": [[1.0, 0.0, 7.0], [0.5, 0.0]]}]},
     "solitons[0].v[0] must be a [re, im] pair"),
    ({"grid": {"coords": "weyl", "rho": [0.7, 2.1, 4, 5], "z": [-0.5, 0.5, 3]}},
     "grid.rho must be [min, max, count]"),
    ({"grid": {**_BL_GRID, "theta": [0.5, 2.5]}}, "grid.theta must be [min, max, count]"),
    # a JSON integer no float holds, wherever a number is read
    ({"grid": {"coords": "weyl", "rho": [0.7, 2.1, 4], "z": [-10**400, 0.5, 3]}},
     "grid.z[0] must fit a float, got an integer of 401 digits"),
    ({"grid": {**_BL_GRID, "params": {"m": 10**400, "s": 1.0}}},
     "grid.params.m must fit a float, got an integer of 401 digits"),
    ({"solitons": [{"omega": [0.0, 10**400], "v": [[1.2, 0.0], [0.5, 0.0]]}]},
     "solitons[0].omega[1] must fit a float, got an integer of 401 digits"),
    # a lattice or a target above its bound is refused before any array is
    # allocated (only counts and sizes that allocate nothing are tried)
    ({"grid": {"coords": "weyl", "rho": [0.7, 2.1, 10**30], "z": [-0.5, 0.5, 3]}},
     f"grid.rho has {10**30} points, more than {cli.MAX_COUNT}"),
    ({"grid": {"coords": "weyl", "rho": [0.7, 2.1, 4], "z": [-0.5, 0.5, cli.MAX_COUNT + 1]}},
     f"grid.z has {cli.MAX_COUNT + 1} points, more than {cli.MAX_COUNT}"),
    ({"target": {"p": 10**30, "q": 1}},
     f"target: signature needs p >= 1, q >= 1 and p + q <= {algebra.MAX_N}, got ({10**30}, 1)"),
    ({"target": {"p": algebra.MAX_N, "q": 1}},
     f"target: signature needs p >= 1, q >= 1 and p + q <= {algebra.MAX_N}, "
     f"got ({algebra.MAX_N}, 1)"),
])
def test_parse_config_refuses_a_malformed_number_with_one_line(tmp_path, capsys, overrides,
                                                                message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(tmp_path, **overrides)))
    assert cli.main(["dress", "-c", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"invalid config:\n  - {message}\n"
    assert not (tmp_path / "out.csv").exists()

def test_a_config_integer_too_long_to_read_is_malformed_json(tmp_path, capsys):
    # json.loads reads at most 4300 digits of an integer
    path = tmp_path / "config.json"
    path.write_text('{"grid": {"coords": "weyl", "rho": [1, 2, ' + "9" * 5000 + ']}}')
    assert cli.main(["dress", "-c", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("malformed JSON: Exceeds the limit (4300 digits)")
    assert err.count("\n") == 1

def test_parse_config_rejects_oracle_field(tmp_path):
    doc = minimal_config(tmp_path)
    doc["outputs"]["fields"] = ["q", "oracle"]
    with pytest.raises(ConfigError, match="oracle"):
        cli.parse_config(json.dumps(doc))

def test_run_dress_writes_csv_and_passes_gate(tmp_path, capsys):
    # a grid whose gate keeps points (64 of them)
    doc = minimal_config(tmp_path, grid={"coords": "weyl", "rho": [1.0, 2.0, 8],
                                         "z": [-0.5, 0.5, 8]})
    code = cli.run_dress(cli.parse_config(json.dumps(doc)))
    assert code == cli.EXIT_OK
    assert "gate vacuous" not in capsys.readouterr().err
    lines = (tmp_path / "out.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["rho", "z"]
    assert "q_re_11" in header and "detA_re" in header and "singular" in header
    assert "res_constraint" in header and "res_hodge2" in header
    assert header[-2:] == ["x", "y"]
    assert len(lines) == 1 + 8 * 8
    # machine-readable floats with 17 significant digits round-trip
    row = lines[1].split(",")
    assert float(row[0]) == 1.0

def _reported(line: str, label: str) -> float:
    """The number that follows ``label`` in a summary line."""
    return float(re.search(re.escape(label) + r" (\S+?)[;\n]", line).group(1))

def _dressed_field(cfg) -> tuple[dressing.DressedGrid, verification.FieldGrid]:
    """The dressed arrays of a Weyl config's row-major lattice, dressed here
    without the sweep, and its maps as a FieldGrid whose holes are the
    singular points."""
    rhos, zs = cfg.grid.axis_values()
    dressed = dressing.dress(cfg.solitons, np.repeat(rhos, len(zs)), np.tile(zs, len(rhos)))
    shape = (len(rhos), len(zs))
    return dressed, verification.FieldGrid(rhos, zs, dressed.q.reshape(shape + dressed.q.shape[1:]),
                                           ~dressed.singular.reshape(shape))

def test_dress_command_gates_every_point(tmp_path, capsys):
    # minimal_config's soliton on a Weyl grid clear of the ring: all 36 points gated
    doc = minimal_config(tmp_path, grid={"coords": "weyl", "rho": [3.0, 4.0, 6],
                                         "z": [-0.5, 0.5, 6]})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["dress", "-c", str(path)]) == cli.EXIT_OK
    err = capsys.readouterr().err
    assert "gate vacuous" not in err
    assert err.startswith("dressed 36 points (0 singular); max gated constraint residual ")
    assert 0.0 < _reported(err, "max gated constraint residual") <= 1e-12
    # the chi audits are reported, not gated
    chi = re.search(r"; max gated chi residuals (\S+) \(reality\), (\S+) \(involution\)\n$", err)
    assert all(0.0 < float(v) <= 1e-12 for v in chi.groups())
    cfg = cli.parse_config(json.dumps(doc))
    dressed, _ = _dressed_field(cfg)
    assert cfg.grid.bl is None
    excluded, worst, note = verification.verdict((6, 6), dressed.singular, dressed.det_a,
                                                 dressed.residuals["symspace"])
    assert excluded.shape == (36,) and not excluded.any() and note == ""
    assert f"{worst:.3e}" == re.search(r"constraint residual (\S+);", err).group(1)
    _, why = verification.lattice_hodge(cfg.grid.axis_values(), dressed.q, dressed.singular, True)
    assert why == ""

_COMPONENTS = ("quadratic", "hermiticity", "unit_det")

@pytest.mark.parametrize("key", _COMPONENTS)
def test_a_nan_gated_residual_fails_the_dress_gate(tmp_path, capsys, monkeypatch, key):
    # a NaN membership component makes the sum the gate reads NaN, which
    # fails the constraint gate as it fails every check
    doc = minimal_config(tmp_path, grid={"coords": "weyl", "rho": [3.0, 4.0, 6],
                                         "z": [-0.5, 0.5, 6]})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    components = algebra.symspace_components

    def nan_at_one_point(m, g):
        parts = components(m, g)
        parts[_COMPONENTS.index(key)][7] = math.nan
        return parts

    monkeypatch.setattr(algebra, "symspace_components", nan_at_one_point)
    assert cli.main(["dress", "-c", str(path)]) == cli.EXIT_GATE
    assert capsys.readouterr().err.startswith(
        "dressed 36 points (0 singular); max gated constraint residual nan")

def test_dress_and_verify_gate_the_sum_of_the_membership_components(tmp_path, capsys,
                                                                    monkeypatch):
    # each component at 0.6e-9 is within the 1e-9 gate, their sum, the
    # stored res_constraint, is not: dress and verify both fail the gate
    doc = minimal_config(tmp_path, grid={"coords": "weyl", "rho": [3.0, 4.0, 6],
                                         "z": [-0.5, 0.5, 6]})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(algebra, "symspace_components",
                        lambda m, g: (np.full(m.shape[:-2], 0.6e-9),) * 3)
    assert cli.main(["dress", "-c", str(path)]) == cli.EXIT_GATE
    assert _reported(capsys.readouterr().err, "max gated constraint residual") == 1.8e-9
    assert cli.main(["verify", str(tmp_path / "out.csv")]) == cli.EXIT_GATE
    assert "max recomputed constraint residual 1.800e-09 gated" in capsys.readouterr().err


def test_minimal_config_gates_every_point(tmp_path, capsys):
    # the fixture's grid keeps clear of the branch point (rho, z) = (1, 0)
    assert cli.run_dress(cli.parse_config(json.dumps(minimal_config(tmp_path)))) == cli.EXIT_OK
    err = capsys.readouterr().err
    assert err.startswith("dressed 12 points (0 singular); max gated constraint residual ")
    assert "gate vacuous" not in err
    assert 0.0 < _reported(err, "max gated constraint residual") <= 1e-12

def test_run_dress_deterministic(tmp_path):
    doc = minimal_config(tmp_path)
    cli.run_dress(cli.parse_config(json.dumps(doc)))
    first = (tmp_path / "out.csv").read_bytes()
    cli.run_dress(cli.parse_config(json.dumps(doc)))
    assert (tmp_path / "out.csv").read_bytes() == first

def test_run_dress_zero_solitons_gives_seed(tmp_path):
    doc = minimal_config(tmp_path)
    doc["solitons"] = []
    doc["outputs"]["format"] = "json"
    doc["outputs"]["path"] = str(tmp_path / "out.json")
    code = cli.run_dress(cli.parse_config(json.dumps(doc)))
    assert code == cli.EXIT_OK
    payload = json.loads((tmp_path / "out.json").read_text())
    cols = payload["columns"]
    for row in payload["rows"]:
        rec = dict(zip(cols, row))
        assert rec["q_re_11"] == 1.0 and rec["q_re_12"] == 0.0
        assert rec["singular"] == 0.0

def test_run_dress_ring_crossing_reports_and_exits_zero(tmp_path):
    # grid straddling the ring locus: rows flagged/excluded, exit 0
    m, s = 1.0, 1.0
    alpha, delta, _ = __import__("vesture.targets", fromlist=["kerr_params"]).kerr_params(m, s)
    doc = minimal_config(tmp_path)
    doc["solitons"] = [{"omega": [0.0, s], "v": [[alpha, 0.0], [delta, 0.0]]}]
    doc["grid"] = {"coords": "weyl", "rho": [0.5, 1.8, 14], "z": [-0.8, 0.8, 15]}
    code = cli.run_dress(cli.parse_config(json.dumps(doc)))
    assert code == cli.EXIT_OK
    # and verify applies the same locus-margin gate to the stored file
    assert verify.verify_file(str(tmp_path / "out.csv")) == cli.EXIT_OK

def test_bl_grid_config(tmp_path):
    doc = minimal_config(tmp_path)
    doc["grid"] = {"coords": "boyer-lindquist", "r": [2.5, 5.0, 4],
                   "theta": [0.5, 2.5, 4], "params": {"m": 1.0, "s": 1.0}}
    code = cli.run_dress(cli.parse_config(json.dumps(doc)))
    assert code == cli.EXIT_OK
    header = (tmp_path / "out.csv").read_text().splitlines()[0].split(",")
    assert header[:4] == ["rho", "z", "r", "theta"]

def test_kerr_preset_and_verify(tmp_path):
    out = tmp_path / "kerr.csv"
    code = cli.main(["kerr", "--m", "1.0", "--s", "1.0",
                     "--r-count", "8", "--theta-count", "8", "--out", str(out)])
    assert code == cli.EXIT_OK
    header = out.read_text().splitlines()[0].split(",")
    assert "oracle_x" in header and "oracle_y" in header
    assert cli.main(["verify", str(out)]) == cli.EXIT_OK

def test_kerr_preset_flat_limit(tmp_path):
    out = tmp_path / "flat.csv"
    code = cli.main(["kerr", "--m", "0.0", "--s", "1.0",
                     "--r-count", "6", "--theta-count", "6", "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().splitlines()
    cols = lines[0].split(",")
    xi, yi = cols.index("x"), cols.index("y")
    for line in lines[1:]:
        row = line.split(",")
        assert abs(float(row[xi]) - 1.0) < 1e-12
        assert abs(float(row[yi])) < 1e-12

def test_kerr_preset_rejects_bad_params(tmp_path):
    assert cli.main(["kerr", "--m", "1.0", "--s", "-1.0",
                     "--out", str(tmp_path / "x.csv")]) == cli.EXIT_CONFIG

@pytest.mark.parametrize("m, s, bound", [(1.0, 1.0, 1e-14), (0.5, 2.0, 1e-14),
                                         (2.0, 0.3, 1e-12), (-1.0, 1.0, 1e-14)])
def test_kerr_check_and_preset_share_one_error(tmp_path, m, s, bound):
    # selftest's kerr-oracle check reads checks.Kerr's error, x + iy as one
    # complex number, over the non-singular points of the preset's default
    # 40x40 grid: 1.3e-13 on (2, 0.3), where x and y each relative to
    # itself read 6.7e-12 next to the ergosurface. A negative mass dresses.
    out = tmp_path / "k.csv"
    assert cli.main(["kerr", "--m", str(m), "--s", str(s), "--out", str(out)]) == cli.EXIT_OK
    lines = out.read_text().splitlines()
    col = {name: k for k, name in enumerate(lines[0].split(","))}
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    ernst = targets.ErnstValue11(rows[:, col["x"]], rows[:, col["y"]])
    oracle = targets.ErnstValue11(rows[:, col["oracle_x"]], rows[:, col["oracle_y"]])
    error = checks.Kerr(m, s).error(ernst, oracle)
    check = selftest.oracle_report(checks.Kerr, [(m, s)])
    assert check.singular == 0 and not rows[:, col["singular"]].any()
    assert check.error == error.max() <= bound

def test_kn_preset_reports_known_gap(tmp_path, capsys):
    out = tmp_path / "kn.csv"
    code = cli.main(["kerr-newman", "--m", "1.0", "--e", "0.5", "--s", "1.0",
                     "--r-count", "6", "--theta-count", "6", "--out", str(out)])
    # the dressed family carries the Kerr-Newman potentials at spin
    # a = -sqrt(m^2 + s^2 + e^2); the preset reports the measured error
    assert code == cli.EXIT_OK
    msg = capsys.readouterr().err
    worst = float(re.search(r"max relative Ernst error (\S+);", msg).group(1))
    assert worst <= 1e-9 and "max gated constraint residual" in msg
    # the columns of a dressed (2,1) sweep, and verify needs no --p/--q for
    # the 3x3 q they store
    cells = [f"{i}{j}" for i in range(1, 4) for j in range(1, 4)]
    assert out.read_text().splitlines()[0].split(",") == (
        ["rho", "z", "r", "theta"] + [f"q_{part}_{c}" for c in cells for part in ("re", "im")]
        + ["detA_re", "detA_im", "res_constraint", "res_hodge2", "singular",
           "E_re", "E_im", "Phi_re", "Phi_im",
           "oracle_E_re", "oracle_E_im", "oracle_Phi_re", "oracle_Phi_im"])
    assert cli.main(["verify", str(out)]) == cli.EXIT_OK
    err = capsys.readouterr().err
    assert err.startswith("verified 36 stored points")
    assert float(re.search(r"max deviation from stored values (\S+)", err).group(1)) <= 1e-15

#: the SU(2,1) config the CI workflow dresses: three solitons on a 9x9 Weyl lattice
CI_SU21 = {"target": {"p": 2, "q": 1}, "seed": "identity",
           "solitons": [{"omega": [0.0, 1.0], "v": [[1.0, 0.1], [0.3, 0.0], [0.2, 0.1]]},
                        {"omega": [0.7, 0.6], "v": [[0.2, 0.0], [1.1, 0.2], [0.3, 0.0]]},
                        {"omega": [-0.8, 1.4], "v": [[0.5, 0.1], [0.1, 0.0], [0.9, 0.0]]}],
           "grid": {"coords": "weyl", "rho": [2.0, 4.0, 9], "z": [-2.0, 2.0, 9]}}

#: a Boyer-Lindquist window across the Kerr(1, 1) ring: the gate excludes 204 of 900 points
KERR_RING = ["kerr", "--m", "1", "--s", "1", "--r-min", "1.5", "--r-max", "4", "--r-count", "30",
             "--theta-count", "30", "--out", "kring.csv"]

#: the CI workflow's Kerr(1, 1) lattice in Weyl coordinates across the ring
CI_WEYL = {"target": {"p": 1, "q": 1}, "seed": "identity",
           "solitons": [{"omega": [0.0, 1.0], "v": [[1.09868411346781, 0.0],
                                                    [0.4550898605622274, 0.0]]}],
           "grid": {"coords": "weyl", "rho": [0.7, 2.1, 32], "z": [-0.7, 0.7, 32]},
           "outputs": {"fields": ["q", "detA", "residuals"], "path": "weyl.csv",
                       "format": "csv"}}

@pytest.mark.parametrize("argv, out", [
    (["kerr", "--m", "1", "--s", "1", "--out", "k.csv"], "k.csv"),
    (["kerr-newman", "--m", "1", "--e", "0.5", "--s", "1", "--format", "json",
      "--out", "kn.json"], "kn.json"),
    (["dress", "-c", "su21.json"], "su21-out.json"),
    (KERR_RING, "kring.csv"),
], ids=["kerr", "kerr-newman", "su21", "kerr-ring"])
def test_verify_gates_the_dress_summarys_residual(tmp_path, capsys, monkeypatch, argv, out):
    # verify recomputes the largest membership component over the gated
    # points, as the sweep's summary does, to the last printed digit
    monkeypatch.chdir(tmp_path)
    doc = {**CI_SU21, "outputs": {"fields": ["q", "detA", "residuals", "ernst"],
                                  "path": "su21-out.json", "format": "json"}}
    (tmp_path / "su21.json").write_text(json.dumps(doc))
    assert cli.main(argv) == cli.EXIT_OK
    dressed = re.search(r"max gated constraint residual (\S+);", capsys.readouterr().err)
    assert cli.main(["verify", out]) == cli.EXIT_OK
    err = capsys.readouterr().err
    assert re.search(r"max recomputed constraint residual (\S+) gated", err).group(1) \
        == dressed.group(1)
    assert float(re.search(r"max deviation from stored values (\S+)", err).group(1)) == 0.0

@pytest.mark.parametrize("m, e", [(1.0, 0.0), (0.0, 0.0), (0.0, 0.5), (-1.0, 0.5), (-1.0, 0.0)])
def test_kn_preset_corner_parameters(tmp_path, capsys, m, e):
    # uncharged, flat (m = e = 0, dressed by the limit of the realizing
    # vector), massless and negative-mass families all pass the gate
    out = tmp_path / "kn.csv"
    code = cli.main(["kerr-newman", "--m", str(m), "--e", str(e), "--s", "1", "--r-count", "6",
                     "--theta-count", "6", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert "Warning" not in capsys.readouterr().err
    lines = out.read_text().splitlines()
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    assert not rows[:, lines[0].split(",").index("singular")].any()

SMALL_GRID = ["--r-min", "3", "--r-max", "5", "--r-count", "2", "--theta-count", "2"]

@pytest.mark.parametrize("argv, message", [
    (["kerr", "--m", "1", "--s", "1", "--r-count", "0"],
     "grid.r needs count >= 1 and finite min <= max"),
    (["kerr", "--m", "1", "--s", "1", "--theta-min", "-1"],
     "grid.theta must lie strictly inside (0, pi)"),
    (["kerr-newman", "--m", "1", "--e", "0.5", "--s", "1", "--theta-max", "4"],
     "grid.theta must lie strictly inside (0, pi)"),
    (["kerr", "--m", "1", "--s", "1", "--r-min", "5", "--r-max", "2"],
     "grid.r needs count >= 1 and finite min <= max"),
    # non-finite family parameters, and a chart that overflows, exit 1 with
    # one line: no traceback and no numpy warning
    (["kerr", "--m", "nan", "--s", "1", *SMALL_GRID],
     "Boyer-Lindquist parameters must be finite, got m=nan, s=1.0"),
    (["kerr", "--m", "inf", "--s", "1", *SMALL_GRID],
     "Boyer-Lindquist parameters must be finite, got m=inf, s=1.0"),
    (["kerr", "--m", "1", "--s", "inf", *SMALL_GRID],
     "Boyer-Lindquist parameters must be finite, got m=1.0, s=inf"),
    # m^2 overflows: the family refuses it, as Kerr-Newman refuses e^2
    (["kerr", "--m", "1e200", "--s", "1", *SMALL_GRID],
     "Kerr parameters need m^2 + s^2 finite, got m=1e+200, s=1.0"),
    # the charge is no chart parameter: the family refuses a non-finite one
    (["kerr-newman", "--m", "1", "--e", "nan", "--s", "1", *SMALL_GRID],
     "Kerr-Newman parameters need m^2 + s^2 + e^2 finite, got m=1.0, s=1.0, e=nan"),
    (["kerr-newman", "--m", "1", "--e", "inf", "--s", "1", *SMALL_GRID],
     "Kerr-Newman parameters need m^2 + s^2 + e^2 finite, got m=1.0, s=1.0, e=inf"),
    # huge finite parameters: a default window that no longer resolves, and a
    # charge whose square overflows
    (["kerr", "--m", "1e150", "--s", "1", "--r-count", "3", "--theta-count", "3"],
     "grid.r has 3 points but min = max = 1e+150"),
    (["kerr-newman", "--m", "1", "--e", "1e200", "--s", "1", "--r-count", "3",
      "--theta-count", "3"],
     "Kerr-Newman parameters need m^2 + s^2 + e^2 finite, got m=1.0, s=1.0, e=1e+200"),
    # a window above the lattice bound, refused before any array is allocated
    (["kerr", "--m", "1", "--s", "1", "--r-count", str(10**30)],
     f"grid.r has {10**30} points, more than {cli.MAX_COUNT}"),
    (["kerr-newman", "--m", "1", "--e", "0.5", "--s", "1",
      "--theta-count", str(cli.MAX_COUNT + 1)],
     f"grid.theta has {cli.MAX_COUNT + 1} points, more than {cli.MAX_COUNT}"),
])
def test_preset_grid_arguments_are_validated(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()

def test_presets_leave_the_grid_unchanged(tmp_path):
    # one grid on the (m, s) = (1, 1) chart serves both families
    grid = cli.GridSpec((2.5, 6.0, 3), (0.5, 2.5, 3), targets.BLParams(m=1.0, s=1.0))
    before = repr(grid)
    assert cli.run_preset(checks.Kerr(1.0, 1.0), grid, str(tmp_path / "k.csv")) == cli.EXIT_OK
    assert cli.run_preset(checks.KerrNewman(1.0, 0.5, 1.0), grid,
                          str(tmp_path / "kn.csv")) == cli.EXIT_OK
    assert repr(grid) == before

@pytest.mark.parametrize("argv, r_min", [
    (["kerr", "--m", "1", "--s", "1"], "0.2"),
    (["kerr", "--m", "1", "--s", "1"], "1"),
    (["kerr-newman", "--m", "1", "--e", "0.5", "--s", "1"], "0.2"),
    (["dress", "-c", "bl.json"], "0.2"),
], ids=["kerr", "kerr-from-m", "kerr-newman", "config"])
def test_a_window_reaching_r_equal_m_is_refused(tmp_path, capsys, monkeypatch, argv, r_min):
    # the chart sends (r, theta) and (2m - r, pi - theta) to one Weyl point,
    # which has one dressed map, that of r > m: on the Kerr window from
    # r = 0.2, 480 rows with r < 1 missed the closed form by up to 1.94
    # relative, and on a 9x9 one from r = m the 4 rows at r = m with
    # theta < pi/2 by up to 1.99, outside the gate, so that run exited 0
    monkeypatch.chdir(tmp_path)
    doc = minimal_config(tmp_path, grid={
        "coords": "boyer-lindquist", "r": [0.2, 3.0, 40], "theta": [0.4, 2.7, 40],
        "params": {"m": 1.0, "s": 1.0}})
    (tmp_path / "bl.json").write_text(json.dumps(doc))
    window = [] if argv[0] == "dress" else [  # the config writes out.csv
        "--r-min", r_min, "--r-max", "3", "--r-count", "40", "--theta-count", "40",
        "--out", "out.csv"]
    assert cli.main(argv + window) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"grid.r reaches {float(r_min)!r}, not above m = 1.0, where the Boyer-Lindquist chart "
        "folds: (r, theta) and (2m - r, pi - theta) are one Weyl point\n")
    assert not (tmp_path / "out.csv").exists()

def test_a_window_from_just_above_r_equal_m_matches_the_closed_form(tmp_path):
    # every row, gated or not, next to the fold included
    out = tmp_path / "k.csv"
    assert cli.main(["kerr", "--m", "1", "--s", "1", "--r-min", "1.0000001", "--r-max", "3",
                     "--r-count", "30", "--theta-count", "30", "--out", str(out)]) == cli.EXIT_OK
    lines = out.read_text().splitlines()
    col = {name: k for k, name in enumerate(lines[0].split(","))}
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    error = checks.Kerr(1.0, 1.0).error(
        targets.ErnstValue11(rows[:, col["x"]], rows[:, col["y"]]),
        targets.ErnstValue11(rows[:, col["oracle_x"]], rows[:, col["oracle_y"]]))
    assert not rows[:, col["singular"]].any() and error.max() <= 1e-13

def _fresh_process(args: list[str], cwd) -> subprocess.CompletedProcess:
    """Python run with ``args`` in a fresh interpreter that imports this
    vesture package, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          cwd=cwd)

@pytest.mark.parametrize("argv", [
    ["kerr", "--m", "1", "--s", "1", "--r-count", "4", "--theta-count", "4"],
    ["kerr-newman", "--m", "1", "--e", "0.5", "--s", "1", "--r-count", "4",
     "--theta-count", "4"],
    ["dress", "-c", "config.json"],
], ids=["kerr", "kerr-newman", "dress"])
def test_a_sweep_command_imports_no_code_it_does_not_run(tmp_path, argv):
    # a sweep compiles neither verify's reader nor selftest, and imports
    # neither csv nor dataclasses (counted past what numpy, argparse and
    # json import themselves)
    (tmp_path / "config.json").write_text(json.dumps(minimal_config(tmp_path)))
    code = ("import argparse, json, sys, numpy; before = set(sys.modules); "
            "import vesture.cli as cli; rc = cli.main(sys.argv[1:]); "
            "print(rc, [m for m in ('dataclasses', 'csv', 'vesture.verify', 'vesture.selftest') "
            "if m in set(sys.modules) - before])")
    out = [] if argv[0] == "dress" else ["--out", "out.csv"]  # the config writes out.csv
    run = _fresh_process(["-c", code, *argv, *out], tmp_path)
    assert run.stdout.splitlines()[-1] == "0 []", run.stderr

@pytest.mark.parametrize("argv", [["verify", "out.csv"], ["selftest"]], ids=["verify", "selftest"])
def test_verify_and_selftest_run_as_python_m_with_one_cli_module(tmp_path, argv):
    # run as `python -m vesture.cli`, the command's module is imported on
    # demand and does not import vesture.cli, which would compile cli a
    # second time next to __main__
    assert cli.main(["kerr", "--m", "1", "--s", "1", "--r-count", "4", "--theta-count", "4",
                     "--out", str(tmp_path / "out.csv")]) == cli.EXIT_OK
    code = ("import runpy, sys\n"
            "try:\n    runpy.run_module('vesture.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n    print(exc.code, 'vesture.cli' in sys.modules)")
    run = _fresh_process(["-c", code, *argv], tmp_path)
    assert run.stdout.splitlines()[-1] == "0 False", run.stderr

def test_kerr_preset_extracts_each_ernst_value_once(tmp_path, monkeypatch):
    # one stacked extraction over the 12 points
    shapes = []
    ernst = cli.targets.ernst_g11
    monkeypatch.setattr(cli.targets, "ernst_g11", lambda q: shapes.append(q.shape) or ernst(q))
    code = cli.main(["kerr", "--m", "1.0", "--s", "1.0", "--r-count", "3",
                     "--theta-count", "4", "--out", str(tmp_path / "k.csv")])
    assert code == cli.EXIT_OK and shapes == [(12, 2, 2)]

def test_kerr_preset_on_an_axis_shorter_than_the_margin(tmp_path, capsys):
    out = tmp_path / "k.csv"
    code = cli.main(["kerr", "--m", "1", "--s", "1", "--r-count", "2", "--theta-count", "8",
                     "--out", str(out)])
    assert code == cli.EXIT_OK and len(out.read_text().splitlines()) == 1 + 16
    assert "gate vacuous" not in capsys.readouterr().err

def test_vacuous_gate_is_reported(tmp_path, capsys, monkeypatch):
    # every |det A| is below the singular threshold: all points are flagged
    cfg = cli.parse_config(json.dumps(minimal_config(tmp_path)))
    monkeypatch.setattr(dressing, "SINGULAR_TOL", 1e300)
    assert cli.run_dress(cfg) == cli.EXIT_OK
    assert capsys.readouterr().err == (
        "dressed 12 points (12 singular); max gated constraint residual 0.000e+00; "
        "max gated chi residuals 0.000e+00 (reality), 0.000e+00 (involution); gate vacuous: all 12 points singular or within 3 cells of the singular locus\n")

EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-310, 1e308,
               -1.7976931348623157e308, 1 / 3, 1.0, -2.5]

def test_csv_rows_match_csv_writer(tmp_path):
    rows = np.array(EDGE_VALUES).reshape(4, 3)
    columns = ["a", "b", "c"]
    cli._write_output(str(tmp_path / "o.csv"), "csv", columns, rows, {})
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(columns)
    for row in rows.tolist():
        writer.writerow(f"{v:.17g}" for v in row)
    assert (tmp_path / "o.csv").read_bytes() == expected.getvalue().encode()

def test_json_output_matches_the_streaming_encoder(tmp_path):
    rows = np.array(EDGE_VALUES).reshape(6, 2)
    doc = {"meta": {"preset": "kerr", "m": 1.0}, "columns": ["a", "b"], "rows": rows.tolist()}
    cli._write_output(str(tmp_path / "o.json"), "json", doc["columns"], rows, doc["meta"])
    expected = io.StringIO()
    json.dump(doc, expected)
    assert (tmp_path / "o.json").read_text() == expected.getvalue() + "\n"

@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_does_not_guess_the_signature_for_n4(tmp_path, capsys, fmt):
    # a 4x4 q fixes no signature: a JSON payload stores its target, and a
    # config refuses to write one as CSV; verify takes no signature option
    path = str(tmp_path / "o22.json")
    doc = minimal_config(tmp_path, target={"p": 2, "q": 2},
                         solitons=[{"omega": [0.3, 1.1],
                                    "v": [[1.0, 0.0], [0.3, 0.2], [0.5, 0.0], [0.2, -0.1]]}],
                         grid={"coords": "weyl", "rho": [2.0, 3.0, 5], "z": [-0.5, 0.5, 5]})
    doc["outputs"] = {"fields": ["q", "detA", "residuals"], "path": path, "format": fmt}
    if fmt == "csv":
        with pytest.raises(ConfigError) as err:
            cli.parse_config(json.dumps(doc))
        assert str(err.value) == ('invalid config:\n  - outputs.format "csv" stores no target: '
                                  'write the (2,2) target as "json"')
        # the same rows as a CSV written by other means
        doc["outputs"]["format"] = "json"
        assert cli.run_dress(cli.parse_config(json.dumps(doc))) == cli.EXIT_OK
        cols, rows, _ = verify._load_table(path)
        path = str(tmp_path / "o22.csv")
        cli._write_output(path, "csv", cols, rows, {})
        capsys.readouterr()
        assert cli.main(["verify", path]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == ("4x4 q columns do not fix the signature: write the "
                                           "payload as JSON, which stores the target\n")
    else:
        assert cli.run_dress(cli.parse_config(json.dumps(doc))) == cli.EXIT_OK
        assert cli.main(["verify", path]) == cli.EXIT_OK
        assert "constraint residual" in capsys.readouterr().err
        assert cli.main(["verify", path, "--p", "2", "--q", "2"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: vesture ")
        assert err.endswith("error: unrecognized arguments: --p 2 --q 2\n")

def _vectors(n: int, count: int) -> list[list[list[float]]]:
    """count generic length-n vectors as [re, im] pairs."""
    return [[[1.0 + 0.2 * k - 0.1 * i, 0.05 * (i + k) * (-1) ** i] for i in range(n)]
            for k in range(count)]

_GATED = re.compile(r"max (?:gated|recomputed) constraint residual ([^;\s]+)")

@pytest.mark.parametrize("target, fmt", [
    ((1, 1), "json"), ((2, 1), "json"), ((1, 2), "json"), ((2, 2), "json"), ((3, 2), "json"),
    ((1, 1), "csv"), ((2, 1), "csv"),
])
def test_every_payload_verifies_from_its_file_alone(tmp_path, capsys, target, fmt):
    # with no option, verify reaches the exit code and the gated maximum of
    # the dress that wrote the payload
    p, q = target
    path = tmp_path / f"out.{fmt}"
    doc = minimal_config(tmp_path, target={"p": p, "q": q},
                         solitons=[{"omega": w, "v": v}
                                   for w, v in zip([[0.0, 1.0], [0.4, 1.3]], _vectors(p + q, 2))],
                         grid={"coords": "weyl", "rho": [1.5, 2.5, 6], "z": [-0.5, 0.5, 6]})
    doc["outputs"] = {"fields": ["q", "residuals"], "path": str(path), "format": fmt}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code = cli.main(["dress", "-c", str(config)])
    dressed = _GATED.findall(capsys.readouterr().err)
    assert cli.main(["verify", str(path)]) == code
    verified = _GATED.findall(capsys.readouterr().err)
    assert len(dressed) == len(verified) == 1 and dressed == verified

# the fields leave out ernst, which only (1,1) and (2,1) have
@pytest.mark.parametrize("target, outputs, message", [
    # verify reads a CSV's 3x3 q as (2,1), whose metric is not -1 times
    # that of (1,2), so a (1,2) payload is written as JSON too
    ((1, 2), {"fields": ["q"]}, 'outputs.format "csv" stores no target: '
                                'write the (1,2) target as "json"'),
    ((2, 2), {"fields": ["q"]}, 'outputs.format "csv" stores no target: '
                                'write the (2,2) target as "json"'),
    ((3, 2), {"fields": ["q"]}, 'outputs.format "csv" stores no target: '
                                'write the (3,2) target as "json"'),
    # the oracle columns are the presets' own; to a config it is no field
    ((1, 1), {"fields": ["q", "oracle"]}, "outputs.fields: unknown field 'oracle'"),
])
def test_a_payload_verify_could_not_read_is_refused(tmp_path, capsys, target, outputs, message):
    p, q = target
    doc = minimal_config(tmp_path, target={"p": p, "q": q},
                         solitons=[{"omega": [0.0, 1.0], "v": _vectors(p + q, 1)[0]}])
    doc["outputs"].update(outputs)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["dress", "-c", str(config)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"invalid config:\n  - {message}\n"
    assert not (tmp_path / "out.csv").exists()

def test_verify_rejects_missing_q(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("rho,z\n1.0,0.0\n")
    assert cli.main(["verify", str(p)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "file has no q columns to verify\n"

def test_verify_detects_corruption(tmp_path):
    out = tmp_path / "kerr.csv"
    cli.main(["kerr", "--m", "1.0", "--s", "1.0",
              "--r-count", "5", "--theta-count", "5", "--out", str(out)])
    lines = out.read_text().splitlines()
    cols = lines[0].split(",")
    qi = cols.index("q_re_11")
    row = lines[1].split(",")
    row[qi] = str(float(row[qi]) + 0.1)
    lines[1] = ",".join(row)
    out.write_text("\n".join(lines) + "\n")
    assert verify.verify_file(str(out)) == cli.EXIT_GATE

@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_refuses_a_repeated_column(tmp_path, capsys, fmt):
    # a corrupted q fails the gate; with a second, all-ones singular column,
    # which marks every row singular where the last of two names wins, the
    # payload is refused instead
    out = tmp_path / f"kerr.{fmt}"
    code = cli.main(["kerr", "--m", "1", "--s", "1", "--format", fmt, "--out", str(out)])
    assert code == cli.EXIT_OK
    cols, rows, _ = verify._load_table(str(out))
    meta = json.loads(out.read_text())["meta"] if fmt == "json" else {}
    rows[8, cols.index("q_re_11")] *= 1.001
    cli._write_output(str(out), fmt, cols, rows, meta)
    assert cli.main(["verify", str(out)]) == cli.EXIT_GATE
    cli._write_output(str(out), fmt, cols + ["singular"],
                      np.column_stack([rows, np.ones(len(rows))]), meta)
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"{out}: repeated column names singular\n"

@pytest.mark.parametrize("target", [{"p": 1.7, "q": 1}, {"p": True, "q": 1}, {"p": 1, "q": "1"}])
def test_verify_refuses_a_stored_target_that_is_not_two_integers(tmp_path, capsys, target):
    out = tmp_path / "kerr.json"
    assert cli.main(["kerr", "--m", "1", "--s", "1", "--r-count", "4", "--theta-count", "4",
                     "--format", "json", "--out", str(out)]) == cli.EXIT_OK
    doc = json.loads(out.read_text())
    doc["meta"]["target"] = target
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"{out}: stored target {target} is not two integers\n"

@pytest.mark.parametrize("soliton, message", [
    ({"omega": [math.nan, 1.0], "v": [[1.2, 0.0], [0.5, 0.0]]}, "pole 0 is not finite ((nan+1j))"),
    ({"omega": [0.0, math.inf], "v": [[1.2, 0.0], [0.5, 0.0]]}, "pole 0 is not finite (infj)"),
    ({"omega": [0.0, 1.0], "v": [[math.nan, 0.0], [0.4, 0.0]]}, "vector 0 has non-finite entries"),
    ({"omega": [0.0, 1.0], "v": [[1.2, 0.0], [0.5, -math.inf]]},
     "vector 0 has non-finite entries"),
])
def test_a_non_finite_pole_or_vector_is_a_config_error(tmp_path, capsys, soliton, message):
    # json.loads reads NaN and Infinity; the config refuses them before any
    # point is dressed, so no numpy warning is raised (filterwarnings = error)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(tmp_path, solitons=[soliton])))
    assert cli.main(["dress", "-c", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"invalid config:\n  - {message}\n"
    assert not (tmp_path / "out.csv").exists()

def test_one_membership_constant_gates_the_seed_the_dress_and_verify(tmp_path, monkeypatch):
    # the thresholds are read at call time, so one patch reaches every gate
    boosted = [[[math.cosh(0.7), 0.0], [math.sinh(0.7), 0.0]],
               [[math.sinh(0.7), 0.0], [math.cosh(0.7), 0.0]]]
    doc = minimal_config(tmp_path, seed={"matrix": boosted})
    assert cli.run_dress(cli.parse_config(json.dumps(doc))) == cli.EXIT_OK
    cfg = cli.parse_config(json.dumps(minimal_config(tmp_path)))
    monkeypatch.setattr(algebra, "CONSTRAINT_TOL", 0.0)
    with pytest.raises(ConfigError, match="constant seed violates the membership constraints"):
        cli.parse_config(json.dumps(doc))
    assert cli.run_dress(cfg) == cli.EXIT_GATE
    assert cli.main(["verify", str(tmp_path / "out.csv")]) == cli.EXIT_GATE

def test_json_output_roundtrip(tmp_path):
    out = tmp_path / "kerr.json"
    code = cli.main(["kerr", "--m", "1.0", "--s", "1.0", "--r-count", "5",
                     "--theta-count", "5", "--out", str(out), "--format", "json"])
    assert code == cli.EXIT_OK
    assert verify.verify_file(str(out)) == cli.EXIT_OK
    meta = json.loads(out.read_text())["meta"]
    assert meta["preset"] == "kerr" and meta["spin"] == math.sqrt(2.0)

def test_dress_g21_config(tmp_path):
    doc = {
        "target": {"p": 2, "q": 1},
        "seed": "identity",
        "solitons": [{"omega": [0.0, 1.0],
                      "v": [[1.1, 0.0], [0.4, 0.2], [0.8, 0.0]]}],
        "grid": {"coords": "boyer-lindquist", "r": [2.5, 6.0, 5],
                 "theta": [0.6, 2.4, 5], "params": {"m": 1.0, "s": 1.0}},
        "outputs": {"fields": ["q", "detA", "residuals", "ernst"],
                    "path": str(tmp_path / "g21.csv"), "format": "csv"},
    }
    code = cli.run_dress(cli.parse_config(json.dumps(doc)))
    assert code == cli.EXIT_OK
    header = (tmp_path / "g21.csv").read_text().splitlines()[0].split(",")
    assert "q_re_33" in header
    assert header[-4:] == ["E_re", "E_im", "Phi_re", "Phi_im"]

def test_verify_reports_a_vacuous_gate_without_warnings(tmp_path, capsys):
    # tight thresholds flag or exclude every point of the Kerr (1, 1) grid; the
    # det A threshold flags a band across the grid four cells wide, so no
    # finite-difference residual is finite either
    alpha, delta, _ = targets.kerr_params(1.0, 1.0)
    doc = minimal_config(tmp_path,
                         solitons=[{"omega": [0.0, 1.0], "v": [[alpha, 0.0], [delta, 0.0]]}],
                         grid={"coords": "weyl", "rho": [1.0, 2.0, 6], "z": [-1.0, 1.0, 6]})
    doc["outputs"]["fields"] = ["q", "detA", "residuals"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dressing, "SINGULAR_TOL", 0.2)
        patch.setattr(algebra, "CONDITION_CAP", 30)
        assert cli.run_dress(cli.parse_config(json.dumps(doc))) == cli.EXIT_OK
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["verify", str(tmp_path / "out.csv")]) == cli.EXIT_OK
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    # 12 of the 36 points are verified, the others singular; all 12 are excluded
    assert "verified 12 stored points:" in err
    assert "(12 rows near the singular locus excluded from the gate); gate vacuous: all 36 " \
        "points singular or within 3 cells of the singular locus;" in err
    assert "recomputed finite-difference residuals: no finite value;" in err

def test_verify_recomputes_hodge_on_weyl_grid(tmp_path, capsys):
    doc = minimal_config(tmp_path)
    doc["grid"] = {"coords": "weyl", "rho": [1.0, 2.0, 6], "z": [-0.5, 0.5, 6]}
    cli.run_dress(cli.parse_config(json.dumps(doc)))
    capsys.readouterr()
    assert verify.verify_file(str(tmp_path / "out.csv")) == cli.EXIT_OK
    msg = capsys.readouterr().err
    assert "recomputed finite-difference residuals" in msg
    assert "max deviation from stored values 0.000e+00" in msg

def _curvature(field) -> np.ndarray:
    """||d_rho W_z - d_z W_rho + [W_rho, W_z]|| of W = -(dq) q^-1, the
    curvature residual that Weyl payloads stored as res_hodge1 before the
    column was dropped (it vanishes for every smooth map)."""
    grad, hole = verification._grad, ~field.mask[..., None, None]
    q = np.where(hole, np.nan, field.values)
    qinv = np.where(hole, np.nan, np.linalg.inv(np.where(hole, np.eye(q.shape[-1]), q)))
    w_rho, w_z = -grad(q, field.h_rho, 0) @ qinv, -grad(q, field.h_z, 1) @ qinv
    curl = grad(w_z, field.h_rho, 0) - grad(w_rho, field.h_z, 1) + w_rho @ w_z - w_z @ w_rho
    return np.linalg.norm(curl, axis=(-2, -1)).ravel()

@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_reads_a_payload_with_the_dropped_curvature_column(tmp_path, capsys, fmt):
    # columns are looked up by name: a Weyl payload with a res_hodge1
    # column before res_hodge2, as older files carry it, verifies as the
    # same payload without it does; the grid gates every point, so the
    # finite-difference median is formed
    doc = minimal_config(tmp_path, grid={"coords": "weyl", "rho": [3.0, 4.0, 6],
                                         "z": [-0.5, 0.5, 6]})
    new, old = tmp_path / f"new.{fmt}", tmp_path / f"old.{fmt}"
    doc["outputs"].update(path=str(new), format=fmt)
    cfg = cli.parse_config(json.dumps(doc))
    assert cli.run_dress(cfg) == cli.EXIT_OK
    curvature = _curvature(_dressed_field(cfg)[1])
    columns, rows, _ = verify._load_table(str(new))
    meta = json.loads(new.read_text())["meta"] if fmt == "json" else {}
    k = columns.index("res_hodge2")
    cli._write_output(str(old), fmt, columns[:k] + ["res_hodge1"] + columns[k:],
                      np.insert(rows, k, curvature, axis=1), meta)
    capsys.readouterr()
    assert cli.main(["verify", str(new)]) == cli.EXIT_OK
    want = capsys.readouterr().err
    assert cli.main(["verify", str(old)]) == cli.EXIT_OK
    got = capsys.readouterr().err
    assert got == want
    assert got.startswith("verified 36 stored points: max recomputed constraint residual ")
    assert re.search(r"\nrecomputed finite-difference residuals: median \S+; "
                     r"max deviation from stored values 0\.000e\+00\n$", got)

def _nan_at_first_point(ernst):
    def faulty(q):
        e = ernst(q)
        x = e.x.copy()
        x.flat[0] = math.nan
        return e._replace(x=x)
    return faulty

def _with_vectors(cfg, vectors):
    return dressing.SolitonConfig(cfg.signature, cfg.poles, vectors, cfg.seed)

# each fault, injected into the library, must fail the suite's gate, which
# selftest and the acceptance suite share: (id, suite, module, name, fault)
FAULTS = [
    # flip the sign of the second rational coefficient
    ("spectral-identities", "spectral-identities", spectral, "ab",
     lambda ab: lambda lam, x: (ab(lam, x)[0], -ab(lam, x)[1])),
    # a relative error of 1e-9 in the connection
    ("spectral-identities-omega", "spectral-identities", spectral, "omega_forms",
     lambda omega: lambda lam, x: tuple(v * (1 + 1e-9) for v in omega(lam, x))),
    # sigma loses its sign flip
    ("chi-audits", "chi-audits", algebra, "sigma", lambda sigma: lambda m, g: m),
    # move the Kerr vector's first component off the Kerr family
    ("kerr-oracle", "kerr-oracle", targets, "kerr_params",
     lambda params: lambda m, s: (params(m, s)[0] * (1 + 1e-6), *params(m, s)[1:])),
    # a NaN Ernst value at a regular point
    ("kerr-oracle-nan", "kerr-oracle", targets, "ernst_g11", _nan_at_first_point),
    # move the Kerr-Newman vector's first component off the family
    ("kn-oracle", "kn-oracle", targets, "kn_config",
     lambda config: lambda m, e, s: _with_vectors(
         config(m, e, s), (config(m, e, s).vectors[0] * [1 + 1e-6, 1, 1],))),
    # every point singular: an oracle with nothing to compare passes no gate
    ("kerr-oracle-singular", "kerr-oracle", dressing, "SINGULAR_TOL", lambda tol: 1e300),
    ("kn-oracle-singular", "kn-oracle", dressing, "SINGULAR_TOL", lambda tol: 1e300),
    ("flat-limit-singular", "flat-limit", dressing, "SINGULAR_TOL", lambda tol: 1e300),
]

@pytest.mark.parametrize("suite, module, name, fault", [f[1:] for f in FAULTS],
                         ids=[f[0] for f in FAULTS])
def test_injected_fault_fails_both_gates(monkeypatch, suite, module, name, fault):
    check, gate = next((c, g) for n, c, g in selftest.SELFTEST_SUITES if n == suite)
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    assert not gate(check())[0]
    monkeypatch.undo()
    assert gate(check())[0]

@pytest.mark.parametrize("content, message", [
    ("", "empty file"),
    ("\n\n\n", "no column names in the header"),
    ("rho,z,q_re_11\n1.0,0.0,abc\n", "not a table of numbers"),
    ("rho,z,q_re_11\n1.0,0.0,1.0\n1.0,0.5\n", "row 2 has 2 cells for 3 columns"),
    ('{"columns": ["rho", "z"]}', "JSON output has no 'rows' entry"),
    ('{"rows": [[1.0, 0.0]]}', "JSON output has no 'columns' entry"),
    ('{"columns": ["rho", "z"], "rows": [[1.0, null]]}', "not a table of numbers"),
    ("\xff\xfe", "not a table of numbers"),
    ("rho,z,q_re_11\n1.0,0.0,1.0\n\n1.0,0.5,1.0\n", "row 2 has 0 cells for 3 columns"),
    ("rho,z,q_re_11,q_im_11,q_re_12,q_im_12,q_re_21,q_im_21,q_re_22,q_im_22\n",
     "no data rows"),
    # the cell counts win over what np.loadtxt says, which skips blank
    # lines and warns on input without data
    ("rho,z,q_re_11\n1.0,0.0,abc\n1.0,0.5\n", "row 2 has 2 cells for 3 columns"),
    ("rho,z,q_re_11\n1.0,0.0,1.0\n   \n", "row 2 has 1 cells for 3 columns"),
    ("rho,z,q_re_11\n1.0,0.0\n1.0,0.5\n", "row 1 has 2 cells for 3 columns"),
    ("rho,z,q_re_11\n\n", "row 1 has 0 cells for 3 columns"),
    ("rho,z,q_re_11", "no data rows"),
    # cells float() accepts but the %.17g writer never emits
    ("rho,z,q_re_11\n1.0,0.0,1_000\n", "not a table of numbers"),
    ("rho,z,q_re_11\n1.0,0.0,\uff11\n".encode("utf-8").decode("latin-1"),
     "not a table of numbers"),
    # a 1x1 q has no SU(p,q) target
    ("rho,z,q_re_11,q_im_11\n1.0,0.0,1.0,0.0\n", "1x1 q data has no SU(p,q) target"),
    # JSON cells float() accepts but the writer never emits: a row that is a
    # string of ten digits for a 2x2 table, a numeric string, a boolean
    (json.dumps({"columns": ["rho", "z"] + [f"q_{part}_{c}" for c in ("11", "12", "21", "22")
                                            for part in ("re", "im")],
                 "rows": ["1010000001"]}), "not a table of numbers"),
    ('{"columns": ["rho", "z"], "rows": [["1.5", 0.0]]}', "not a table of numbers"),
    ('{"columns": ["rho", "z"], "rows": [[true, 0.0]]}', "not a table of numbers"),
    # column names that are not strings
    ('{"columns": [1, 2], "rows": [[1.0, 0.0]]}', "columns is not a list of strings"),
    ('{"columns": "rho", "rows": [[1.0, 0.0, 0.0]]}', "columns is not a list of strings"),
    # a meta or a stored target that is not an object, or a target without q
    ('{"columns": ["rho", "z"], "rows": [[1.0, 2.0]], "meta": []}',
     "meta is not a JSON object"),
    ('{"columns": ["rho", "z"], "rows": [[1.0, 2.0]], "meta": {"target": [2, 1]}}',
     "meta.target [2, 1] is not an object with entries p and q"),
    ('{"columns": ["rho", "z"], "rows": [[1.0, 2.0]], "meta": {"target": {"p": 2}}}',
     "meta.target {'p': 2} is not an object with entries p and q"),
])
def test_verify_rejects_unreadable_file(tmp_path, capsys, content, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(content.encode("latin-1"))
    assert cli.main(["verify", str(path)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err

_CELLS = st.one_of(st.floats(allow_nan=False), st.just(math.nan),
                   st.sampled_from([math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072e-308]))

@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=st.integers(1, 6).flatmap(lambda c: st.lists(
    st.lists(_CELLS, min_size=c, max_size=c), min_size=1, max_size=6)))
@example(table=[EDGE_VALUES])
@example(table=[[v] for v in EDGE_VALUES])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_written_table_reads_back_bit_for_bit(tmp_path, fmt, table):
    rows = np.array(table, dtype=float)
    columns = [f"c{k}" for k in range(rows.shape[1])]
    path = str(tmp_path / f"t.{fmt}")
    cli._write_output(path, fmt, columns, rows, {})
    cols, read, _ = verify._load_table(path)
    assert cols == columns and read.shape == rows.shape
    assert np.array_equal(read.view(np.uint64), rows.view(np.uint64))

def test_verify_says_why_it_skips_finite_differences(tmp_path, capsys):
    doc = minimal_config(tmp_path)
    doc["grid"] = {"coords": "weyl", "rho": [1.0, 2.0, 2], "z": [-0.5, 0.5, 4]}
    cli.run_dress(cli.parse_config(json.dumps(doc)))
    capsys.readouterr()
    assert verify.verify_file(str(tmp_path / "out.csv")) == cli.EXIT_OK
    assert capsys.readouterr().err.endswith(
        "\nfinite-difference residuals not recomputed: "
        "hodge residual needs at least 3 grid points per axis\n")

def test_verify_says_why_a_boyer_lindquist_payload_has_no_finite_differences(tmp_path, capsys):
    # the rows are read onto their (r, theta) lattice, where no (rho, z)
    # stencil is formed
    out = tmp_path / "kerr.csv"
    assert cli.main(["kerr", "--m", "1.0", "--s", "1.0", "--r-count", "4",
                     "--theta-count", "3", "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == cli.EXIT_OK
    err = capsys.readouterr().err
    assert err.startswith("verified 12 stored points")
    assert err.endswith("\nfinite-difference residuals not recomputed: the points form an "
                        "(r, theta) lattice, not a (rho, z) one\n")

def test_verify_takes_the_finite_difference_median_over_the_gated_points(tmp_path, capsys,
                                                                          monkeypatch):
    # on CI's Weyl lattice the 614 gated points read a median of 1.458; over
    # every finite point, the rows next to the ring included, it is 6.941
    monkeypatch.chdir(tmp_path)
    (tmp_path / "weyl.json").write_text(json.dumps(CI_WEYL))
    assert cli.main(["dress", "-c", "weyl.json"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["verify", "weyl.csv"]) == cli.EXIT_OK
    assert capsys.readouterr().err.endswith(
        " (410 rows near the singular locus excluded from the gate); max deviation from stored "
        "values 0.000e+00\nrecomputed finite-difference residuals: median 1.458e+00; "
        "max deviation from stored values 0.000e+00\n")

@pytest.mark.parametrize("fields", [["q", "detA", "residuals"], ["q", "residuals"]],
                         ids=["detA", "no-detA"])
def test_dress_and_verify_gate_the_same_points(tmp_path, capsys, monkeypatch, fields):
    # q brings det A into the payload, so verify reads every input of the
    # gate that dress passed and gates the same 614 of 1024 points
    monkeypatch.chdir(tmp_path)
    (tmp_path / "weyl.json").write_text(json.dumps({**CI_WEYL, "outputs": {
        **CI_WEYL["outputs"], "fields": fields}}))
    assert cli.main(["dress", "-c", "weyl.json"]) == cli.EXIT_OK
    assert _reported(capsys.readouterr().err, "max gated constraint residual") == 4.657e-14
    assert "detA_re,detA_im" in (tmp_path / "weyl.csv").read_text().split("\n", 1)[0]
    assert cli.main(["verify", "weyl.csv"]) == cli.EXIT_OK
    assert re.search(r"constraint residual (\S+) gated / \S+ overall \(410 rows near the "
                     r"singular locus excluded", capsys.readouterr().err).group(1) == "4.657e-14"

def _scaled_q(reconstruct):
    """A fault that moves q off the symmetric space by a factor 1 + 1e-6."""
    return lambda *args: reconstruct(*args) * (1 + 1e-6)

@pytest.mark.parametrize("argv, out, fault, code", [
    (["dress", "-c", "weyl.json"], "weyl.csv", None, cli.EXIT_OK),
    (["dress", "-c", "su21.json"], "su21-out.json", None, cli.EXIT_OK),
    (["kerr", "--m", "1", "--s", "1", "--out", "k.csv"], "k.csv", None, cli.EXIT_OK),
    (["dress", "-c", "weyl.json"], "weyl.csv", _scaled_q, cli.EXIT_GATE),
], ids=["weyl", "su21", "kerr", "weyl-scaled-q"])
def test_verify_reaches_the_exit_code_of_the_dress(tmp_path, capsys, monkeypatch, argv, out,
                                                   fault, code):
    # the gate threshold is fixed and the lattice gate reads only payload
    # columns, so verify decides a payload as the run that wrote it did; the
    # fault acts in the dress only, and verify reads its q from the file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "weyl.json").write_text(json.dumps(CI_WEYL))
    (tmp_path / "su21.json").write_text(json.dumps({**CI_SU21, "outputs": {
        "fields": ["q", "detA", "residuals", "ernst"], "path": "su21-out.json",
        "format": "json"}}))
    with monkeypatch.context() as patch:
        if fault is not None:
            patch.setattr(dressing, "_reconstruct", fault(dressing._reconstruct))
        assert cli.main(argv) == code
    dressed = re.search(r"max gated constraint residual (\S+);", capsys.readouterr().err)
    assert cli.main(["verify", out]) == code
    assert re.search(r"max recomputed constraint residual (\S+) gated",
                     capsys.readouterr().err).group(1) == dressed.group(1)

@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_verify_fails_a_non_finite_q_at_a_gated_point(tmp_path, capsys, monkeypatch, value):
    # the sweep gives a non-finite q a NaN residual, which fails its gate;
    # verify does too at a gated, non-singular row (row 2 of CI's Weyl
    # payload), and still leaves a row out of the gate where it is excluded
    monkeypatch.chdir(tmp_path)
    (tmp_path / "weyl.json").write_text(json.dumps(CI_WEYL))
    assert cli.main(["dress", "-c", "weyl.json"]) == cli.EXIT_OK
    columns, rows, _ = verify._load_table("weyl.csv")
    det_a = rows[:, columns.index("detA_re")] + 1j * rows[:, columns.index("detA_im")]
    singular = rows[:, columns.index("singular")].astype(bool)
    excluded = verification.gate_exclusion(singular.reshape(32, 32),
                                           det_a.reshape(32, 32)).ravel()
    assert not (excluded[2] or singular[2])
    for row, code, gated in ((2, cli.EXIT_GATE, "nan"),
                             (int(np.argmax(excluded)), cli.EXIT_OK, "4.657e-14")):
        edited = rows.copy()
        edited[row, columns.index("q_re_11")] = value
        cli._write_output("edited.csv", "csv", columns, edited, {})
        capsys.readouterr()
        assert cli.main(["verify", "edited.csv"]) == code
        assert re.search(r"max recomputed constraint residual (\S+) gated",
                         capsys.readouterr().err).group(1) == gated

def test_verify_fails_a_stored_q_whose_products_overflow(tmp_path, capsys, monkeypatch):
    # a finite 1e200 in q_re_11 at row 1 of CI's Weyl payload, a gated row:
    # its products overflow, so its residual reads inf and fails the gate
    # with the usual summary, and no numpy warning escapes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "weyl.json").write_text(json.dumps(CI_WEYL))
    assert cli.main(["dress", "-c", "weyl.json"]) == cli.EXIT_OK
    columns, rows, _ = verify._load_table("weyl.csv")
    rows[1, columns.index("q_re_11")] = 1e200
    cli._write_output("edited.csv", "csv", columns, rows, {})
    capsys.readouterr()
    assert cli.main(["verify", "edited.csv"]) == cli.EXIT_GATE
    assert re.search(r"max recomputed constraint residual (\S+) gated",
                     capsys.readouterr().err).group(1) == "inf"

@pytest.mark.parametrize("argv", [
    ["kerr", "--m", "x", "--s", "1"],
    ["kerr", "--m", "1"],
    ["verify", "k.csv", "--bogus"],
    ["verify", "k.csv", "--constraint-tol", "1e-9"],
], ids=["not-a-number", "missing-option", "unknown-option", "constraint-tol"])
def test_usage_errors_exit_as_config_errors(capsys, argv):
    # argparse's usage message goes to stderr, and the exit code is 1, not
    # argparse's 2, which the exit-code contract gives to numeric failures
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: vesture ") and " error: " in captured.err
    assert captured.out == ""

@pytest.mark.parametrize("argv, out", [(KERR_RING, "kring.csv"),
                                       (["dress", "-c", "weyl.json"], "weyl.csv")],
                         ids=["kerr-ring", "weyl"])
def test_verify_reads_the_rows_in_any_order(tmp_path, capsys, monkeypatch, argv, out):
    # the rows are put onto their lattice by their coordinates, not by
    # position: reversed and shuffled, they verify as written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "weyl.json").write_text(json.dumps(CI_WEYL))
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["verify", out]) == cli.EXIT_OK
    want = capsys.readouterr().err
    assert "excluded from the gate" in want
    columns, rows, _ = verify._load_table(out)
    for order in (rows[::-1], rows[np.random.default_rng(0).permutation(len(rows))]):
        cli._write_output("moved.csv", "csv", columns, order, {})
        assert cli.main(["verify", "moved.csv"]) == cli.EXIT_OK
        assert capsys.readouterr().err == want

def _without(*names):
    """A payload edit that drops the named columns."""
    def cut(columns, rows):
        keep = [k for k, c in enumerate(columns) if c not in names]
        return [columns[k] for k in keep], rows[:, keep]
    return cut

def _moved_r(columns, rows):
    """A payload edit that moves the first row's r off the lattice."""
    rows = rows.copy()
    rows[0, columns.index("r")] += 0.01
    return columns, rows

@pytest.mark.parametrize("argv, out, cut, message", [
    # the gate's inputs go with q, so a payload without them was not written by dress
    (["dress", "-c", "weyl.json"], "weyl.csv", _without("detA_re", "detA_im"),
     "file has no detA_re, detA_im columns, which dress writes with q"),
    (KERR_RING, "kring.csv", _without("singular"),
     "file has no singular column, which dress writes with q"),
    # without theta the rows are read on (rho, z), where a Boyer-Lindquist
    # payload forms no lattice
    (KERR_RING, "kring.csv", _without("theta"),
     "the stored (rho, z) points do not form a complete rectangular lattice"),
    # a lattice point without its row, or a row off the lattice
    (["dress", "-c", "weyl.json"], "weyl.csv", lambda columns, rows: (columns, rows[1:]),
     "the stored (rho, z) points do not form a complete rectangular lattice"),
    (KERR_RING, "kring.csv", _moved_r,
     "the stored (r, theta) points do not form a complete rectangular lattice"),
], ids=["no-detA", "no-singular", "no-theta", "weyl-hole", "bl-moved-row"])
def test_verify_refuses_a_payload_dress_does_not_write(tmp_path, capsys, monkeypatch, argv, out,
                                                       cut, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "weyl.json").write_text(json.dumps(CI_WEYL))
    assert cli.main(argv) == cli.EXIT_OK
    columns, rows, _ = verify._load_table(out)
    cli._write_output("cut.csv", "csv", *cut(columns, rows), {})
    capsys.readouterr()
    assert cli.main(["verify", "cut.csv"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == message + "\n"

def test_verify_treats_an_exactly_singular_q_as_a_hole(tmp_path, capsys):
    # a 3x3 lattice of identity maps, one of them q = 0 but not marked
    # singular, all of det A = 1
    cols = ["rho", "z"] + [f"q_{part}_{c}" for c in ("11", "12", "21", "22")
                           for part in ("re", "im")] + ["detA_re", "detA_im", "singular"]
    rows = np.array([[rho, z, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0]
                     for rho in (1.0, 1.5, 2.0) for z in (-0.5, 0.0, 0.5)], dtype=float)
    rows[4, [2, 8]] = 0.0
    path = str(tmp_path / "zero.csv")
    cli._write_output(path, "csv", cols, rows, {})
    assert cli.main(["verify", path]) == cli.EXIT_GATE
    err = capsys.readouterr().err
    assert "recomputed finite-difference residuals: median" in err and "Traceback" not in err

def test_main_calls_share_one_parser_without_leaking_options(tmp_path):
    assert cli._parser() is cli._parser()
    small, default = tmp_path / "small.csv", tmp_path / "default.csv"
    assert cli.main(["kerr", "--m", "1", "--s", "1", "--r-count", "3", "--theta-count", "3",
                     "--out", str(small)]) == cli.EXIT_OK
    assert cli.main(["kerr", "--m", "1", "--s", "1", "--out", str(default)]) == cli.EXIT_OK
    assert len(small.read_text().splitlines()) == 1 + 3 * 3
    assert len(default.read_text().splitlines()) == 1 + 40 * 40

def test_main_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage: vesture" in capsys.readouterr().out

def _payload(path) -> dict[str, np.ndarray]:
    """The columns of a CSV or JSON output by name, as float arrays."""
    text = path.read_text()
    if path.suffix == ".json":
        doc = json.loads(text)
        names, rows = doc["columns"], doc["rows"]
    else:
        lines = text.splitlines()
        names, rows = lines[0].split(","), [[float(c) for c in line.split(",")]
                                            for line in lines[1:]]
    return dict(zip(names, np.array(rows, dtype=float).T))

def _sources(dressed, hodge, extra) -> dict[str, np.ndarray]:
    """What each payload column names, taken from the dressed arrays: q_re_ij
    and q_im_ij are q[:, i-1, j-1]."""
    n = dressed.q.shape[-1]
    out = {"rho": dressed.rho, "z": dressed.z}
    for i in range(n):
        for j in range(n):
            out[f"q_re_{i + 1}{j + 1}"] = dressed.q[:, i, j].real
            out[f"q_im_{i + 1}{j + 1}"] = dressed.q[:, i, j].imag
    out.update(detA_re=dressed.det_a.real, detA_im=dressed.det_a.imag,
               res_constraint=dressed.residuals["symspace"], res_hodge2=hodge,
               singular=dressed.singular.astype(float))
    return {**out, **extra}

def _assert_bitwise(payload, sources):
    assert set(payload) == set(sources), set(payload) ^ set(sources)
    for name, got in payload.items():
        want = np.asarray(sources[name], dtype=float)
        same = (got == want) & (np.signbit(got) == np.signbit(want))
        assert np.all(same | (np.isnan(got) & np.isnan(want))), name

@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_kerr_payload_column_holds_its_source(tmp_path, fmt):
    # bit for bit, against the family's own sweep; a transposed q would move
    # q_im_12 and q_im_21, which verify cannot see (q^T = conj q is also on
    # the target)
    family = checks.Kerr(1.0, 1.0)
    grid = cli.GridSpec((2.5, 6.0, 4), (0.5, 2.5, 3), family.chart())
    out = tmp_path / f"k.{fmt}"
    assert cli.run_preset(family, grid, str(out), fmt) == cli.EXIT_OK
    # the sources are dressed here, on the chart of the (r, theta) lattice
    r, theta = np.linspace(2.5, 6.0, 4), np.linspace(0.5, 2.5, 3)
    dressed = dressing.dress(family.config(),
                             *targets.bl_chart(r[:, None], theta[None, :], family.chart()))
    assert np.abs(dressed.q[:, 0, 1].imag).min() > 0
    r, theta = np.repeat(r, 3), np.tile(theta, 4)
    found, oracle = checks.ernst(dressed.q), family.oracle(r, theta)
    columns = {"r": r, "theta": theta, "x": found.x, "y": found.y,
               "oracle_x": oracle.x, "oracle_y": oracle.y}
    _assert_bitwise(_payload(out), _sources(dressed, np.full(12, math.nan), columns))

@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_dress_payload_column_holds_its_source(tmp_path, fmt):
    # an SU(2,1) Weyl lattice with the finite-difference and Ernst columns
    out = tmp_path / f"d.{fmt}"
    doc = minimal_config(tmp_path, target={"p": 2, "q": 1},
                         solitons=[{"omega": [0.3, 1.1], "v": [[1.0, 0.1], [0.3, 0.0],
                                                                [0.2, 0.1]]}],
                         grid={"coords": "weyl", "rho": [1.5, 2.5, 4], "z": [-0.5, 0.5, 5]})
    doc["outputs"].update(path=str(out), format=fmt)
    cfg = cli.parse_config(json.dumps(doc))
    assert cli.run_dress(cfg) == cli.EXIT_OK
    dressed, field = _dressed_field(cfg)
    assert np.abs(dressed.q[:, 0, 1].imag).min() > 0
    hodge = verification.hodge_residual(field).ravel()
    _assert_bitwise(_payload(out), _sources(dressed, hodge,
                                            checks.ernst_columns(checks.ernst(dressed.q))))

@pytest.mark.parametrize("argv, target, vector, shared", [
    (["kerr", "--m", "1", "--s", "1"], {"p": 1, "q": 1}, targets.kerr_params(1.0, 1.0)[:2], 19),
    (["kerr-newman", "--m", "1", "--e", "0.5", "--s", "1", "--format", "json"],
     {"p": 2, "q": 1}, targets.kn_config(1.0, 0.5, 1.0).vectors[0], 31),
], ids=["kerr", "kerr-newman"])
def test_a_preset_writes_what_its_boyer_lindquist_dress_writes(tmp_path, argv, target, vector,
                                                               shared):
    # the preset and a dress config of its vector at pole i on its default
    # window agree bit for bit in every column they share: all but the oracle's
    fmt = "json" if "json" in argv else "csv"
    preset, dressed = tmp_path / f"preset.{fmt}", tmp_path / f"dress.{fmt}"
    assert cli.main(argv + ["--out", str(preset)]) == cli.EXIT_OK
    doc = {"target": target, "seed": "identity",
           "solitons": [{"omega": [0.0, 1.0],
                         "v": [[complex(c).real, complex(c).imag] for c in vector]}],
           "grid": {"coords": "boyer-lindquist", "r": [2.5, 11.0, 40],
                    "theta": [math.pi / 8, 7 * math.pi / 8, 40], "params": {"m": 1.0, "s": 1.0}},
           "outputs": {"fields": ["q", "detA", "residuals", "ernst"], "path": str(dressed),
                       "format": fmt}}
    (tmp_path / "config.json").write_text(json.dumps(doc))
    assert cli.main(["dress", "-c", str(tmp_path / "config.json")]) == cli.EXIT_OK
    got, want = _payload(dressed), _payload(preset)
    assert len(got) == shared and {k for k in want if k not in got} == \
        {k for k in want if k.startswith("oracle_")}
    _assert_bitwise(got, {k: want[k] for k in got})
