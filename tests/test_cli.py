import csv
import dataclasses
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import test_acceptance as acceptance
from vesture import algebra, cli, dressing, spectral, targets
from vesture.errors import ConfigError, SingularPointError

def minimal_config(tmp_path, **overrides):
    doc = {
        "target": {"p": 1, "q": 1},
        "seed": "identity",
        "solitons": [{"omega": [0.0, 1.0], "v": [[1.2, 0.0], [0.5, 0.0]]}],
        "grid": {"coords": "weyl", "rho": [1.0, 2.0, 4], "z": [-0.5, 0.5, 3]},
        "outputs": {"fields": ["q", "detA", "residuals", "ernst"],
                    "path": str(tmp_path / "out.csv"), "format": "csv"},
    }
    doc.update(overrides)
    return doc

def test_parse_config_valid(tmp_path):
    cfg = cli.parse_config(json.dumps(minimal_config(tmp_path)))
    assert cfg.solitons.signature.n == 2
    assert cfg.solitons.n_solitons == 1
    assert cfg.grid.coords == "weyl"

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
    ({"tolerances": {"constraint_tol": "x"}}, "tolerances.constraint_tol must be a number"),
    ({"continuity_tracking": True}, "config: unknown keys 'continuity_tracking'"),
    ({"tolerances": {"iterative_refinement": True}},
     "tolerances: unknown keys 'iterative_refinement'"),
    ({"target": {"p": 1, "q": 1, "r": 0}}, "target: unknown keys 'r'"),
    ({"grid": {"coords": "weyl", "rho": [1.0, 2.0, 4], "z": [-0.5, 0.5, 3], "step": 1}},
     "grid: unknown keys 'step'"),
    ({"outputs": {"fields": ["q"], "colour": "red"}}, "outputs: unknown keys 'colour'"),
    ({"solitons": [{"omega": [0.0, 1.0], "v": [[1.0, 0.0], [0.5, 0.0]], "w": 1}]},
     "solitons[0]: unknown keys 'w'"),
    ({"grid": {"coords": "boyer-lindquist", "r": [2.5, 5.0, 4], "theta": [0.5, 2.5, 4],
               "params": {"m": 1.0, "s": 1.0, "a": 1.4}}}, "grid.params: unknown keys 'a'"),
])
def test_parse_config_bad_section_is_a_violation(tmp_path, capsys, overrides, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(tmp_path, **overrides)))
    assert cli.main(["dress", "-c", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invalid config:") and message in err
    assert not (tmp_path / "out.csv").exists()

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
    assert "res_constraint" in header and "res_hodge1" in header
    assert header[-2:] == ["x", "y"]
    assert len(lines) == 1 + 8 * 8
    # machine-readable floats with 17 significant digits round-trip
    row = lines[1].split(",")
    assert float(row[0]) == 1.0

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
    assert 0.0 < float(err.split()[-1]) <= 1e-12
    _, excluded = cli.run_sweep(cli.parse_config(json.dumps(doc)))
    assert excluded.shape == (6, 6) and not excluded.any()

@pytest.mark.parametrize("key", ["quadratic", "hermiticity", "unit_det"])
def test_a_nan_gated_residual_fails_the_dress_gate(tmp_path, capsys, monkeypatch, key):
    # a NaN fails the constraint gate as it fails every check
    doc = minimal_config(tmp_path, grid={"coords": "weyl", "rho": [3.0, 4.0, 6],
                                         "z": [-0.5, 0.5, 6]})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    dress = dressing.dress

    def nan_at_one_point(*args, **kwargs):
        out = dress(*args, **kwargs)
        out.residuals[key][7] = math.nan
        return out

    monkeypatch.setattr(dressing, "dress", nan_at_one_point)
    assert cli.main(["dress", "-c", str(path)]) == cli.EXIT_GATE
    assert capsys.readouterr().err.startswith(
        "dressed 36 points (0 singular); max gated constraint residual nan")


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
    assert cli.verify_file(str(tmp_path / "out.csv")) == cli.EXIT_OK

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

def test_kn_preset_reports_known_gap(tmp_path, capsys):
    out = tmp_path / "kn.csv"
    code = cli.main(["kerr-newman", "--m", "1.0", "--e", "0.5", "--s", "1.0",
                     "--r-count", "6", "--theta-count", "6", "--out", str(out)])
    # the family carries the Kerr-Newman potentials at spin
    # a = -sqrt(m^2 + s^2 + e^2); the preset reports the measured error
    assert code == cli.EXIT_OK
    msg = capsys.readouterr().err
    worst = float(re.search(r"max relative error (\S+)", msg).group(1))
    assert worst <= 1e-9
    header = out.read_text().splitlines()[0].split(",")
    assert "oracle_E_re" in header and "Phi_re" in header

def test_kn_preset_uncharged_matches_oracle(tmp_path):
    out = tmp_path / "kn0.csv"
    code = cli.main(["kerr-newman", "--m", "1.0", "--e", "0.0", "--s", "1.0",
                     "--r-count", "6", "--theta-count", "6", "--out", str(out)])
    assert code == cli.EXIT_OK

@pytest.mark.parametrize("argv, message", [
    (["kerr", "--m", "1", "--s", "1", "--r-count", "0"],
     "grid.r needs count >= 1 and finite min <= max"),
    (["kerr", "--m", "1", "--s", "1", "--theta-min", "-1"],
     "grid.theta must lie strictly inside (0, pi)"),
    (["kerr-newman", "--m", "1", "--e", "0.5", "--s", "1", "--theta-max", "4"],
     "grid.theta must lie strictly inside (0, pi)"),
    (["kerr", "--m", "1", "--s", "1", "--r-min", "5", "--r-max", "2"],
     "grid.r needs count >= 1 and finite min <= max"),
])
def test_preset_grid_arguments_are_validated(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()

def test_presets_leave_the_grid_unchanged(tmp_path):
    grid = cli.GridSpec(coords="boyer-lindquist", axis1=(2.5, 6.0, 3), axis2=(0.5, 2.5, 3))
    before = repr(grid)
    assert cli.run_preset_kerr(1.0, 1.0, grid, str(tmp_path / "k.csv")) == cli.EXIT_OK
    assert cli.run_preset_kn(1.0, 0.5, 1.0, grid, str(tmp_path / "kn.csv")) == cli.EXIT_OK
    assert repr(grid) == before and grid.bl is None

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

def test_vacuous_gate_is_reported(tmp_path, capsys):
    # every |det A| is below the singular threshold: all points are flagged
    doc = minimal_config(tmp_path, tolerances={"singular_tol": 1e300})
    assert cli.run_dress(cli.parse_config(json.dumps(doc))) == cli.EXIT_OK
    assert capsys.readouterr().err == (
        "dressed 12 points (12 singular); max gated constraint residual 0.000e+00; "
        "gate vacuous: all 12 points singular or within 3 cells of the singular locus\n")

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
    path = str(tmp_path / f"o22.{fmt}")
    doc = minimal_config(tmp_path, target={"p": 2, "q": 2},
                         solitons=[{"omega": [0.3, 1.1],
                                    "v": [[1.0, 0.0], [0.3, 0.2], [0.5, 0.0], [0.2, -0.1]]}],
                         grid={"coords": "weyl", "rho": [2.0, 3.0, 5], "z": [-0.5, 0.5, 5]})
    doc["outputs"] = {"fields": ["q", "detA", "residuals"], "path": path, "format": fmt}
    assert cli.run_dress(cli.parse_config(json.dumps(doc))) == cli.EXIT_OK
    capsys.readouterr()
    if fmt == "csv":
        assert cli.main(["verify", path]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == \
            "4x4 q columns do not fix the signature: pass --p and --q\n"
    else:  # the JSON meta carries the target
        assert cli.main(["verify", path]) == cli.EXIT_OK
    assert cli.main(["verify", path, "--p", "2", "--q", "2"]) == cli.EXIT_OK
    assert "constraint residual" in capsys.readouterr().err

def test_verify_rejects_missing_q(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("rho,z\n1.0,0.0\n")
    assert cli.verify_file(str(p)) == cli.EXIT_CONFIG

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
    assert cli.verify_file(str(out)) == cli.EXIT_GATE

def test_json_output_roundtrip(tmp_path):
    out = tmp_path / "kerr.json"
    code = cli.main(["kerr", "--m", "1.0", "--s", "1.0", "--r-count", "5",
                     "--theta-count", "5", "--out", str(out), "--format", "json"])
    assert code == cli.EXIT_OK
    assert cli.verify_file(str(out)) == cli.EXIT_OK
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
    # tight tolerances flag or exclude every point of the Kerr (1, 1) grid, so
    # no finite-difference residual is finite either
    alpha, delta, _ = targets.kerr_params(1.0, 1.0)
    doc = minimal_config(tmp_path, tolerances={"singular_tol": 0.1, "condition_cap": 30},
                         solitons=[{"omega": [0.0, 1.0], "v": [[alpha, 0.0], [delta, 0.0]]}],
                         grid={"coords": "weyl", "rho": [1.0, 2.0, 6], "z": [-1.0, 1.0, 6]})
    doc["outputs"]["fields"] = ["q", "detA", "residuals"]
    assert cli.run_dress(cli.parse_config(json.dumps(doc))) == cli.EXIT_OK
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["verify", str(tmp_path / "out.csv")]) == cli.EXIT_OK
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert "(36 rows near the singular locus excluded from the gate); gate vacuous: all 36 " \
        "points singular or within 3 cells of the singular locus;" in err
    assert "medians (no finite value, no finite value)" in err

def test_verify_recomputes_hodge_on_weyl_grid(tmp_path, capsys):
    doc = minimal_config(tmp_path)
    doc["grid"] = {"coords": "weyl", "rho": [1.0, 2.0, 6], "z": [-0.5, 0.5, 6]}
    cli.run_dress(cli.parse_config(json.dumps(doc)))
    capsys.readouterr()
    assert cli.verify_file(str(tmp_path / "out.csv")) == cli.EXIT_OK
    msg = capsys.readouterr().err
    assert "recomputed finite-difference residuals" in msg
    assert "max deviation from stored values 0.000e+00" in msg

def _nan_at_first_point(ernst):
    def faulty(q):
        e = ernst(q)
        x = e.x.copy()
        x.flat[0] = math.nan
        return dataclasses.replace(e, x=x)
    return faulty

def _always_singular(family):
    def faulty(*args):
        raise SingularPointError("injected")
    return faulty

# each fault, injected into the library, must fail the shared check under
# both the selftest gate and the acceptance gate: (id, suite, module, name,
# fault, acceptance gate)
FAULTS = [
    # flip the sign of the second rational coefficient
    ("spectral-identities", "spectral-identities", spectral, "ab",
     lambda ab: lambda lam, x: (ab(lam, x)[0], -ab(lam, x)[1]), acceptance.spectral_gate),
    # sigma loses its sign flip
    ("chi-audits", "chi-audits", algebra, "sigma", lambda sigma: lambda m, g: m,
     acceptance.chi_gate),
    # move the Kerr vector's first component off the Kerr family
    ("kerr-oracle", "kerr-oracle", targets, "kerr_params",
     lambda params: lambda m, s: (params(m, s)[0] * (1 + 1e-6), *params(m, s)[1:]),
     acceptance.kerr_gate),
    # a NaN Ernst value at a regular point
    ("kerr-oracle-nan", "kerr-oracle", targets, "ernst_g11", _nan_at_first_point,
     acceptance.kerr_gate),
    # the Kerr-Newman family singular everywhere, so no error is measured
    ("kn-oracle-singular", "kn-oracle", targets, "g21_soliton_family", _always_singular,
     acceptance.kn_gate),
]

@pytest.mark.parametrize("suite, module, name, fault, acceptance_gate",
                         [f[1:] for f in FAULTS], ids=[f[0] for f in FAULTS])
def test_injected_fault_fails_both_gates(monkeypatch, suite, module, name, fault,
                                         acceptance_gate):
    check, gate = next((c, g) for n, c, g in cli.SELFTEST_SUITES if n == suite)
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    broken = check()
    assert not gate(broken)[0] and not acceptance_gate(broken)[0]
    monkeypatch.undo()
    healthy = check()
    assert gate(healthy)[0] and acceptance_gate(healthy)[0]

@pytest.mark.parametrize("content, message", [
    ("", "empty file"),
    ("rho,z,q_re_11\n1.0,0.0,abc\n", "not a table of numbers"),
    ("rho,z,q_re_11\n1.0,0.0,1.0\n1.0,0.5\n", "row 2 has 2 cells for 3 columns"),
    ('{"columns": ["rho", "z"]}', "JSON output has no 'rows' entry"),
    ('{"rows": [[1.0, 0.0]]}', "JSON output has no 'columns' entry"),
    ('{"columns": ["rho", "z"], "rows": [[1.0, null]]}', "not a table of numbers"),
    ("\xff\xfe", "not a table of numbers"),
    ("rho,z,q_re_11\n1.0,0.0,1.0\n\n1.0,0.5,1.0\n", "row 2 has 0 cells for 3 columns"),
    ("rho,z,q_re_11,q_im_11,q_re_12,q_im_12,q_re_21,q_im_21,q_re_22,q_im_22\n",
     "no data rows"),
    # cells float() accepts but the %.17g writer never emits
    ("rho,z,q_re_11\n1.0,0.0,1_000\n", "not a table of numbers"),
    ("rho,z,q_re_11\n1.0,0.0,\uff11\n".encode("utf-8").decode("latin-1"),
     "not a table of numbers"),
    # a 1x1 q has no SU(p,q) target, and no signature was given
    ("rho,z,q_re_11,q_im_11\n1.0,0.0,1.0,0.0\n", "1x1 q data has no SU(p,q) target"),
    # JSON cells float() accepts but the writer never emits: a row that is a
    # string of ten digits for a 2x2 table, a numeric string, a boolean
    (json.dumps({"columns": ["rho", "z"] + [f"q_{part}_{c}" for c in ("11", "12", "21", "22")
                                            for part in ("re", "im")],
                 "rows": ["1010000001"]}), "not a table of numbers"),
    ('{"columns": ["rho", "z"], "rows": [["1.5", 0.0]]}', "not a table of numbers"),
    ('{"columns": ["rho", "z"], "rows": [[true, 0.0]]}', "not a table of numbers"),
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
    cols, read, _ = cli._load_table(path)
    assert cols == columns and read.shape == rows.shape
    assert np.array_equal(read.view(np.uint64), rows.view(np.uint64))

def test_verify_says_why_it_skips_finite_differences(tmp_path, capsys):
    doc = minimal_config(tmp_path)
    doc["grid"] = {"coords": "weyl", "rho": [1.0, 2.0, 2], "z": [-0.5, 0.5, 4]}
    cli.run_dress(cli.parse_config(json.dumps(doc)))
    capsys.readouterr()
    assert cli.verify_file(str(tmp_path / "out.csv")) == cli.EXIT_OK
    assert capsys.readouterr().err.endswith(
        "\nfinite-difference residuals not recomputed: "
        "hodge residual needs at least 3 grid points per axis\n")

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
