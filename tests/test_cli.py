import json
import math

import pytest

from vesture import cli
from vesture.errors import ConfigError

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

def test_run_dress_writes_csv_and_passes_gate(tmp_path):
    doc = minimal_config(tmp_path)
    code = cli.run_dress(cli.parse_config(json.dumps(doc)))
    assert code == cli.EXIT_OK
    lines = (tmp_path / "out.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["rho", "z"]
    assert "q_re_11" in header and "detA_re" in header and "singular" in header
    assert "res_constraint" in header and "res_hodge1" in header
    assert header[-2:] == ["x", "y"]
    assert len(lines) == 1 + 4 * 3
    # machine-readable floats with 17 significant digits round-trip
    row = lines[1].split(",")
    assert float(row[0]) == 1.0

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
    # the family/oracle deviation is ~2e^2/(r^2+a^2cos^2 th); the preset
    # reports it and signals the gate
    assert code == cli.EXIT_GATE
    msg = capsys.readouterr().err
    assert "max relative error" in msg
    header = out.read_text().splitlines()[0].split(",")
    assert "oracle_E_re" in header and "Phi_re" in header

def test_kn_preset_uncharged_matches_oracle(tmp_path):
    out = tmp_path / "kn0.csv"
    code = cli.main(["kerr-newman", "--m", "1.0", "--e", "0.0", "--s", "1.0",
                     "--r-count", "6", "--theta-count", "6", "--out", str(out)])
    assert code == cli.EXIT_OK

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

def test_verify_recomputes_hodge_on_weyl_grid(tmp_path, capsys):
    doc = minimal_config(tmp_path)
    doc["grid"] = {"coords": "weyl", "rho": [1.0, 2.0, 6], "z": [-0.5, 0.5, 6]}
    cli.run_dress(cli.parse_config(json.dumps(doc)))
    capsys.readouterr()
    assert cli.verify_file(str(tmp_path / "out.csv")) == cli.EXIT_OK
    msg = capsys.readouterr().err
    assert "recomputed finite-difference residuals" in msg
    assert "max deviation from stored values 0.000e+00" in msg

def test_selftest_detects_injected_sign_bug(monkeypatch):
    # flip the sign of the second rational coefficient; the spectral
    # identity suite must notice
    from vesture import spectral

    orig = spectral.ab

    def broken(lam, x):
        a, b = orig(lam, x)
        return a, -b

    monkeypatch.setattr(cli.spectral, "ab", broken)
    ok, _ = cli._suite_spectral()
    assert not ok
    monkeypatch.undo()
    ok, _ = cli._suite_spectral()
    assert ok

@pytest.mark.parametrize("content, message", [
    ("", "empty file"),
    ("rho,z,q_re_11\n1.0,0.0,abc\n", "not a table of numbers"),
    ("rho,z,q_re_11\n1.0,0.0,1.0\n1.0,0.5\n", "row 2 has 2 cells for 3 columns"),
    ('{"columns": ["rho", "z"]}', "JSON output has no 'rows' entry"),
    ('{"rows": [[1.0, 0.0]]}', "JSON output has no 'columns' entry"),
    ('{"columns": ["rho", "z"], "rows": [[1.0, null]]}', "not a table of numbers"),
    ("\xff\xfe", "not a table of numbers"),
])
def test_verify_rejects_unreadable_file(tmp_path, capsys, content, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(content.encode("latin-1"))
    assert cli.main(["verify", str(path)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
