"""Batch front end: config-driven sweeps, presets, verification, selftest.

Exit codes: 0 success, 1 config error, 2 numeric failure, 3 constraint-gate
failure, 4 I/O failure. Singular grid points are data, not failures. Output
is bit-identical across runs of the same config: fixed iteration order,
fixed audit samples, no randomness or wall-clock inputs in the payload.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import algebra, dressing, seeds, spectral, targets, verification
from .algebra import Signature
from .dressing import SolitonConfig, Tolerances
from .errors import ConfigError, NumericError, VestureError
from .spectral import DomainPoint

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_GATE = 3
EXIT_IO = 4

_ALLOWED_FIELDS = ("q", "ernst", "residuals", "detA", "oracle")


@dataclass
class GridSpec:
    coords: str                       # "weyl" | "boyer-lindquist"
    axis1: tuple[float, float, int]   # rho or r
    axis2: tuple[float, float, int]   # z or theta
    bl: targets.BLParams | None = None

    def axis_values(self) -> tuple[np.ndarray, np.ndarray]:
        a1 = np.linspace(self.axis1[0], self.axis1[1], self.axis1[2])
        a2 = np.linspace(self.axis2[0], self.axis2[1], self.axis2[2])
        return a1, a2

    def point_rows(self) -> list[list[DomainPoint]]:
        a1, a2 = self.axis_values()
        if self.coords == "weyl":
            return [[DomainPoint(rho=float(r), z=float(z)) for z in a2] for r in a1]
        return [[targets.bl_to_weyl(float(r), float(th), self.bl) for th in a2] for r in a1]


@dataclass
class RunConfig:
    solitons: SolitonConfig
    grid: GridSpec
    fields: tuple[str, ...] = ("q", "detA", "residuals")
    path: str = "-"
    format: str = "csv"


def _section(raw, where: str, keys: tuple[str, ...], problems: list[str]) -> dict | None:
    """raw when it is a JSON object, else None; keys outside ``keys`` are
    violations."""
    if not isinstance(raw, dict):
        problems.append(f"{where} must be a JSON object")
        return None
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        problems.append(f"{where}: unknown keys {', '.join(map(repr, unknown))}")
    return raw


def _axis_triple(raw, name: str, problems: list[str]) -> tuple[float, float, int]:
    try:
        lo, hi, count = float(raw[0]), float(raw[1]), int(raw[2])
    except (TypeError, ValueError, IndexError, KeyError):
        problems.append(f"grid.{name} must be [min, max, count]")
        return (0.0, 1.0, 2)
    if count < 1 or hi < lo:
        problems.append(f"grid.{name} needs count >= 1 and max >= min")
    return (lo, hi, count)


def _complex_pair(raw, what: str, problems: list[str]) -> complex:
    try:
        return complex(float(raw[0]), float(raw[1]))
    except (TypeError, ValueError, IndexError, KeyError):
        problems.append(f"{what} must be a [re, im] pair")
        return 0j


def parse_config(text: bytes | str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    All violations are collected and reported together, not just the first.
    """
    problems: list[str] = []
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _section(doc, "config", ("target", "seed", "solitons", "grid", "outputs",
                             "tolerances"), problems)

    sig = Signature(1, 1)
    tgt = _section(doc.get("target", {}), "target", ("p", "q"), problems)
    if tgt is not None:
        try:
            sig = Signature(int(tgt.get("p", 0)), int(tgt.get("q", 0)))
        except (ConfigError, TypeError, ValueError) as exc:
            problems.append(f"target: {exc}")

    tol_keys = ("constraint_tol", "singular_tol", "condition_cap")
    tol_doc = _section(doc.get("tolerances", {}), "tolerances", tol_keys, problems) or {}
    tol_values = {}
    for key in tol_keys:
        if key in tol_doc:
            try:
                tol_values[key] = float(tol_doc[key])
            except (TypeError, ValueError):
                problems.append(f"tolerances.{key} must be a number")
    tol = Tolerances(**tol_values)

    seed_doc = doc.get("seed", "identity")
    seed = None
    if seed_doc == "identity":
        seed = seeds.identity_seed(sig)
    elif isinstance(seed_doc, dict) and "matrix" in seed_doc:
        _section(seed_doc, "seed", ("matrix",), problems)
        try:
            rows = [[_complex_pair(cell, "seed.matrix entry", problems)
                     for cell in row] for row in seed_doc["matrix"]]
            seed = seeds.constant_seed(np.array(rows, dtype=complex), sig, tol.constraint_tol)
        except (VestureError, TypeError, ValueError) as exc:
            problems.append(f"seed: {exc}")
    else:
        problems.append('seed must be "identity" or {"matrix": [[[re,im],...],...]}')

    poles: list[complex] = []
    vectors: list[np.ndarray] = []
    sol_doc = doc.get("solitons", [])
    if not isinstance(sol_doc, list):
        problems.append("solitons must be a list")
        sol_doc = []
    for k, raw in enumerate(sol_doc):
        item = _section(raw, f"solitons[{k}]", ("omega", "v"), problems)
        if item is None:
            continue
        w = _complex_pair(item.get("omega", None), f"solitons[{k}].omega", problems)
        if w.imag == 0:
            problems.append(f"solitons[{k}]: real pole not supported (omega = {w})")
        v_raw = item.get("v", [])
        v = np.array([_complex_pair(c, f"solitons[{k}].v entry", problems)
                      for c in (v_raw if isinstance(v_raw, list) else [])], dtype=complex)
        if v.size != sig.n:
            problems.append(f"solitons[{k}].v has length {v.size}, expected {sig.n}")
        elif not np.any(v != 0):
            problems.append(f"solitons[{k}].v is the zero vector")
        poles.append(w)
        vectors.append(v)

    grid_doc = _section(doc.get("grid", {}), "grid",
                        ("coords", "rho", "z", "r", "theta", "params"), problems) or {}
    coords = grid_doc.get("coords", "weyl")
    bl = None
    if coords == "weyl":
        axis1 = _axis_triple(grid_doc.get("rho"), "rho", problems)
        axis2 = _axis_triple(grid_doc.get("z"), "z", problems)
        if axis1[0] <= 0:
            problems.append("grid.rho must start strictly above 0")
    elif coords == "boyer-lindquist":
        axis1 = _axis_triple(grid_doc.get("r"), "r", problems)
        axis2 = _axis_triple(grid_doc.get("theta"), "theta", problems)
        params = _section(grid_doc.get("params", {}), "grid.params", ("m", "s", "e"),
                          problems) or {}
        try:
            bl = targets.BLParams(m=float(params.get("m", 0.0)),
                                  s=float(params.get("s", 0.0)),
                                  e=float(params.get("e", 0.0)))
            if not (0.0 < axis2[0] and axis2[1] < math.pi):
                problems.append("grid.theta must lie strictly inside (0, pi)")
        except (ConfigError, TypeError, ValueError) as exc:
            problems.append(f"grid.params: {exc}")
    else:
        problems.append(f'grid.coords must be "weyl" or "boyer-lindquist", got {coords!r}')
        axis1 = axis2 = (0.0, 1.0, 2)

    out_doc = _section(doc.get("outputs", {}), "outputs", ("fields", "path", "format"),
                       problems) or {}
    fields = out_doc.get("fields", ["q", "detA", "residuals"])
    if not isinstance(fields, list):
        problems.append("outputs.fields must be a list")
        fields = []
    fields = tuple(fields)
    for f in fields:
        if f not in _ALLOWED_FIELDS:
            problems.append(f"outputs.fields: unknown field {f!r}")
    if "oracle" in fields:
        problems.append("oracle output is only available in the kerr/kerr-newman presets")
    if "ernst" in fields and (sig.p, sig.q_minus) not in ((1, 1), (2, 1)):
        problems.append("ernst output is only defined for targets (1,1) and (2,1)")
    path = out_doc.get("path", "-")
    if not isinstance(path, str):
        problems.append("outputs.path must be a string")
    fmt = out_doc.get("format", "csv")
    if fmt not in ("csv", "json"):
        problems.append(f'outputs.format must be "csv" or "json", got {fmt!r}')

    if not problems:
        try:
            solitons = SolitonConfig(signature=sig, poles=tuple(poles),
                                     vectors=tuple(vectors), seed=seed, tolerances=tol)
            return RunConfig(solitons=solitons,
                             grid=GridSpec(coords=coords, axis1=axis1, axis2=axis2, bl=bl),
                             fields=fields, path=path, format=fmt)
        except ConfigError as exc:
            problems.append(str(exc))
    raise ConfigError("invalid config:\n  - " + "\n  - ".join(problems))


# ---------------------------------------------------------------------------
# output assembly
# ---------------------------------------------------------------------------

def _columns(sig: Signature, coords: str, fields: tuple[str, ...],
             oracle_columns: tuple[str, ...]) -> list[str]:
    cols = ["rho", "z"]
    if coords == "boyer-lindquist":
        cols += ["r", "theta"]
    if "q" in fields:
        for i in range(1, sig.n + 1):
            for j in range(1, sig.n + 1):
                cols += [f"q_re_{i}{j}", f"q_im_{i}{j}"]
    if "detA" in fields:
        cols += ["detA_re", "detA_im"]
    if "residuals" in fields:
        cols += ["res_constraint", "res_hodge1", "res_hodge2"]
    cols += ["singular"]
    if "ernst" in fields:
        cols += ["x", "y"] if (sig.p, sig.q_minus) == (1, 1) else \
            ["E_re", "E_im", "Phi_re", "Phi_im"]
    return cols + list(oracle_columns)


def _write_output(path: str, fmt: str, columns: list[str],
                  rows: list[list[float]], meta: dict) -> None:
    if fmt == "csv":
        def dump(fh):
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow(f"{v:.17g}" for v in row)
    else:
        def dump(fh):
            json.dump({"meta": meta, "columns": columns, "rows": rows}, fh)
            fh.write("\n")
    if path == "-":
        dump(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            dump(fh)


def _q_cells(q, n: int) -> list[float]:
    if q is None:
        return [math.nan] * (2 * n * n)
    return [part for z in q.reshape(-1) for part in (z.real, z.imag)]


def _ernst_values(q, sig: Signature) -> list[float]:
    if q is not None:
        try:
            if (sig.p, sig.q_minus) == (1, 1):
                e = targets.ernst_g11(q)
                return [e.x, e.y]
            e = targets.ernst_g21(q)
            return [e.E.real, e.E.imag, e.Phi.real, e.Phi.imag]
        except VestureError:
            pass
    return [math.nan] * (2 if (sig.p, sig.q_minus) == (1, 1) else 4)


def _flat(grid_rows: list[list]) -> list:
    return [item for row in grid_rows for item in row]


def _gate_exclusion(singular: np.ndarray, det_a: np.ndarray, singular_tol: float) -> np.ndarray:
    """Mask of points excluded from exit gates: singular points and the
    det A locus, widened by a 3-cell margin."""
    locus = singular | verification.locus_mask(det_a, singular_tol)
    return verification.exclusion_mask(locus, margin=3)


def _max_constraint(results, excluded: np.ndarray) -> float:
    """Max membership-residual component over the points not excluded."""
    worst = 0.0
    for res, skip in zip(_flat(results), excluded.flat):
        if not skip:
            worst = max(worst, res.residuals["quadratic"],
                        res.residuals["hermiticity"], res.residuals["unit_det"])
    return worst


def run_sweep(cfg: RunConfig, audit_chi: bool = True):
    """Dress the configured grid in row-major order; returns the rows of
    DressedPoints and the gate-exclusion mask."""
    results = dressing.dress_grid(cfg.solitons, cfg.grid.point_rows(), audit_chi=audit_chi)
    singular = np.array([[res.singular for res in row] for row in results])
    det_a = np.array([[res.det_a for res in row] for row in results])
    return results, _gate_exclusion(singular, det_a, cfg.solitons.tolerances.singular_tol)


def _write_sweep(cfg: RunConfig, results, meta: dict,
                 oracle_columns: tuple[str, ...] = (), oracle_rows=None) -> None:
    """Write one row per dressed point, with the requested fields and the
    finite-difference residuals on Weyl grids of at least 3x3 points."""
    sig = cfg.solitons.signature
    a1, a2 = cfg.grid.axis_values()
    hodge = np.full((2, len(a1), len(a2)), math.nan)
    if "residuals" in cfg.fields and cfg.grid.coords == "weyl" \
            and len(a1) >= 3 and len(a2) >= 3:
        hodge = verification.hodge_residual(verification.FieldGrid.from_results(a1, a2, results))
    rows = []
    for i, row in enumerate(results):
        for j, res in enumerate(row):
            out: list[float] = [res.x.rho, res.x.z]
            if cfg.grid.coords == "boyer-lindquist":
                out += [float(a1[i]), float(a2[j])]
            if "q" in cfg.fields:
                out += _q_cells(res.q, sig.n)
            if "detA" in cfg.fields:
                out += [res.det_a.real, res.det_a.imag]
            if "residuals" in cfg.fields:
                out += [res.residuals["symspace"], float(hodge[0][i, j]), float(hodge[1][i, j])]
            out += [1.0 if res.singular else 0.0]
            if "ernst" in cfg.fields:
                out += _ernst_values(res.q, sig)
            if oracle_rows is not None:
                out += oracle_rows[i][j]
            rows.append(out)
    columns = _columns(sig, cfg.grid.coords, cfg.fields, oracle_columns)
    _write_output(cfg.path, cfg.format, columns, rows, meta)


def run_dress(cfg: RunConfig) -> int:
    """Row-major sweep of the dressing pipeline over the configured grid."""
    results, excluded = run_sweep(cfg)
    sig = cfg.solitons.signature
    _write_sweep(cfg, results, {"target": {"p": sig.p, "q": sig.q_minus},
                                "coords": cfg.grid.coords})
    worst = _max_constraint(results, excluded)
    n_sing = sum(res.singular for row in results for res in row)
    print(f"dressed {sum(len(r) for r in results)} points "
          f"({n_sing} singular); max gated constraint residual {worst:.3e}",
          file=sys.stderr)
    return EXIT_OK if worst <= cfg.solitons.tolerances.constraint_tol else EXIT_GATE


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _rel_err(value: float | complex, ref: float | complex) -> float:
    if ref == 0:
        return abs(value - ref)
    return abs(value - ref) / abs(ref)


def _default_bl_grid(m: float, counts: tuple[int, int] = (40, 40)) -> GridSpec:
    return GridSpec(coords="boyer-lindquist",
                    axis1=(m + 1.5, m + 10.0, counts[0]),
                    axis2=(math.pi / 8, 7 * math.pi / 8, counts[1]))


def kerr_run_config(m: float, s: float, grid: GridSpec | None = None,
                    path: str = "-", fmt: str = "csv") -> RunConfig:
    """The flat seed dressed into the Kerr family on a Boyer-Lindquist grid."""
    grid = grid or _default_bl_grid(m)
    grid.bl = targets.BLParams(m=m, s=s)
    return RunConfig(solitons=targets.kerr_config(m, s), grid=grid,
                     fields=("q", "detA", "residuals", "ernst"), path=path, format=fmt)


def _kerr_oracle_rows(m: float, s: float, grid: GridSpec) -> list[list[list[float]]]:
    """Closed-form Kerr potentials (x, y) at every grid point."""
    a_spin = math.sqrt(m * m + s * s)
    a1, a2 = grid.axis_values()
    oracle = [[targets.kerr_oracle(m, a_spin, float(r), float(th)) for th in a2] for r in a1]
    return [[[o.x, o.y] for o in row] for row in oracle]


def run_preset_kerr(m: float, s: float, grid: GridSpec | None = None,
                    path: str = "-", fmt: str = "csv") -> int:
    """Dress the flat seed into the Kerr family and diff against the
    closed form; writes per-point output with oracle columns."""
    if s <= 0 or m < 0:
        print("kerr preset needs s > 0 and m >= 0", file=sys.stderr)
        return EXIT_CONFIG
    cfg = kerr_run_config(m, s, grid, path, fmt)
    results, excluded = run_sweep(cfg)
    oracle = _kerr_oracle_rows(m, s, cfg.grid)
    worst = 0.0
    for res, (ox, oy), skip in zip(_flat(results), _flat(oracle), excluded.flat):
        if not skip:
            e = targets.ernst_g11(res.q)
            # compare the potential pair as one complex number; robust
            # where a single component passes through zero
            worst = max(worst, _rel_err(complex(e.x, e.y), complex(ox, oy)))
    meta = {"preset": "kerr", "m": m, "s": s, "spin": math.sqrt(m * m + s * s),
            "target": {"p": 1, "q": 1}, "coords": "boyer-lindquist"}
    _write_sweep(cfg, results, meta, ("oracle_x", "oracle_y"), oracle)
    gate = _max_constraint(results, excluded)
    print(f"kerr m={m} s={s}: max relative Ernst error {worst:.3e}; "
          f"max gated constraint residual {gate:.3e}", file=sys.stderr)
    ok = worst <= 1e-9 and gate <= cfg.solitons.tolerances.constraint_tol
    return EXIT_OK if ok else EXIT_GATE


def _kn_sweep(m: float, e: float, s: float,
              grid: GridSpec) -> tuple[list[list[float]], float, float]:
    """Evaluate the closed-form one-soliton family with the Kerr-Newman
    identification over a Boyer-Lindquist grid.

    Returns the output rows and the maximum relative errors of E and of Phi
    (phase-aligned at the first grid point) against the closed form.
    """
    grid.bl = targets.BLParams(m=m, s=s, e=e)
    fam = targets.kn_family_params(grid.bl)
    a1, a2 = grid.axis_values()
    phase: complex | None = None
    worst_e = worst_phi = 0.0
    rows = []
    for r in map(float, a1):
        for th in map(float, a2):
            x = targets.bl_to_weyl(r, th, grid.bl)
            try:
                q = targets.g21_soliton_family(fam["a_param"], fam["b_param"],
                                               fam["n1"], fam["n2"], fam["n3"], fam["n4"],
                                               grid.bl, r, th)
                ext = targets.ernst_g21(q, normalize=True)
            except VestureError:
                q = ext = None
            o = targets.kn_oracle(m, e, fam["oracle_a"], r, th)
            out = [x.rho, x.z, r, th] + _q_cells(q, 3) + [1.0 if ext is None else 0.0]
            if ext is not None:
                out += [ext.E.real, ext.E.imag, ext.Phi.real, ext.Phi.imag]
                if phase is None and e != 0 and abs(ext.Phi) > 0:
                    ph = o.Phi / ext.Phi
                    phase = ph / abs(ph)
                worst_e = max(worst_e, _rel_err(ext.E, o.E))
                if e != 0:
                    phi_adj = ext.Phi * (phase if phase is not None else 1.0)
                    worst_phi = max(worst_phi, _rel_err(phi_adj, o.Phi))
            else:
                out += [math.nan] * 4
            rows.append(out + [o.E.real, o.E.imag, o.Phi.real, o.Phi.imag])
    return rows, worst_e, worst_phi


def run_preset_kn(m: float, e: float, s: float, grid: GridSpec | None = None,
                  path: str = "-", fmt: str = "csv") -> int:
    """Closed-form Kerr-Newman family preset with oracle diff.

    The family with these identifications does not reproduce the closed
    form exactly (the deviation is 2 e^2 / (r^2 + a^2 cos^2 theta) in
    relative terms); the summary reports the measured maximum.
    """
    grid = grid or _default_bl_grid(m)
    rows, worst_e, worst_phi = _kn_sweep(m, e, s, grid)
    meta = {"preset": "kerr-newman", "m": m, "e": e, "s": s,
            "oracle_a": targets.kn_family_params(grid.bl)["oracle_a"],
            "target": {"p": 2, "q": 1}, "coords": "boyer-lindquist"}
    cols = _columns(targets.SIG_21, "boyer-lindquist", ("q", "ernst"),
                    ("oracle_E_re", "oracle_E_im", "oracle_Phi_re", "oracle_Phi_im"))
    _write_output(path, fmt, cols, rows, meta)
    worst = max(worst_e, worst_phi)
    print(f"kerr-newman m={m} e={e} s={s}: max relative error {worst:.3e} "
          f"(E {worst_e:.3e}, Phi {worst_phi:.3e}, Phi phase-aligned at grid corner)",
          file=sys.stderr)
    return EXIT_OK if worst <= 1e-9 else EXIT_GATE


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _load_table(path: str) -> tuple[list[str], np.ndarray]:
    """Columns and rows (one float array) of a stored CSV or JSON output."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            head = fh.read(1)
            fh.seek(0)
            if head == "{":
                doc = json.load(fh)
                cols, raw = doc["columns"], doc["rows"]
            else:
                reader = csv.reader(fh)
                cols, raw = next(reader), list(reader)
            rows = [[float(v) for v in row] for row in raw]
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        except KeyError as exc:
            raise ConfigError(f"{path}: JSON output has no {exc} entry") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: not a table of numbers: {exc}") from None
    for k, row in enumerate(rows):
        if len(row) != len(cols):
            raise ConfigError(f"{path}: row {k + 1} has {len(row)} cells "
                              f"for {len(cols)} columns")
    return list(cols), np.array(rows, dtype=float).reshape(len(rows), len(cols))


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _read_lattice(data: np.ndarray, idx: dict[str, int]):
    """(rhos, zs, ids) when the stored points form a complete rectangular
    (rho, z) lattice, ids[i, j] being the row at (rhos[i], zs[j]); else None."""
    if "rho" not in idx or "z" not in idx:
        return None
    rho, z = data[:, idx["rho"]], data[:, idx["z"]]
    rhos, zs = np.unique(rho), np.unique(z)
    if rhos.size * zs.size != len(data):
        return None
    ids = np.full((rhos.size, zs.size), -1)
    ids[np.searchsorted(rhos, rho), np.searchsorted(zs, z)] = np.arange(len(data))
    if np.any(ids < 0):
        return None
    return rhos, zs, ids


def verify_file(path: str, p: int | None = None, q_minus: int | None = None,
                constraint_tol: float = 1e-9) -> int:
    """Recompute membership residuals from the stored q of an output file."""
    cols, data = _load_table(path)
    q_cols = sorted(c for c in cols if c.startswith("q_re_"))
    if not q_cols:
        print("file has no q columns to verify", file=sys.stderr)
        return EXIT_CONFIG
    n = int(math.isqrt(len(q_cols)))
    idx = {c: k for k, c in enumerate(cols)}
    cells = [f"{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    if n * n != len(q_cols) or any(f"q_{part}_{c}" not in idx
                                   for c in cells for part in ("re", "im")):
        print("q columns do not form a square matrix", file=sys.stderr)
        return EXIT_CONFIG
    sig = Signature(p if p is not None else n - 1, q_minus if q_minus is not None else 1)
    if sig.n != n:
        print(f"signature ({sig.p},{sig.q_minus}) does not match {n}x{n} data",
              file=sys.stderr)
        return EXIT_CONFIG
    g = algebra.gamma(sig)
    q = _complex(data[:, [idx[f"q_re_{c}"] for c in cells]],
                 data[:, [idx[f"q_im_{c}"] for c in cells]]).reshape(-1, n, n)
    singular = data[:, idx["singular"]] >= 0.5 if "singular" in idx \
        else np.zeros(len(data), dtype=bool)
    lattice = _read_lattice(data, idx)
    # the sweep's own exit-gate exclusion, applied to the stored lattice
    excluded = np.zeros(len(data), dtype=bool)
    if lattice is not None and "detA_re" in idx and "detA_im" in idx:
        ids = lattice[2]
        det_a = _complex(data[ids, idx["detA_re"]], data[ids, idx["detA_im"]])
        excluded[ids[_gate_exclusion(singular[ids], det_a, 1e-12)]] = True
    res_idx = idx.get("res_constraint")
    worst_gated = 0.0
    worst_all = 0.0
    worst_diff = 0.0
    checked = 0
    for rid in range(len(data)):
        if singular[rid] or not np.all(np.isfinite(q[rid].view(float))):
            continue
        resid = algebra.symspace_residual(q[rid], g)
        worst_all = max(worst_all, resid)
        if not excluded[rid]:
            worst_gated = max(worst_gated, resid)
        if res_idx is not None and math.isfinite(data[rid, res_idx]):
            worst_diff = max(worst_diff, abs(resid - data[rid, res_idx]))
        checked += 1
    note = f" ({excluded.sum()} rows near the singular locus excluded from the gate)" \
        if excluded.any() else ""
    print(f"verified {checked} stored points: max recomputed constraint residual "
          f"{worst_gated:.3e} gated / {worst_all:.3e} overall{note}; "
          f"max deviation from stored values {worst_diff:.3e}", file=sys.stderr)
    if lattice is not None:
        _verify_hodge(data, idx, lattice, q, singular)
    return EXIT_OK if worst_gated <= constraint_tol else EXIT_GATE


def _verify_hodge(data, idx, lattice, q, singular) -> None:
    """Recompute the finite-difference residuals when the stored lattice is
    uniform with at least 3 points per axis (FieldGrid and hodge_residual
    refuse other lattices); report-only."""
    rhos, zs, ids = lattice
    values = q[ids]
    mask = ~singular[ids] & np.all(np.isfinite(values.view(float)), axis=(-2, -1))
    try:
        grid = verification.FieldGrid(rhos=rhos, zs=zs, values=values, mask=mask)
        res1, res2 = verification.hodge_residual(grid)
    except VestureError:
        return
    worst = 0.0
    if "res_hodge1" in idx and "res_hodge2" in idx:
        for got, col in ((res1, "res_hodge1"), (res2, "res_hodge2")):
            diff = np.abs(got - data[ids, idx[col]])
            worst = max(worst, np.max(diff, where=np.isfinite(diff), initial=0.0))
    print(f"recomputed finite-difference residuals: medians "
          f"({np.nanmedian(res1):.3e}, {np.nanmedian(res2):.3e}); "
          f"max deviation from stored values {worst:.3e}", file=sys.stderr)


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _suite_algebra() -> tuple[bool, str]:
    rng = np.random.default_rng(101)
    worst = 0.0
    for sig in (targets.SIG_11, targets.SIG_21):
        g = algebra.gamma(sig)
        for _ in range(20):
            m = rng.normal(size=(sig.n, sig.n)) + 1j * rng.normal(size=(sig.n, sig.n))
            m += 2 * np.eye(sig.n)
            scale = algebra.frobenius(m)
            worst = max(worst, algebra.frobenius(algebra.tau(algebra.tau(m, g), g) - m) / scale)
            worst = max(worst, algebra.frobenius(algebra.sigma(algebra.sigma(m, g), g) - m) / scale)
            worst = max(worst, algebra.frobenius(
                algebra.tau(algebra.sigma(m, g), g) - algebra.sigma(algebra.tau(m, g), g)) / scale)
    for _ in range(20):
        b = rng.normal() + 1j * rng.normal()
        a = math.sqrt(1 + abs(b) ** 2) * np.exp(1j * rng.normal())
        su11 = np.array([[a, b], [np.conj(b), np.conj(a)]])
        g2 = algebra.gamma(targets.SIG_11)
        worst = max(worst, algebra.group_residual(su11, g2))
        worst = max(worst, algebra.frobenius(algebra.tau(su11, g2) - su11))
    return worst <= 1e-12, f"max residual {worst:.2e}"


def _ab_duality_residual_fd(lam: complex, x: DomainPoint, h: float = 1e-5) -> float:
    """Duality identity Da = rho * (dual of Db) with the coefficient partials
    taken by central differences of the live ab implementation (independent
    of the closed-form partials, so it catches implementation drift)."""
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


def _suite_spectral() -> tuple[bool, str]:
    rng = np.random.default_rng(202)
    worst = 0.0
    worst_fd = 0.0
    for _ in range(100):
        x = DomainPoint(rho=0.5 + 2.5 * rng.random(), z=rng.normal())
        lam = complex(rng.normal(), rng.normal())
        if abs(lam) < 1e-2:
            lam += 0.5
        if abs(lam * lam + x.rho ** 2) < 1e-2:
            lam *= 1.7
        a, b = spectral.ab(lam, x)
        worst = max(worst, abs(a * a + x.rho ** 2 * b * b - a))
        t = spectral.deck(lam, x)
        at, bt = spectral.ab(t, x)
        worst = max(worst, abs(at - (1 - a)), abs(bt + b))
        worst = max(worst, abs(spectral.varpi(t, x) - spectral.varpi(lam, x))
                    / max(1.0, abs(spectral.varpi(lam, x))))
        worst = max(worst, spectral.ab_d_identity_residual(lam, x))
        worst_fd = max(worst_fd, _ab_duality_residual_fd(lam, x))
        w0 = complex(rng.normal(), 0.3 + rng.random())
        pair = spectral.pole_pair(w0, x)
        worst = max(worst, abs(pair.lambda_in * pair.lambda_out + x.rho ** 2)
                    / max(1.0, x.rho ** 2))
    r1 = verification.lambda_flow_residual(1j, DomainPoint(1.0, 1.0), 1e-3)
    r2 = verification.lambda_flow_residual(1j, DomainPoint(1.0, 1.0), 5e-4)
    ratio = r1 / r2
    ok = worst <= 1e-12 and worst_fd <= 1e-6 and 3.5 <= ratio <= 4.5
    return ok, (f"max identity residual {worst:.2e}, duality (finite diff) "
                f"{worst_fd:.2e}, flow ratio {ratio:.3f}")


def _suite_commutators() -> tuple[bool, str]:
    report = targets.commutation_check()
    bad = [k for k, v in report.items() if not v]
    return not bad, "28/28 brackets match" if not bad else f"mismatches: {bad}"


def _suite_cartan() -> tuple[bool, str]:
    rng = np.random.default_rng(404)
    worst = 0.0
    gt = targets.GAMMA_TILDE
    for _ in range(50):
        mu, d, eta, th = rng.normal(size=4) * 0.6
        q = targets.cartan_embed_su21(mu, d, eta, th)
        phi = (eta + 1j * th) / math.sqrt(2.0)
        ernst = math.exp(2 * mu) + abs(phi) ** 2 + 1j * d
        worst = max(worst, np.abs(q - targets.ptilde_matrix(ernst, phi)).max())
        worst = max(worst, algebra.frobenius(q @ gt @ q @ gt - np.eye(3)))
        worst = max(worst, algebra.frobenius(q - q.conj().T))
        worst = max(worst, abs(np.linalg.det(q) - 1))
    return worst <= 1e-12, f"max deviation {worst:.2e}"


def _random_invariance_configs(rng) -> list[SolitonConfig]:
    cfgs = []
    for _ in range(10):
        n_sol = int(rng.integers(1, 3))
        poles = tuple(complex(rng.normal(), 0.4 + rng.random()) for _ in range(n_sol))
        vectors = tuple(rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(n_sol))
        cfgs.append(SolitonConfig(signature=targets.SIG_11, poles=poles, vectors=vectors,
                                  seed=seeds.identity_seed(targets.SIG_11)))
    return cfgs


def _suite_invariance() -> tuple[bool, str]:
    rng = np.random.default_rng(505)
    worst = 0.0
    for cfg in _random_invariance_configs(rng):
        x = DomainPoint(rho=0.7 + 2 * rng.random(), z=rng.normal())
        base = dressing.dress_point(cfg, x, audit_chi=False)
        if base.singular:
            continue
        scales = tuple(complex(rng.normal(), rng.normal()) + 2.0 for _ in cfg.vectors)
        scaled = SolitonConfig(signature=cfg.signature, poles=cfg.poles,
                               vectors=tuple(c * v for c, v in zip(scales, cfg.vectors)),
                               seed=cfg.seed, tolerances=cfg.tolerances)
        alt = dressing.dress_point(scaled, x, audit_chi=False)
        if not alt.singular:
            worst = max(worst, algebra.frobenius(base.q - alt.q))
        swapped = dressing.dress_point(cfg, x, swap=(True,) * cfg.n_solitons, audit_chi=False)
        if not swapped.singular:
            worst = max(worst, algebra.frobenius(base.q - swapped.q))
    return worst <= 1e-10, f"max |q - q'| {worst:.2e}"


def _suite_chi() -> tuple[bool, str]:
    rng = np.random.default_rng(606)
    cfg = targets.kerr_config(1.0, 1.0)
    worst = 0.0
    audited = 0
    while audited < 20:
        x = DomainPoint(rho=0.5 + 4 * rng.random(), z=3 * rng.normal())
        res = dressing.dress_point(cfg, x, audit_chi=True)
        if res.singular:
            continue
        worst = max(worst, res.residuals["chi_reality"], res.residuals["chi_involution"])
        audited += 1
    return worst <= 1e-9, f"max audit residual {worst:.2e}"


def _suite_kerr() -> tuple[bool, str]:
    worst = 0.0
    worst_c = 0.0
    for m, s in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.3)):
        cfg = kerr_run_config(m, s)
        results, _ = run_sweep(cfg, audit_chi=False)
        oracle = _kerr_oracle_rows(m, s, cfg.grid)
        for res, (ox, oy) in zip(_flat(results), _flat(oracle)):
            if not res.singular:
                e = targets.ernst_g11(res.q)
                worst = max(worst, _rel_err(e.x, ox), _rel_err(e.y, oy))
        singular = np.array([[res.singular for res in row] for row in results])
        worst_c = max(worst_c, _max_constraint(results, singular))
    ok = worst <= 1e-9 and worst_c <= 1e-9
    return ok, f"max oracle error {worst:.2e}, max constraint {worst_c:.2e}"


def _suite_kn() -> tuple[bool, str]:
    worst = max(max(_kn_sweep(m, e, s, _default_bl_grid(m))[1:])
                for m, e, s in ((1.0, 0.5, 1.0), (1.0, 0.9, 0.5)))
    return worst <= 1e-9, f"max oracle error {worst:.2e} (known family/oracle gap)"


def _kerr_field(m: float, s: float, box, h: float) -> verification.FieldGrid:
    rho0, rho1, z0, z1 = box
    grid = GridSpec(coords="weyl", axis1=(rho0, rho1, round((rho1 - rho0) / h) + 1),
                    axis2=(z0, z1, round((z1 - z0) / h) + 1))
    results, _ = run_sweep(RunConfig(solitons=targets.kerr_config(m, s), grid=grid),
                           audit_chi=False)
    return verification.FieldGrid.from_results(*grid.axis_values(), results)


def _suite_convergence() -> tuple[bool, str]:
    box = (3.2, 5.2, -1.5, 1.5)
    coarse = _kerr_field(1.0, 1.0, box, 0.1)
    fine = _kerr_field(1.0, 1.0, box, 0.05)
    r1, r2 = verification.refinement_ratios(coarse, fine)
    const = verification.FieldGrid(
        rhos=np.linspace(1, 2, 9), zs=np.linspace(-1, 1, 9),
        values=np.broadcast_to(np.eye(2, dtype=complex), (9, 9, 2, 2)).copy(),
        mask=np.ones((9, 9), dtype=bool))
    c1, c2 = verification.hodge_residual(const)
    exact = np.nanmax(c1) == 0.0 and np.nanmax(c2) == 0.0
    ok = 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5 and exact
    return ok, f"ratios ({r1:.3f}, {r2:.3f}), constant field exact: {exact}"


def _suite_flat() -> tuple[bool, str]:
    results, _ = run_sweep(kerr_run_config(0.0, 1.0, _default_bl_grid(0.0, (12, 12))),
                           audit_chi=False)
    worst = 0.0
    for res in _flat(results):
        e = targets.ernst_g11(res.q)
        worst = max(worst, abs(e.x - 1.0), abs(e.y))
    return worst <= 1e-12, f"max |(x,y)-(1,0)| {worst:.2e}"


SELFTEST_SUITES = [
    ("algebra-involutions", _suite_algebra),
    ("spectral-identities", _suite_spectral),
    ("su21-commutators", _suite_commutators),
    ("cartan-embedding", _suite_cartan),
    ("invariance", _suite_invariance),
    ("chi-audits", _suite_chi),
    ("kerr-oracle", _suite_kerr),
    ("kn-oracle", _suite_kn),
    ("convergence-order", _suite_convergence),
    ("flat-limit", _suite_flat),
]


def run_selftest() -> int:
    t0 = time.time()
    all_ok = True
    print(f"{'suite':<22} {'status':<6} detail")
    for name, fn in SELFTEST_SUITES:
        t1 = time.time()
        ok, detail = fn()
        all_ok &= ok
        print(f"{name:<22} {'PASS' if ok else 'FAIL':<6} {detail} [{time.time() - t1:.2f}s]")
    print(f"total {time.time() - t0:.2f}s: {'all suites passed' if all_ok else 'FAILURES present'}")
    return EXIT_OK if all_ok else EXIT_CONFIG


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_grid_args(sp) -> None:
    sp.add_argument("--r-min", type=float, default=None)
    sp.add_argument("--r-max", type=float, default=None)
    sp.add_argument("--r-count", type=int, default=40)
    sp.add_argument("--theta-min", type=float, default=math.pi / 8)
    sp.add_argument("--theta-max", type=float, default=7 * math.pi / 8)
    sp.add_argument("--theta-count", type=int, default=40)
    sp.add_argument("--out", default="-", help="output path ('-' for stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")


def _grid_from_args(args, m: float) -> GridSpec:
    r_min = args.r_min if args.r_min is not None else m + 1.5
    r_max = args.r_max if args.r_max is not None else m + 10.0
    return GridSpec(coords="boyer-lindquist",
                    axis1=(r_min, r_max, args.r_count),
                    axis2=(args.theta_min, args.theta_max, args.theta_count))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vesture",
        description="Soliton dressing for axially symmetric harmonic maps; "
                    "Kerr / Kerr-Newman generators and numerical verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("dress", help="run a sweep from a JSON config")
    sp.add_argument("-c", "--config", required=True)

    sp = sub.add_parser("kerr", help="Kerr preset: dress the flat seed and diff the oracle")
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--s", type=float, required=True)
    _add_grid_args(sp)

    sp = sub.add_parser("kerr-newman", help="closed-form family preset with oracle diff")
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--e", type=float, required=True)
    sp.add_argument("--s", type=float, required=True)
    _add_grid_args(sp)

    sp = sub.add_parser("verify", help="recompute residuals from a stored output file")
    sp.add_argument("file")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--constraint-tol", type=float, default=1e-9)

    sub.add_parser("selftest", help="run the built-in invariant suites")

    args = parser.parse_args(argv)
    try:
        if args.command == "dress":
            with open(args.config, "rb") as fh:
                text = fh.read()
            return run_dress(parse_config(text))
        if args.command == "kerr":
            return run_preset_kerr(args.m, args.s, _grid_from_args(args, args.m),
                                   args.out, args.format)
        if args.command == "kerr-newman":
            return run_preset_kn(args.m, args.e, args.s, _grid_from_args(args, args.m),
                                 args.out, args.format)
        if args.command == "verify":
            return verify_file(args.file, args.p, args.q, args.constraint_tol)
        if args.command == "selftest":
            return run_selftest()
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_CONFIG

if __name__ == "__main__":
    sys.exit(main())
