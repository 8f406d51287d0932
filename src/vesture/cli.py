"""Batch front end: config-driven sweeps, presets, verification, selftest.

Exit codes: 0 success, 1 config error, 2 numeric failure, 3 constraint-gate
failure, 4 I/O failure. Singular grid points are data, not failures. Output
is bit-identical across runs of the same config: fixed iteration order,
fixed audit samples, no randomness or wall-clock inputs in the payload.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import algebra, checks, dressing, seeds, targets, verification
from .algebra import Signature
from .dressing import DressedGrid, SolitonConfig, Tolerances
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

    def coordinates(self) -> DomainPoint:
        """The Weyl coordinates of the grid points, as (axis1, axis2) arrays."""
        a1, a2 = self.axis_values()
        if self.coords == "weyl":
            return DomainPoint(*np.meshgrid(a1, a2, indexing="ij"))
        return targets.bl_to_weyl(a1[:, None], a2[None, :], self.bl)


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
    if count < 1 or not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        problems.append(f"grid.{name} needs count >= 1 and finite min <= max")
    return (lo, hi, count)


def _theta_axis(raw, problems: list[str]) -> tuple[float, float, int]:
    axis = _axis_triple(raw, "theta", problems)
    if not (0.0 < axis[0] and axis[1] < math.pi):
        problems.append("grid.theta must lie strictly inside (0, pi)")
    return axis


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
        axis2 = _theta_axis(grid_doc.get("theta"), problems)
        params = _section(grid_doc.get("params", {}), "grid.params", ("m", "s", "e"),
                          problems) or {}
        try:
            bl = targets.BLParams(m=float(params.get("m", 0.0)),
                                  s=float(params.get("s", 0.0)),
                                  e=float(params.get("e", 0.0)))
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


def _write_output(path: str, fmt: str, columns: list[str], rows: np.ndarray,
                  meta: dict) -> None:
    """Write a (P, len(columns)) table as CSV, 17 significant digits per
    value, or as JSON."""
    if fmt == "csv":
        line = ",".join(["%.17g"] * len(columns)) + "\n"
        text = ",".join(columns) + "\n" + "".join(line % tuple(row) for row in rows.tolist())
    else:
        text = json.dumps({"meta": meta, "columns": columns, "rows": rows.tolist()}) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _gate_exclusion(singular: np.ndarray, det_a: np.ndarray, singular_tol: float) -> np.ndarray:
    """Mask of points excluded from exit gates: singular points and the
    det A locus, widened by a 3-cell margin."""
    locus = singular | verification.locus_mask(det_a, singular_tol)
    return verification.exclusion_mask(locus, margin=3)


def _max_constraint(dressed: DressedGrid, excluded: np.ndarray) -> float:
    """Max membership-residual component over the points not excluded; NaN
    when any of them is NaN, so that it fails the gate."""
    keep = ~excluded.ravel()
    return checks.worst(dressed.residuals[key][keep]
                        for key in ("quadratic", "hermiticity", "unit_det"))


def _vacuous(excluded: np.ndarray) -> str:
    """The summary's note when the exit gate is left with no point."""
    return (f"; gate vacuous: all {excluded.size} points singular or within 3 cells of the "
            "singular locus") if excluded.all() else ""


def run_sweep(cfg: RunConfig) -> tuple[DressedGrid, np.ndarray]:
    """Dress the configured grid in row-major order; returns the dressed
    arrays and the gate-exclusion mask over the grid."""
    x = cfg.grid.coordinates()
    dressed = dressing.dress(cfg.solitons, x.rho, x.z)
    excluded = _gate_exclusion(dressed.singular.reshape(x.rho.shape),
                               dressed.det_a.reshape(x.rho.shape),
                               cfg.solitons.tolerances.singular_tol)
    return dressed, excluded


def _write_sweep(cfg: RunConfig, dressed: DressedGrid, meta: dict,
                 oracle_columns: tuple[str, ...] = (), oracle: tuple = ()):
    """Write one row per dressed point: the requested fields, finite-difference
    residuals on Weyl grids of at least 3x3 points, and the oracle columns.
    Returns the Ernst values written (None without the ernst field)."""
    sig = cfg.solitons.signature
    a1, a2 = cfg.grid.axis_values()
    cols = [dressed.rho, dressed.z]
    if cfg.grid.coords == "boyer-lindquist":
        cols += [np.repeat(a1, len(a2)), np.tile(a2, len(a1))]
    if "q" in cfg.fields:
        cols.append(dressed.q.reshape(len(dressed.q), -1).view(float))
    if "detA" in cfg.fields:
        cols += [dressed.det_a.real, dressed.det_a.imag]
    if "residuals" in cfg.fields:
        hodge = np.full((2, len(a1) * len(a2)), math.nan)
        if cfg.grid.coords == "weyl" and len(a1) >= 3 and len(a2) >= 3:
            field = verification.FieldGrid.from_results(a1, a2, dressed)
            hodge = np.reshape(verification.hodge_residual(field), hodge.shape)
        cols += [dressed.residuals["symspace"], *hodge]
    cols.append(dressed.singular)
    ernst = None
    if "ernst" in cfg.fields and sig.n == 2:
        ernst = targets.ernst_g11(dressed.q)
        cols += [ernst.x, ernst.y]
    elif "ernst" in cfg.fields:
        ernst = targets.ernst_g21(dressed.q)
        cols += [ernst.E.real, ernst.E.imag, ernst.Phi.real, ernst.Phi.imag]
    columns = _columns(sig, cfg.grid.coords, cfg.fields, oracle_columns)
    _write_output(cfg.path, cfg.format, columns, np.column_stack(cols + list(oracle)), meta)
    return ernst


def run_dress(cfg: RunConfig) -> int:
    """Row-major sweep of the dressing pipeline over the configured grid."""
    dressed, excluded = run_sweep(cfg)
    sig = cfg.solitons.signature
    _write_sweep(cfg, dressed, {"target": {"p": sig.p, "q": sig.q_minus},
                                "coords": cfg.grid.coords})
    worst = _max_constraint(dressed, excluded)
    print(f"dressed {excluded.size} points ({int(dressed.singular.sum())} singular); "
          f"max gated constraint residual {worst:.3e}{_vacuous(excluded)}", file=sys.stderr)
    return EXIT_OK if worst <= cfg.solitons.tolerances.constraint_tol else EXIT_GATE


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def run_preset_kerr(m: float, s: float, grid: GridSpec, path: str = "-",
                    fmt: str = "csv") -> int:
    """Dress the flat seed into the Kerr family and diff against the
    closed form; writes per-point output with oracle columns."""
    if s <= 0 or m < 0:
        print("kerr preset needs s > 0 and m >= 0", file=sys.stderr)
        return EXIT_CONFIG
    cfg = RunConfig(solitons=targets.kerr_config(m, s),
                    grid=replace(grid, bl=targets.BLParams(m=m, s=s)),
                    fields=("q", "detA", "residuals", "ernst"), path=path, format=fmt)
    dressed, excluded = run_sweep(cfg)
    ox, oy = checks.kerr_reference(m, s, *grid.axis_values())
    meta = {"preset": "kerr", "m": m, "s": s, "spin": math.sqrt(m * m + s * s),
            "target": {"p": 1, "q": 1}, "coords": "boyer-lindquist"}
    e = _write_sweep(cfg, dressed, meta, ("oracle_x", "oracle_y"), (ox, oy))
    # compare the potential pair as one complex number, robust where a
    # single component passes through zero; a NaN fails the gate
    err = checks.rel_err(e.x + 1j * e.y, ox + 1j * oy)
    worst = float(np.max(err[~excluded.ravel()], initial=0.0))
    gate = _max_constraint(dressed, excluded)
    print(f"kerr m={m} s={s}: max relative Ernst error {worst:.3e}; "
          f"max gated constraint residual {gate:.3e}{_vacuous(excluded)}", file=sys.stderr)
    ok = worst <= 1e-9 and gate <= cfg.solitons.tolerances.constraint_tol
    return EXIT_OK if ok else EXIT_GATE


def run_preset_kn(m: float, e: float, s: float, grid: GridSpec, path: str = "-",
                  fmt: str = "csv") -> int:
    """Closed-form Kerr-Newman family preset with oracle diff.

    The family with the kn_family_params identification reproduces the
    Kerr-Newman potentials at spin a = -sqrt(m^2 + s^2 + e^2) to rounding;
    the summary reports the measured maximum and the exit code gates it
    at 1e-9.
    """
    bl = targets.BLParams(m=m, s=s, e=e)
    a1, a2 = grid.axis_values()
    x = targets.bl_to_weyl(a1[:, None], a2[None, :], bl)
    r, th = np.repeat(a1, len(a2)), np.tile(a2, len(a1))
    fam = checks.kn_family(bl, r, th)
    ext, singular = fam.ernst, np.isnan(fam.ernst.x)
    table = np.column_stack([x.rho.ravel(), x.z.ravel(), r, th,
                             fam.q.reshape(len(r), -1).view(float), singular,
                             ext.E.real, ext.E.imag, ext.Phi.real, ext.Phi.imag,
                             fam.oracle_e.real, fam.oracle_e.imag,
                             fam.oracle_phi.real, fam.oracle_phi.imag])
    meta = {"preset": "kerr-newman", "m": m, "e": e, "s": s,
            "oracle_a": targets.kn_family_params(bl)["oracle_a"],
            "target": {"p": 2, "q": 1}, "coords": "boyer-lindquist"}
    cols = _columns(targets.SIG_21, "boyer-lindquist", ("q", "ernst"),
                    ("oracle_E_re", "oracle_E_im", "oracle_Phi_re", "oracle_Phi_im"))
    _write_output(path, fmt, cols, table, meta)
    worst = checks.worst([fam.error_e, fam.error_phi])
    print(f"kerr-newman m={m} e={e} s={s}: max relative error {worst:.3e} "
          f"(E {fam.error_e:.3e}, Phi {fam.error_phi:.3e})", file=sys.stderr)
    return EXIT_OK if worst <= 1e-9 else EXIT_GATE


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_widths(path: str, widths: list[int], columns: int) -> None:
    """Refuse a table without data rows or with a row of the wrong width."""
    for k, width in enumerate(widths):
        if width != columns:
            raise ConfigError(f"{path}: row {k + 1} has {width} cells for {columns} columns")
    if not widths:
        raise ConfigError(f"{path}: no data rows")


def _load_table(path: str) -> tuple[list[str], np.ndarray, tuple]:
    """Columns, rows (one float array) and the stored signature (p, q) of
    an output; (None, None) when it has none, as in a CSV.

    A CSV body is parsed by one np.loadtxt call. It reads every cell the
    %.17g writer emits, nan and inf included, and refuses spellings such
    as 1_000 or quoted cells that float() or csv.reader would let through.
    A JSON row must be a list of JSON numbers: no strings or booleans.
    """
    stored = (None, None)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
            if text[:1] == "{":
                doc = json.loads(text)
                cols, raw = doc["columns"], doc["rows"]
                target = doc.get("meta", {}).get("target")
                stored = stored if target is None else (int(target["p"]), int(target["q"]))
                for k, row in enumerate(raw):
                    if type(row) is not list or any(type(v) not in (int, float) for v in row):
                        raise ValueError(f"row {k + 1} is not a list of JSON numbers")
                _check_widths(path, [len(row) for row in raw], len(cols))
                table = np.array(raw, dtype=float)
            else:
                lines = text.split("\n")
                if not lines[-1]:
                    lines.pop()
                cols, body = next(csv.reader(lines[:1])), lines[1:]
                # a blank line is a row of 0 cells, as csv.reader reads it
                _check_widths(path, [line.count(",") + 1 if line else 0 for line in body],
                              len(cols))
                table = np.loadtxt(body, delimiter=",", dtype=float, ndmin=2, comments=None)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        except KeyError as exc:
            raise ConfigError(f"{path}: JSON output has no {exc} entry") from None
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ConfigError(f"{path}: not a table of numbers: {exc}") from None
    return list(cols), table, stored


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
    """Recompute membership residuals from the stored q of an output file.

    The signature is p, q_minus when given, else the one a JSON output
    stores. A CSV with n <= 3 needs neither: (n-1, 1) and (1, n-1) give the
    same residuals.
    """
    cols, data, stored = _load_table(path)
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
    if n < 2:
        print(f"{n}x{n} q data has no SU(p,q) target (n = p + q >= 2)", file=sys.stderr)
        return EXIT_CONFIG
    p, q_minus = stored[0] if p is None else p, stored[1] if q_minus is None else q_minus
    if n >= 4 and None in (p, q_minus):
        print(f"{n}x{n} q columns do not fix the signature: pass --p and --q", file=sys.stderr)
        return EXIT_CONFIG
    sig = Signature(n - 1 if p is None else p, 1 if q_minus is None else q_minus)
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
    # membership residuals of every stored finite q; maxima skip NaN
    rows = ~singular & np.all(np.isfinite(q.view(float)), axis=(-2, -1))
    resid = algebra.symspace_residual(q[rows], g)
    worst_all = float(np.fmax.reduce(resid, initial=0.0))
    worst_gated = float(np.fmax.reduce(resid[~excluded[rows]], initial=0.0))
    worst_diff = 0.0
    if "res_constraint" in idx:
        stored = data[rows, idx["res_constraint"]]
        finite = np.isfinite(stored)
        worst_diff = float(np.fmax.reduce(np.abs(resid - stored)[finite], initial=0.0))
    checked = int(rows.sum())
    note = f" ({excluded.sum()} rows near the singular locus excluded from the gate)" \
        if excluded.any() else ""
    print(f"verified {checked} stored points: max recomputed constraint residual "
          f"{worst_gated:.3e} gated / {worst_all:.3e} overall{note}{_vacuous(excluded | ~rows)}; "
          f"max deviation from stored values {worst_diff:.3e}", file=sys.stderr)
    if lattice is not None:
        _verify_hodge(data, idx, lattice, q, singular)
    return EXIT_OK if worst_gated <= constraint_tol else EXIT_GATE


def _verify_hodge(data, idx, lattice, q, singular) -> None:
    """Recompute the finite-difference residuals when the stored lattice is
    uniform with at least 3 points per axis (FieldGrid and hodge_residual
    refuse other lattices, and the refusal is reported); report-only."""
    rhos, zs, ids = lattice
    values = q[ids]
    mask = ~singular[ids] & np.all(np.isfinite(values.view(float)), axis=(-2, -1))
    try:
        grid = verification.FieldGrid(rhos=rhos, zs=zs, values=values, mask=mask)
        res1, res2 = verification.hodge_residual(grid)
    except VestureError as exc:
        print(f"finite-difference residuals not recomputed: {exc}", file=sys.stderr)
        return
    worst = 0.0
    if "res_hodge1" in idx and "res_hodge2" in idx:
        for got, col in ((res1, "res_hodge1"), (res2, "res_hodge2")):
            diff = np.abs(got - data[ids, idx[col]])
            worst = max(worst, np.max(diff, where=np.isfinite(diff), initial=0.0))
    # medians over the finite residuals only: every stencil may touch a hole
    medians = [f"{np.median(r[np.isfinite(r)]):.3e}" if np.isfinite(r).any()
               else "no finite value" for r in (res1, res2)]
    print(f"recomputed finite-difference residuals: medians ({', '.join(medians)}); "
          f"max deviation from stored values {worst:.3e}", file=sys.stderr)


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

_KERR_SETS = ((1.0, 1.0), (0.5, 2.0), (2.0, 0.3))
_KN_SETS = ((1.0, 0.5, 1.0), (1.0, 0.9, 0.5))
_KERR_BOX = (3.2, 5.2, -1.5, 1.5)


def _spectral_gate(r: checks.Spectral) -> tuple[bool, str]:
    identity = max(r.identity, r.product)
    ok = identity <= 1e-12 and r.duality_fd <= 1e-6 and 3.5 <= r.flow_ratio <= 4.5
    return ok, (f"max identity residual {identity:.2e}, duality (finite diff) "
                f"{r.duality_fd:.2e}, flow ratio {r.flow_ratio:.3f}")


def _kerr_gate(r: checks.KerrOracle) -> tuple[bool, str]:
    constraint = max(r.quadratic, r.hermiticity, r.unit_det)
    ok = r.error <= 1e-9 and constraint <= 1e-9
    return ok, f"max oracle error {r.error:.2e}, max constraint {constraint:.2e}"


def _kn_gate(sets: list[checks.KNOracle]) -> tuple[bool, str]:
    error, singular = checks.worst([r.error for r in sets]), sum(r.singular for r in sets)
    return (error <= 1e-9 and singular == 0,
            f"max oracle error {error:.2e}, {singular} singular points")


def _convergence_gate(r: checks.Convergence) -> tuple[bool, str]:
    ok = 3.5 <= r.curvature <= 4.5 and 3.5 <= r.divergence <= 4.5 and r.constant_exact
    return ok, (f"ratios ({r.curvature:.3f}, {r.divergence:.3f}), "
                f"constant field exact: {r.constant_exact}")


#: (suite, check, gate): the gate turns the check's measurement into
#: (passed, detail)
SELFTEST_SUITES = (
    ("algebra-involutions", lambda: checks.algebra_involutions(101, 20),
     lambda worst: (worst <= 1e-12, f"max residual {worst:.2e}")),
    ("spectral-identities", lambda: checks.spectral_identities(202, 100), _spectral_gate),
    ("su21-commutators", checks.su21_commutators,
     lambda r: (r[0] == r[1] == 28, f"{r[0]}/{r[1]} brackets match")),
    ("cartan-embedding", lambda: checks.cartan_embedding(404, 50),
     lambda worst: (worst <= 1e-12, f"max deviation {worst:.2e}")),
    ("invariance", lambda: checks.invariance(505, 10),
     lambda worst: (worst <= 1e-10, f"max |q - q'| {worst:.2e}")),
    ("chi-audits", lambda: checks.chi_audit(606, 20),
     lambda worst: (worst <= 1e-9, f"max audit residual {worst:.2e} over 20 points")),
    ("kerr-oracle", lambda: checks.kerr_oracle(_KERR_SETS), _kerr_gate),
    ("kn-oracle", lambda: checks.kn_oracle(_KN_SETS), _kn_gate),
    ("convergence-order", lambda: checks.convergence(_KERR_BOX, 0.1), _convergence_gate),
    ("flat-limit", lambda: checks.flat_limit(12),
     lambda worst: (worst <= 1e-12, f"max |(x,y)-(1,0)| {worst:.2e}")),
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
    """The preset grid from the command line, under the rules of a config's
    Boyer-Lindquist grid."""
    r_min = args.r_min if args.r_min is not None else m + 1.5
    r_max = args.r_max if args.r_max is not None else m + 10.0
    problems: list[str] = []
    axis1 = _axis_triple((r_min, r_max, args.r_count), "r", problems)
    axis2 = _theta_axis((args.theta_min, args.theta_max, args.theta_count), problems)
    if problems:
        raise ConfigError("; ".join(problems))
    return GridSpec(coords="boyer-lindquist", axis1=axis1, axis2=axis2)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    main() call; parse_args keeps no state in it between calls."""
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

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
