"""Batch front end: config-driven sweeps, presets, verification, selftest.

Exit codes: 0 success, 1 config or command-line usage error, 2 numeric
failure, 3 constraint-gate failure (in verify, a non-finite stored q at a
gated point included), 4 I/O failure. Singular grid points are data, not
failures. Output is bit-identical across runs of the same config: fixed
iteration order, no randomness or wall-clock inputs in the payload.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import algebra, checks, seeds, targets, verification
from .algebra import Signature
from .dressing import DressedGrid, SolitonConfig
from .errors import ConfigError, DomainError, NumericError, VestureError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_GATE = 3
EXIT_IO = 4
#: the per-point relative Ernst error that the presets' gate and the oracle suites allow
ERNST_TOL = 1e-9

_ALLOWED_FIELDS = ("q", "ernst", "residuals", "detA", "oracle")


@dataclass
class GridSpec:
    axis1: tuple[float, float, int]   # rho or r
    axis2: tuple[float, float, int]   # z or theta
    bl: targets.BLParams | None = None  # the (r, theta) chart; None: a (rho, z) grid

    def axis_values(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linspace(*self.axis1), np.linspace(*self.axis2)


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
    elif count > 1 and lo == hi:
        problems.append(f"grid.{name} has {count} points but min = max = {lo!r}")
    elif not math.isfinite(hi - lo):
        problems.append(f"grid.{name} spans max - min = {hi - lo!r}, which overflows")
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
    _section(doc, "config", ("target", "seed", "solitons", "grid", "outputs"), problems)

    sig = Signature(1, 1)
    tgt = _section(doc.get("target", {}), "target", ("p", "q"), problems)
    if tgt is not None:
        try:
            sig = Signature(int(tgt.get("p", 0)), int(tgt.get("q", 0)))
        except (ConfigError, TypeError, ValueError) as exc:
            problems.append(f"target: {exc}")

    seed_doc = doc.get("seed", "identity")
    seed = None
    if seed_doc == "identity":
        seed = seeds.identity_seed(sig)
    elif isinstance(seed_doc, dict) and "matrix" in seed_doc:
        _section(seed_doc, "seed", ("matrix",), problems)
        try:
            rows = [[_complex_pair(cell, "seed.matrix entry", problems)
                     for cell in row] for row in seed_doc["matrix"]]
            seed = seeds.constant_seed(np.array(rows, dtype=complex), sig)
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
        elif not algebra.any_of(v != 0):
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
        params = _section(grid_doc.get("params", {}), "grid.params", ("m", "s"), problems) or {}
        try:
            bl = targets.BLParams(m=float(params.get("m", 0.0)), s=float(params.get("s", 0.0)))
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
                                     vectors=tuple(vectors), seed=seed)
            return RunConfig(solitons=solitons,
                             grid=GridSpec(axis1, axis2, bl),
                             fields=fields, path=path, format=fmt)
        except ConfigError as exc:
            problems.append(str(exc))
    raise ConfigError("invalid config:\n  - " + "\n  - ".join(problems))


# ---------------------------------------------------------------------------
# output assembly
# ---------------------------------------------------------------------------

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


def _vacuous(excluded: np.ndarray) -> str:
    """The summary's note when the exit gate is left with no point."""
    return (f"; gate vacuous: all {excluded.size} points singular or within "
            f"{verification.GATE_MARGIN} cells of the singular locus") if excluded.all() else ""


def _write_sweep(cfg: RunConfig, dressed: DressedGrid, axes: tuple[np.ndarray, np.ndarray],
                 points: dict[str, np.ndarray], meta: dict,
                 extra: dict[str, np.ndarray]) -> np.ndarray:
    """Write one row per dressed point of the lattice of ``axes``: the
    coordinates, the ``points`` columns (name: values), the requested fields
    but ernst, with verification.audit's finite-difference residual, and the
    ``extra`` columns, as one array; the payload meta is ``meta``, then the
    target and the coordinates. Returns audit's gate-exclusion mask."""
    sig = cfg.solitons.signature
    n, size = sig.n, len(dressed.q)
    excluded, hodge, _ = verification.audit(axes, dressed.q, dressed.singular, dressed.det_a,
                                            cfg.grid.bl is None)
    names, cols = ["rho", "z", *points], [dressed.rho, dressed.z, *points.values()]
    if "q" in cfg.fields:
        names += [f"q_{part}_{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)
                  for part in ("re", "im")]
        cols += list(dressed.q.reshape(size, -1).view(float).T)
    if "q" in cfg.fields or "detA" in cfg.fields:  # the gate's input goes with q
        names += ["detA_re", "detA_im"]
        cols += [dressed.det_a.real, dressed.det_a.imag]
    if "residuals" in cfg.fields:
        names += ["res_constraint", "res_hodge2"]
        cols += [dressed.residuals["symspace"], hodge]
    names += ["singular", *extra]
    cols += [dressed.singular, *extra.values()]
    meta = {**meta, "target": {"p": sig.p, "q": sig.q_minus},
            "coords": "weyl" if cfg.grid.bl is None else "boyer-lindquist"}
    _write_output(cfg.path, cfg.format, names, np.array(cols).T, meta)
    return excluded


def _summary(dressed: DressedGrid, excluded: np.ndarray, head: str, ok: bool = True) -> int:
    """Print the summary line, ``head`` and the largest gated residuals, and
    return the exit code: the gate holds the membership residual over the
    gated points to algebra.CONSTRAINT_TOL, a NaN failing it, and needs the
    caller's own gate ``ok``. The chi audits are reported, not gated."""
    keep = ~excluded
    worst = checks.constraint(dressed, keep)
    reality, involution = (checks.worst([dressed.residuals[key][keep]])
                           for key in ("chi_reality", "chi_involution"))
    print(f"{head}; max gated constraint residual {worst:.3e}; max gated chi residuals "
          f"{reality:.3e} (reality), {involution:.3e} (involution){_vacuous(excluded)}",
          file=sys.stderr)
    return EXIT_OK if ok and worst <= algebra.CONSTRAINT_TOL else EXIT_GATE


def run_dress(cfg: RunConfig) -> int:
    """Row-major sweep of the dressing pipeline over the configured grid."""
    axes = cfg.grid.axis_values()
    dressed, points = checks.sweep(cfg.solitons, axes, cfg.grid.bl)
    excluded = _write_sweep(
        cfg, dressed, axes, points, {},
        checks.ernst_columns(checks.ernst(dressed.q)) if "ernst" in cfg.fields else {})
    return _summary(dressed, excluded,
                    f"dressed {excluded.size} points ({int(dressed.singular.sum())} singular)")


def run_preset(family: checks.Family, grid: GridSpec, path: str = "-", fmt: str = "csv") -> int:
    """Dress a closed-form family on a Boyer-Lindquist grid, one carrying
    the family's chart, and write it with its Ernst and oracle columns. The
    exit gate also holds the per-point Ernst error over the gated points to
    ERNST_TOL."""
    cfg = RunConfig(solitons=family.config(), grid=grid,
                    fields=("q", "detA", "residuals", "ernst"), path=path, format=fmt)
    axes = grid.axis_values()
    dressed, points = checks.sweep(cfg.solitons, axes, grid.bl)
    columns, error = family.compare(dressed.q, points)
    excluded = _write_sweep(cfg, dressed, axes, points, family.meta(), columns)
    worst = checks.worst([error[~excluded]])
    return _summary(dressed, excluded,
                    f"{family.label()}: max relative Ernst error {worst:.3e}", worst <= ERNST_TOL)


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
    A JSON row must be a list of JSON numbers: no strings or booleans, the
    columns a list of strings and a stored target a pair of JSON integers.
    A column name may appear once.
    """
    stored = (None, None)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
            if text[:1] == "{":
                doc = json.loads(text)
                cols, raw = doc["columns"], doc["rows"]
                if type(cols) is not list or any(type(c) is not str for c in cols):
                    raise ValueError("columns is not a list of strings")
                target = doc.get("meta", {}).get("target")
                if target is not None:
                    stored = target["p"], target["q"]
                    if any(type(v) is not int for v in stored):
                        raise ConfigError(f"{path}: stored target {target} is not two integers")
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
                if not cols:
                    raise ConfigError(f"{path}: no column names in the header")

                def check_widths() -> None:
                    # a blank line is a row of 0 cells, as csv.reader reads it
                    _check_widths(path, [line.count(",") + 1 if line else 0 for line in body],
                                  len(cols))
                # the cells are counted only where np.loadtxt cannot tell: it
                # warns on a body without data, and it skips blank lines
                if not any(body):
                    check_widths()
                try:
                    table = np.loadtxt(body, delimiter=",", dtype=float, ndmin=2, comments=None)
                except ValueError:
                    check_widths()
                    raise
                if table.shape != (len(body), len(cols)):
                    check_widths()
            repeated = sorted({c for c in cols if cols.count(c) > 1})
            if repeated:
                raise ConfigError(f"{path}: repeated column names {', '.join(repeated)}")
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


def verify_file(path: str, p: int | None = None, q_minus: int | None = None) -> int:
    """Recompute membership residuals from the stored q of an output file.

    The signature is p, q_minus when given, else the one a JSON output
    stores. A CSV with n <= 3 needs neither: (n-1, 1) and (1, n-1) give the
    same residuals. The stored rows, in any order, are put onto their
    (r, theta) lattice when the file has those columns, else their (rho, z)
    one, and gated there as the sweep gated them (verification.audit); one
    without det A, not written by dress, on its singular flags alone.
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
    coords = ("r", "theta") if "r" in idx and "theta" in idx else ("rho", "z")
    lattice = verification.lattice_order(*(data[:, idx[c]] for c in coords)) \
        if all(c in idx for c in coords) else None
    if lattice is not None:
        data = data[lattice[1]]
    q = _complex(data[:, [idx[f"q_re_{c}"] for c in cells]],
                 data[:, [idx[f"q_im_{c}"] for c in cells]]).reshape(-1, n, n)
    singular = data[:, idx["singular"]] >= 0.5 if "singular" in idx \
        else np.zeros(len(data), dtype=bool)
    det_a = _complex(data[:, idx["detA_re"]], data[:, idx["detA_im"]]) \
        if "detA_re" in idx and "detA_im" in idx else None
    excluded, hodge = np.zeros(len(data), dtype=bool), None
    why = f"the stored ({coords[0]}, {coords[1]}) points do not form a rectangular lattice"
    if lattice is not None:
        excluded, hodge, why = verification.audit(lattice[0], q, singular, det_a,
                                                  coords == ("rho", "z"))
    # membership residuals of every stored non-singular q, gated by the
    # largest component as the sweep is; a non-finite q reads NaN, which
    # fails the gate as in the sweep; res_constraint stores their sum
    finite = ~singular & np.all(np.isfinite(q.view(float)), axis=(-2, -1))
    parts = np.array(algebra.symspace_components(q[finite], algebra.gamma(sig)))
    resid = np.full(len(q), math.nan)
    resid[finite] = np.max(parts, axis=0)
    worst_gated = checks.worst([resid[~(singular | excluded)]])
    worst_diff = 0.0
    if "res_constraint" in idx:
        stored = data[finite, idx["res_constraint"]]
        diff = np.abs(parts.sum(axis=0) - stored)[np.isfinite(stored)]
        worst_diff = float(np.fmax.reduce(diff, initial=0.0))
    note = f" ({excluded.sum()} rows near the singular locus excluded from the gate)" \
        if excluded.any() else ""
    print(f"verified {(~singular).sum()} stored points: max recomputed constraint residual "
          f"{worst_gated:.3e} gated / {checks.worst([resid[~singular]]):.3e} overall{note}"
          f"{_vacuous(excluded | singular)}; max deviation from stored values {worst_diff:.3e}",
          file=sys.stderr)
    if why:
        print(f"finite-difference residuals not recomputed: {why}", file=sys.stderr)
    else:
        worst = 0.0
        if "res_hodge2" in idx:
            diff = np.abs(hodge - data[:, idx["res_hodge2"]])
            worst = np.max(diff, where=np.isfinite(diff), initial=0.0)
        # the median over the finite residuals of the gated points only
        gated = hodge[~excluded & np.isfinite(hodge)]
        median = f"median {np.median(gated):.3e}" if gated.size else "no finite value"
        print(f"recomputed finite-difference residuals: {median}; "
              f"max deviation from stored values {worst:.3e}", file=sys.stderr)
    return EXIT_OK if worst_gated <= algebra.CONSTRAINT_TOL else EXIT_GATE


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


def _oracle_gate(bound: float):
    """The gate of a family's oracle report: the Ernst error within
    ``bound`` and the membership residual within algebra.CONSTRAINT_TOL at
    the non-singular points, and no singular point, so that a sweep with
    nothing to compare fails it."""
    def gate(r: checks.OracleReport) -> tuple[bool, str]:
        ok = r.error <= bound and r.constraint <= algebra.CONSTRAINT_TOL and r.singular == 0
        return ok, (f"max oracle error {r.error:.2e}, max constraint {r.constraint:.2e}, "
                    f"{r.singular} singular points")
    return gate


def _convergence_gate(r: checks.Convergence) -> tuple[bool, str]:
    ok = 3.5 <= r.divergence <= 4.5 and r.constant_exact
    return ok, f"divergence ratio {r.divergence:.3f}, constant field exact: {r.constant_exact}"


#: (suite, check, gate): the gate turns the check's measurement into
#: (passed, detail). Every pass/fail threshold of the checks is here; the
#: acceptance suite runs the same gates on checks of its own sizes.
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
    ("kerr-oracle", lambda: checks.oracle_report(checks.Kerr, _KERR_SETS),
     _oracle_gate(ERNST_TOL)),
    ("kn-oracle", lambda: checks.oracle_report(checks.KerrNewman, _KN_SETS),
     _oracle_gate(ERNST_TOL)),
    ("convergence-order", lambda: checks.convergence(_KERR_BOX, 0.1), _convergence_gate),
    ("flat-limit", lambda: checks.oracle_report(checks.Kerr, [(0.0, 1.0)], 12),
     _oracle_gate(1e-12)),
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

def _grid_from_args(args, family: checks.Family) -> GridSpec:
    """The preset grid from the command line on the family's chart,
    checks.default_window(family.m) where an option is not given, under the
    rules of a config's Boyer-Lindquist grid."""
    given = [[args.r_min, args.r_max, args.r_count],
             [args.theta_min, args.theta_max, args.theta_count]]
    r, theta = ([d if v is None else v for v, d in zip(g, w)]
                for g, w in zip(given, checks.default_window(family.m)))
    problems: list[str] = []
    axis1 = _axis_triple(r, "r", problems)
    axis2 = _theta_axis(theta, problems)
    if problems:
        raise ConfigError("; ".join(problems))
    return GridSpec(axis1, axis2, family.chart())


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

    for family in (checks.Kerr, checks.KerrNewman):
        sp = sub.add_parser(family.preset,
                            help=f"{family.preset} preset: dress the flat seed and diff the oracle")
        sp.set_defaults(family=family)
        for field in dataclasses.fields(family):
            sp.add_argument(f"--{field.name}", type=float, required=True)
        sp.add_argument("--r-min", type=float)
        sp.add_argument("--r-max", type=float)
        sp.add_argument("--r-count", type=int)
        sp.add_argument("--theta-min", type=float)
        sp.add_argument("--theta-max", type=float)
        sp.add_argument("--theta-count", type=int)
        sp.add_argument("--out", default="-", help="output path ('-' for stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("verify", help="recompute residuals from a stored output file")
    sp.add_argument("file")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)

    sub.add_parser("selftest", help="run the built-in invariant suites")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "dress":
            with open(args.config, "rb") as fh:
                text = fh.read()
            return run_dress(parse_config(text))
        if hasattr(args, "family"):
            family = args.family(*(getattr(args, f.name) for f in dataclasses.fields(args.family)))
            return run_preset(family, _grid_from_args(args, family), args.out, args.format)
        if args.command == "verify":
            return verify_file(args.file, args.p, args.q)
        if args.command == "selftest":
            return run_selftest()
    except SystemExit as exc:  # a usage error, whose message argparse printed
        if exc.code == 0:  # --help
            raise
        return EXIT_CONFIG
    except (ConfigError, DomainError) as exc:
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
