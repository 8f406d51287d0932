"""Batch front end: config-driven sweeps and presets; the ``verify`` and
``selftest`` commands live in modules of their own, which main() imports
only for those commands.

Exit codes (vesture.errors): 0 success, 1 config or command-line usage
error, 2 numeric failure, 3 constraint-gate failure (in verify, a
non-finite stored q at a gated point included), 4 I/O failure. Singular
grid points are data, not failures. Output is bit-identical across runs of
the same config: fixed iteration order, no randomness or wall-clock inputs
in the payload.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import algebra, checks, seeds, targets, verification
from .algebra import Signature
from .dressing import DressedGrid, SolitonConfig
from .errors import (EXIT_CONFIG, EXIT_GATE, EXIT_IO, EXIT_NUMERIC, EXIT_OK, ConfigError,
                     DomainError, NumericError, VestureError)

_ALLOWED_FIELDS = ("q", "ernst", "residuals", "detA")
#: stands in for a malformed axis, whose violation is reported; no later
#: check refuses it, so that violation is the only line it adds
_NO_AXIS = (1.0, 1.0, 1)
#: the most points of a lattice axis, refused above it before any array is made
MAX_COUNT = 1000


class GridSpec(NamedTuple):
    axis1: tuple[float, float, int]   # rho or r
    axis2: tuple[float, float, int]   # z or theta
    bl: targets.BLParams | None  # the (r, theta) chart; None: a (rho, z) grid

    def axis_values(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linspace(*self.axis1), np.linspace(*self.axis2)


class RunConfig:
    __slots__ = ("solitons", "grid", "fields", "path", "format")

    def __init__(self, solitons: SolitonConfig, grid: GridSpec, fields: tuple[str, ...],
                 path: str, format: str) -> None:
        self.solitons, self.grid, self.fields, self.path, self.format = (
            solitons, grid, fields, path, format)


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


def _json_number(raw, where: str, problems: list[str], integer: bool = False):
    """raw as a float when it is a JSON number a float holds, or raw if
    ``integer`` and it is a JSON integer (no bool, string or 4.0); else
    None, and a violation naming ``where``."""
    if type(raw) is int or (type(raw) is float and not integer):
        try:
            return raw if integer else float(raw)
        except OverflowError:
            digits = len(str(abs(raw)))
            problems.append(f"{where} must fit a float, got an integer of {digits} digits")
            return None
    kind = "integer" if integer else "number"
    problems.append(f"{where} must be a JSON {kind}, got {json.dumps(raw)}")
    return None


def _axis_triple(raw, name: str, problems: list[str]) -> tuple[float, float, int]:
    if type(raw) is not list or len(raw) != 3:
        problems.append(f"grid.{name} must be [min, max, count]")
        return _NO_AXIS
    lo, hi, count = (_json_number(v, f"grid.{name}[{i}]", problems, i == 2)
                     for i, v in enumerate(raw))
    if None in (lo, hi, count):
        return _NO_AXIS
    if count < 1 or not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        problems.append(f"grid.{name} needs count >= 1 and finite min <= max")
    elif count > 1 and lo == hi:
        problems.append(f"grid.{name} has {count} points but min = max = {lo!r}")
    elif not math.isfinite(hi - lo):
        problems.append(f"grid.{name} spans max - min = {hi - lo!r}, which overflows")
    elif count > MAX_COUNT:
        problems.append(f"grid.{name} has {count} points, more than {MAX_COUNT}")
    return (lo, hi, count)


def _theta_axis(raw, problems: list[str]) -> tuple[float, float, int]:
    axis = _axis_triple(raw, "theta", problems)
    if not (0.0 < axis[0] and axis[1] < math.pi):
        problems.append("grid.theta must lie strictly inside (0, pi)")
    return axis


def _complex_pair(raw, what: str, problems: list[str]) -> complex | None:
    """raw as a complex number when it is a [re, im] pair of JSON numbers;
    else None, and a violation naming ``what``."""
    if type(raw) is not list or len(raw) != 2:
        problems.append(f"{what} must be a [re, im] pair")
        return None
    re, im = (_json_number(v, f"{what}[{i}]", problems) for i, v in enumerate(raw))
    return None if re is None or im is None else complex(re, im)


def parse_config(text: bytes | str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    All violations are collected and reported together, not just the first.
    """
    problems: list[str] = []
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a decode error, or an integer of more digits than int() reads
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _section(doc, "config", ("target", "seed", "solitons", "grid", "outputs"), problems)

    sig = Signature(1, 1)
    tgt = _section(doc.get("target", {}), "target", ("p", "q"), problems)
    if tgt is not None:
        p, q = (_json_number(tgt.get(k, 0), f"target.{k}", problems, True) for k in "pq")
        try:
            sig = Signature(p, q) if None not in (p, q) else sig
        except ConfigError as exc:
            problems.append(f"target: {exc}")

    seed_doc = doc.get("seed", "identity")
    seed = None
    if seed_doc == "identity":
        seed = seeds.identity_seed(sig)
    elif isinstance(seed_doc, dict) and "matrix" in seed_doc:
        _section(seed_doc, "seed", ("matrix",), problems)
        try:
            rows = [[_complex_pair(cell, f"seed.matrix[{i}][{j}]", problems)
                     for j, cell in enumerate(row)] for i, row in enumerate(seed_doc["matrix"])]
            if not any(None in row for row in rows):
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
        if w is not None and w.imag == 0:
            problems.append(f"solitons[{k}]: real pole not supported (omega = {w})")
        v_raw = item.get("v", [])
        v = [_complex_pair(c, f"solitons[{k}].v[{i}]", problems)
             for i, c in enumerate(v_raw if isinstance(v_raw, list) else [])]
        if w is None or None in v:
            continue
        v = np.array(v, dtype=complex)
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
        m, s = (_json_number(params.get(k, 0.0), f"grid.params.{k}", problems) for k in "ms")
        try:
            bl = targets.BLParams(m=m, s=s) if None not in (m, s) else None
        except ConfigError as exc:
            problems.append(f"grid.params: {exc}")
    else:
        problems.append(f'grid.coords must be "weyl" or "boyer-lindquist", got {coords!r}')
        axis1 = axis2 = _NO_AXIS

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
    if "ernst" in fields and (sig.p, sig.q_minus) not in ((1, 1), (2, 1)):
        problems.append("ernst output is only defined for targets (1,1) and (2,1)")
    path = out_doc.get("path", "-")
    if not isinstance(path, str):
        problems.append("outputs.path must be a string")
    fmt = out_doc.get("format", "csv")
    if fmt not in ("csv", "json"):
        problems.append(f'outputs.format must be "csv" or "json", got {fmt!r}')
    elif fmt == "csv" and (sig.p, sig.q_minus) not in ((1, 1), (2, 1)):
        # a CSV stores no target, and verify reads its n x n q as (n-1, 1)
        problems.append(f'outputs.format "csv" stores no target: write the ({sig.p},{sig.q_minus}) '
                        'target as "json"')

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


def _write_sweep(cfg: RunConfig, dressed: DressedGrid, axes: tuple[np.ndarray, np.ndarray],
                 points: dict[str, np.ndarray], meta: dict, extra: dict[str, np.ndarray]) -> None:
    """Write one row per dressed point of the lattice of ``axes``: the
    coordinates, the ``points`` columns (name: values), the requested fields
    but ernst, with verification.lattice_hodge's finite-difference residual,
    and the ``extra`` columns, as one array; the payload meta is ``meta``,
    then the target and the coordinates."""
    sig = cfg.solitons.signature
    n, size = sig.n, len(dressed.q)
    names, cols = ["rho", "z", *points], [dressed.rho, dressed.z, *points.values()]
    if "q" in cfg.fields:
        names += [f"q_{part}_{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)
                  for part in ("re", "im")]
        cols += list(dressed.q.reshape(size, -1).view(float).T)
    if "q" in cfg.fields or "detA" in cfg.fields:  # the gate's input goes with q
        names += ["detA_re", "detA_im"]
        cols += [dressed.det_a.real, dressed.det_a.imag]
    if "residuals" in cfg.fields:
        hodge, _ = verification.lattice_hodge(axes, dressed.q, dressed.singular,
                                              cfg.grid.bl is None)
        names += ["res_constraint", "res_hodge2"]
        cols += [dressed.residuals["symspace"], hodge]
    names += ["singular", *extra]
    cols += [dressed.singular, *extra.values()]
    meta = {**meta, "target": {"p": sig.p, "q": sig.q_minus},
            "coords": "weyl" if cfg.grid.bl is None else "boyer-lindquist"}
    _write_output(cfg.path, cfg.format, names, np.array(cols).T, meta)


def _summary(dressed: DressedGrid, axes: tuple[np.ndarray, np.ndarray], head: str,
             error: np.ndarray | None = None) -> int:
    """Print the summary line of the dressed lattice of ``axes`` and return
    the exit code of verification.verdict's gate, which a preset's Ernst
    ``error`` at the gated points also needs within checks.ERNST_TOL. The
    chi audits are reported, not gated."""
    excluded, worst, note = verification.verdict(tuple(map(len, axes)), dressed.singular,
                                                 dressed.det_a, dressed.residuals["symspace"])
    keep, ok = ~excluded, True
    if error is not None:
        ernst = checks.worst([error[keep]])
        head, ok = f"{head}: max relative Ernst error {ernst:.3e}", ernst <= checks.ERNST_TOL
    reality, involution = (checks.worst([dressed.residuals[key][keep]])
                           for key in ("chi_reality", "chi_involution"))
    print(f"{head}; max gated constraint residual {worst:.3e}; max gated chi residuals "
          f"{reality:.3e} (reality), {involution:.3e} (involution){note}", file=sys.stderr)
    return EXIT_OK if ok and worst <= algebra.CONSTRAINT_TOL else EXIT_GATE


def run_dress(cfg: RunConfig) -> int:
    """Row-major sweep of the dressing pipeline over the configured grid."""
    axes = cfg.grid.axis_values()
    dressed, points = checks.sweep(cfg.solitons, axes, cfg.grid.bl)
    _write_sweep(cfg, dressed, axes, points, {},
                 checks.ernst_columns(checks.ernst(dressed.q)) if "ernst" in cfg.fields else {})
    return _summary(dressed, axes,
                    f"dressed {len(dressed.q)} points ({int(dressed.singular.sum())} singular)")


def run_preset(family: checks.Family, grid: GridSpec, path: str = "-", fmt: str = "csv") -> int:
    """Dress a closed-form family on a Boyer-Lindquist grid, one carrying
    the family's chart, and write it with its Ernst and oracle columns. The
    exit gate also holds the per-point Ernst error over the gated points to
    checks.ERNST_TOL."""
    cfg = RunConfig(solitons=family.config(), grid=grid,
                    fields=("q", "detA", "residuals", "ernst"), path=path, format=fmt)
    axes = grid.axis_values()
    dressed, points = checks.sweep(cfg.solitons, axes, grid.bl)
    columns, error = family.compare(dressed.q, points)
    _write_sweep(cfg, dressed, axes, points, family.meta(), columns)
    return _summary(dressed, axes, family.label(), error)


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
        for name in family.params:
            sp.add_argument(f"--{name}", type=float, required=True)
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
            family = args.family(*(getattr(args, name) for name in args.family.params))
            return run_preset(family, _grid_from_args(args, family), args.out, args.format)
        if args.command == "verify":
            from .verify import verify_file
            return verify_file(args.file)
        if args.command == "selftest":
            from .selftest import run_selftest
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
