"""``vesture verify``: read a stored payload back and recompute its
membership residuals and exit gate. cli.main imports this module for that
command alone.
"""
from __future__ import annotations

import csv
import json
import math
import sys

import numpy as np

from . import algebra, checks, verification
from .algebra import Signature
from .errors import EXIT_GATE, EXIT_OK, ConfigError


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
    columns a list of strings, the meta an object and a stored target an
    object of two JSON integers p and q.
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
                meta = doc.get("meta", {})
                if type(meta) is not dict:
                    raise ConfigError(f"{path}: meta is not a JSON object")
                target = meta.get("target")
                if target is not None:
                    if type(target) is not dict or not {"p", "q"} <= target.keys():
                        raise ConfigError(f"{path}: meta.target {target} is not an object "
                                          "with entries p and q")
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


@np.errstate(over="ignore", invalid="ignore")
def verify_file(path: str) -> int:
    """Recompute the membership residual of the stored q of a payload and
    gate it as the sweep that wrote it did. A payload is what dress writes:
    q, detA_re, detA_im and singular on a complete lattice, the rows in any
    order; any other file raises ConfigError, with one line saying why.

    The signature is the one a JSON output stores. A file without one, as a
    CSV, is read as (n-1, 1) when n <= 3, the targets a config writes as
    CSV, and refused otherwise. The rows are put onto their (r, theta)
    lattice when the file has those columns, else their (rho, z) one, and
    gated there by verification.verdict, the sweep's gate. numpy's
    overflow and invalid warnings are off: a stored q whose products
    overflow reads an inf or NaN residual, which fails the gate.
    """
    cols, data, stored = _load_table(path)
    q_cols = sorted(c for c in cols if c.startswith("q_re_"))
    if not q_cols:
        raise ConfigError("file has no q columns to verify")
    n = int(math.isqrt(len(q_cols)))
    idx = {c: k for k, c in enumerate(cols)}
    cells = [f"{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    if n * n != len(q_cols) or any(f"q_{part}_{c}" not in idx
                                   for c in cells for part in ("re", "im")):
        raise ConfigError("q columns do not form a square matrix")
    if n < 2:
        raise ConfigError(f"{n}x{n} q data has no SU(p,q) target (n = p + q >= 2)")
    if stored[0] is None and n >= 4:
        raise ConfigError(f"{n}x{n} q columns do not fix the signature: write the payload as "
                          "JSON, which stores the target")
    sig = Signature(*stored) if stored[0] is not None else Signature(n - 1, 1)
    if sig.n != n:
        raise ConfigError(f"signature ({sig.p},{sig.q_minus}) does not match {n}x{n} data")
    coords = ("r", "theta") if "r" in idx and "theta" in idx else ("rho", "z")
    missing = [c for c in (*coords, "detA_re", "detA_im", "singular") if c not in idx]
    if missing:
        raise ConfigError(f"file has no {', '.join(missing)} column{'s' * (len(missing) > 1)}, "
                          "which dress writes with q")
    lattice = verification.lattice_order(*(data[:, idx[c]] for c in coords))
    if lattice is None:
        raise ConfigError(f"the stored ({coords[0]}, {coords[1]}) points do not form a "
                          "complete rectangular lattice")
    data = data[lattice[1]]
    q = _complex(data[:, [idx[f"q_re_{c}"] for c in cells]],
                 data[:, [idx[f"q_im_{c}"] for c in cells]]).reshape(-1, n, n)
    singular = data[:, idx["singular"]] >= 0.5
    hodge, why = verification.lattice_hodge(lattice[0], q, singular, coords == ("rho", "z"))
    # the membership residual of every stored non-singular q; a non-finite
    # q reads NaN, which fails the gate as in the sweep
    finite = ~singular & np.all(np.isfinite(q.view(float)), axis=(-2, -1))
    resid = np.full(len(q), math.nan)
    resid[finite] = algebra.symspace_residual(q[finite], algebra.gamma(sig))
    excluded, worst_gated, note = verification.verdict(
        tuple(map(len, lattice[0])), singular,
        _complex(data[:, idx["detA_re"]], data[:, idx["detA_im"]]), resid)
    worst_diff = 0.0
    if "res_constraint" in idx:
        saved = data[finite, idx["res_constraint"]]
        diff = np.abs(resid[finite] - saved)[np.isfinite(saved)]
        worst_diff = float(np.fmax.reduce(diff, initial=0.0))
    kept = int((excluded & ~singular).sum())  # the excluded rows among the verified ones
    held = f" ({kept} rows near the singular locus excluded from the gate)" if kept else ""
    print(f"verified {(~singular).sum()} stored points: max recomputed constraint residual "
          f"{worst_gated:.3e} gated / {checks.worst([resid[~singular]]):.3e} overall{held}"
          f"{note}; max deviation from stored values {worst_diff:.3e}", file=sys.stderr)
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
