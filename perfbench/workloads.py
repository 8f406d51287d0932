"""The benchmark's workloads.

Each workload turns a seed into the inputs of one `vesture` command, names the
number of points one operation covers, and checks the outputs of every
operation. The program only ever sees the generated inputs.
"""
from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: radius around a branch point inside which vesture flags a point singular
BRANCH_EXCLUSION = 1e-12
#: relative Ernst-potential error allowed against the closed-form Kerr oracle
KERR_ORACLE_TOL = 1e-9
#: the one selftest suite documented to fail (the Kerr-Newman gap)
SELFTEST_EXPECTED_FAIL = {"kn-oracle"}

SU21_POLES = (1j, 0.7 + 0.6j, -0.8 + 1.4j)
SU21_VECTORS = (
    (1.0 + 0.1j, 0.3, 0.2 + 0.1j),
    (0.2, 1.1 + 0.2j, 0.3),
    (0.5 + 0.1j, 0.1, 0.9),
)


@dataclass
class Outcome:
    """What one operation produced."""

    rc: int | None
    stdout: str
    stderr: str
    error: str = ""          # exception raised out of cli.main, if any


@dataclass
class Workload:
    name: str
    argv: list[str]                           # one operation: vesture.cli.main(argv)
    points: int | None                        # points per operation; None: counted by tracing
    params: dict                              # generated inputs and sizes
    check: Callable[[Outcome], list[str]]     # problems with one operation's outputs
    payload: Callable[[Outcome], bytes]       # outputs that must repeat byte for byte
    setup: list[str]                          # arguments of the set-up probe
    outputs: tuple[Path, ...] = ()            # files an operation writes, removed before it
    prepare: list[str] | None = None          # vesture argv run once, untimed, first


def make(name: str, seed: int, work: Path, smoke: bool) -> Workload:
    builders = {"kerr-bl": _kerr_bl, "su21-weyl": _su21_weyl,
                "verify-weyl": _verify_weyl, "selftest": _selftest}
    return builders[name](seed, work, smoke)


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _kerr_vector(m: float, s: float) -> tuple[float, float]:
    """(alpha, delta) of the one-soliton Kerr vector at pole i s."""
    root = math.hypot(m, s)
    return math.sqrt(0.5 * (s + root)), math.sqrt(0.5 * (root - s))


def _rel(z: complex, ref: complex) -> float:
    return abs(z - ref) / abs(ref) if ref != 0 else abs(z - ref)


def _exit_problem(out: Outcome, expected: int) -> list[str]:
    if out.error:
        return [f"raised {out.error}"]
    if out.rc != expected:
        return [f"exit code {out.rc}, expected {expected}"]
    return []


# ---------------------------------------------------------------------------
# kerr-bl: the Kerr preset on a Boyer-Lindquist grid, CSV out
# ---------------------------------------------------------------------------

def _kerr_bl(seed: int, work: Path, smoke: bool) -> Workload:
    rng = random.Random(seed)
    m, s = round(rng.uniform(0.5, 1.5), 6), round(rng.uniform(0.5, 1.5), 6)
    n = 4 if smoke else 8
    out_path = work / "kerr.csv"
    spin = math.hypot(m, s)

    def check(out: Outcome) -> list[str]:
        problems = _exit_problem(out, 0)
        if problems:
            return problems
        with open(out_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != n * n:
            return [f"{len(rows)} rows written, expected {n * n}"]
        worst = 0.0
        for row in rows:
            if float(row["singular"]) >= 0.5:
                continue
            got = complex(float(row["x"]), float(row["y"]))
            oracle = complex(float(row["oracle_x"]), float(row["oracle_y"]))
            # the closed form again, from the stored coordinates
            r, c = float(row["r"]), math.cos(float(row["theta"]))
            den = r * r + spin * spin * c * c
            own = complex((r * r - 2 * m * r + spin * spin * c * c) / den, 2 * m * spin * c / den)
            worst = max(worst, _rel(got, oracle), _rel(oracle, own))
        if not worst <= KERR_ORACLE_TOL:
            return [f"max relative Ernst error {worst:.3e} above {KERR_ORACLE_TOL:.0e}"]
        return []

    return Workload(
        name="kerr-bl",
        argv=["kerr", "--m", repr(m), "--s", repr(s), "--r-count", str(n),
              "--theta-count", str(n), "--out", str(out_path)],
        points=n * n,
        params={"m": m, "s": s, "grid": [n, n]},
        check=check,
        payload=lambda out: out_path.read_bytes() + out.stderr.encode(),
        setup=["kerr", repr(m), repr(s)],
        outputs=(out_path,),
    )


# ---------------------------------------------------------------------------
# su21-weyl: three solitons on a boosted SU(2,1) seed over a Weyl lattice
# ---------------------------------------------------------------------------

def _axis(lo: float, hi: float, count: int) -> list[float]:
    return [lo + (hi - lo) * k / (count - 1) for k in range(count)]


def _branch_count(poles, rho_axis, z_axis) -> int:
    """Lattice points within the exclusion radius of some pole's branch point."""
    return sum(
        any(abs((z - w) ** 2 + rho ** 2) < BRANCH_EXCLUSION for w in poles)
        for rho in _axis(*rho_axis) for z in _axis(*z_axis))


def _su21_weyl(seed: int, work: Path, smoke: bool) -> Workload:
    # the lattice is small enough for smoke runs as it is
    rng = random.Random(seed)
    # jitter small enough that every seed's lattice still crosses the det A sign change
    boost = 1.0 + rng.uniform(-0.05, 0.05)
    vectors = [[c + complex(rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02)) for c in v]
               for v in SU21_VECTORS]
    ch, t = math.cosh(boost), math.sinh(boost) / math.sqrt(2.0)
    seed_matrix = [[ch, 0, t * (1 + 1j)], [0, 1, 0], [t * (1 - 1j), 0, ch]]
    # steps of 0.4 in rho and 0.1 in z put every branch point (Im w, Re w) on the lattice
    rho_axis, z_axis = (0.6, 1.4, 3), (-0.8, 0.7, 16)
    out_path = work / "su21.json"
    config = {
        "target": {"p": 2, "q": 1},
        "seed": {"matrix": [[_pair(complex(c)) for c in row] for row in seed_matrix]},
        "solitons": [{"omega": _pair(w), "v": [_pair(c) for c in v]}
                     for w, v in zip(SU21_POLES, vectors)],
        "grid": {"coords": "weyl", "rho": list(rho_axis), "z": list(z_axis)},
        "outputs": {"fields": ["q", "detA", "residuals", "ernst"],
                    "path": str(out_path), "format": "json"},
    }
    config_path = work / "su21-config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    size = rho_axis[2] * z_axis[2]
    expected_singular = _branch_count(SU21_POLES, rho_axis, z_axis)

    def check(out: Outcome) -> list[str]:
        problems = _exit_problem(out, 0)
        if problems:
            return problems
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        if len(doc["rows"]) != size:
            return [f"{len(doc['rows'])} rows written, expected {size}"]
        col = doc["columns"].index("singular")
        singular = sum(1 for row in doc["rows"] if row[col] >= 0.5)
        if singular != expected_singular:
            return [f"{singular} singular points, expected {expected_singular} branch points"]
        return []

    return Workload(
        name="su21-weyl",
        argv=["dress", "-c", str(config_path)],
        points=size,
        params={"boost": boost, "poles": [_pair(w) for w in SU21_POLES],
                "vectors": [[_pair(c) for c in v] for v in vectors],
                "grid": [rho_axis[2], z_axis[2]], "branch_points": expected_singular},
        check=check,
        payload=lambda out: out_path.read_bytes() + out.stderr.encode(),
        setup=["config", str(config_path)],
        outputs=(out_path,),
    )


# ---------------------------------------------------------------------------
# verify-weyl: re-verify a stored Kerr lattice that crosses the ring locus
# ---------------------------------------------------------------------------

def _verify_weyl(seed: int, work: Path, smoke: bool) -> Workload:
    rng = random.Random(seed)
    m, s = round(rng.uniform(0.5, 1.5), 6), round(rng.uniform(0.5, 1.5), 6)
    alpha, delta = _kerr_vector(m, s)
    ring = math.hypot(m, s)
    n = 8 if smoke else 32
    fixture = work / "fixture.csv"
    config = {
        "target": {"p": 1, "q": 1},
        "seed": "identity",
        "solitons": [{"omega": [0.0, s], "v": [[alpha, 0.0], [delta, 0.0]]}],
        "grid": {"coords": "weyl", "rho": [0.5 * ring, 1.5 * ring, n],
                 "z": [-0.5 * ring, 0.5 * ring, n]},
        "outputs": {"fields": ["q", "detA", "residuals"], "path": str(fixture), "format": "csv"},
    }
    config_path = work / "fixture-config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return Workload(
        name="verify-weyl",
        argv=["verify", str(fixture)],
        points=n * n,
        params={"m": m, "s": s, "grid": [n, n], "rows": n * n},
        check=lambda out: _exit_problem(out, 0),
        payload=lambda out: out.stderr.encode(),
        setup=["none"],
        prepare=["dress", "-c", str(config_path)],
    )


# ---------------------------------------------------------------------------
# selftest: the built-in suites, the audit-free library path
# ---------------------------------------------------------------------------

_SUITE_LINE = re.compile(r"^(\S+)\s+(PASS|FAIL)\s", re.MULTILINE)
_TIMINGS = re.compile(r"\[\d+\.\d+s\]|total \d+\.\d+s")


def _selftest(seed: int, work: Path, smoke: bool) -> Workload:
    def check(out: Outcome) -> list[str]:
        problems = _exit_problem(out, 1)
        if problems:
            return problems
        suites = _SUITE_LINE.findall(out.stdout)
        failed = {name for name, status in suites if status == "FAIL"}
        if failed != SELFTEST_EXPECTED_FAIL or len(suites) <= len(failed):
            return [f"failing suites {sorted(failed)}, expected {sorted(SELFTEST_EXPECTED_FAIL)}"]
        return []

    return Workload(
        name="selftest",
        argv=["selftest"],
        points=None,
        # the suites use fixed internal RNG seeds, so the workload seed does not apply
        params={"seed": "not applicable"},
        check=check,
        # suite timings are wall-clock data, the rest of the table must repeat
        payload=lambda out: _TIMINGS.sub("", out.stdout).encode() + out.stderr.encode(),
        setup=["none"],
    )
