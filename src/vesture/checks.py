"""The closed-form families that the ``kerr`` / ``kerr-newman`` presets and
``vesture selftest`` both dress, the one lattice sweep (``sweep``) that
``dress``, the presets and selftest share, and the measurements they share:
the worst residual, relative errors and the Ernst columns. The checks that
only selftest runs are in ``vesture.selftest``.

Library functions are called through their modules (``targets.kerr_config``,
not a local name), so a fault injected into one reaches every check that
uses it.
"""
from __future__ import annotations

import math

import numpy as np

from . import algebra, dressing, targets
from .dressing import DressedGrid, SolitonConfig
from .errors import ConfigError

#: the per-point relative Ernst error that the presets' gate and the oracle suites allow
ERNST_TOL = 1e-9


def worst(values) -> float:
    """The largest of ``values`` (numbers or arrays), 0.0 for none; NaN when
    any value is NaN, so a NaN measurement fails every ``<=`` gate."""
    return float(np.max(np.concatenate([np.zeros(0), *map(np.ravel, values)]), initial=0.0))


def rel_err(value, ref) -> np.ndarray:
    """|value - ref| / |ref| (|value - ref| where ref = 0), |.| by hypot."""
    diff = np.subtract(value, ref)
    scale = np.hypot(np.real(ref), np.imag(ref))
    return np.hypot(diff.real, diff.imag) / np.where(scale == 0, 1.0, scale)


def ernst(q: np.ndarray) -> targets.ErnstValue11 | targets.ErnstValue21:
    """The Ernst potentials of a (P, n, n) stack of maps on the (1,1) or the
    (2,1) target."""
    return targets.ernst_g11(q) if q.shape[-1] == 2 else targets.ernst_g21(q)


def ernst_columns(e: targets.ErnstValue11 | targets.ErnstValue21) -> dict[str, np.ndarray]:
    """Ernst potentials at P points as payload columns."""
    if isinstance(e, targets.ErnstValue11):
        return {"x": e.x, "y": e.y}
    return {"E_re": e.E.real, "E_im": e.E.imag, "Phi_re": e.Phi.real, "Phi_im": e.Phi.imag}


def sweep(cfg: SolitonConfig, axes: tuple[np.ndarray, np.ndarray],
          chart: targets.BLParams | None = None) -> tuple[DressedGrid, dict[str, np.ndarray]]:
    """Dress the row-major lattice of two axes: (rho, z) when ``chart`` is
    None, else (r, theta) through targets.bl_chart. Returns the dressed
    points and their r and theta columns ({} on a Weyl lattice).

    An r at or below the chart's m is refused (ConfigError): the chart
    folds at r = m, sending (r, theta) and (2m - r, pi - theta) to one Weyl
    point, which has one dressed map, that of r > m, so such a row would
    carry the map of another point. On r = m itself, z = +-0 and the rows
    with theta < pi/2 read the map at pi - theta."""
    points = np.empty((2, len(axes[0]), len(axes[1])))  # the a1, then the a2 of each point
    points[0], points[1] = axes[0][:, None], axes[1]
    if chart is None:
        return dressing.dress(cfg, *points), {}
    if algebra.any_of(axes[0] <= chart.m):
        raise ConfigError(f"grid.r reaches {float(np.min(axes[0]))!r}, not above m = {chart.m!r}, "
                          "where the Boyer-Lindquist chart folds: (r, theta) and "
                          "(2m - r, pi - theta) are one Weyl point")
    dressed = dressing.dress(cfg, *targets.bl_chart(axes[0][:, None], axes[1][None, :], chart))
    return dressed, dict(zip(("r", "theta"), points.reshape(2, -1)))


# ---------------------------------------------------------------------------
# the closed-form families
# ---------------------------------------------------------------------------

def default_window(m: float, count: int = 40) -> tuple[tuple[float, float, int], ...]:
    """The presets' default (min, max, count) axes: r in [m + 1.5, m + 10]
    and theta in [pi/8, 7pi/8]."""
    return (m + 1.5, m + 10.0, count), (math.pi / 8, 7 * math.pi / 8, count)


class Family:
    """A closed-form family dressed from the flat seed by one soliton.
    ``params`` names its parameters, in payload order: they are its
    attributes, in that order, and its preset's options. Each defines
    config(), constants() (the meta entries after the parameters),
    oracle(r, theta), the closed-form Ernst potentials (Ernst, Phys. Rev. 168
    (1968) 1415) at points (r, theta), and error(ernst, oracle) per point."""

    preset: str
    params: tuple[str, ...]

    def chart(self) -> targets.BLParams:
        return targets.BLParams(self.m, self.s)

    def label(self) -> str:
        return " ".join([self.preset] + [f"{k}={v}" for k, v in vars(self).items()])

    def meta(self) -> dict:
        """The payload meta entries of the family's preset."""
        return {"preset": self.preset, **vars(self), **self.constants()}

    def compare(self, q: np.ndarray,
                points: dict[str, np.ndarray]) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """The Ernst potentials of the (P, n, n) maps q and the closed form at
        their ``points`` (r and theta columns) as payload columns, and the
        per-point relative error of the first."""
        found, oracle = ernst(q), self.oracle(points["r"], points["theta"])
        columns = {**ernst_columns(found),
                   **{"oracle_" + key: v for key, v in ernst_columns(oracle).items()}}
        return columns, self.error(found, oracle)


class Kerr(Family):
    """The Kerr family on SU(1,1): mass m, pole i s, spin a = sqrt(m^2 + s^2)."""

    preset, params = "kerr", ("m", "s")

    def __init__(self, m: float, s: float) -> None:
        self.m, self.s = m, s

    def config(self) -> SolitonConfig:
        return targets.kerr_config(self.m, self.s)

    def constants(self) -> dict[str, float]:
        return {"spin": math.sqrt(self.m * self.m + self.s * self.s)}

    def oracle(self, r: np.ndarray, theta: np.ndarray) -> targets.ErnstValue11:
        return targets.kerr_oracle(self.m, self.constants()["spin"], r, theta)

    def error(self, ernst: targets.ErnstValue11, oracle: targets.ErnstValue11) -> np.ndarray:
        """The relative error of x + iy as one complex number, robust where
        one component passes through zero; NaN where either is."""
        return rel_err(ernst.x + 1j * ernst.y, oracle.x + 1j * oracle.y)


class KerrNewman(Family):
    """The Kerr-Newman family of targets.kn_b_param on SU(2,1): mass m,
    charge e, pole i s, oracle spin a = -sqrt(m^2 + s^2 + e^2)."""

    preset, params = "kerr-newman", ("m", "e", "s")

    def __init__(self, m: float, e: float, s: float) -> None:
        self.m, self.e, self.s = m, e, s

    def config(self) -> SolitonConfig:
        return targets.kn_config(self.m, self.e, self.s)

    def constants(self) -> dict[str, float]:
        return {"oracle_a": -targets.kn_b_param(self.m, self.e, self.s)}

    def oracle(self, r: np.ndarray, theta: np.ndarray) -> targets.ErnstValue21:
        return targets.kn_oracle(self.m, self.e, self.constants()["oracle_a"], r, theta)

    def error(self, ernst: targets.ErnstValue21, oracle: targets.ErnstValue21) -> np.ndarray:
        """The larger relative error of E and Phi; NaN where either is NaN."""
        return np.maximum(rel_err(ernst.E, oracle.E), rel_err(ernst.Phi, oracle.Phi))
