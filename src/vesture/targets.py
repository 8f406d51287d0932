"""Target-specific machinery for SU(1,1)/U(1) and SU(2,1)/S(U(2)xU(1)).

Coordinate transforms, basis-change conjugations, Ernst-potential
extraction, the Kerr / Kerr-Newman closed forms used as oracles, the
one-soliton configurations that dress both families, and the su(2,1)
structural test-bed (basis, commutators, solvable-subgroup
parametrization).
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import algebra, seeds
from .algebra import ComplexMatrix, Signature
from .dressing import SolitonConfig
from .errors import ConfigError, DomainError, SingularPointError

SIG_11 = Signature(1, 1)
SIG_21 = Signature(2, 1)

#: Cayley conjugator mapping the 2x2 indefinite-unitary picture to SL(2,R)
CAYLEY_Q2 = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / math.sqrt(2.0)
_CAYLEY_Q2_H = CAYLEY_Q2.conj().T

#: antidiagonal metric of the alternate 3x3 representation
GAMMA_TILDE = np.array([[0, 0, -1j], [0, 1, 0], [1j, 0, 0]], dtype=complex)


class ErnstValue11(NamedTuple):
    """Real Ernst pair: x the Killing-field norm, y the twist potential;
    arrays of the points' shape (0-d for one point)."""

    x: np.ndarray
    y: np.ndarray


class ErnstValue21(NamedTuple):
    """Complex Ernst pair (E, Phi) with the real parts reported alongside.

    E = x + |Phi|^2 + i y; ``consistency`` is the extraction self-check
    Im(qt_31 / qt_33) + |Phi|^2, reported rather than enforced. Arrays of
    the points' shape (0-d for one point).
    """

    E: np.ndarray
    Phi: np.ndarray
    x: np.ndarray
    y: np.ndarray
    consistency: np.ndarray


class BLParams:
    """Boyer-Lindquist chart parameters: mass m and pole height s."""

    __slots__ = ("m", "s")

    def __init__(self, m: float, s: float) -> None:
        if not (math.isfinite(m) and math.isfinite(s)):
            raise ConfigError(f"Boyer-Lindquist parameters must be finite, got m={m}, s={s}")
        if not (s > 0):
            raise ConfigError(f"pole height s must be positive, got {s}")
        self.m, self.s = m, s

    def __eq__(self, other) -> bool:
        return type(other) is BLParams and (self.m, self.s) == (other.m, other.s)

    def __repr__(self) -> str:
        return f"BLParams(m={self.m!r}, s={self.s!r})"


def bl_chart(r, theta, p: BLParams) -> tuple:
    """Oblate-spheroidal to Weyl coordinates as two arrays (rho, z):
    rho = sqrt((r-m)^2 + s^2) sin(theta), z = (r-m) cos(theta); r and theta
    may be arrays, broadcast together. Only theta is checked; a chart that
    overflows gives rho = inf, which dressing.dress refuses. Squares are C
    pow, as Python's ** on floats, so arrays and floats round alike."""
    theta = np.asarray(theta, dtype=float)
    if not algebra.all_of((0.0 < theta) & (theta < math.pi)):
        raise DomainError(f"theta must lie strictly between 0 and pi, got {theta}")
    with np.errstate(over="ignore"):
        d = np.asarray(r, dtype=float) - p.m
        rho = np.sqrt(np.float_power(d, 2) + np.float_power(p.s, 2)) * np.sin(theta)
        return rho, d * np.cos(theta)


# ---------------------------------------------------------------------------
# G_{1,1}: Ernst potential via the Cayley transform
# ---------------------------------------------------------------------------

def cayley2(q: ComplexMatrix) -> ComplexMatrix:
    """Conjugate a 2x2 matrix, or each of a (..., 2, 2) stack, into the
    SL(2,R) picture."""
    return algebra.shared_mul(CAYLEY_Q2 @ np.asarray(q, dtype=complex), _CAYLEY_Q2_H)


def ernst_g11(q: ComplexMatrix) -> ErnstValue11:
    """Extract (x, y) from a dressed 2x2 map, or from each map of a
    (..., 2, 2) stack: x = 1/q'_22, y = q'_12/q'_22 in the Cayley picture.
    A map with q'_22 = 0, or one that is not finite, gives NaN."""
    qp = cayley2(q)
    bad = (qp[..., 1, 1] == 0) | ~np.isfinite(q).all(axis=(-2, -1))
    q22 = np.where(bad, 1.0, qp[..., 1, 1])
    x = np.where(bad, math.nan, (1.0 / q22).real)
    y = np.where(bad, math.nan, (qp[..., 0, 1] / q22).real)
    return ErnstValue11(x, y)


def ernst_embed_g11(x: float, y: float) -> ComplexMatrix:
    """Inverse of ernst_g11: embed (x, y) as the 2x2 map (1/x)[[x^2+y^2, y],[y, 1]]
    pulled back through the Cayley transform."""
    if x == 0:
        raise DomainError("x must be nonzero to embed")
    qp = np.array([[x * x + y * y, y], [y, 1.0]], dtype=complex) / x
    return CAYLEY_Q2.conj().T @ qp @ CAYLEY_Q2


def kerr_oracle(m: float, a: float, r, theta) -> ErnstValue11:
    """Closed-form Kerr potentials in Boyer-Lindquist coordinates; r and
    theta may be arrays, broadcast against each other."""
    c = np.cos(theta)
    den = r * r + a * a * c * c
    if algebra.any_of(den == 0):
        raise DomainError("Kerr oracle denominator vanishes")
    return ErnstValue11((r * r - 2.0 * m * r + a * a * c * c) / den, 2.0 * m * a * c / den)


def kerr_params(m: float, s: float) -> tuple[float, float, complex]:
    """Vector components (alpha, delta) and pole i*s realizing the Kerr
    family with mass m and spin a = sqrt(m^2 + s^2).

    alpha = sqrt((s + sqrt(m^2+s^2))/2), delta = sign(m) sqrt((-s + sqrt(m^2+s^2))/2);
    then alpha^2 - delta^2 = s, alpha^2 + delta^2 = sqrt(m^2+s^2) and
    alpha*delta = m/2.
    """
    if s <= 0:
        raise ConfigError(f"kerr parameters need s > 0, got m={m}, s={s}")
    root = math.sqrt(m * m + s * s)
    if not math.isfinite(root):
        raise ConfigError(f"Kerr parameters need m^2 + s^2 finite, got m={m}, s={s}")
    return math.sqrt(0.5 * (s + root)), math.copysign(math.sqrt(0.5 * (root - s)), m), 1j * s


def kerr_config(m: float, s: float) -> SolitonConfig:
    """One-soliton configuration generating the Kerr family from the flat seed."""
    alpha, delta, pole = kerr_params(m, s)
    return SolitonConfig(
        signature=SIG_11,
        poles=(pole,),
        vectors=(np.array([alpha, delta], dtype=complex),),
        seed=seeds.identity_seed(SIG_11),
    )


# ---------------------------------------------------------------------------
# G_{2,1}: basis change, Ernst dictionary, Kerr-Newman closed forms
# ---------------------------------------------------------------------------

def basis_change_u3() -> ComplexMatrix:
    """Unitary U with U diag(1,1,-1) U* equal to the antidiagonal metric.

    Columns are eigenvectors of the antidiagonal metric, (1,0,i)/sqrt2 and
    e2 for eigenvalue +1 and (i,0,1)/sqrt2 for -1; the phase of the third
    column is fixed so that the 3x3 extraction restricts to the 2x2 Cayley
    extraction on the embedded block.
    """
    s2 = math.sqrt(2.0)
    return np.array([[1 / s2, 0, 1j / s2],
                     [0, 1, 0],
                     [1j / s2, 0, 1 / s2]], dtype=complex)


_U3 = basis_change_u3()
_U3_H = _U3.conj().T


def to_tilde_rep(q: ComplexMatrix) -> ComplexMatrix:
    """Diagonal-metric picture -> antidiagonal-metric picture, of a matrix
    or of each matrix of a stack."""
    return algebra.shared_mul(_U3 @ q, _U3_H)


def ernst_g21(q: ComplexMatrix) -> ErnstValue21:
    """Extract (E, Phi) from a 3x3 map given in the diagonal-metric picture,
    or from each map of a (..., 3, 3) stack.

    Third-row dictionary in the antidiagonal picture: x = 1 / Re(qt_33),
    Phi = i qt_32 / (sqrt2 qt_33), y = Re(qt_31 / qt_33). The extraction
    uses entry ratios plus the unit-determinant normalization only, so a map
    must have det q = 1. A map dressing.dress returns has it to rounding:
    |det q - 1| is its unit_det residual.
    A map with Re qt_33 = 0, or one that is not finite, gives NaN.
    """
    qt = to_tilde_rep(q)
    bad = (qt[..., 2, 2].real == 0) | ~np.isfinite(q).all(axis=(-2, -1))
    q33 = np.where(bad, 1.0, qt[..., 2, 2])
    x = np.where(bad, math.nan, 1.0 / q33.real)
    nan = complex(math.nan, math.nan)
    phi = np.where(bad, nan, 1j * qt[..., 2, 1] / (math.sqrt(2.0) * q33))
    ratio = np.where(bad, nan, qt[..., 2, 0] / q33)
    phi2 = np.float_power(np.hypot(phi.real, phi.imag), 2)
    return ErnstValue21(x + phi2 + 1j * ratio.real, phi, x, ratio.real, ratio.imag + phi2)


def ptilde_matrix(ernst: complex, phi: complex) -> ComplexMatrix:
    """Closed-form symmetric-space element for given potentials, in the
    antidiagonal picture (x = Re E - |Phi|^2, y = Im E)."""
    x = ernst.real - abs(phi) ** 2
    y = ernst.imag
    if x == 0:
        raise SingularPointError("potential matrix singular: x = 0")
    p2 = abs(phi) ** 2
    s2 = math.sqrt(2.0)
    m = np.empty((3, 3), dtype=complex)
    m[0, 0] = x + 2 * p2 + (y * y + p2 * p2) / x
    m[0, 1] = s2 * phi * (1 + (p2 - 1j * y) / x)
    m[0, 2] = (y + 1j * p2) / x
    m[1, 1] = 1 + 2 * p2 / x
    m[1, 2] = 1j * s2 * np.conj(phi) / x
    m[2, 2] = 1 / x
    m[1, 0] = np.conj(m[0, 1])
    m[2, 0] = np.conj(m[0, 2])
    m[2, 1] = -1j * s2 * phi / x
    return m


def kn_oracle(m: float, e: float, a: float, r, theta) -> ErnstValue21:
    """Closed-form Kerr-Newman potentials Phi = e/(r - i a cos theta),
    E = 1 - 2m/(r - i a cos theta); r and theta may be arrays, broadcast
    against each other.

    The formulas do not depend on the sign of the charge term in the
    horizon function; that sign lives in the spin ``a``, which the caller
    picks (-kn_b_param gives the one this target carries).
    """
    den = np.asarray(r, dtype=float) - 1j * a * np.cos(theta)
    if algebra.any_of(den == 0):
        raise DomainError("Kerr-Newman oracle denominator vanishes")
    ernst = 1.0 - 2.0 * m / den
    phi = e / den
    x = ernst.real - np.float_power(np.hypot(phi.real, phi.imag), 2)
    return ErnstValue21(ernst, phi, x, ernst.imag, np.zeros(np.shape(x)))


def kn_b_param(m: float, e: float, s: float) -> float:
    """b_param = sqrt(m^2 + s^2 + e^2) of the family identified with the
    Kerr-Newman triple (m, e, s).

    The oracle spin a = -b_param puts the potentials on the chart
    Delta = r^2 - 2mr + a^2 - e^2 with s^2 = a^2 - e^2 - m^2 (b_param is
    kept positive; at e = 0 the sign of a reproduces the Kerr oracle's twist
    sign). This is the sign for which the Kerr-Newman potentials solve this
    target's field equations, and the one a soliton vector realizes:
    n1^2 + n3^2 = (b_param^2 - s^2)/4 with n1 = m/2 and n3 = -e/2, met by
    (alpha, c, delta) with delta = sqrt((b_param - s)/2), alpha = m/(2 delta),
    c = -e/(2 delta) at pole i s.
    """
    b = math.sqrt(m * m + s * s + e * e)
    if not math.isfinite(b):
        raise ConfigError(f"Kerr-Newman parameters need m^2 + s^2 + e^2 finite, got m={m}, "
                          f"s={s}, e={e}")
    return b


def kn_config(m: float, e: float, s: float) -> SolitonConfig:
    """One-soliton configuration generating the Kerr-Newman family of
    kn_b_param from the flat (2,1) seed: the vector
    (alpha, c, delta) = (n1, n3, delta^2) / delta at pole i s, with
    delta^2 = (b_param - s)/2 = (m^2 + e^2) / (2 (b_param + s)) taken in the
    form that does not cancel. At m = e = 0, where delta = 0, it is the
    limit (sqrt(s), 0, 0), which dresses the flat map."""
    delta = math.sqrt((m * m + e * e) / (2.0 * (kn_b_param(m, e, s) + s)))
    if delta:
        vector = np.array([m / 2.0, -e / 2.0, delta * delta], dtype=complex) / delta
    else:
        vector = np.array([math.sqrt(s), 0.0, 0.0])
    return SolitonConfig(signature=SIG_21, poles=(1j * s,), vectors=(vector,),
                         seed=seeds.identity_seed(SIG_21))


# ---------------------------------------------------------------------------
# su(2,1) structural test-bed (antidiagonal-metric representation)
# ---------------------------------------------------------------------------

def _e(i: int, j: int) -> ComplexMatrix:
    m = np.zeros((3, 3), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return m


def su21_basis() -> list[ComplexMatrix]:
    """The eight basis matrices of su(2,1) in the antidiagonal picture;
    each is traceless and satisfies X* Gt + Gt X = 0."""
    return [
        _e(1, 3),
        _e(3, 1),
        _e(1, 1) - _e(3, 3),
        1j * (_e(1, 1) - 2 * _e(2, 2) + _e(3, 3)),
        _e(1, 2) + 1j * _e(2, 3),
        1j * _e(1, 2) + _e(2, 3),
        _e(2, 1) - 1j * _e(3, 2),
        1j * _e(2, 1) - _e(3, 2),
    ]


#: structure constants [X^i, X^j] = sum_k c_k X^k for i < j (1-based keys)
COMMUTATION_TABLE: dict[tuple[int, int], dict[int, float]] = {
    (1, 2): {3: 1}, (1, 3): {1: -2}, (1, 4): {}, (1, 5): {}, (1, 6): {},
    (1, 7): {6: -1}, (1, 8): {5: -1},
    (2, 3): {2: 2}, (2, 4): {}, (2, 5): {8: -1}, (2, 6): {7: -1},
    (2, 7): {}, (2, 8): {},
    (3, 4): {}, (3, 5): {5: 1}, (3, 6): {6: 1}, (3, 7): {7: -1}, (3, 8): {8: -1},
    (4, 5): {6: 3}, (4, 6): {5: -3}, (4, 7): {8: -3}, (4, 8): {7: 3},
    (5, 6): {1: 2}, (5, 7): {3: 1}, (5, 8): {4: 1},
    (6, 7): {4: 1}, (6, 8): {3: -1},
    (7, 8): {2: 2},
}


def commutation_check() -> dict[tuple[int, int], bool]:
    """Compare all 28 pairwise brackets of the basis against the stored
    structure constants, entrywise to 1e-13."""
    basis = su21_basis()
    report: dict[tuple[int, int], bool] = {}
    for (i, j), coeffs in COMMUTATION_TABLE.items():
        lhs = basis[i - 1] @ basis[j - 1] - basis[j - 1] @ basis[i - 1]
        rhs = np.zeros((3, 3), dtype=complex)
        for k, ck in coeffs.items():
            rhs += ck * basis[k - 1]
        report[(i, j)] = bool(np.max(np.abs(lhs - rhs)) <= 1e-13)
    return report


def cartan_embed_su21(mu: float, delta: float, eta: float, theta: float) -> ComplexMatrix:
    """Image of the solvable-subgroup element n(delta, eta, theta) a(mu)
    under g -> g g*, in the antidiagonal picture.

    Equals ptilde_matrix(E, Phi) with sqrt2 Phi = eta + i theta and
    E = e^{2 mu} + |Phi|^2 + i delta.
    """
    w = eta + 1j * theta
    n = np.array([[1, w, delta + 0.5j * abs(w) ** 2],
                  [0, 1, 1j * np.conj(w)],
                  [0, 0, 1]], dtype=complex)
    a = np.diag([math.exp(mu), 1.0, math.exp(-mu)])
    g = n @ a
    return g @ g.conj().T
