import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vesture import algebra
from vesture.algebra import Signature
from vesture.errors import ConfigError, NumericError


def test_gamma_shapes_and_values():
    g11 = algebra.gamma(Signature(1, 1))
    np.testing.assert_array_equal(g11, np.diag([1.0, -1.0]))
    g21 = algebra.gamma(Signature(2, 1))
    np.testing.assert_array_equal(g21, np.diag([1.0, 1.0, -1.0]))
    np.testing.assert_array_equal(g21 @ g21, np.eye(3))
    np.testing.assert_array_equal(g11.conj().T, g11)


def test_signature_validation():
    with pytest.raises(ConfigError):
        Signature(0, 1)
    with pytest.raises(ConfigError):
        Signature(2, 0)


def test_tau_hand_example():
    g = algebra.gamma(Signature(1, 1))
    m = np.diag([2.0, 0.5]).astype(complex)
    np.testing.assert_allclose(algebra.tau(m, g), np.diag([0.5, 2.0]), atol=1e-14)


def test_tau_fixes_su11_elements():
    g = algebra.gamma(Signature(1, 1))
    rng = np.random.default_rng(3)
    for _ in range(10):
        b = rng.normal() + 1j * rng.normal()
        a = np.sqrt(1 + abs(b) ** 2) * np.exp(1j * rng.normal())
        m = np.array([[a, b], [np.conj(b), np.conj(a)]])
        np.testing.assert_allclose(algebra.tau(m, g), m, atol=1e-13)
        assert algebra.group_residual(m, g) < 1e-13


def test_tau_singular_raises():
    g = algebra.gamma(Signature(1, 1))
    with pytest.raises(NumericError):
        algebra.tau(np.zeros((2, 2), dtype=complex), g)


def test_sigma_sign_flip_on_e13():
    g = algebra.gamma(Signature(2, 1))
    e13 = np.zeros((3, 3), dtype=complex)
    e13[0, 2] = 1.0
    np.testing.assert_array_equal(algebra.sigma(e13, g), -e13)
    np.testing.assert_array_equal(algebra.sigma(np.eye(3, dtype=complex), g), np.eye(3))


def test_sigma_fixes_block_diagonal():
    g = algebra.gamma(Signature(2, 1))
    m = np.zeros((3, 3), dtype=complex)
    m[:2, :2] = [[1, 2], [3, 4]]
    m[2, 2] = 5
    np.testing.assert_array_equal(algebra.sigma(m, g), m)


def test_involutions_compose_and_commute():
    rng = np.random.default_rng(11)
    for sig in (Signature(1, 1), Signature(2, 1)):
        g = algebra.gamma(sig)
        for _ in range(10):
            m = rng.normal(size=(sig.n, sig.n)) + 1j * rng.normal(size=(sig.n, sig.n))
            m += 2 * np.eye(sig.n)
            scale = algebra.frobenius(m)
            assert algebra.frobenius(algebra.tau(algebra.tau(m, g), g) - m) < 1e-12 * scale
            assert algebra.frobenius(algebra.sigma(algebra.sigma(m, g), g) - m) < 1e-15 * scale
            lhs = algebra.tau(algebra.sigma(m, g), g)
            rhs = algebra.sigma(algebra.tau(m, g), g)
            assert algebra.frobenius(lhs - rhs) < 1e-12 * scale


def test_group_residual_values():
    g = algebra.gamma(Signature(1, 1))
    assert algebra.group_residual(np.eye(2, dtype=complex), g) == 0.0
    th = 0.73
    m = np.diag([np.exp(1j * th), np.exp(-1j * th)])
    assert algebra.group_residual(m, g) < 1e-15
    # 2I: ||4*Gamma - Gamma||_F + |det - 1| = 3*sqrt(2) + 3
    resid = algebra.group_residual(2 * np.eye(2, dtype=complex), g)
    np.testing.assert_allclose(resid, 3 * np.sqrt(2) + 3, rtol=1e-14)


def test_group_residual_closed_under_tau_and_inverse():
    g = algebra.gamma(Signature(1, 1))
    b = 0.4 - 0.2j
    a = np.sqrt(1 + abs(b) ** 2) * np.exp(0.3j)
    m = np.array([[a, b], [np.conj(b), np.conj(a)]])
    assert algebra.group_residual(algebra.tau(m, g), g) < 1e-13
    assert algebra.group_residual(np.linalg.inv(m), g) < 1e-13


def test_symspace_residual_values():
    g = algebra.gamma(Signature(1, 1))
    assert algebra.symspace_residual(np.eye(2, dtype=complex), g) == 0.0
    t = 0.37
    valid = np.array([[np.cosh(2 * t), np.sinh(2 * t)],
                      [np.sinh(2 * t), np.cosh(2 * t)]], dtype=complex)
    assert algebra.symspace_residual(valid, g) < 1e-13
    herm = np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 2.0]])
    assert algebra.symspace_residual(herm, g) > 0.1


def test_inv_condition_cap(monkeypatch):
    m = np.diag([1.0, 1e-13]).astype(complex)
    with pytest.raises(NumericError, match="exceeds cap 1.000e[+]12"):
        algebra.inv(m)
    out = algebra.inv(np.diag([2.0, 4.0]).astype(complex))
    np.testing.assert_allclose(out, np.diag([0.5, 0.25]))
    # the cap is read at call time
    monkeypatch.setattr(algebra, "CONDITION_CAP", 1e14)
    np.testing.assert_allclose(algebra.inv(m), np.diag([1.0, 1e13]))


def test_as_matrix_validation():
    with pytest.raises(ConfigError):
        algebra.as_matrix(np.zeros((2, 3)))
    with pytest.raises(ConfigError):
        algebra.as_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ConfigError):
        algebra.as_matrix(np.eye(3), n=2)


def _rotated(s_min: float, seed: int) -> np.ndarray:
    """A complex 3x3 matrix with singular values 1, 0.5 and s_min."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return u @ np.diag([1.0, 0.5, s_min]) @ v.conj().T


@pytest.mark.parametrize("singular", [False, True], ids=["lu", "singular-fallback"])
def test_checked_inv_inverts_each_matrix_once(monkeypatch, singular):
    cap = algebra.CONDITION_CAP
    well = [_rotated(0.3, 1), _rotated(1e-3, 2)]
    near = _rotated(3e-12, 3)       # cond ~3.3e11: the bound misses the cap by less than 10x
    over = _rotated(1e-13, 4)       # cond ~1e13: refused
    stack = well + [near, over]
    if singular:  # LU of the stack raises; every condition is then the SVD's
        stack.append(np.array([[1, 2, 0], [2, 4, 0], [0, 0, 1]], dtype=complex))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(stack[-1])
    inv, cond = algebra.checked_inv(np.array(stack))
    refused = [False, False, False, True] + [True] * singular
    for m, got, c, r in zip(stack, inv, cond, refused):
        if r:
            assert np.array_equal(got, np.eye(3))
        else:
            assert np.array_equal(got, np.linalg.inv(m))
        if singular or r or m is near:
            assert c == np.linalg.cond(m)
        else:  # the Frobenius bound from the one inverse
            assert c == algebra.frobenius(m) * algebra.frobenius(np.linalg.inv(m))
    assert 1e11 < cond[2] <= cap < cond[3]
    # no matrix near the cap: the SVD is never taken
    monkeypatch.setattr(np.linalg, "cond", None)
    assert np.array_equal(algebra.checked_inv(np.array(well))[0],
                          np.linalg.inv(np.array(well)))


# entries whose products cannot underflow, so that the error stays relative to |a||b|
_ENTRIES = {
    float: st.just(0.0) | st.floats(1e-6, 1e6) | st.floats(-1e6, -1e-6),
    complex: st.just(0j) | st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                                              allow_nan=False, allow_infinity=False),
}


@st.composite
def _products(draw, dtype):
    """(a, b) of shapes (..., m, k) and (..., k, n), with 1 <= m, k, n <= 6
    and broadcast leading axes: none (plain matrices), or up to two axes
    of up to 3 matrices each, 0 making an empty stack."""
    m, k, n = (draw(st.integers(1, 6)) for _ in range(3))
    lead = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=2, min_side=0,
                                                      max_side=3))
    a, b = (draw(hnp.arrays(dtype, shape, elements=_ENTRIES[dtype]))
            for shape in (lead.input_shapes[0] + (m, k), lead.input_shapes[1] + (k, n)))
    return a, b


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data())
@pytest.mark.parametrize("dtype", [float, complex])
def test_mul_matches_matmul(dtype, data):
    a, b = data.draw(_products(dtype))
    got, want = algebra.mul(a, b), np.matmul(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    if a.shape[-1] == 1:
        # one rounded product per entry; BLAS's complex kernels fuse the
        # multiply-add inside a complex product, so only real input gives
        # matmul's bits
        assert np.array_equal(got, a * b)
        if dtype is float:
            assert np.array_equal(got, want)
    if a.shape[-1] > 3:  # matmul's product, bit for bit
        assert np.array_equal(got, want)
    bound = 4 * np.finfo(float).eps * np.matmul(np.abs(a), np.abs(b))
    assert np.all(np.abs(got - want) <= bound)
