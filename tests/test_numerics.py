"""Tests for the numerical primitives."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oamlis.numerics import (
    MAX_ORDER,
    bessel_j,
    panels_for_step,
    svd_spectrum,
)


def bessel_series(order: int, x: float, terms: int = 40) -> float:
    """Power-series J_order(x), independent of scipy.

    J_l(x) = sum_k (-1)^k (x/2)^(2k+l) / (k! (k+l)!), exact integer
    factorials; converges far below 1e-12 for x <= 8 with 40 terms.
    """
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * (x / 2) ** (2 * k + order) / (
            math.factorial(k) * math.factorial(k + order)
        )
    return total


def test_bessel_matches_power_series():
    for order in (0, 1, 2, 5, 8):
        for x in (0.3, 1.0, 2.7, 5.0, 7.5):
            assert_allclose(bessel_j(order, x), bessel_series(order, x), atol=1e-12)


def test_bessel_three_term_recurrence():
    x = np.linspace(0.5, 40.0, 200)
    for order in range(1, 12):
        lhs = bessel_j(order - 1, x) + bessel_j(order + 1, x)
        assert_allclose(lhs, 2 * order / x * bessel_j(order, x), atol=1e-10)


def test_bessel_reflection_is_exact_in_floating_point():
    x = np.linspace(0.0, 50.0, 501)
    for order in range(0, 11):
        plus = bessel_j(order, x)
        minus = bessel_j(-order, x)
        expected = -plus if order % 2 else plus
        assert np.array_equal(minus, expected)


def test_bessel_scalar_and_array_forms_agree():
    x = np.array([0.0, 1.5, 3.0])
    arr = bessel_j(3, x)
    assert arr.shape == x.shape
    assert arr[0] == bessel_j(3, 0.0) == 0.0


def test_bessel_order_cap():
    assert np.isfinite(bessel_j(MAX_ORDER, 1.0))
    assert np.isfinite(bessel_j(-MAX_ORDER, 1.0))
    with pytest.raises(ValueError):
        bessel_j(MAX_ORDER + 1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(-(MAX_ORDER + 1), 1.0)


def test_panels_for_step():
    assert panels_for_step(1.0, 0.1) == 10
    assert panels_for_step(1.0, 0.3) == 4
    assert panels_for_step(1e-6, 1.0) == 2
    with pytest.raises(ValueError):
        panels_for_step(0.0, 0.1)


def test_svd_spectrum_gram_eigenvalue_oracle():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((17, 9)) + 1j * rng.standard_normal((17, 9))
    sigma = svd_spectrum(a)
    gram = np.linalg.eigvalsh(a.conj().T @ a)[::-1]
    assert np.all(np.diff(sigma) <= 0)
    assert_allclose(sigma**2, gram, atol=1e-10 * gram[0])


def test_svd_spectrum_conjugate_transpose_invariance():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 14)) + 1j * rng.standard_normal((6, 14))
    assert_allclose(svd_spectrum(a), svd_spectrum(a.conj().T), rtol=1e-12)


def test_svd_spectrum_diagonal_example():
    assert_allclose(svd_spectrum(np.diag([3.0, 1.0, 2.0])), [3.0, 2.0, 1.0])


def test_svd_spectrum_input_validation():
    with pytest.raises(ValueError):
        svd_spectrum(np.ones(4))
    with pytest.raises(ValueError):
        svd_spectrum(np.array([[1.0, np.nan], [0.0, 1.0]]))
