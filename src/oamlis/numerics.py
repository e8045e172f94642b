"""Numerical primitives shared by the physics modules.

Thin, well-tested wrappers around scipy/numpy plus the one convention the
rest of the code relies on everywhere: integer-order Bessel functions with
the reflection rule J_{-l}(x) = (-1)^l J_l(x) applied *exactly* (same float
values up to sign), so that quantities that are analytically degenerate in
the sign of the topological charge come out degenerate in floating point
too.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _special

#: Largest supported Bessel order; mode sweeps in the shipped experiments
#: use |l| <= 25, the cap just guards against runaway inputs.
MAX_ORDER = 64


def bessel_j(order: int, x):
    """Bessel function of the first kind J_order(x) for signed integer order.

    Negative orders are evaluated through the reflection formula
    J_{-l}(x) = (-1)^l J_l(x) rather than scipy's generic negative-order
    path, which makes the +l/-l symmetry exact in floating point.

    Args:
        order: signed integer order, |order| <= 64.
        x: scalar or array argument.

    Returns:
        J_order(x), scalar or array matching ``x``.
    """
    order = int(order)
    if abs(order) > MAX_ORDER:
        raise ValueError(f"Bessel order {order} outside supported range |l| <= {MAX_ORDER}")
    value = _special.jv(abs(order), x)
    if order < 0 and order % 2 != 0:
        value = -value
    return value


def panels_for_step(span: float, target_step: float) -> int:
    """Panel count whose exact step is <= target_step over a span."""
    if span <= 0 or target_step <= 0:
        raise ValueError("span and target_step must be positive")
    return max(2, int(np.ceil(span / target_step)))


def svd_spectrum(matrix: np.ndarray) -> np.ndarray:
    """Singular values of a complex matrix, sorted descending.

    Args:
        matrix: 2-D complex array.

    Returns:
        1-D array of min(rows, cols) non-negative singular values.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("svd_spectrum expects a non-empty 2-D matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("svd_spectrum input contains non-finite entries")
    return np.linalg.svd(m, compute_uv=False)
