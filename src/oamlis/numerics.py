"""Numerical primitives shared by the physics modules.

Thin, well-tested wrappers around scipy/numpy plus the one convention the
rest of the code relies on everywhere: integer-order Bessel functions with
the reflection rule J_{-l}(x) = (-1)^l J_l(x) applied *exactly* (same float
values up to sign), so that quantities that are analytically degenerate in
the sign of the topological charge come out degenerate in floating point
too.  :func:`_run_shares` is the one thread pool of the package: it spreads
independent work items over the CPUs the process may use.  It is private
plumbing, not a numerical layer: the work it runs belongs to its caller.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import special as _special

#: Largest supported Bessel order.  The shipped defaults reach |l| <= 40
#: (``dof``'s ``max_charge``); ``pathgain``'s 51 modes reach |l| <= 25.  The
#: cap guards against runaway inputs.
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


def _run_shares(work, count: int) -> None:
    """Call ``work(share)`` on interleaved shares of ``range(count)``, one
    share per CPU this process may run on.

    The calling thread takes indices 0, W, 2W, ... and one helper thread per
    further worker takes k, k + W, ..., for W workers (at most ``count``).
    Every share's result is read, so an error raised in a helper raises
    here.  ``work`` must write each index's result only to that index's own
    place; then the outcome does not depend on the CPU count.  The pool
    starts a thread per submitted share only, so one worker starts none.
    """
    workers = max(1, min(_worker_count(), count))
    with ThreadPoolExecutor(workers) as pool:
        shares = [pool.submit(work, range(k, count, workers)) for k in range(1, workers)]
        work(range(0, count, workers))
        for share in shares:
            share.result()


def _worker_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
