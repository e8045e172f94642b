"""Reference implementations that the tests compare the program against.

None of these runs in an experiment.  Each is the direct, slow form of a
quantity the library computes another way:

* :func:`point_distance` and :func:`green` -- the exact distance and the
  scalar Green function between two points, for the coupling matrix;
* :func:`focused_fundamental_profile` -- the closed-form Airy profile of the
  focused l = 0 mode, for the radial quadrature;
* :func:`rx_field_radial_exact` -- the receive field through the
  exact-distance kernel, for the Fresnel route;
* :func:`demultiplex` -- angular correlation of a 2-D field, for the
  demultiplexed radial signal the receivers act on;
* :func:`mf_statistic`, :func:`id_statistic` and :func:`ed_statistic` --
  the matched-filter, integrate-and-dump and energy-detector statistics of
  one received signal, for the projection scorer.
"""

from __future__ import annotations

import numpy as np

from oamlis.geometry import Scenario
from oamlis.numerics import bessel_j, panels_for_step
from oamlis.oam import QUADRATURE_STEP_FRACTION, tx_radial


def point_distance(rho_t, phi_t, rho_r, phi_r, z):
    """Exact distance between a transmit and a receive surface point.

    Points are given in polar coordinates on their respective disks, the
    disks being parallel and z apart:

        r = sqrt(rho_t^2 + rho_r^2 - 2 rho_t rho_r cos(phi_r - phi_t) + z^2)

    Accepts scalars or broadcastable arrays.
    """
    rho_t = np.asarray(rho_t)
    rho_r = np.asarray(rho_r)
    if np.any(rho_t < 0) or np.any(rho_r < 0):
        raise ValueError("radial coordinates must be non-negative")
    if not np.all(np.asarray(z) > 0):
        raise ValueError("separation z must be positive")
    sq = rho_t**2 + rho_r**2 - 2 * rho_t * rho_r * np.cos(np.asarray(phi_r) - np.asarray(phi_t)) + np.asarray(z) ** 2
    return np.sqrt(sq)


def green(point_t, point_r, kappa: float) -> complex:
    """Scalar free-space Green function between two 3-D points.

        G(r1, r2) = exp(-j kappa |r1 - r2|) / (4 pi |r1 - r2|)

    Args:
        point_t, point_r: 3-component coordinate sequences in meters.
        kappa: wavenumber in rad/m.

    Returns:
        Complex field coupling value.
    """
    delta = np.asarray(point_r, dtype=float) - np.asarray(point_t, dtype=float)
    r = float(np.sqrt(np.dot(delta, delta)))
    if r == 0.0:
        raise ValueError("Green function is singular at zero separation")
    return complex(np.exp(-1j * kappa * r) / (4 * np.pi * r))


def focused_fundamental_profile(scenario: Scenario, grid: np.ndarray) -> np.ndarray:
    """Closed-form focused fundamental-mode profile (Airy pattern).

    For l = 0 with transmit focusing, the radial integral has the closed
    form R_T J_1(X)/X with X = kappa rho_R R_T / z, giving

        psi_1^rho(rho_R) = R_T / (2 z sqrt(pi)) * e^{-j kappa rho_R^2/2z}
                           e^{-j kappa z} * J_1(X)/X      (J_1(X)/X -> 1/2 at X=0)

    Used as an independent check of the quadrature route.
    """
    grid = np.asarray(grid, dtype=float)
    z = scenario.distance
    kappa = scenario.kappa
    x = kappa * grid * scenario.radius_tx / z
    ratio = np.full_like(x, 0.5)
    nz = x != 0
    ratio[nz] = bessel_j(1, x[nz]) / x[nz]
    amplitude = scenario.radius_tx / (2 * z * np.sqrt(np.pi))
    phase = np.exp(-1j * kappa * grid**2 / (2 * z)) * np.exp(-1j * kappa * z)
    return amplitude * phase * ratio


def rx_field_radial_exact(
    charge: int,
    scenario: Scenario,
    focused: bool,
    grid: np.ndarray,
    angular_samples: int = 128,
) -> np.ndarray:
    """Receive profile via the exact-distance kernel (validation oracle).

    Integrates the transmit profile against the exact scalar Green function
    over the transmit disk (2-D quadrature: uniform azimuth rule, fixed
    radial trapezoid).  Much slower than :func:`oamlis.oam.radial_fields`;
    intended for coarse-grid cross-checks of the Fresnel route, not for
    experiment sweeps.

    Returns:
        psi^rho of ``charge`` sampled on ``grid``.
    """
    grid = np.asarray(grid, dtype=float)
    z = scenario.distance
    kappa = scenario.kappa
    r_t = scenario.radius_tx

    panels = panels_for_step(r_t, scenario.wavelength * QUADRATURE_STEP_FRACTION)
    rho_t = np.linspace(0.0, r_t, panels + 1)
    phi_t = np.arange(angular_samples) * (2 * np.pi / angular_samples)

    radial_part = tx_radial(scenario, focused, rho_t) * rho_t
    angular = np.exp(1j * charge * phi_t) / np.sqrt(np.pi)
    out = np.zeros(len(grid), dtype=complex)
    # Evaluate the full transmit-disk integral at phi_R = 0; separability of
    # the exact kernel in (phi_R - phi_T) makes this the radial factor.
    for phi, ang in zip(phi_t, angular):
        dist = point_distance(rho_t[None, :], phi, grid[:, None], 0.0, z)
        kernel = np.exp(-1j * kappa * dist) / (4 * np.pi * dist)
        out += ang * np.trapezoid(kernel * radial_part[None, :], rho_t, axis=1)
    out *= 2 * np.pi / angular_samples
    return out


def demultiplex(field, charge: int, radii: np.ndarray, angular_samples: int = 256) -> np.ndarray:
    """Angular correlation of a 2-D field against a charge's helical phase.

        y_l(rho_i) = int_0^{2pi} field(rho_i, phi) e^{-j l phi} d phi

    evaluated with the uniform angular rule, which is exact for any field
    whose azimuthal content stays below the sample count.  A pure mode of
    charge l and radial profile psi yields 2 pi psi; other charges cancel.

    Args:
        field: callable (rho, phi) -> complex samples, broadcastable.
        charge: signed topological charge l of the extraction branch.
        radii: radial evaluation points.
        angular_samples: azimuth sample count (>= 256 keeps leakage at
            the numerical floor for |l| <= 10).
    """
    if angular_samples < 4:
        raise ValueError("need at least 4 angular samples")
    radii = np.asarray(radii, dtype=float)
    phi = np.arange(angular_samples) * (2 * np.pi / angular_samples)
    values = field(radii[:, None], phi[None, :])
    weights = np.exp(-1j * charge * phi) * (2 * np.pi / angular_samples)
    return values @ weights


def mf_statistic(y: np.ndarray, template: np.ndarray, radii: np.ndarray, delta: float) -> complex:
    """Matched-filter correlation sum_i y_i template_i^* rho_i delta."""
    y = np.asarray(y)
    template = np.asarray(template)
    radii = np.asarray(radii, dtype=float)
    if y.shape[-1] != template.shape[-1] or template.shape[-1] != radii.shape[-1]:
        raise ValueError("signal, template and grid lengths must match")
    return (y * np.conj(template) * radii * delta).sum(axis=-1)


def _check_window(window, radii):
    window = np.asarray(window, dtype=bool)
    radii = np.asarray(radii, dtype=float)
    if window.shape != radii.shape:
        raise ValueError("window mask and grid lengths must match")
    if not window.any():
        raise ValueError("integration window is empty")
    return window, radii


def id_statistic(
    y: np.ndarray,
    window: np.ndarray,
    radii: np.ndarray,
    delta: float,
    compensation: np.ndarray | None = None,
) -> complex:
    """Windowed intensity integration sum_{i in w} y_i c_i^* rho_i delta.

    The optional unit-modulus compensation c removes a known deterministic
    phase (the propagation chirp) before integrating; it leaves the noise
    variance of the statistic unchanged.
    """
    window, radii = _check_window(window, radii)
    y = np.asarray(y)[..., window]
    kernel = radii[window] * delta
    if compensation is not None:
        kernel = kernel * np.conj(np.asarray(compensation)[window])
    return (y * kernel).sum(axis=-1)


def ed_statistic(y: np.ndarray, window: np.ndarray, radii: np.ndarray, delta: float) -> float:
    """Windowed energy sum_{i in w} |y_i|^2 rho_i delta (non-negative)."""
    window, radii = _check_window(window, radii)
    y = np.asarray(y)[..., window]
    return (np.abs(y) ** 2 * radii[window] * delta).sum(axis=-1)
