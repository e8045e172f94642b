"""OAM transmit basis, Fresnel-zone propagation, mode energies, path gain.

The transmit basis on the disk is the uniform-amplitude helical set

    phi_n(rho, phi) = [Pi_{R_T}(rho) / R_T] * [e^{j l_n phi} / sqrt(pi)]

optionally multiplied by the quadratic focusing phase e^{j kappa rho^2 / 2z}.
Propagating mode n to the receive disk through the Fresnel-zone kernel and
integrating the azimuth analytically leaves a single radial integral with a
Bessel kernel; that integral is what :func:`radial_fields` evaluates, for
many charges and focus states in one pass.  The received field separates as
psi_n = psi_n^rho(rho_R) * e^{j l_n phi_R}, and the radial factor follows the
convention that mode energies are E_n = 2 pi * integral |psi_n^rho|^2 rho
d rho (:func:`field_energies`).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import numerics
from .geometry import Scenario
from .numerics import MAX_ORDER, _run_shares, bessel_j, panels_for_step

#: Default number of radial output samples on [0, R_R].
RADIAL_SAMPLES = 1024
#: Target step of the transmit-side radial quadrature, as a fraction of
#: the wavelength.  The integrand oscillates on the kappa rho^2 / 2z scale;
#: lambda/16 resolves it for every scenario in the experiment suite.
QUADRATURE_STEP_FRACTION = 1 / 16
#: Focus states of the multi-state evaluators, unfocused first.
FOCUS_STATES = (False, True)
#: Receive-grid rows per block when the Bessel kernel is gathered and
#: integrated; bounds the kernel's working memory at any grid size.
KERNEL_ROW_BLOCK = 128
#: Factor on :func:`_mode_energy_bound` in the truncation rule of
#: :func:`path_gains`; covers the rounding of the computed energies.
ENERGY_BOUND_SAFETY = 4


def standard_charges(count: int) -> list[int]:
    """The first ``count`` charges of the standard order 0, +1, -1, +2, -2, ..."""
    return [(n + 1) // 2 if n % 2 else -(n // 2) for n in range(count)]


def tx_radial(scenario: Scenario, focused: bool, rho) -> np.ndarray:
    """Radial factor Pi_{R_T}(rho)/R_T of the transmit profile.

    With the angular factor e^{j l phi}/sqrt(pi) it makes a unit-energy
    profile on the disk.  The focused variant multiplies it by the
    quadratic phase law e^{j kappa rho^2 / 2z}; the constant e^{j kappa z}
    of the full focusing law is dropped since it does not change the
    focusing behavior.
    """
    rho = np.asarray(rho, dtype=float)
    inside = (rho <= scenario.radius_tx).astype(complex)
    value = inside / scenario.radius_tx
    if focused:
        value = value * np.exp(1j * scenario.kappa * rho**2 / (2 * scenario.distance))
    return value


def default_radial_grid(scenario: Scenario, samples: int = RADIAL_SAMPLES) -> np.ndarray:
    """Uniform radial output grid covering [0, R_R]."""
    return np.linspace(0.0, scenario.radius_rx, samples)


def radial_fields(scenario: Scenario, charges, focused=FOCUS_STATES, grid=None) -> np.ndarray:
    """Radial receive profiles psi^rho of several charges and focus states.

    Evaluates, for each charge l as given and each focus state,

        psi_l^rho(rho_R) = j^{l} / (2 z R_T sqrt(pi))
                           * e^{-j kappa rho_R^2 / 2z} e^{-j kappa z}
                           * int_0^{R_T} rho_T c(rho_T)
                             J_l(kappa rho_R rho_T / z) d rho_T

    where the inner chirp c(rho_T) is e^{-j kappa rho_T^2 / 2z} without
    focusing and 1 when the transmit profile carries the conjugate
    focusing phase.  The mode-constant j^l comes from the azimuthal
    integral identity int e^{j l u} e^{j x cos u} du = 2 pi j^l J_l(x) and
    is what the exact-kernel oracle (``rx_field_radial_exact`` in
    ``tests/oracles.py``) reproduces; it never affects energies
    or magnitude profiles.  With the reflection J_{-l} = (-1)^l J_l it
    makes psi_{-l} equal psi_l bitwise.

    The argument kappa rho_R rho_T / z of the Bessel kernel is the same
    matrix for every order, and on uniform grids the same product recurs
    many times, mostly in different rows.  So the distinct arguments are
    found once over the whole matrix, each charge evaluates J_l once per
    distinct argument, and the kernel is gathered back and integrated in
    blocks of grid rows.  The kernel does not depend on the focus state
    either, so each block serves every chirp.  Each row of the result is
    bitwise equal to a one-charge, one-state call.

    The charges are spread over the CPUs this process may run on: the
    calling thread and one helper thread per further CPU each take an
    interleaved share of the columns (:func:`~oamlis.numerics._run_shares`).
    Every charge runs the same
    operations whichever thread takes it and writes only its own column,
    so the result does not depend on the CPU count.

    Args:
        scenario: link geometry.
        charges: signed topological charges.
        focused: focus states to evaluate, in output order.
        grid: radial evaluation points in meters within [0, R_R];
            defaults to :func:`default_radial_grid`.

    Returns:
        Complex array of shape (len(focused), len(charges), len(grid)).
    """
    return _radial_pass(scenario, focused, grid)(charges)


def _radial_pass(scenario: Scenario, focused, grid):
    """The charge-independent setup of :func:`radial_fields`: the grid check,
    the distinct Bessel arguments, the phase and the per-state weights.

    Returns ``evaluate(charges)``, which computes the fields of a list of
    charges on that setup, in an array of shape
    (len(focused), len(charges), len(grid)).  Every call returns the bits
    :func:`radial_fields` would, so a caller may spend the setup on several
    lists of charges.
    """
    grid = default_radial_grid(scenario) if grid is None else np.asarray(grid, dtype=float)
    if np.any(grid < 0) or np.any(grid > scenario.radius_rx * (1 + 1e-12)):
        raise ValueError("radial grid must lie within [0, R_R]")
    z = scenario.distance
    kappa = scenario.kappa
    r_t = scenario.radius_tx
    panels = panels_for_step(r_t, scenario.wavelength * QUADRATURE_STEP_FRACTION)
    rho_t = np.linspace(0.0, r_t, panels + 1)
    args = kappa * np.outer(grid, rho_t) / z
    # Distinct bit patterns, so that 0.0 and -0.0 keep their own J_l.
    distinct, inverse = _distinct_keys(args.view(np.int64).ravel())
    distinct = distinct.view(float)
    inverse = inverse.reshape(args.shape)
    del args

    phase = np.exp(-1j * kappa * grid**2 / (2 * z)) * np.exp(-1j * kappa * z)
    weights = []
    for state in focused:
        if state:
            chirp = np.ones_like(rho_t, dtype=complex)
        else:
            chirp = np.exp(-1j * kappa * rho_t**2 / (2 * z))
        weights.append(rho_t * chirp)

    def evaluate(charges) -> np.ndarray:
        charges = [int(ell) for ell in charges]
        fields = np.empty((len(weights), len(charges), len(grid)), dtype=complex)

        def fill(cols):
            for col in cols:
                ell = charges[col]
                values = bessel_j(ell, distinct)
                integrals = np.empty((len(weights), len(grid)), dtype=complex)
                for start in range(0, len(grid), KERNEL_ROW_BLOCK):
                    rows = slice(start, start + KERNEL_ROW_BLOCK)
                    kernel = values[inverse[rows]]
                    for integral, weight in zip(integrals, weights):
                        integral[rows] = np.trapezoid(weight * kernel, rho_t, axis=1)
                # j^l from a lookup, not complex pow: keeps +-l bitwise degenerate.
                unit = (1.0, 1j, -1.0, -1j)[ell % 4]
                prefactor = unit / (2 * z * r_t * np.sqrt(np.pi))
                for row, integral in enumerate(integrals):
                    fields[row, col] = prefactor * phase * integral

        # scipy's jv and numpy's gather and trapezoid release the GIL.
        _run_shares(fill, len(charges))
        return fields

    return evaluate


def _distinct_keys(keys: np.ndarray):
    """``np.unique(keys, return_inverse=True)`` of 1-D int64 keys, with an
    int32 inverse, from one argsort and a running count of first
    occurrences: fewer full-size temporaries than ``np.unique``."""
    order = np.argsort(keys)
    ranked = keys[order]
    first = np.empty(len(ranked), dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    distinct = ranked[first]
    del ranked
    rank = np.cumsum(first, dtype=np.int32)
    rank -= 1
    inverse = np.empty(len(keys), dtype=np.int32)
    inverse[order] = rank
    return distinct, inverse


def field_energies(fields: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Energies E = 2 pi * int |psi^rho|^2 rho d rho along the last axis.

    The 2 pi angular factor is applied here, once; the radial fields do
    not carry it.
    """
    return 2 * np.pi * np.trapezoid(np.abs(fields) ** 2 * grid, grid, axis=-1)


def mode_energies(scenario: Scenario, charges, focused=FOCUS_STATES) -> np.ndarray:
    """Received energies of several charges and focus states.

    E_l = E_{-l} exactly, so each distinct |l| is evaluated once, in one
    :func:`radial_fields` pass on the default radial grid.

    Args:
        scenario: link geometry.
        charges: signed topological charges, repeats allowed.
        focused: focus states to evaluate, in output row order.

    Returns:
        Array of shape (len(focused), len(charges)).
    """
    orders, inverse = np.unique([abs(int(ell)) for ell in charges], return_inverse=True)
    grid = default_radial_grid(scenario)
    return field_energies(radial_fields(scenario, orders, focused, grid), grid)[:, inverse]


def path_gains(scenario: Scenario, n_modes: int, focused=FOCUS_STATES) -> np.ndarray:
    """Total received over transmitted energy for an N-mode superposition.

    With unit-energy bases and equal power allocation the transmitted
    energy is N, so the path gain is sum(E_n) / N.  N must be odd so the
    charge set is symmetric (0, +-1, ..., +-(N-1)/2).

    The sum runs in standard charge order, E_0 then E_l twice for
    l = 1, 2, ..., as one float addition after another per focus state
    (the rounding of ``np.cumsum(energies, axis=1)[:, -1]``).  The orders
    are evaluated in rounds of one order per CPU on one shared radial
    setup, and the sum stops before the first order L that can no longer
    change it:

    * :func:`_mode_energy_bound` B_L bounds E_l for every l >= L, since
      it falls with l once L > c/2, with c = kappa R_T R_R / z;
    * ``ENERGY_BOUND_SAFETY`` B_L < spacing(S)/2 for every running sum S,
      the factor covering the rounding of the computed energies and of
      B_L itself.

    The running sums only grow, so each later term is below half an ulp of
    the sum it is added to, and round-to-nearest returns that sum
    unchanged.  The result is therefore bitwise the full N-term sum.

    Args:
        scenario: link geometry.
        n_modes: number of multiplexed modes, odd, >= 1, at most
            2 * MAX_ORDER + 1.
        focused: focus states to evaluate.

    Returns:
        Path gains in (0, 1], one per focus state.
    """
    if (
        isinstance(n_modes, (bool, np.bool_))
        or not isinstance(n_modes, numbers.Integral)
        or n_modes < 1
        or n_modes % 2 == 0
    ):
        raise ValueError(f"n_modes must be an odd integer >= 1, got {n_modes!r}")
    orders = (int(n_modes) + 1) // 2
    if orders - 1 > MAX_ORDER:
        raise ValueError(f"Bessel order {orders - 1} outside supported range |l| <= {MAX_ORDER}")
    c = scenario.kappa * scenario.radius_tx * scenario.radius_rx / scenario.distance
    grid = default_radial_grid(scenario)
    evaluate = _radial_pass(scenario, focused, grid)
    sums = np.zeros(len(focused))
    order = 0
    while order < orders and (
        order <= c / 2
        or np.any(ENERGY_BOUND_SAFETY * _mode_energy_bound(scenario, order) >= np.spacing(sums) / 2)
    ):
        batch = range(order, min(order + numerics._worker_count(), orders))
        energies = field_energies(evaluate(batch), grid)
        for ell, column in zip(batch, energies.T):
            sums += column
            if ell:
                sums += column
        order = batch.stop
    return sums / n_modes


def _mode_energy_bound(scenario: Scenario, order: int) -> float:
    """Upper bound on the received energy E_l of charge +-l, either focus
    state, as :func:`mode_energies` computes it.

    DLMF 10.14.4 gives |J_l(x)| <= (x/2)^l / l! for x >= 0, and the Bessel
    argument kappa rho_R rho_T / z is at most c = kappa R_T R_R / z.  The
    trapezoid weights are positive and |chirp| = |phase| = 1, so the
    transmit trapezoid of rho_T gives |psi_l| <= R_T / (4 z sqrt(pi)) b_l
    with b_l = (c/2)^l / l!, and the receive trapezoid of rho_R gives

        E_l <= (R_T R_R / 4z)^2 b_l^2,

    which falls with l once l > c/2.
    """
    r_t, r_r, z = scenario.radius_tx, scenario.radius_rx, scenario.distance
    c = scenario.kappa * r_t * r_r / z
    return (r_t * r_r / (4 * z) * (c / 2) ** order / math.factorial(order)) ** 2


def profile_maps(
    charge: int,
    scenario: Scenario,
    focused: bool,
    field: np.ndarray,
    resolution: int = 101,
) -> dict:
    """Cartesian amplitude/phase maps of one charge at both apertures.

    Args:
        charge: signed topological charge.
        scenario: link geometry.
        focused: transmit focusing on/off.
        field: the charge's radial receive profile, sampled on the uniform
            grid over [0, R_R] (as :func:`radial_fields` returns it on
            :func:`default_radial_grid`); the receive maps interpolate it.
        resolution: samples per axis of each square map, >= 32.

    Returns:
        Dict with axes ``x_tx``/``x_rx`` (meters) and square maps
        ``tx_phase``, ``rx_amplitude`` and ``rx_phase``.  Map points outside
        the disks hold NaN.  Phases in radians, wrapped to (-pi, pi].
    """
    if resolution < 32:
        raise ValueError("resolution must be at least 32 samples per axis")
    x_t = np.linspace(-scenario.radius_tx, scenario.radius_tx, resolution)
    xx, yy = np.meshgrid(x_t, x_t)
    rho = np.hypot(xx, yy)
    phi = np.arctan2(yy, xx)
    tx_phase = np.angle(np.exp(1j * charge * phi) * tx_radial(scenario, focused, rho))
    tx_phase[rho > scenario.radius_tx] = np.nan

    field = np.asarray(field, dtype=complex)
    radii = default_radial_grid(scenario, len(field))
    x_r = np.linspace(-scenario.radius_rx, scenario.radius_rx, resolution)
    xxr, yyr = np.meshgrid(x_r, x_r)
    rho_r = np.hypot(xxr, yyr)
    phi_r = np.arctan2(yyr, xxr)
    re = np.interp(rho_r, radii, field.real)
    im = np.interp(rho_r, radii, field.imag)
    full = (re + 1j * im) * np.exp(1j * charge * phi_r)
    outside = rho_r > scenario.radius_rx
    rx_amplitude = np.abs(full)
    rx_phase = np.angle(full)
    rx_amplitude[outside] = np.nan
    rx_phase[outside] = np.nan

    return {
        "x_tx": x_t,
        "x_rx": x_r,
        "tx_phase": tx_phase,
        "rx_amplitude": rx_amplitude,
        "rx_phase": rx_phase,
    }
