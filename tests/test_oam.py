"""Tests for the OAM transmit basis and Fresnel-zone propagation."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oamlis import Scenario, numerics, oam
from oamlis.detect import slot_grid
from oamlis.experiments import default_config
from oamlis.numerics import MAX_ORDER, bessel_j, panels_for_step
from oamlis.oam import (
    QUADRATURE_STEP_FRACTION,
    default_radial_grid,
    field_energies,
    mode_energies,
    path_gains,
    profile_maps,
    radial_fields,
    standard_charges,
    tx_radial,
)
from oracles import focused_fundamental_profile, rx_field_radial_exact

# Mode energies for the five lowest charges, T=R=10, D=100, focused, at
# unit wavelength; frozen from an independent prototype of the radial
# quadrature (1024 output samples, transmit step lambda/16).
FROZEN_ENERGIES = {
    0: 5.739454e-3,
    1: 5.629025e-3,
    2: 5.349407e-3,
    3: 3.830334e-3,
    4: 1.812976e-3,
}


@given(n=st.integers(0, 2 * MAX_ORDER + 1), m=st.integers(0, 2 * MAX_ORDER + 1))
def test_standard_charges_order(n, m):
    charges = standard_charges(n)
    assert len(charges) == n
    assert all(type(ell) is int for ell in charges)
    assert charges[:3] == [0, 1, -1][:n]
    # Prefix-stable: a longer list extends a shorter one.
    assert standard_charges(max(n, m))[: min(n, m)] == standard_charges(min(n, m))
    if n % 2:
        half = (n - 1) // 2
        assert sorted(charges) == list(range(-half, half + 1))


def test_topological_charge_ordering():
    assert standard_charges(7) == [0, 1, -1, 2, -2, 3, -3]
    assert standard_charges(1) == [0]
    assert standard_charges(0) == []


def test_mode_index_inverts_charge_map():
    # Charge l sits at position 2|l| - [l > 0] of the standard order.
    charges = standard_charges(39)
    assert len(set(charges)) == len(charges)
    for position, ell in enumerate(charges):
        assert 2 * abs(ell) - (ell > 0) == position


def test_topological_charge_cap():
    # The Bessel order cap |l| <= 64 admits the first 129 charges.
    assert standard_charges(129)[-1] == -64
    assert default_config("path_gain", n_modes=129).n_modes == 129
    with pytest.raises(ValueError, match="at most 129"):
        default_config("path_gain", n_modes=131)


def test_tx_profiles_have_unit_energy():
    # E = int |phi|^2 dA = 2 pi * int |radial|^2 * (1/pi) rho drho
    s = Scenario.normalized(10, 10, 50)
    rho = np.linspace(0.0, s.radius_tx, 4097)
    for focused in (False, True):
        energy = 2 * np.trapezoid(np.abs(tx_radial(s, focused, rho)) ** 2 * rho, rho)
        assert_allclose(energy, 1.0, atol=1e-6)


def test_tx_profile_vanishes_outside_aperture():
    s = Scenario.normalized(5, 5, 20)
    assert tx_radial(s, True, s.radius_tx * 1.5) == 0
    assert tx_radial(s, True, 0.0) != 0
    assert tx_radial(s, False, s.radius_tx) == 1 / s.radius_tx


def _field(ell, s, focused, grid=None):
    """psi^rho of one charge and focus state, from a one-charge call."""
    return radial_fields(s, [ell], (focused,), grid)[0, 0]


def _energy(ell, s, focused):
    """Received energy of one charge and focus state on the default grid."""
    return float(field_energies(_field(ell, s, focused), default_radial_grid(s)))


def test_rx_field_grid_must_stay_inside_receiver():
    s = Scenario.normalized(5, 5, 20)
    with pytest.raises(ValueError):
        radial_fields(s, [0], grid=np.linspace(0, 2 * s.radius_rx, 16))
    with pytest.raises(ValueError):
        radial_fields(s, [0], grid=np.linspace(-s.radius_rx, s.radius_rx, 16))


def test_rx_field_vanishes_on_axis_for_helical_modes():
    s = Scenario.normalized(10, 10, 50)
    for ell in (1, -1, 3):
        assert abs(_field(ell, s, False)[0]) == 0.0
    assert abs(_field(0, s, True)[0]) > 0


def test_frozen_mode_energies():
    s = Scenario.normalized(10, 10, 100, wavelength=1.0)
    for ell, expected in FROZEN_ENERGIES.items():
        assert_allclose(_energy(ell, s, True), expected, rtol=1e-6)


def test_mode_energies_bitwise_equal_to_mode_energy():
    s = Scenario.normalized(6, 3, 40)
    charges = list(range(-6, 7))
    expected = [[_energy(ell, s, f) for ell in charges] for f in (False, True)]
    assert_array_equal(mode_energies(s, charges), expected)
    assert_array_equal(mode_energies(s, charges, (True,)), expected[1:])


def _full_kernel_samples(ell, s, grid):
    """psi^rho of both focus states, unfocused first, from J_l on the full
    argument matrix."""
    z, kappa, r_t = s.distance, s.kappa, s.radius_tx
    rho_t = np.linspace(0.0, r_t, panels_for_step(r_t, s.wavelength * QUADRATURE_STEP_FRACTION) + 1)
    kernel = bessel_j(ell, kappa * np.outer(grid, rho_t) / z)
    unit = (1.0, 1j, -1.0, -1j)[ell % 4]
    prefactor = unit / (2 * z * r_t * np.sqrt(np.pi))
    phase = np.exp(-1j * kappa * grid**2 / (2 * z)) * np.exp(-1j * kappa * z)
    samples = []
    for chirp in (np.exp(-1j * kappa * rho_t**2 / (2 * z)), np.ones_like(rho_t, dtype=complex)):
        integral = np.trapezoid(rho_t[None, :] * chirp[None, :] * kernel, rho_t, axis=1)
        samples.append(prefactor * phase * integral)
    return samples


@pytest.mark.filterwarnings("ignore:link distance")
@settings(max_examples=10)
@given(
    T=st.floats(1, 25),
    R=st.floats(1, 25),
    D=st.floats(20, 600),
    charges=st.lists(st.integers(-MAX_ORDER, MAX_ORDER), min_size=1, max_size=3),
)
def test_radial_samples_bitwise_equal_to_full_kernel(T, R, D, charges):
    # The shared-argument kernel must reproduce every bit of the direct
    # formula, on the default grid and on the receiver's slot grid, and a
    # multi-charge, two-state call every bit of the one-charge, one-state
    # calls.
    s = Scenario.normalized(T, R, D)
    grid = default_radial_grid(s)
    slots, _ = slot_grid(s.radius_rx, wavelength=s.wavelength)
    fields = radial_fields(s, charges)
    fields_on_slots = radial_fields(s, charges, grid=slots)
    assert fields.shape == (2, len(charges), len(grid))
    assert fields_on_slots.shape == (2, len(charges), len(slots))
    expected = np.empty((2, len(charges)))
    for col, ell in enumerate(charges):
        full = _full_kernel_samples(ell, s, grid)
        on_slots = _full_kernel_samples(ell, s, slots)
        for row, focused in enumerate((False, True)):
            assert_array_equal(fields[row, col], full[row])
            assert_array_equal(fields_on_slots[row, col], on_slots[row])
            assert_array_equal(_field(ell, s, focused), full[row])
            assert_array_equal(_field(ell, s, focused, slots), on_slots[row])
            expected[row, col] = 2 * np.pi * np.trapezoid(np.abs(full[row]) ** 2 * grid, grid)
    assert_array_equal(field_energies(fields, grid), expected)
    assert_array_equal(mode_energies(s, charges), expected)


def test_radial_fields_bitwise_equal_on_more_workers_than_cpus(monkeypatch):
    # Five workers on any machine, and a thread switch every microsecond:
    # every column still equals its one-charge call, and an error in a
    # helper's share still raises.
    monkeypatch.setattr(numerics, "_worker_count", lambda: 5)
    s = Scenario.normalized(6, 3, 40)
    charges = standard_charges(23)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fields = radial_fields(s, charges)
        singles = [radial_fields(s, [ell]) for ell in charges]
        # Column 4 falls to the fifth worker, a helper thread.
        with pytest.raises(ValueError, match="outside supported range"):
            radial_fields(s, [0, 1, 2, 3, MAX_ORDER + 1])
    finally:
        sys.setswitchinterval(interval)
    for col, single in enumerate(singles):
        assert_array_equal(fields[:, col], single[:, 0])


# Values with repeats, both zeros and NaN: each key is a float64's bit pattern.
_KEY_VALUES = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.5)), st.floats(width=64))


@given(values=st.lists(_KEY_VALUES, max_size=300))
def test_distinct_keys_match_np_unique(values):
    keys = np.array(values, dtype=float).view(np.int64)
    distinct, inverse = oam._distinct_keys(keys)
    expected, expected_inverse = np.unique(keys, return_inverse=True)
    assert distinct.dtype == np.int64 and inverse.dtype == np.int32
    assert_array_equal(distinct, expected)
    assert_array_equal(inverse, expected_inverse.reshape(-1))


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mode_energies_peak_memory_within_full_kernel():
    # The shared arguments keep an index matrix alive across orders; the
    # int32 index and the row-blocked kernel keep the peak below that of
    # one full-size kernel.
    s = Scenario.normalized(25, 5, 500)
    grid = default_radial_grid(s)
    charges = range(26)
    shared = _peak_bytes(lambda: mode_energies(s, charges))
    full = _peak_bytes(lambda: [_full_kernel_samples(ell, s, grid) for ell in charges])
    assert shared <= full


def test_mode_energy_scales_with_wavelength_squared():
    # normalized geometry fixes the physics; lengths only rescale energies
    a = _energy(2, Scenario.normalized(10, 10, 100, wavelength=1.0), True)
    b = _energy(2, Scenario.normalized(10, 10, 100, wavelength=0.1), True)
    assert_allclose(b, a * 0.1**2, rtol=1e-10)


def test_opposite_charges_are_bitwise_degenerate():
    s = Scenario.normalized(10, 10, 50)
    for ell in range(1, 11):
        for focused in (False, True):
            plus = _field(ell, s, focused)
            minus = _field(-ell, s, focused)
            assert np.array_equal(plus, minus)
    charges = [ell for ell in range(1, 11) for ell in (ell, -ell)]
    energies = mode_energies(s, charges)
    assert_array_equal(energies[:, 0::2], energies[:, 1::2])
    grid = default_radial_grid(s)
    signed = field_energies(radial_fields(s, charges, grid=grid), grid)
    assert_array_equal(signed, energies)


def test_focused_fundamental_matches_closed_form():
    s = Scenario.normalized(10, 10, 100)
    grid = default_radial_grid(s)
    quad = _field(0, s, True, grid)
    airy = focused_fundamental_profile(s, grid)
    err = np.sqrt(np.trapezoid(np.abs(quad - airy) ** 2 * grid, grid))
    ref = np.sqrt(np.trapezoid(np.abs(airy) ** 2 * grid, grid))
    assert err / ref < 1e-4
    # on-axis value is the x -> 0 limit J_1(x)/x -> 1/2
    assert_allclose(
        abs(airy[0]), s.radius_tx / (4 * s.distance * np.sqrt(np.pi)), rtol=1e-12
    )


def test_fresnel_route_against_exact_kernel():
    """Coarse-grid cross-check of the quadratic-phase approximation.

    The exact-distance double quadrature is the independent route; at
    D = 10 T the two agree to about a percent in relative L2, including
    the mode-constant phase.
    """
    s = Scenario.normalized(5, 5, 50)
    grid = np.linspace(0, s.radius_rx, 48)
    for ell in (0, 1, -3):
        for focused in (False, True):
            fresnel = _field(ell, s, focused, grid)
            exact = rx_field_radial_exact(ell, s, focused, grid, angular_samples=96)
            err = np.sqrt(np.trapezoid(np.abs(fresnel - exact) ** 2 * grid, grid))
            ref = np.sqrt(np.trapezoid(np.abs(exact) ** 2 * grid, grid))
            assert err / ref < 0.03


def test_unfocused_peak_radius_grows_with_charge():
    s = Scenario.normalized(10, 10, 50)
    peaks = []
    grid = default_radial_grid(s)
    for ell in range(0, 7):
        peaks.append(grid[np.abs(_field(ell, s, False)).argmax()])
    assert np.all(np.diff(peaks) > 0)


def test_focusing_never_loses_energy_on_equal_apertures():
    s = Scenario.normalized(10, 10, 50)
    for ell in range(0, 9):
        focused = _energy(ell, s, True)
        unfocused = _energy(ell, s, False)
        assert focused > unfocused


def test_path_gain_composition_and_validation():
    s = Scenario.normalized(10, 10, 100)
    e = {ell: _energy(ell, s, True) for ell in range(3)}
    assert_allclose(path_gains(s, 1, (True,)), [e[0]], rtol=1e-12)
    expected = (e[0] + 2 * e[1] + 2 * e[2]) / 5
    assert_allclose(path_gains(s, 5, (True,)), [expected], rtol=1e-12)
    with pytest.raises(ValueError):
        path_gains(s, 4, (True,))
    with pytest.raises(ValueError):
        path_gains(s, 0, (True,))


def test_path_gain_rejects_bad_mode_counts_before_any_radial_pass(monkeypatch):
    # The order cap holds whatever order the sum would stop at.
    def no_pass(*args):
        raise AssertionError("radial pass started")

    monkeypatch.setattr(oam, "_radial_pass", no_pass)
    s = Scenario.normalized(10, 10, 500)
    with pytest.raises(ValueError, match=f"Bessel order {MAX_ORDER + 1} outside supported range"):
        path_gains(s, 2 * MAX_ORDER + 3)
    for n_modes in (True, np.bool_(True), 51.0, "51", 0, -1, 4):
        with pytest.raises(ValueError, match="n_modes must be an odd integer"):
            path_gains(s, n_modes)


@st.composite
def _links(draw):
    """Normalized (T, R, D) with D >= 2 max(T, R)."""
    T, R = draw(st.floats(1, 25)), draw(st.floats(1, 25))
    return T, R, draw(st.floats(2 * max(T, R), 2000))


@settings(max_examples=12, deadline=None)
@given(link=_links(), n_modes=st.integers(0, 25).map(lambda k: 2 * k + 1))
@example(link=(25.0, 5.0, 500.0), n_modes=51)
@example(link=(12.0, 12.0, 24.0), n_modes=31)
def test_path_gains_bitwise_equal_to_full_sum(link, n_modes):
    # The sum stops at the first order that cannot change it, so it must
    # equal every bit of the running sum over all N energies.
    s = Scenario.normalized(*link)
    energies = mode_energies(s, standard_charges(n_modes))
    assert_array_equal(path_gains(s, n_modes), np.cumsum(energies, axis=1)[:, -1] / n_modes)


@settings(max_examples=10, deadline=None)
@given(link=_links())
@example(link=(1.0, 1.0, 2000.0))
@example(link=(25.0, 25.0, 50.0))
def test_mode_energies_within_their_bound(link):
    # The truncation rule rests on E_l <= (R_T R_R / 4z)^2 ((c/2)^l / l!)^2,
    # tight at l = 0 as c -> 0.  Checked without the safety factor.
    s = Scenario.normalized(*link)
    orders = range(13)
    energies = mode_energies(s, orders)
    bounds = [oam._mode_energy_bound(s, ell) for ell in orders]
    assert np.all(energies <= bounds)


def test_path_gains_bitwise_equal_on_any_worker_count(monkeypatch):
    # The worker count sets the round size, so the order the sum stops at.
    s = Scenario.normalized(25, 5, 500)
    gains = []
    for workers in (1, 2, 5):
        monkeypatch.setattr(numerics, "_worker_count", lambda: workers)
        gains.append(path_gains(s, 51))
    assert_array_equal(gains[1], gains[0])
    assert_array_equal(gains[2], gains[0])


def test_profile_grids_shapes_and_masking():
    s = Scenario.normalized(5, 5, 20)
    grids = profile_maps(1, s, True, _field(1, s, True), resolution=48)
    assert grids["tx_phase"].shape == (48, 48)
    assert grids["rx_amplitude"].shape == (48, 48)
    assert len(grids["x_tx"]) == 48
    # corners lie outside the disks
    assert np.isnan(grids["tx_phase"][0, 0])
    assert np.isnan(grids["rx_amplitude"][0, 0])
    assert np.isnan(grids["rx_phase"][-1, -1])
    # center row is inside
    assert np.isfinite(grids["rx_amplitude"][24, 24])
    with pytest.raises(ValueError):
        profile_maps(1, s, True, _field(1, s, True), resolution=16)


def test_profile_tx_phase_is_helical():
    s = Scenario.normalized(5, 5, 20)
    grids = profile_maps(1, s, False, _field(1, s, False), resolution=65)  # no chirp
    axis = grids["x_tx"]
    mid = len(axis) // 2
    quarter = mid // 2
    # at azimuth pi/2 (positive y axis) the phase of e^{j phi} is pi/2
    assert_allclose(grids["tx_phase"][mid + quarter, mid], np.pi / 2, atol=1e-9)
    assert_allclose(grids["tx_phase"][mid, mid + quarter], 0.0, atol=1e-9)


def test_tx_profile_angular_factor():
    # Charge +2: e^{j 2 phi} is 1 at azimuth pi and j at azimuth pi/4.
    s = Scenario.normalized(5, 5, 20)
    grids = profile_maps(2, s, False, _field(2, s, False), resolution=65)
    mid = len(grids["x_tx"]) // 2
    quarter = mid // 2
    assert_allclose(grids["tx_phase"][mid, mid - quarter], 0.0, atol=1e-9)
    assert_allclose(grids["tx_phase"][mid + quarter, mid + quarter], np.pi / 2, atol=1e-9)
