"""Tests for slot-grid demultiplexing, receiver statistics and BER sweeps."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import chi2, ncx2

from oamlis import Scenario, detect, numerics, oam
from oamlis.detect import (
    CHUNK_TRIALS,
    DEFAULT_MODE_SET,
    MAX_TRIALS,
    MIN_TRIALS,
    OOK_ONE_AMPLITUDE,
    STRATEGIES,
    BerCurve,
    NoiseModel,
    ber_curves,
    ed_ber,
    gaussian_ber,
    interval_mask,
    link_symbol_energy,
    optimize_threshold,
    slot_grid,
    smart_window,
    tnr_curves,
)
from oamlis.oam import default_radial_grid, mode_energies, radial_fields
from oracles import demultiplex, ed_statistic, id_statistic, mf_statistic


def test_slot_grid_default_layout():
    radii, delta = slot_grid(1.0, wavelength=0.1)
    assert len(radii) == 40
    assert_allclose(delta, 0.025)
    assert_allclose(radii[0], delta / 2)
    assert_allclose(np.diff(radii), delta)
    # the discrete area element is exact: sum rho_i delta = R^2 / 2
    assert_allclose((radii * delta).sum(), 0.5, rtol=1e-14)


def test_slot_grid_rounds_to_integer_count():
    radii, delta = slot_grid(1.0, slot=0.03)
    assert len(radii) == 34
    assert_allclose(delta, 1.0 / 34)
    assert_allclose(radii[-1] + delta / 2, 1.0, rtol=1e-14)


def test_slot_grid_validation():
    with pytest.raises(ValueError):
        slot_grid(1.0, slot=0.0)
    with pytest.raises(ValueError):
        slot_grid(1.0, slot=2.0)
    with pytest.raises(ValueError, match="slot width"):
        slot_grid(1.0, slot=math.nan)


def test_noise_model_variance_law():
    radii, delta = slot_grid(1.0, wavelength=0.1)
    model = NoiseModel(n0=2.0, radii=radii, delta=delta)
    assert_allclose(model.variances(), 2 * np.pi * 2.0 / (radii * delta), rtol=1e-14)
    assert model.n_slots == 40


def test_chunk_budget_counts_slots_as_the_grid_does():
    # 10,737 real parts of 25,000 trials fit in 2 GiB, 10,738 do not.
    assert len(slot_grid(10_737.0, slot=1.0, wavelength=1.0)[0]) == 10_737
    with pytest.raises(ValueError, match="10738 slots; at most 10737 slots fit"):
        slot_grid(10_738.0, slot=1.0, wavelength=1.0)
    with pytest.raises(ValueError, match="at most the receive radius"):
        slot_grid(1.0, slot=2.0)


def test_noise_model_validation():
    radii, delta = slot_grid(1.0, wavelength=0.1)
    with pytest.raises(ValueError):
        NoiseModel(n0=0.0, radii=radii, delta=delta)
    with pytest.raises(ValueError):
        NoiseModel(n0=1.0, radii=radii[::-1], delta=delta)
    with pytest.raises(ValueError):
        NoiseModel(n0=1.0, radii=np.array([0.0, 0.5]), delta=delta)
    with pytest.raises(ValueError):
        NoiseModel(n0=1.0, radii=radii, delta=0.0)
    # NaN fails every `> 0` guard.
    with pytest.raises(ValueError, match="spectral density"):
        NoiseModel(n0=math.nan, radii=radii, delta=delta)
    with pytest.raises(ValueError, match="slot width"):
        NoiseModel(n0=1.0, radii=radii, delta=math.nan)
    with pytest.raises(ValueError, match="slot radii"):
        NoiseModel(n0=1.0, radii=np.array([math.nan, 0.5]), delta=delta)


def test_noise_model_sample_statistics():
    rng = np.random.default_rng(7)
    radii = np.array([0.2, 0.5, 0.9])
    model = NoiseModel(n0=0.3, radii=radii, delta=0.1)
    draws = model.sample(rng, 200_000)
    assert draws.shape == (200_000, 3)
    measured = np.mean(np.abs(draws) ** 2, axis=0)
    assert_allclose(measured, model.variances(), rtol=0.02)
    assert np.all(np.abs(draws.mean(axis=0)) < 0.05 * np.sqrt(model.variances()))


def test_noise_model_sample_matches_the_complex_product_bitwise():
    radii, delta = slot_grid(1.0, wavelength=0.1)
    model = NoiseModel(n0=0.7, radii=radii, delta=delta)
    rng, reference = np.random.default_rng(11), np.random.default_rng(11)
    draws = model.sample(rng, 1000)
    scale = np.sqrt(model.variances() / 2)
    real = reference.standard_normal((1000, model.n_slots))
    imag = reference.standard_normal((1000, model.n_slots))
    expected = (real + 1j * imag) * scale[None, :]
    assert_array_equal(draws.view(np.uint64), expected.view(np.uint64))
    assert rng.random() == reference.random()


@given(count=st.integers(1, 300), rows=st.integers(1, 400))
@example(count=200, rows=1)
@example(count=200, rows=7)
@example(count=200, rows=50)
@example(count=200, rows=200)
@example(count=200, rows=201)
@settings(max_examples=40, deadline=None)
def test_noise_blocks_concatenate_to_the_one_block_draw(count, rows):
    # One stream read whole or in blocks of any size gives the same bits,
    # and leaves the generator in the same state.
    radii, delta = slot_grid(1.0, wavelength=0.1)
    model = NoiseModel(n0=0.7, radii=radii, delta=delta)
    rng, reference = np.random.default_rng(count), np.random.default_rng(count)
    blocks = list(model.blocks(rng, count, rows))
    expected = model.sample(reference, count)
    assert [len(block) for block in blocks[:-1]] == [rows] * (len(blocks) - 1)
    assert all(block.shape[1] == 2 * model.n_slots for block in blocks)
    drawn = np.concatenate(blocks).view(complex)
    assert_array_equal(drawn.view(np.uint64), expected.view(np.uint64))
    assert rng.random() == reference.random()


def test_demultiplex_recovers_pure_modes():
    radii = np.linspace(0.05, 1.0, 20)

    def field(rho, phi):
        return rho**2 * np.exp(1j * 3 * phi)

    matched = demultiplex(field, 3, radii)
    assert_allclose(matched, 2 * np.pi * radii**2, rtol=1e-9)
    for other in (0, 1, -3, 5):
        leakage = demultiplex(field, other, radii)
        assert np.max(np.abs(leakage)) < 1e-10


def test_demultiplex_superposition():
    radii = np.linspace(0.05, 1.0, 16)
    profiles = {0: radii, 1: radii**2, -2: np.ones_like(radii)}
    gains = {0: 1.0, 1: -1.0, -2: 1.0}

    def field(rho, phi):
        total = np.zeros(np.broadcast(rho, phi).shape, dtype=complex)
        for ell, gain in gains.items():
            radial = np.interp(rho, radii, profiles[ell])
            total = total + gain * radial * np.exp(1j * ell * phi)
        return total

    for ell, gain in gains.items():
        branch = demultiplex(field, ell, radii)
        assert_allclose(branch, 2 * np.pi * gain * profiles[ell], atol=1e-9)


def test_demultiplex_needs_angular_samples():
    with pytest.raises(ValueError):
        demultiplex(lambda r, p: r, 1, np.array([0.5]), angular_samples=2)


def test_mf_statistic_matched_and_zero():
    radii, delta = slot_grid(1.0, wavelength=0.1)
    template = np.exp(1j * radii) / (1 + radii)
    e_rad = (np.abs(template) ** 2 * radii * delta).sum()
    assert_allclose(mf_statistic(template, template, radii, delta), e_rad, rtol=1e-12)
    assert mf_statistic(np.zeros_like(template), template, radii, delta) == 0
    with pytest.raises(ValueError):
        mf_statistic(template[:-1], template, radii, delta)


def test_id_statistic_single_slot_arithmetic():
    radii = np.array([0.5])
    y = np.array([2.0 + 1.0j])
    window = np.array([True])
    assert_allclose(id_statistic(y, window, radii, 1.0), (2 + 1j) * 0.5)
    comp = np.array([np.exp(1j * 0.7)])
    assert_allclose(
        id_statistic(y, window, radii, 1.0, comp), (2 + 1j) * np.exp(-1j * 0.7) * 0.5
    )


def test_id_statistic_window_validation():
    radii, delta = slot_grid(1.0, wavelength=0.1)
    y = np.ones_like(radii, dtype=complex)
    with pytest.raises(ValueError):
        id_statistic(y, np.zeros_like(radii, dtype=bool), radii, delta)
    with pytest.raises(ValueError):
        id_statistic(y, np.ones(3, dtype=bool), radii, delta)


def test_id_full_window_noise_variance():
    # var of sum_i n_i rho_i delta = 2 pi N0 sum rho_i delta = pi N0 R^2
    radii, delta = slot_grid(1.0, wavelength=0.1)
    n0 = 0.4
    model = NoiseModel(n0=n0, radii=radii, delta=delta)
    draws = model.sample(np.random.default_rng(11), 100_000)
    stats = id_statistic(draws, np.ones_like(radii, dtype=bool), radii, delta)
    assert_allclose(np.var(stats), np.pi * n0 * 1.0**2, rtol=0.05)


def test_mf_noise_variance():
    radii, delta = slot_grid(1.0, wavelength=0.1)
    template = np.exp(-radii) * np.exp(1j * 2 * radii)
    e_rad = (np.abs(template) ** 2 * radii * delta).sum()
    n0 = 0.15
    model = NoiseModel(n0=n0, radii=radii, delta=delta)
    draws = model.sample(np.random.default_rng(3), 100_000)
    stats = mf_statistic(draws, template, radii, delta)
    assert_allclose(np.var(stats), 2 * np.pi * n0 * e_rad, rtol=0.05)


def test_ed_statistic_values():
    radii, delta = slot_grid(1.0, wavelength=0.1)
    window = np.ones_like(radii, dtype=bool)
    assert ed_statistic(np.zeros_like(radii, dtype=complex), window, radii, delta) == 0
    psi = np.exp(1j * radii) / (2 + radii)
    e_rad = (np.abs(psi) ** 2 * radii * delta).sum()
    noiseless = ed_statistic(2 * np.pi * np.sqrt(2) * psi, window, radii, delta)
    assert_allclose(noiseless, 4 * np.pi**2 * 2 * e_rad, rtol=1e-12)
    rotated = ed_statistic(2 * np.pi * np.sqrt(2) * psi * np.exp(1j * 0.3), window, radii, delta)
    assert_allclose(rotated, noiseless, rtol=1e-12)


def test_ed_statistic_noise_only_mean():
    radii, delta = slot_grid(1.0, wavelength=0.1)
    n0 = 0.25
    model = NoiseModel(n0=n0, radii=radii, delta=delta)
    draws = model.sample(np.random.default_rng(5), 100_000)
    energies = ed_statistic(draws, np.ones_like(radii, dtype=bool), radii, delta)
    expected = 2 * np.pi * n0 * len(radii)
    sigma = 2 * np.pi * n0 * np.sqrt(len(radii)) / np.sqrt(len(energies))
    assert abs(energies.mean() - expected) < 3 * sigma


def test_smart_window_contains_peak():
    s = Scenario.normalized(10, 10, 100)
    grid = default_radial_grid(s)
    (fields,) = radial_fields(s, (0, 2, 4), (True,), grid)
    for field in fields:
        peak_radius = grid[np.abs(field).argmax()]
        lo, hi = smart_window(grid, field)
        assert lo <= peak_radius <= hi
        assert 0 <= lo < hi <= s.radius_rx


def test_smart_window_widens_with_drop_level():
    s = Scenario.normalized(10, 10, 100)
    grid = default_radial_grid(s)
    field = radial_fields(s, [2], (True,), grid)[0, 0]
    weights = np.abs(field) ** 2 * grid
    captured = []
    for drop_db in (3.0, 6.0, 10.0, 20.0, 40.0):
        mask = interval_mask(smart_window(grid, field, drop_db), grid)
        captured.append(weights[mask].sum() / weights.sum())
    assert np.all(np.diff(captured) >= 0)
    assert captured[0] < captured[-1]


def test_smart_window_rejects_flat_zero_field():
    s = Scenario.normalized(10, 10, 100)
    grid = np.linspace(0, s.radius_rx, 64)
    with pytest.raises(ValueError, match="flat zero"):
        smart_window(grid, np.zeros(64, dtype=complex))
    with pytest.raises(ValueError, match="lengths"):
        smart_window(grid, np.ones(63, dtype=complex))


def test_smart_window_rejects_nonpositive_and_nan_drop_levels():
    grid = np.linspace(0, 1.0, 64)
    for drop_db in (0.0, -3.0, math.nan):
        with pytest.raises(ValueError, match="drop level must be positive"):
            smart_window(grid, np.ones(64), drop_db)


def test_sweeps_reject_unknown_names_and_nonpositive_drop_levels():
    s = Scenario.normalized(10, 10, 100)
    for sweep in (
        lambda branches, **kw: ber_curves(s, branches, [6.0], 10_000, **kw),
        lambda branches, **kw: tnr_curves(s, branches, 19.0, [25.0], 10_000, **kw),
    ):
        with pytest.raises(ValueError, match=r"unknown strategies \['ED', 'bogus'\]"):
            sweep([(0, "ed_full"), (0, "ED"), (4, "bogus")])
        # The drop level is checked even where no branch has a smart window.
        for drop_db in (0.0, -3.0, math.nan):
            with pytest.raises(ValueError, match="drop level must be positive"):
                sweep([(0, "ed_full")], drop_db=drop_db)
    for name in ("mf", "id", "id_noeq", "id_smart"):
        with pytest.raises(ValueError, match="energy-detector branches only"):
            tnr_curves(s, [(0, "ed_smart"), (0, name)], 19.0, [25.0], 10_000)


def test_sweeps_reject_non_finite_snr_and_tnr():
    s = Scenario.normalized(10, 10, 100)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="SNR axis must be finite"):
            ber_curves(s, [(0, "mf")], [value, 10.0], 10_000)
        with pytest.raises(ValueError, match="TNR axis must be finite"):
            tnr_curves(s, [(0, "ed_full")], 19.0, [value, 20.0], 10_000)
        with pytest.raises(ValueError, match="SNR must be finite"):
            tnr_curves(s, [(0, "ed_full")], value, [20.0], 10_000)


def test_ber_curve_validation():
    curve = BerCurve.from_counts([0.0, 2.0], [10, 5], [100, 100])
    assert_allclose(curve.ber, [0.1, 0.05])
    with pytest.raises(ValueError):
        BerCurve(
            axis_db=np.array([0.0]),
            ber=np.array([0.1]),
            trials=np.array([100]),
            ci95=np.array([0.5]),
        )
    with pytest.raises(ValueError):
        BerCurve.from_counts([0.0], [150], [100])
    with pytest.raises(ValueError):
        BerCurve.from_counts([0.0, 1.0], [1], [100])


def test_gaussian_ber_reference_values():
    # Q(1) through the half-variance convention
    assert_allclose(gaussian_ber(1.0, 2.0), 0.15865525393145707, rtol=1e-12)
    assert gaussian_ber(0.0, 1.0) == 0.5
    with pytest.raises(ValueError):
        gaussian_ber(1.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_ber(1.0, math.nan)


def test_ed_ber_limits():
    assert ed_ber(0.0, 0.1, 20, 1.0) == 0.5
    assert_allclose(ed_ber(1e9, 0.1, 20, 1.0), 0.5, atol=1e-12)
    zeta, best = optimize_threshold(0.1, 20, 1.0)
    assert best < 0.5
    with pytest.raises(ValueError):
        ed_ber(-1.0, 0.1, 20, 1.0)
    with pytest.raises(ValueError):
        ed_ber(math.nan, 0.1, 20, 1.0)


def _ed_ber_oracle(threshold, n0, n_slots, window_energy, amplitude=OOK_ONE_AMPLITUDE):
    """ed_ber through scipy.stats, the distribution objects' public API."""
    dof = 2 * n_slots
    nc = 4 * np.pi * amplitude**2 * window_energy / n0
    normalized = threshold / (np.pi * n0)
    return 0.5 * (chi2.sf(normalized, dof) + ncx2.cdf(normalized, dof, nc))


@settings(max_examples=300)
@given(
    n_slots=st.integers(1, 100),
    n0=st.floats(1e-3, 10.0),
    window_energy=st.one_of(st.just(0.0), st.floats(1e-4, 50.0)),
    level=st.one_of(
        st.just(0.0), st.just(math.inf), st.just(1e300), st.floats(0.0, 5.0), st.floats(5.0, 1e3)
    ),
)
@example(n_slots=1, n0=1.0, window_energy=0.0, level=0.0)
@example(n_slots=100, n0=0.01, window_energy=0.0, level=math.inf)
@example(n_slots=100, n0=0.01, window_energy=10.0, level=1e300)
@example(n_slots=10, n0=1.0, window_energy=0.0, level=0.96)
@example(n_slots=36, n0=1.0, window_energy=0.0, level=1.3177)
def test_ed_ber_is_bitwise_the_scipy_stats_formula(n_slots, n0, window_energy, level):
    # level scales the threshold by the statistic's noise-only mean.  At
    # nc = 0, ncx2.cdf is chdtr, which differs from chndtr(x, dof, 0) in
    # the last bits (the last two examples).
    threshold = level * 2 * np.pi * n0 * n_slots
    got = ed_ber(threshold, n0, n_slots, window_energy)
    want = _ed_ber_oracle(threshold, n0, n_slots, window_energy)
    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


@pytest.mark.parametrize(
    "n0, n_slots, window_energy", [(0.05, 20, 1.2), (0.3, 40, 0.02), (2e-3, 7, 4.0)]
)
def test_optimize_threshold_is_unchanged_on_the_scipy_stats_formula(
    monkeypatch, n0, n_slots, window_energy
):
    found = optimize_threshold(n0, n_slots, window_energy)
    monkeypatch.setattr(detect, "ed_ber", _ed_ber_oracle)
    assert optimize_threshold(n0, n_slots, window_energy) == found


def test_optimize_threshold_matches_grid_scan():
    n0, n_slots, window_energy = 0.05, 20, 1.2
    zeta, best = optimize_threshold(n0, n_slots, window_energy)
    grid = np.linspace(0.0, 8 * 2 * np.pi * n0 * n_slots + 16 * np.pi**2 * window_energy, 20_001)
    scan = np.array([ed_ber(z, n0, n_slots, window_energy) for z in grid])
    assert best <= scan.min() + 1e-12
    assert abs(zeta - grid[scan.argmin()]) < 2 * (grid[1] - grid[0])


def test_link_symbol_energy_composition():
    s = Scenario.normalized(10, 10, 100)
    total = link_symbol_energy(s, True)
    by_hand = sum(mode_energies(s, (0, 1, 2, 3, 4), (True,))[0])
    assert_allclose(total, by_hand, rtol=1e-12)
    single = link_symbol_energy(s, True, mode_set=(0,))
    assert_allclose(single, mode_energies(s, (0,), (True,))[0, 0], rtol=1e-12)
    # E_l = E_{-l} bitwise, so a signed mode set has the E_s of its |l|.
    assert link_symbol_energy(s, True, mode_set=(0, -1, 2, -3, 4)) == total


def test_ber_monte_carlo_input_validation():
    s = Scenario.normalized(10, 10, 100)
    with pytest.raises(ValueError):
        ber_curves(s, [(0, "mf")], [6.0], trials=500)
    with pytest.raises(ValueError):
        ber_curves(s, [(7, "mf")], [6.0], trials=20_000)


def test_chunk_sizes_take_trials_from_the_floor_to_the_ceiling():
    # The ceiling keeps the chunk list short; a count above it, even one
    # beyond an index-sized integer, is the config's ValueError, not an
    # OverflowError or MemoryError from building the list.
    sizes = detect._chunk_sizes(MAX_TRIALS)
    assert len(sizes) == MAX_TRIALS // CHUNK_TRIALS and sum(sizes) == MAX_TRIALS
    assert detect._chunk_sizes(MIN_TRIALS) == [MIN_TRIALS]
    for trials in (MAX_TRIALS + 1, 2**63, 10**400):
        with pytest.raises(ValueError, match=f"^trials must be at most {MAX_TRIALS}$"):
            detect._chunk_sizes(trials)
    with pytest.raises(ValueError, match=f"^trials must be at least {MIN_TRIALS}$"):
        detect._chunk_sizes(MIN_TRIALS - 1)
    s = Scenario.normalized(10, 10, 100)
    with pytest.raises(ValueError, match="at most"):
        ber_curves(s, [(0, "mf")], [6.0], trials=10**400)
    with pytest.raises(ValueError, match="at most"):
        tnr_curves(s, [(0, "ed_full")], 19.0, [25.0], trials=2**63)


def test_ber_monte_carlo_is_deterministic():
    s = Scenario.normalized(10, 10, 100)
    branch = [(1, "mf")]
    first = ber_curves(s, branch, [4.0, 8.0], trials=10_000, seed=9)[0][0]
    second = ber_curves(s, branch, [4.0, 8.0], trials=10_000, seed=9)[0][0]
    assert np.array_equal(first.ber, second.ber)
    assert not np.array_equal(
        first.ber, ber_curves(s, branch, [4.0, 8.0], trials=10_000, seed=10)[0][0].ber
    )


def test_mf_monte_carlo_matches_closed_form():
    s = Scenario.normalized(10, 10, 100)
    trials = 20_000
    curve = ber_curves(s, [(0, "mf")], [7.0], trials=trials, seed=2)[0][0]
    radii, delta = slot_grid(s.radius_rx, wavelength=s.wavelength)
    psi = radial_fields(s, [0], (True,), radii)[0, 0]
    e_rad = (np.abs(psi) ** 2 * radii * delta).sum()
    n0 = link_symbol_energy(s, True) / 10 ** (7.0 / 10)
    expected = gaussian_ber(2 * np.pi * e_rad, 2 * np.pi * n0 * e_rad)
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(curve.ber[0] - expected) < 3 * sigma


def test_ed_monte_carlo_matches_closed_form():
    s = Scenario.normalized(10, 10, 100)
    trials = 20_000
    radii, delta = slot_grid(s.radius_rx, wavelength=s.wavelength)
    psi = radial_fields(s, [0], (True,), radii)[0, 0]
    e_rad = (np.abs(psi) ** 2 * radii * delta).sum()
    n0 = link_symbol_energy(s, True) / 10 ** (12.0 / 10)
    zeta, expected = optimize_threshold(n0, len(radii), e_rad)
    # The energy detector at the fixed threshold zeta, as a one-point TNR sweep.
    tnr_db = 10 * math.log10(zeta / n0)
    (curve,) = tnr_curves(s, [(0, "ed_full")], 12.0, [tnr_db], trials=trials, seed=4)
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(curve.ber[0] - expected) < 3 * sigma


def test_receiver_ordering_at_fixed_snr():
    # matched filtering beats the windowed integrator, and the smart window
    # beats integrating over the whole aperture
    s = Scenario.normalized(10, 10, 100)
    trials = 20_000
    kwargs = dict(trials=trials, seed=6, focused=True)
    mf = ber_curves(s, [(0, "mf")], [10.0], **kwargs)[0][0].ber[0]
    smart = ber_curves(s, [(0, "id_smart")], [10.0], **kwargs)[0][0].ber[0]
    full = ber_curves(s, [(0, "id")], [10.0], **kwargs)[0][0].ber[0]
    assert mf <= smart + 0.01
    assert smart + 0.05 < full


def test_tnr_sweep_extremes_and_minimum():
    s = Scenario.normalized(10, 10, 100)
    trials = 20_000
    branch = [(0, "ed_full")]
    (curve,) = tnr_curves(s, branch, 19.0, [-60.0, 25.0, 80.0], trials=trials, seed=8)
    sigma = 3 * math.sqrt(0.25 / trials)
    assert abs(curve.ber[0] - 0.5) < sigma
    assert abs(curve.ber[-1] - 0.5) < sigma
    assert curve.ber[1] < 0.45
    (repeat,) = tnr_curves(s, branch, 19.0, [-60.0, 25.0, 80.0], trials=trials, seed=8)
    assert np.array_equal(curve.ber, repeat.ber)


def test_tnr_sweep_requires_enough_trials():
    s = Scenario.normalized(10, 10, 100)
    with pytest.raises(ValueError):
        tnr_curves(s, [(0, "ed_full")], 19.0, [25.0], trials=100)


def test_ber_curves_match_one_branch_runs():
    s = Scenario.normalized(10, 10, 100)
    branches = [
        (0, "mf"),
        (0, "id_smart"),
        (4, "ed_smart"),
        (4, "id_noeq"),
        (2, "ed_full"),
    ]
    kwargs = dict(trials=10_000, seed=3)
    curves, e_s = ber_curves(s, branches, [6.0, 12.0], **kwargs)
    assert e_s == link_symbol_energy(s, True)
    assert len(curves) == len(branches)
    for branch, curve in zip(branches, curves):
        (single,), _ = ber_curves(s, [branch], [6.0, 12.0], **kwargs)
        assert_array_equal(curve.ber, single.ber)
        assert_array_equal(curve.ci95, single.ci95)
    with pytest.raises(ValueError):
        ber_curves(s, [(0, "mf"), (7, "mf")], [6.0], trials=10_000)


def test_tnr_curves_match_one_branch_runs():
    s = Scenario.normalized(10, 10, 100)
    branches = [
        (ell, name) for ell in (0, 4) for name in ("ed_full", "ed_smart")
    ]
    tnr_db = [20.0, 25.0, 30.0]
    curves = tnr_curves(s, branches, 19.0, tnr_db, trials=10_000, seed=5)
    for branch, curve in zip(branches, curves):
        (single,) = tnr_curves(s, [branch], 19.0, tnr_db, trials=10_000, seed=5)
        assert_array_equal(curve.ber, single.ber)
    with pytest.raises(ValueError, match="energy-detector"):
        tnr_curves(s, [*branches, (0, "mf")], 19.0, tnr_db, trials=10_000)
    with pytest.raises(ValueError, match="multiplexed set"):
        tnr_curves(s, [(7, "ed_full")], 19.0, tnr_db, trials=10_000)


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_smart_windows_reuse_the_symbol_energy_pass(monkeypatch):
    # Smart windows read the default-grid fields of the E_s pass, and the
    # slot-grid templates of all charges come from one more radial pass:
    # exactly two radial_fields calls per sweep, whatever the number of
    # charges.
    s = Scenario.normalized(10, 10, 100)
    radial_passes = []
    radial = oam.radial_fields

    def spy(scenario, charges, focused=oam.FOCUS_STATES, grid=None):
        radial_passes.append(len(grid))
        return radial(scenario, charges, focused, grid)

    monkeypatch.setattr(oam, "radial_fields", spy)
    monkeypatch.setattr(detect, "radial_fields", spy)
    smart = "ed_smart"
    mode_set = (0, -3, 4)
    slots = len(slot_grid(s.radius_rx, wavelength=s.wavelength)[0])
    sweeps = (
        lambda: ber_curves(s, [(ell, smart) for ell in mode_set], [8.0], 10_000, mode_set=mode_set),
        lambda: ber_curves(s, [(4, "mf")], [8.0], 10_000, mode_set=mode_set),
        lambda: tnr_curves(s, [(0, smart), (-3, smart)], 8.0, [25.0], 10_000, mode_set=mode_set),
    )
    for sweep in sweeps:
        radial_passes.clear()
        sweep()
        assert radial_passes == [len(default_radial_grid(s)), slots]


def test_sweeps_check_their_receiver_inputs_before_any_radial_pass(monkeypatch):
    # Every receiver check fails fast: no bad input costs a radial pass.
    s = Scenario.normalized(10, 10, 100)  # R = 1 m
    radial_passes = []

    def spy(*args, **kwargs):
        radial_passes.append(args)
        return oam.radial_fields(*args, **kwargs)

    monkeypatch.setattr(detect, "radial_fields", spy)
    ed = [(0, "ed_full")]
    bad = {
        "unknown name": dict(branches=[(0, "bogus")]),
        "zero drop level": dict(drop_db=0.0),
        "NaN drop level": dict(drop_db=math.nan),
        "charge outside the mode set": dict(branches=[(7, "ed_full")]),
        "slot past the chunk budget": dict(slot=1e-5),
        "non-finite axis": dict(axis=[math.nan]),
        "too few trials": dict(trials=500),
        "no branches": dict(branches=[]),
    }
    for case, kw in bad.items():
        branches, axis = kw.pop("branches", ed), kw.pop("axis", [20.0])
        trials = kw.pop("trials", 10_000)
        for sweep in (
            lambda: ber_curves(s, branches, axis, trials, **kw),
            lambda: tnr_curves(s, branches, 19.0, axis, trials, **kw),
        ):
            with pytest.raises(ValueError):
                sweep()
            assert radial_passes == [], case
    for snr_db, branches in ((math.nan, ed), (19.0, [(0, "ed_full"), (0, "mf")])):
        with pytest.raises(ValueError):
            tnr_curves(s, branches, snr_db, [20.0], 10_000)
        assert radial_passes == []


def _six_receiver_scorer(s):
    """The six strategies at charges 0 and 4 on the default slot grid: the
    branches, their scorer's slot grid and E_s, and the scorer."""
    pairs = [(charge, name) for charge in (0, 4) for name in STRATEGIES]
    scorer = detect._Scorer(s, pairs, True, DEFAULT_MODE_SET, None, 10.0)
    return pairs, scorer.radii, scorer.delta, scorer.symbol_energy, scorer


def _oracle_branches(s, pairs, radii, delta):
    """Per branch, its statistic, equalizer, slot-grid profile psi, window
    mask and propagation-phase compensation c, from the public functions."""
    (on_slots,) = radial_fields(s, (0, 4), (True,), radii)
    psis = dict(zip((0, 4), on_slots))
    grid = default_radial_grid(s)
    (on_grid,) = radial_fields(s, (0, 4), (True,), grid)
    fields = dict(zip((0, 4), on_grid))
    kappa, z = s.kappa, s.distance
    compensation = np.exp(-1j * kappa * radii**2 / (2 * z)) * np.exp(-1j * kappa * z)
    for charge, name in pairs:
        statistic, smart, equalize = STRATEGIES[name]
        mask = np.ones(len(radii), dtype=bool)
        if smart:
            mask = interval_mask(smart_window(grid, fields[charge], 10.0), radii)
        yield statistic, equalize, psis[charge], mask, compensation


def _oracle_gain(statistic, equalize, psi, mask, compensation, radii, delta):
    """A coherent branch's noiseless response to a unit symbol."""
    if statistic == "mf":
        return (2 * np.pi * mf_statistic(psi, psi, radii, delta)).real
    gain = 2 * np.pi * id_statistic(psi, mask, radii, delta, compensation)
    return (gain * (np.conj(gain) / abs(gain)) if equalize else gain).real


def _oracle_statistic(statistic, equalize, psi, mask, compensation, radii, delta, bits, noise):
    """A branch's real decision statistic of y = 2 pi s psi + n, by the
    oracle statistic functions on the synthesized signal."""
    if statistic == "ed":
        y = 2 * np.pi * (bits * OOK_ONE_AMPLITUDE)[:, None] * psi + noise
        return ed_statistic(y, mask, radii, delta)
    y = 2 * np.pi * (2.0 * bits - 1.0)[:, None] * psi + noise
    if statistic == "mf":
        return mf_statistic(y, psi, radii, delta).real
    stat = id_statistic(y, mask, radii, delta, compensation)
    if equalize:
        gain = id_statistic(psi, mask, radii, delta, compensation)
        stat = stat * (np.conj(gain) / abs(gain))
    return stat.real


def test_scorer_matches_the_statistics_of_the_synthesized_signal():
    s = Scenario.normalized(10, 10, 100)
    pairs, radii, delta, e_s, scorer = _six_receiver_scorer(s)
    n0 = e_s / 10 ** (6.0 / 10)
    model = NoiseModel(n0=n0, radii=radii, delta=delta)
    rng = np.random.default_rng(np.random.SeedSequence(3))
    bits = rng.integers(0, 2, 10_000)
    noise = model.sample(rng, 10_000)
    stats = scorer.statistics(bits, noise.view(float))
    zetas = scorer.thresholds(n0)
    branches = _oracle_branches(s, pairs, radii, delta)
    for b, branch in enumerate(branches):
        oracle = _oracle_statistic(*branch, radii, delta, bits, noise)
        assert_allclose(stats[:, b], oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max())
        errors = np.count_nonzero((stats[:, b] >= zetas[b]) != (bits == 1))
        assert errors == np.count_nonzero((oracle >= zetas[b]) != (bits == 1))
        assert 0 < errors < len(bits) / 2


def test_scorer_gains_windows_and_thresholds_are_bitwise_the_oracles():
    # The coherent gains keep the oracle statistics' order of arithmetic,
    # and an ED window's energy is the energy statistic of its noiseless
    # profile, so every number the decisions use is bitwise the oracle's.
    s = Scenario.normalized(10, 10, 100)
    pairs, radii, delta, e_s, scorer = _six_receiver_scorer(s)
    gains, energies, slots = [], [], []
    for statistic, equalize, psi, mask, compensation in _oracle_branches(s, pairs, radii, delta):
        if statistic == "ed":
            energies.append(ed_statistic(psi, mask, radii, delta))
            slots.append(int(mask.sum()))
        else:
            gains.append(_oracle_gain(statistic, equalize, psi, mask, compensation, radii, delta))
    assert_array_equal(scorer.gains.view(np.uint64), np.array(gains).view(np.uint64))
    assert_array_equal(scorer.window_energies.view(np.uint64), np.array(energies).view(np.uint64))
    assert scorer.slot_counts == slots
    n0 = e_s / 10 ** (6.0 / 10)
    zetas = scorer.thresholds(n0)
    assert not zetas[scorer.coherent].any()
    expected = [optimize_threshold(n0, m, energy)[0] for m, energy in zip(slots, energies)]
    assert_array_equal(zetas[scorer.ed], expected)


def test_ber_curves_peak_memory_does_not_grow_with_branches():
    # Every branch is scored from one projection of the chunk's noise; a
    # branch adds a column of statistics, not a signal array, so six
    # branches peak within one chunk's complex noise array of one branch.
    s = Scenario.normalized(10, 10, 100)
    six = [(charge, name) for charge in (0, 4) for name in ("mf", "id_smart", "ed_smart")]

    def sweep(branches):
        return lambda: ber_curves(s, branches, [8.0], trials=10_000, seed=1)

    sweep(six)()  # warm caches outside the measurement
    one = _peak_bytes(sweep(six[:1]))
    many = _peak_bytes(sweep(six))
    radii, _ = slot_grid(s.radius_rx, wavelength=s.wavelength)
    signal_bytes = 10_000 * len(radii) * np.dtype(complex).itemsize
    assert many - one < signal_bytes


def test_scorer_on_row_blocks_equals_one_whole_chunk_call():
    # Each row's statistics depend on that row alone, bitwise, so a chunk
    # scored block by block gives the whole-chunk statistics.
    s = Scenario.normalized(10, 10, 100)
    _, radii, delta, e_s, scorer = _six_receiver_scorer(s)
    model = NoiseModel(n0=e_s / 4, radii=radii, delta=delta)
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2, 5_000)
    v = model.sample(rng, 5_000).view(float)
    whole = scorer.statistics(bits, v)
    for rows in (1, 3, 2048, 4_999):
        starts = range(0, len(bits), rows)
        parts = [scorer.statistics(bits[i : i + rows], v[i : i + rows].copy()) for i in starts]
        assert_array_equal(np.concatenate(parts).view(np.uint64), whole.view(np.uint64))


def _serial_bers(s, branches, snr_db, trials, point_seeds, tnr_db=None):
    """BER rows from the seed tree point_seeds[k].spawn(chunks)[c], each
    chunk drawn whole (bits, real parts, imaginary parts) and scored in one
    call, on one thread: one row per branch over the SNR axis, or over the
    ``tnr_db`` axis at the one SNR point."""
    scorer = detect._Scorer(s, branches, True, DEFAULT_MODE_SET, None, 10.0)
    full, rest = divmod(trials, CHUNK_TRIALS)
    sizes = [CHUNK_TRIALS] * full + ([rest] if rest else [])
    errors = []
    for snr, point_seed in zip(snr_db, point_seeds, strict=True):
        model = scorer.noise(snr)
        if tnr_db is None:
            zetas = scorer.thresholds(model.n0)[:, None]
        else:
            zetas = model.n0 * 10 ** (np.asarray(tnr_db) / 10)
        total = 0
        for size, chunk_seed in zip(sizes, point_seed.spawn(len(sizes))):
            rng = np.random.default_rng(chunk_seed)
            bits = rng.integers(0, 2, size)
            stats = scorer.statistics(bits, model.sample(rng, size).view(float))
            decided = stats[:, :, None] >= zetas
            total = total + np.count_nonzero(decided != (bits == 1)[:, None, None], axis=0)
        errors.append(total)
    rows = errors[0] if tnr_db is not None else np.array(errors)[:, :, 0].T
    return list(rows / trials)


def test_sweeps_bitwise_equal_on_any_worker_count(monkeypatch):
    # Two chunks per point, on one, two and five workers, with a thread
    # switch every microsecond: every curve equals the serial count of the
    # seed tree, and an error raised in a helper's unit still raises.
    s = Scenario.normalized(10, 10, 100)
    branches = [(0, "mf"), (4, "ed_smart")]
    ed = [(ell, name) for ell in (0, 4) for name in ("ed_full", "ed_smart")]
    snr_db, tnr_db = [4.0, 8.0, 12.0], [24.0, 27.0, 30.0]
    trials = CHUNK_TRIALS + 5_000
    # ber spawns one seed per point from the master seed; tnr's one point
    # takes the master seed itself.
    point_seeds = np.random.SeedSequence(3).spawn(len(snr_db))
    serial = [
        *_serial_bers(s, branches, snr_db, trials, point_seeds),
        *_serial_bers(s, ed, [12.0], trials, [np.random.SeedSequence(3)], tnr_db),
    ]
    assert all(0 < ber.min() for ber in serial)
    blocks = NoiseModel.blocks
    failed_on = []

    def fail_on_short_chunks(self, rng, count, rows=detect.NOISE_ROW_BLOCK):
        if count < CHUNK_TRIALS:
            failed_on.append(threading.current_thread())
            raise RuntimeError("unit failed")
        return blocks(self, rng, count, rows)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 5):
            monkeypatch.setattr(numerics, "_worker_count", lambda: workers)
            ber, _ = ber_curves(s, branches, snr_db, trials, seed=3)
            tnr = tnr_curves(s, ed, 12.0, tnr_db, trials, seed=3)
            for curve, reference in zip([*ber, *tnr], serial, strict=True):
                assert_array_equal(curve.ber, reference)
        # The tnr sweep's second, short chunk falls to the helper thread.
        monkeypatch.setattr(numerics, "_worker_count", lambda: 2)
        monkeypatch.setattr(NoiseModel, "blocks", fail_on_short_chunks)
        with pytest.raises(RuntimeError, match="unit failed"):
            tnr_curves(s, ed, 12.0, tnr_db, trials, seed=3)
    finally:
        sys.setswitchinterval(interval)
    assert failed_on and threading.main_thread() not in failed_on


def test_monte_carlo_peak_memory_stays_below_one_complex_chunk(monkeypatch):
    # A chunk holds its real parts whole but only one block of imaginary
    # parts and statistics: one 25,000-trial chunk peaks below that chunk's
    # complex noise array, and two chunks in flight below twice that.
    s = Scenario.normalized(10, 10, 100)
    branches = [(charge, name) for charge in (0, 4) for name in ("mf", "id_smart", "ed_full")]
    radii, _ = slot_grid(s.radius_rx, wavelength=s.wavelength)
    noise_bytes = CHUNK_TRIALS * len(radii) * np.dtype(complex).itemsize

    def sweep(points):
        return lambda: ber_curves(s, branches, [8.0] * points, trials=CHUNK_TRIALS, seed=1)

    monkeypatch.setattr(numerics, "_worker_count", lambda: 2)
    sweep(2)()  # warm caches outside the measurement
    assert _peak_bytes(sweep(1)) < noise_bytes
    assert _peak_bytes(sweep(2)) < 2 * noise_bytes
