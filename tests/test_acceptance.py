"""Acceptance gate: the headline quantitative claims, one test per criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` line with the measured
numbers before asserting, so a full run doubles as a scorecard.  The first
criterion states how far the analytic mode-count formula can be trusted; the
measured counts at the two shortest links sit just outside its band, and the
test reports that honestly instead of relaxing the band.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from oamlis import Scenario
from oamlis.detect import (
    NoiseModel,
    ber_curves,
    gaussian_ber,
    interval_mask,
    link_symbol_energy,
    optimize_threshold,
    slot_grid,
    smart_window,
    tnr_curves,
)
from oamlis.geometry import analytic_dof
from oamlis.experiments import default_config, mode_spectra
from oamlis.modes import count_modes
from oamlis.oam import (
    default_radial_grid,
    field_energies,
    path_gains,
    radial_fields,
    tx_radial,
)
from oracles import demultiplex, focused_fundamental_profile, id_statistic, mf_statistic

SVD_DISTANCES = (50.0, 100.0, 150.0, 200.0)
SVD_BUDGET_SECONDS = 300.0


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


@pytest.fixture(scope="module")
def svd_runs():
    """Mode counts of the equal-aperture link, as ``spectrum`` and ``dof`` count them.

    Each run is the default spectrum config at one distance (T = R = 10,
    lambda/2 lattice, charges up to 15, -5 dB), with the time that
    :func:`mode_spectra` took for the SVD and the OAM energies.
    """
    runs = {}
    for distance in SVD_DISTANCES:
        config = default_config("spectrum", D=distance)
        scenario = config.scenario()
        start = time.perf_counter()
        _, _, db = mode_spectra(config, scenario)
        counts = [count_modes(values_db, config.threshold_db) for values_db in db]
        runs[distance] = (scenario, counts, time.perf_counter() - start)
    return runs


def test_criterion_01_analytic_dof_tracking(svd_runs):
    details = []
    ok = True
    for distance, (scenario, (counted, *_), elapsed) in svd_runs.items():
        predicted = math.floor(analytic_dof(scenario))
        ok = ok and abs(counted - predicted) <= 2 and elapsed < SVD_BUDGET_SECONDS
        details.append(f"D={distance:g}: {counted} vs {predicted}+/-2 in {elapsed:.1f}s")
    report(1, ok, "; ".join(details))
    assert ok, "SVD count leaves the analytic +/-2 band at the shortest links"


def test_criterion_02_mode_count_triple(svd_runs):
    _, (svd_count, unfocused, focused), _ = svd_runs[50.0]
    ok = 37 <= svd_count <= 43 and 9 <= unfocused <= 11 and 16 <= focused <= 20
    report(2, ok, f"svd {svd_count} (40+/-3), unfocused {unfocused} (10+/-1), focused {focused} (18+/-2)")
    assert ok


def test_criterion_03_airy_oracle():
    scenario = Scenario.normalized(10, 10, 100)
    grid = default_radial_grid(scenario)
    numeric = radial_fields(scenario, [0], (True,), grid)[0, 0]
    closed = focused_fundamental_profile(scenario, grid)
    err = np.sqrt(np.trapezoid(np.abs(numeric - closed) ** 2 * grid, grid))
    ref = np.sqrt(np.trapezoid(np.abs(closed) ** 2 * grid, grid))
    ok = err / ref < 1e-3
    report(3, ok, f"relative L2 error {err / ref:.2e} < 1e-3")
    assert ok


def test_criterion_04_charge_degeneracy():
    scenario = Scenario.normalized(10, 10, 100)
    grid = default_radial_grid(scenario)
    worst = 0.0
    for focused in (False, True):
        for ell in range(1, 11):
            # Each charge evaluated as given, not folded onto |l|.
            (fields,) = radial_fields(scenario, (ell, -ell), (focused,), grid)
            plus, minus = field_energies(fields, grid)
            worst = max(worst, abs(plus - minus) / plus)
    ok = worst < 1e-10
    report(4, ok, f"worst relative energy split {worst:.2e} < 1e-10")
    assert ok


def test_criterion_05_demultiplexer_orthogonality():
    radii = np.linspace(0.05, 1.0, 16)
    worst_leak_db = -np.inf
    worst_match = 0.0
    for tx_ell in range(-10, 11):

        def field(rho, phi, ell=tx_ell):
            return np.ones(np.broadcast(rho, phi).shape) * np.exp(1j * ell * phi)

        for rx_ell in range(-10, 11):
            branch = demultiplex(field, rx_ell, radii, angular_samples=256)
            if rx_ell == tx_ell:
                worst_match = max(worst_match, np.max(np.abs(branch / (2 * np.pi) - 1)))
            else:
                leak = np.max(np.abs(branch)) / (2 * np.pi)
                worst_leak_db = max(worst_leak_db, 20 * np.log10(max(leak, 1e-300)))
    ok = worst_leak_db < -40 and worst_match < 1e-6
    report(5, ok, f"worst leakage {worst_leak_db:.1f} dB < -40, matched error {worst_match:.2e} < 1e-6")
    assert ok


def test_criterion_06_noise_calibration():
    scenario = Scenario.normalized(10, 10, 100)
    radii, delta = slot_grid(scenario.radius_rx, wavelength=scenario.wavelength)
    psi = radial_fields(scenario, [0], (True,), radii)[0, 0]
    e_rad = float((np.abs(psi) ** 2 * radii * delta).sum())
    n0 = 0.2
    model = NoiseModel(n0=n0, radii=radii, delta=delta)
    draws = model.sample(np.random.default_rng(2026), 100_000)
    mf_var = float(np.var(mf_statistic(draws, psi, radii, delta)))
    id_var = float(np.var(id_statistic(draws, np.ones_like(radii, bool), radii, delta)))
    mf_expected = 2 * np.pi * n0 * e_rad
    id_expected = np.pi * n0 * scenario.radius_rx**2
    mf_err = abs(mf_var / mf_expected - 1)
    id_err = abs(id_var / id_expected - 1)
    ok = mf_err < 0.05 and id_err < 0.05
    report(6, ok, f"MF variance off by {mf_err:.1%}, ID by {id_err:.1%} (both < 5%)")
    assert ok


def test_criterion_07_matched_filter_ber():
    scenario = Scenario.normalized(10, 10, 100)
    snr_db = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    trials = 100_000
    radii, delta = slot_grid(scenario.radius_rx, wavelength=scenario.wavelength)
    e_s = link_symbol_energy(scenario, True)
    worst_z = 0.0
    for ell in (0, 2, 4):
        psi = radial_fields(scenario, [ell], (True,), radii)[0, 0]
        e_rad = float((np.abs(psi) ** 2 * radii * delta).sum())
        (curve,), _ = ber_curves(
            scenario, [(ell, "mf")], snr_db, trials=trials, seed=ell + 1
        )
        for snr, measured in zip(snr_db, curve.ber):
            n0 = e_s / 10 ** (snr / 10)
            expected = gaussian_ber(2 * np.pi * e_rad, 2 * np.pi * n0 * e_rad)
            sigma = math.sqrt(expected * (1 - expected) / trials)
            worst_z = max(worst_z, abs(measured - expected) / sigma)
    ok = worst_z <= 3.0
    report(7, ok, f"worst |z| across modes 0/2/4, SNR 0..12 dB: {worst_z:.2f} <= 3")
    assert ok


def _fine_grid_link(scenario, ell):
    """Fine-grid template, windows and integrals for the coherent receivers."""
    grid = default_radial_grid(scenario)
    field = radial_fields(scenario, [ell], (True,), grid)[0, 0]
    chirp = np.exp(-1j * scenario.kappa * grid**2 / (2 * scenario.distance))
    compensation = chirp * np.exp(-1j * scenario.kappa * scenario.distance)
    e_rad = float(np.trapezoid(np.abs(field) ** 2 * grid, grid))
    windows = {}
    for name, mask in (
        ("full", np.ones_like(grid, bool)),
        ("smart", interval_mask(smart_window(grid, field), grid)),
    ):
        h = 2 * np.pi * np.trapezoid(
            np.where(mask, field * np.conj(compensation) * grid, 0.0), grid
        )
        area = float(np.trapezoid(np.where(mask, grid, 0.0), grid))
        windows[name] = (abs(h), area)
    return e_rad, windows


def _snr_at_target(ber_of_snr, target=1e-3):
    def objective(snr_db):
        return math.log10(max(ber_of_snr(snr_db), 1e-300)) - math.log10(target)

    return brentq(objective, 0.0, 60.0, xtol=1e-6)


def test_criterion_08_smart_integration_penalty():
    scenario = Scenario.normalized(10, 10, 100)
    e_s = link_symbol_energy(scenario, True)

    def snr_mf(e_rad):
        return _snr_at_target(
            lambda snr: gaussian_ber(
                2 * np.pi * e_rad, 2 * np.pi * (e_s / 10 ** (snr / 10)) * e_rad
            )
        )

    def snr_id(gain, area):
        return _snr_at_target(
            lambda snr: gaussian_ber(gain, 2 * np.pi * (e_s / 10 ** (snr / 10)) * area)
        )

    penalties = {}
    improvements = {}
    for ell in (0, 2, 3, 4):
        e_rad, windows = _fine_grid_link(scenario, ell)
        reference = snr_mf(e_rad)
        smart = snr_id(*windows["smart"]) - reference
        full = snr_id(*windows["full"]) - reference
        penalties[ell] = smart
        improvements[ell] = full - smart
    ok = all(penalties[ell] <= 1.5 for ell in (2, 3, 4)) and improvements[0] >= 3.0
    detail = ", ".join(f"l={ell}: +{penalties[ell]:.2f} dB" for ell in (2, 3, 4))
    report(8, ok, f"smart ID penalties {detail} (<= 1.5); l=0 smart gain {improvements[0]:.2f} dB (>= 3)")
    assert ok


def test_criterion_09_energy_detector_thresholds():
    scenario = Scenario.normalized(10, 10, 100)
    snr_db = 19.0
    tnr_db = np.arange(16.0, 32.5, 0.5)
    trials = 100_000
    radii, delta = slot_grid(scenario.radius_rx, wavelength=scenario.wavelength)
    e_s = link_symbol_energy(scenario, True)
    n0 = e_s / 10 ** (snr_db / 10)
    sigma = math.sqrt(0.25 / trials)
    grid = default_radial_grid(scenario)
    (fields,) = radial_fields(scenario, range(5), (True,), grid)
    (on_slots,) = radial_fields(scenario, range(5), (True,), radii)

    def ed_curve(ell, smart, seed):
        branch = [(ell, "ed_smart" if smart else "ed_full")]
        (curve,) = tnr_curves(scenario, branch, snr_db, tnr_db, trials=trials, seed=seed)
        return curve

    interior_ok = True
    best_tnr = []
    closed_smart_better = True
    for ell in range(5):
        curve = ed_curve(ell, False, 11 + ell)
        k = int(np.argmin(curve.ber))
        interior_ok = interior_ok and 0 < k < len(tnr_db) - 1
        interior_ok = interior_ok and curve.ber[0] > curve.ber[k] + 5 * sigma
        interior_ok = interior_ok and curve.ber[-1] > curve.ber[k] + 5 * sigma

        psi = on_slots[ell]
        windows = {}
        for name in ("full", "smart"):
            if name == "full":
                mask = np.ones_like(radii, bool)
            else:
                mask = interval_mask(smart_window(grid, fields[ell]), radii)
            e_w = float((np.abs(psi[mask]) ** 2 * radii[mask] * delta).sum())
            zeta, ber = optimize_threshold(n0, int(mask.sum()), e_w)
            windows[name] = (zeta, ber)
        best_tnr.append(10 * math.log10(windows["full"][0] / n0))
        closed_smart_better = closed_smart_better and windows["smart"][1] < windows["full"][1]

    monotone_ok = all(b - a <= 1e-9 for a, b in zip(best_tnr, best_tnr[1:]))

    mc_smart_better = True
    for ell in (0, 4):
        full = ed_curve(ell, False, 31 + ell)
        smart = ed_curve(ell, True, 41 + ell)
        a, b = full.ber.min(), smart.ber.min()
        gap_sigma = math.sqrt((a * (1 - a) + b * (1 - b)) / trials)
        mc_smart_better = mc_smart_better and b < a - 3 * gap_sigma

    def ed_smart_ber(snr):
        level = e_s / 10 ** (snr / 10)
        mask = interval_mask(smart_window(grid, fields[0]), radii)
        psi0 = on_slots[0]
        e_w = float((np.abs(psi0[mask]) ** 2 * radii[mask] * delta).sum())
        return optimize_threshold(level, int(mask.sum()), e_w)[1]

    psi0 = on_slots[0]
    e_rad0 = float((np.abs(psi0) ** 2 * radii * delta).sum())
    snr_mf = _snr_at_target(
        lambda snr: gaussian_ber(2 * np.pi * e_rad0, 2 * np.pi * (e_s / 10 ** (snr / 10)) * e_rad0)
    )
    ed_penalty = _snr_at_target(ed_smart_ber) - snr_mf

    ok = interior_ok and monotone_ok and closed_smart_better and mc_smart_better and ed_penalty >= 3.0
    report(
        9,
        ok,
        f"interior minima {interior_ok}, optimal TNR {['%.2f' % b for b in best_tnr]} dB "
        f"non-increasing {monotone_ok}, smart lowers minima {closed_smart_better and mc_smart_better}, "
        f"ED-vs-MF penalty {ed_penalty:.2f} dB >= 3",
    )
    assert ok


def focus_gap_db(scenario, n_modes=51):
    """Path gain with transmit focusing over the gain without, in dB."""
    unfocused, focused = path_gains(scenario, n_modes, (False, True))
    return 10 * math.log10(focused / unfocused)


def test_criterion_10_path_gain_presets():
    gap = focus_gap_db(Scenario.normalized(25, 5, 100))
    downlink_ok = 14.0 <= gap <= 20.0
    worst = 0.0
    for distance in (50.0, 100.0, 200.0, 350.0, 500.0):
        worst = max(worst, abs(focus_gap_db(Scenario.normalized(5, 25, distance))))
    uplink_ok = worst < 0.5
    ok = downlink_ok and uplink_ok
    report(10, ok, f"downlink focus gap {gap:.2f} dB in 17+/-3, worst uplink gap {worst:.3f} dB < 0.5")
    assert ok


def test_criterion_11_transmit_normalization():
    scenario = Scenario.normalized(10, 10, 100)
    rho = np.linspace(0.0, scenario.radius_tx, 8193)
    # The radial factor does not depend on the charge, so each of the 51
    # modes carries the same energy in each focus state.
    energy = {
        focused: 2 * np.trapezoid(np.abs(tx_radial(scenario, focused, rho)) ** 2 * rho, rho)
        for focused in (False, True)
    }
    worst = max(abs(value - 1) for value in energy.values())
    total = 51 * energy[True]
    ok = worst < 1e-6 and abs(total - 51) < 51 * 1e-6
    report(11, ok, f"worst unit-energy error {worst:.2e} < 1e-6, 51-mode total {total:.8f}")
    assert ok
