"""Tests for surface discretization, the coupling operator and mode counting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oamlis import Scenario, modes
from oamlis.modes import (
    ModeSpectrum,
    SurfaceGrid,
    count_modes,
    coupling_matrix,
    disk_grid,
    green,
    svd_mode_spectrum,
)
from oamlis.numerics import svd_spectrum


def test_disk_grid_weights_sum_to_disk_area():
    for radius, spacing in ((1.0, 0.05), (0.5, 0.05), (2.5, 0.1)):
        g = disk_grid(radius, spacing)
        assert_allclose(g.weights.sum(), np.pi * radius**2, rtol=1e-12)
        assert np.all(np.hypot(g.points[:, 0], g.points[:, 1]) <= radius)


def test_disk_grid_refinement_roughly_quadruples_points():
    coarse = disk_grid(1.0, 0.1)
    fine = disk_grid(1.0, 0.05)
    assert 3.5 < len(fine) / len(coarse) < 4.5


def test_disk_grid_validation():
    with pytest.raises(ValueError):
        disk_grid(1.0, 0.0)
    with pytest.raises(ValueError):
        disk_grid(0.0, 0.1)


@given(radius=st.floats(0.05, 2.0), cells=st.floats(0.8, 30.0))
def test_disk_grid_is_closed_under_quarter_turn(radius, cells):
    g = disk_grid(radius, radius / cells)
    turned = np.column_stack([-g.points[:, 1], g.points[:, 0]])
    assert len(g) % 4 == 0
    assert set(map(tuple, turned)) == set(map(tuple, g.points))


def test_surface_grid_rejects_bad_inputs():
    pts = np.array([[0.0, 0.0], [0.5, 0.0]])
    good = np.full(2, np.pi * 1.0**2 / 2)
    SurfaceGrid(points=pts, weights=good, radius=1.0)
    with pytest.raises(ValueError):
        SurfaceGrid(points=np.array([[2.0, 0.0]]), weights=np.array([np.pi]), radius=1.0)
    with pytest.raises(ValueError):
        SurfaceGrid(points=pts, weights=good * 1.1, radius=1.0)
    with pytest.raises(ValueError):
        SurfaceGrid(points=pts, weights=good[:1], radius=1.0)


def test_green_pointwise_value_and_singularity():
    d = 2.5
    kappa = 4.0
    g = green((0.0, 0.0, 0.0), (0.0, 0.0, d), kappa)
    assert_allclose(abs(g), 1 / (4 * np.pi * d))
    assert_allclose(np.angle(g), np.angle(np.exp(-1j * kappa * d)))
    with pytest.raises(ValueError):
        green((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), kappa)


def _single_point_grid(x, y, radius):
    return SurfaceGrid(
        points=np.array([[x, y]]),
        weights=np.array([np.pi * radius**2]),
        radius=radius,
    )


def test_coupling_matrix_single_point_matches_green():
    kappa = 2 * np.pi / 0.1
    gt = _single_point_grid(0.0, 0.0, 0.05)
    gr = _single_point_grid(0.03, -0.01, 0.05)
    m = coupling_matrix(gt, gr, kappa, 5.0)
    expected = green((0.0, 0.0, 0.0), (0.03, -0.01, 5.0), kappa) * np.sqrt(
        gt.weights[0] * gr.weights[0]
    )
    assert m.shape == (1, 1)
    assert_allclose(m[0, 0], expected, rtol=1e-12)


def test_coupling_matrix_weight_bilinearity():
    # scaling both grids' weights by 2 scales every entry by sqrt(2*2) = 2
    kappa = 2 * np.pi / 0.1
    gt = _single_point_grid(0.01, 0.02, 0.05)
    gr = _single_point_grid(-0.02, 0.0, 0.05)
    gt2 = _single_point_grid(0.01, 0.02, 0.05 * np.sqrt(2))
    gr2 = _single_point_grid(-0.02, 0.0, 0.05 * np.sqrt(2))
    m = coupling_matrix(gt, gr, kappa, 5.0)
    m2 = coupling_matrix(gt2, gr2, kappa, 5.0)
    assert_allclose(m2, 2 * m, rtol=1e-12)


def test_coupling_matrix_swap_consistency():
    s = Scenario.normalized(3, 2, 30)
    gt = disk_grid(s.radius_tx, s.wavelength / 2)
    gr = disk_grid(s.radius_rx, s.wavelength / 2)
    forward = coupling_matrix(gt, gr, s.kappa, s.distance)
    backward = coupling_matrix(gr, gt, s.kappa, s.distance)
    assert forward.shape == (len(gr), len(gt))
    assert np.max(np.abs(forward - backward.T)) < 1e-10


def test_coupling_matrix_rejects_near_contact():
    g = disk_grid(0.2, 0.05)
    with pytest.raises(ValueError):
        coupling_matrix(g, g, 2 * np.pi / 0.1, 0.1 / 200)
    with pytest.raises(ValueError):
        coupling_matrix(g, g, 2 * np.pi / 0.1, -1.0)


def test_coupling_total_power_matches_paraxial_integral():
    # sum of squared singular values equals the Frobenius norm, whose
    # continuum value is (pi T^2)(pi R^2)/(4 pi D)^2 in the paraxial limit
    s = Scenario.normalized(5, 5, 100)
    gt = disk_grid(s.radius_tx, s.wavelength / 2)
    gr = disk_grid(s.radius_rx, s.wavelength / 2)
    m = coupling_matrix(gt, gr, s.kappa, s.distance)
    frob = float(np.sum(np.abs(m) ** 2))
    analytic = s.radius_tx**2 * s.radius_rx**2 / (16 * s.distance**2)
    assert_allclose(frob, analytic, rtol=0.02)


def test_mode_spectrum_validation():
    ModeSpectrum(values=np.array([2.0, 1.0]), scale="amplitude")
    with pytest.raises(ValueError):
        ModeSpectrum(values=np.array([1.0, 2.0]), scale="amplitude")
    with pytest.raises(ValueError):
        ModeSpectrum(values=np.array([1.0, -0.1]), scale="energy")
    with pytest.raises(ValueError):
        ModeSpectrum(values=np.array([1.0]), scale="power")


def test_mode_spectrum_db_scales():
    amp = ModeSpectrum(values=np.array([1.0, 0.1]), scale="amplitude")
    eng = ModeSpectrum(values=np.array([1.0, 0.1]), scale="energy")
    assert_allclose(amp.db()[1], -20.0)
    assert_allclose(eng.db()[1], -10.0)
    assert_allclose(eng.db(reference=0.5)[0], 10 * np.log10(2.0))


def test_count_modes_energy_example():
    spectrum = ModeSpectrum(values=np.array([1.0, 0.5, 0.1]), scale="energy")
    assert count_modes(spectrum, -5.0) == 2
    # amplitude scale: 0.5 sits at -6 dB on the energy scale, below -5
    amp = ModeSpectrum(values=np.array([1.0, 0.5, 0.1]), scale="amplitude")
    assert count_modes(amp, -5.0) == 1


def test_count_modes_reference_override_and_validation():
    spectrum = ModeSpectrum(values=np.array([1.0, 0.5, 0.1]), scale="energy")
    assert count_modes(spectrum, -5.0, reference=0.2) == 3
    assert count_modes(spectrum, -5.0, reference=4.0) == 0
    with pytest.raises(ValueError):
        count_modes(spectrum, 1.0)


def test_svd_mode_spectrum_shape_and_count_stability():
    s = Scenario.normalized(5, 5, 50)
    half = svd_mode_spectrum(s)
    third = svd_mode_spectrum(s, s.wavelength / 3)
    assert half.scale == "amplitude"
    assert half.reference > 0
    assert np.all(np.diff(half.values) <= 0)
    # refining the lattice may shift the -5 dB count by at most one
    assert abs(count_modes(half, -5.0) - count_modes(third, -5.0)) <= 1


@given(
    T=st.floats(1.0, 4.0),
    R=st.floats(1.0, 4.0),
    D=st.floats(5.0, 80.0),
    pitch=st.sampled_from((1 / 2, 1 / 3, 0.4137)),
)
def test_blocked_spectrum_matches_full_lattice_svd(T, R, D, pitch):
    s = Scenario.normalized(T, R, D)
    spacing = pitch * s.wavelength
    grid_t = disk_grid(s.radius_tx, spacing)
    grid_r = disk_grid(s.radius_rx, spacing)
    full = ModeSpectrum(
        values=svd_spectrum(coupling_matrix(grid_t, grid_r, s.kappa, s.distance)),
        scale="amplitude",
    )
    blocked = svd_mode_spectrum(s, spacing)
    assert blocked.values.shape == full.values.shape
    assert np.max(np.abs(blocked.values - full.values)) <= 1e-12 * full.reference
    assert count_modes(blocked, -5.0) == count_modes(full, -5.0)


def test_svd_mode_spectrum_rejects_grid_without_quarter_turn_symmetry(monkeypatch):
    def shifted_grid(radius, spacing):
        g = disk_grid(radius, spacing)
        shifted = 0.9 * g.points + 0.01 * spacing
        return SurfaceGrid(points=shifted, weights=g.weights, radius=radius)

    monkeypatch.setattr(modes, "disk_grid", shifted_grid)
    with pytest.raises(ValueError, match="quarter-turn"):
        svd_mode_spectrum(Scenario.normalized(3, 3, 30))


def test_svd_mode_spectrum_rejects_oversized_lattice():
    with pytest.raises(MemoryError, match="pitch"):
        svd_mode_spectrum(Scenario.normalized(4000, 4000, 30000))
