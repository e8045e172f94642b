"""Tests for surface discretization, the coupling operator and mode counting."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oamlis import Scenario, modes
from oamlis.experiments import default_config, mode_spectra
from oamlis.modes import (
    count_modes,
    coupling_matrix,
    disk_grid,
    svd_mode_spectrum,
)
from oamlis.numerics import svd_spectrum
from oracles import green


def test_disk_grid_weights_sum_to_disk_area():
    for radius, spacing in ((1.0, 0.05), (0.5, 0.05), (2.5, 0.1)):
        points, weight = disk_grid(radius, spacing)
        assert_allclose(weight * len(points), np.pi * radius**2, rtol=1e-12)
        assert np.all(np.hypot(points[:, 0], points[:, 1]) <= radius)


def test_disk_grid_is_the_clipped_square_lattice():
    # Pitches lambda/2 and lambda/3 at lambda = 0.1, a radius that is no
    # multiple of the pitch, and a pitch coarser than the radius.
    pairs = ((1.0, 0.05), (0.5, 0.05), (2.5, 0.1), (0.5, 0.1 / 3), (0.33, 0.05), (0.35, 0.41))
    for radius, spacing in pairs:
        points, weight = disk_grid(radius, spacing)
        # Independent build: every half-integer site of a square wide enough
        # to hold the disk, kept when its center lies inside.
        k = np.arange(-int(radius / spacing) - 2, int(radius / spacing) + 2) + 0.5
        square = [(i * spacing, j * spacing) for i in k for j in k]
        clipped = {(x, y) for x, y in square if x**2 + y**2 <= radius**2}
        assert len(points) == len(clipped)
        assert set(map(tuple, points)) == clipped
        assert np.all(np.hypot(points[:, 0], points[:, 1]) <= radius)
        assert_allclose(weight * len(points), np.pi * radius**2, rtol=1e-12)
        turned = np.column_stack([-points[:, 1], points[:, 0]])
        assert set(map(tuple, turned)) == set(map(tuple, points))


def test_disk_grid_refinement_roughly_quadruples_points():
    coarse, _ = disk_grid(1.0, 0.1)
    fine, _ = disk_grid(1.0, 0.05)
    assert 3.5 < len(fine) / len(coarse) < 4.5


def test_disk_grid_validation():
    with pytest.raises(ValueError):
        disk_grid(1.0, 0.0)
    with pytest.raises(ValueError):
        disk_grid(0.0, 0.1)
    with pytest.raises(ValueError, match="too coarse"):
        disk_grid(1.0, 1.5)


@given(radius=st.floats(0.05, 2.0), cells=st.floats(0.8, 30.0))
def test_disk_grid_is_closed_under_quarter_turn(radius, cells):
    points, _ = disk_grid(radius, radius / cells)
    turned = np.column_stack([-points[:, 1], points[:, 0]])
    assert len(points) % 4 == 0
    assert set(map(tuple, turned)) == set(map(tuple, points))


def test_green_pointwise_value_and_singularity():
    d = 2.5
    kappa = 4.0
    g = green((0.0, 0.0, 0.0), (0.0, 0.0, d), kappa)
    assert_allclose(abs(g), 1 / (4 * np.pi * d))
    assert_allclose(np.angle(g), np.angle(np.exp(-1j * kappa * d)))
    with pytest.raises(ValueError):
        green((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), kappa)


def _single_point_grid(x, y, radius):
    return np.array([[x, y]]), np.pi * radius**2


def test_coupling_matrix_single_point_matches_green():
    kappa = 2 * np.pi / 0.1
    gt = _single_point_grid(0.0, 0.0, 0.05)
    gr = _single_point_grid(0.03, -0.01, 0.05)
    m = coupling_matrix(gt, gr, kappa, 5.0)
    expected = green((0.0, 0.0, 0.0), (0.03, -0.01, 5.0), kappa) * np.sqrt(gt[1] * gr[1])
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
    assert forward.shape == (len(gr[0]), len(gt[0]))
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


def test_count_modes_energy_example():
    energies = np.array([1.0, 0.5, 0.1])
    assert count_modes(10 * np.log10(energies), -5.0) == 2
    # amplitude scale: 0.5 sits at -6 dB on the energy scale, below -5
    assert count_modes(20 * np.log10(energies), -5.0) == 1
    assert count_modes([0.0, -5.0, -5.0000001], -5.0) == 2


def test_count_modes_reference_override_and_validation():
    # Counting against a foreign peak is dividing by it before the dB.
    energies = np.array([1.0, 0.5, 0.1])
    assert count_modes(10 * np.log10(energies / 0.2), -5.0) == 3
    assert count_modes(10 * np.log10(energies / 4.0), -5.0) == 0
    with pytest.raises(ValueError):
        count_modes(10 * np.log10(energies), 1.0)
    with pytest.raises(ValueError):
        count_modes(np.array([0.0, -1.0, -3.0]), math.nan)


def test_mode_spectrum_db_scales():
    # spectrum and dof count these arrays: singular values on the amplitude
    # scale, energies on the energy scale, both against xi_1^2.
    config = default_config("spectrum", T=3, R=3, D=30, max_charge=4)
    svd, energies, db = mode_spectra(config, config.scenario())
    assert energies.shape == (2, 9)
    assert len(db) == 3
    assert db[0][0] == 0.0
    assert_allclose(10 ** (db[0] / 20), svd / svd[0], rtol=1e-12)
    for values, values_db in zip(energies, db[1:]):
        assert_allclose(10 ** (values_db / 10), values / svd[0] ** 2, rtol=1e-12)


def test_svd_mode_spectrum_shape_and_count_stability():
    s = Scenario.normalized(5, 5, 50)
    half = svd_mode_spectrum(s)
    third = svd_mode_spectrum(s, s.wavelength / 3)
    assert isinstance(half, np.ndarray) and half.ndim == 1
    assert half[0] > 0
    assert np.all(np.diff(half) <= 0)
    # refining the lattice may shift the -5 dB count by at most one
    assert abs(_svd_count(half) - _svd_count(third)) <= 1


def _svd_count(values, threshold_db=-5.0):
    return count_modes(20 * np.log10(values / values[0]), threshold_db)


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
    full = svd_spectrum(coupling_matrix(grid_t, grid_r, s.kappa, s.distance))
    blocked = svd_mode_spectrum(s, spacing)
    assert blocked.shape == full.shape
    assert np.max(np.abs(blocked - full)) <= 1e-12 * full[0]
    assert _svd_count(blocked) == _svd_count(full)


def _quadrant_blocks(s, spacing):
    """The four rotation blocks of the whole quadrant coupling, transformed
    at once, with the first-quadrant receive and transmit sites."""
    grid_t = disk_grid(s.radius_tx, spacing)
    sites_r, weight_r = disk_grid(s.radius_rx, spacing)
    quadrant_r = sites_r[: len(sites_r) // 4]
    quadrant_t = grid_t[0][: len(grid_t[0]) // 4]
    whole = coupling_matrix(grid_t, (quadrant_r, weight_r), s.kappa, s.distance)
    blocks = np.fft.fft(whole.reshape(len(quadrant_r), 4, -1), axis=1).transpose(1, 0, 2)
    return blocks, quadrant_r, quadrant_t


def _mirror_permutation(quadrant):
    """Index of each site's mirror image (x, y) -> (y, x), found by its
    coordinates."""
    place = {tuple(site): k for k, site in enumerate(quadrant)}
    return np.array([place[(y, x)] for x, y in quadrant])


def _diagonal_and_pairs(quadrant):
    """Counts of the sites on x = y and of the mirror pairs off it."""
    diagonal = int(np.count_nonzero(quadrant[:, 0] == quadrant[:, 1]))
    return diagonal, (len(quadrant) - diagonal) // 2


@given(
    T=st.floats(1.0, 4.0),
    R=st.floats(1.0, 4.0),
    D=st.floats(5.0, 80.0),
    pitch=st.sampled_from((1 / 2, 1 / 3, 0.4137)),
)
def test_mirror_maps_block_1_onto_block_3_and_keeps_blocks_0_and_2(T, R, D, pitch):
    # The facts the skipped block and the even/odd split rest on, bit for bit.
    s = Scenario.normalized(T, R, D)
    blocks, quadrant_r, quadrant_t = _quadrant_blocks(s, pitch * s.wavelength)
    mirror = np.ix_(_mirror_permutation(quadrant_r), _mirror_permutation(quadrant_t))
    assert blocks[3].tobytes() == blocks[1][mirror].tobytes()
    for m in (0, 2):
        assert blocks[m].tobytes() == blocks[m][mirror].tobytes()


@pytest.mark.parametrize(
    "T, R, pitch",
    [(0.4, 3, 1 / 2), (3, 0.4, 1 / 2), (0.4, 0.4, 1 / 2), (2, 5, 1 / 3), (6, 2.5, 0.4137)],
)
def test_mirror_split_keeps_every_value(monkeypatch, T, R, pitch):
    # Unequal disks keep min(N_r, N_t) values; a quadrant of only its
    # diagonal site (radius 0.4 at lambda/2) has an empty odd part, which
    # never reaches svd_spectrum; every value of B_1 appears exactly twice.
    s = Scenario.normalized(T, R, 20)
    spacing = pitch * s.wavelength
    grid_t = disk_grid(s.radius_tx, spacing)
    grid_r = disk_grid(s.radius_rx, spacing)
    full = svd_spectrum(coupling_matrix(grid_t, grid_r, s.kappa, s.distance))
    shapes = []

    def block_spectrum(block):
        shapes.append(block.shape)
        return svd_spectrum(block)

    monkeypatch.setattr(modes, "svd_spectrum", block_spectrum)
    result = svd_mode_spectrum(s, spacing)
    assert len(result) == len(full) == min(len(grid_t[0]), len(grid_r[0]))
    assert np.max(np.abs(result - full)) <= 1e-12 * full[0]
    # The even and the non-empty odd part of B_0 and of B_2, then B_1 whole,
    # with d diagonal sites and p mirror pairs on each side.
    blocks, *quadrants = _quadrant_blocks(s, spacing)
    (d_r, p_r), (d_t, p_t) = (_diagonal_and_pairs(quadrant) for quadrant in quadrants)
    halves = [(d_r + p_r, d_t + p_t)] + [(p_r, p_t)] * (min(p_r, p_t) > 0)
    assert shapes == halves * 2 + [blocks[1].shape]
    if min(T, R) == 0.4:
        assert min(p_r, p_t) == 0
    turn = svd_spectrum(blocks[1])
    values, counts = np.unique(turn, return_counts=True)
    assert [np.count_nonzero(result == value) for value in values] == list(2 * counts)


@pytest.mark.parametrize(
    "T, R, D, chunk_rows",
    [(3, 3, 10, 3.5), (3, 3, 10, 0.5), (4, 6, 30, 5.5), (4, 6, 30, 7.5), (5, 2.5, 40, 3.5)],
)
def test_blocks_assembled_in_row_chunks_equal_the_one_piece_assembly(
    monkeypatch, T, R, D, chunk_rows
):
    # Chunks of a few receive rows (at least one, however small the byte
    # size) give the one-piece blocks' mirror parts and B_1, and the
    # spectrum of the whole quadrant coupling transformed at once, bit for
    # bit, whether or not they divide the count of rows built: 16 rows in
    # chunks of 3 and 60 in chunks of 7 leave a short last chunk, 60 in
    # chunks of 5 and 12 in chunks of 3 do not.  Only one site of each
    # mirror orbit of the receive quadrant (y <= x) reaches coupling_matrix,
    # exactly once.
    s = Scenario.normalized(T, R, D)
    spacing = s.wavelength / 2
    grid_t = disk_grid(s.radius_tx, spacing)
    reference, quadrant_r, quadrant_t = _quadrant_blocks(s, spacing)
    (diag_r, pair_r, _), orbits_t = (modes._mirror_orbits(q) for q in (quadrant_r, quadrant_t))
    parts = [
        part
        for m in (0, 2)
        for part in modes._mirror_parts(reference[m][diag_r], reference[m][pair_r], orbits_t)
        if part.size
    ]
    turn = svd_spectrum(reference[1])
    spectrum = np.sort(np.concatenate([svd_spectrum(p) for p in parts] + [turn, turn]))[::-1]

    chunks, inputs = [], []

    def chunk_coupling(grid_t, grid_r, kappa, separation):
        chunks.append(grid_r[0])
        return coupling_matrix(grid_t, grid_r, kappa, separation)

    def block_spectrum(block):
        inputs.append(block.tobytes())
        return svd_spectrum(block)

    monkeypatch.setattr(modes, "ASSEMBLY_CHUNK_BYTES", int(chunk_rows * 16 * len(grid_t[0])))
    monkeypatch.setattr(modes, "coupling_matrix", chunk_coupling)
    monkeypatch.setattr(modes, "svd_spectrum", block_spectrum)
    result = svd_mode_spectrum(s)

    representatives = quadrant_r[quadrant_r[:, 1] <= quadrant_r[:, 0]]
    size = max(1, int(chunk_rows))
    full, rest = divmod(len(representatives), size)
    assert [len(chunk) for chunk in chunks] == [size] * full + [rest] * (rest > 0)
    assert sorted(map(tuple, np.concatenate(chunks))) == sorted(map(tuple, representatives))
    assert inputs == [part.tobytes() for part in parts] + [reference[1].tobytes()]
    assert result.tobytes() == spectrum.tobytes()


def test_spectrum_assembly_peak_memory_stays_near_the_blocks():
    # Against the bound of four complex (N_r/4) x (N_t/4) blocks,
    # 16 N_t N_r / 4 bytes: beside the three blocks it holds, the spectrum
    # holds one receive-row chunk, a block's mirror parts and the SVD's copy,
    # not the whole quadrant coupling and its DFT (3.5x the four blocks).
    s = Scenario.normalized(15, 15, 50)
    spacing = s.wavelength / 2
    n_t, n_r = (len(disk_grid(radius, spacing)[0]) for radius in (s.radius_tx, s.radius_rx))
    svd_mode_spectrum(Scenario.normalized(3, 3, 10))  # warm caches outside the measurement
    tracemalloc.start()
    try:
        svd_mode_spectrum(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * (16 * n_t * n_r / 4)


def test_spectrum_holds_b1_and_the_mirror_parts_only():
    # B_1 and the mirror parts of B_0 and B_2 are about half the four-block
    # bound 16 N_t N_r / 4 bytes; beside them the assembly holds one chunk
    # of representative receive rows, and the parts are freed before B_1's
    # SVD.  tracemalloc does not see the SVD's own copy of B_1.
    s = Scenario.normalized(15, 15, 50)
    spacing = s.wavelength / 2
    n_t, n_r = (len(disk_grid(radius, spacing)[0]) for radius in (s.radius_tx, s.radius_rx))
    svd_mode_spectrum(Scenario.normalized(3, 3, 10))  # warm caches outside the measurement
    tracemalloc.start()
    try:
        svd_mode_spectrum(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * (16 * n_t * n_r / 4)


_LINKS = {
    "T": st.floats(1.0, 6.0),
    "R": st.floats(1.0, 6.0),
    "ratio": st.floats(2.0, 20.0),  # D / max(T, R)
    "pitch": st.sampled_from((1 / 2, 1 / 3)),
}


@given(**_LINKS)
def test_spectrum_is_reciprocal(T, R, ratio, pitch):
    # Swapping the disks transposes the coupling, which keeps its values.
    D = ratio * max(T, R)
    there, back = (Scenario.normalized(a, b, D) for a, b in ((T, R), (R, T)))
    forward = svd_mode_spectrum(there, pitch * there.wavelength)
    backward = svd_mode_spectrum(back, pitch * back.wavelength)
    assert forward.shape == backward.shape
    assert np.max(np.abs(forward - backward)) <= 1e-12 * forward[0]


@given(**_LINKS)
def test_halving_the_wavelength_keeps_the_normalized_spectrum_bitwise(T, R, ratio, pitch):
    # At fixed T, R, D every length halves and kappa doubles exactly, so each
    # matrix entry halves exactly and xi / xi_1 keeps every bit.
    D = ratio * max(T, R)
    spectra = []
    for wavelength in (0.1, 0.05):
        s = Scenario.normalized(T, R, D, wavelength)
        values = svd_mode_spectrum(s, pitch * s.wavelength)
        spectra.append((values / values[0]).tobytes())
    assert spectra[0] == spectra[1]


def test_svd_mode_spectrum_rejects_oversized_lattice(monkeypatch):
    # The budget check runs before any lattice is built.
    def no_lattice(*args):
        raise AssertionError("lattice built before the budget check")

    monkeypatch.setattr(modes, "disk_grid", no_lattice)
    with pytest.raises(ValueError, match="pitch"):
        svd_mode_spectrum(Scenario.normalized(4000, 4000, 30000))


_NEAR_CONTACT = "is under 0.01 wavelengths, where the scalar Green kernel does not apply"
#: Lattice links (T, R, D, pitch in wavelengths), each with the message that
#: the config and the spectrum both reject it with, or None where both take it.
LATTICE_LINKS = {
    "coarse-pitch": (
        (3.0, 3.0, 20.0, 4.25),
        "spacing 4.25 leaves no lattice site in a disk of radius 3; "
        "it must be at most sqrt(2) times each radius",
    ),
    "near-contact": ((1.0, 1.0, 0.001, 0.5), f"distance 0.001 {_NEAR_CONTACT}"),
    "oversized": (
        (4000.0, 4000.0, 30000.0, 0.5),
        "coupling blocks would need 150598211.7 GiB; "
        "increase the lattice pitch to at least 46.6 wavelengths",
    ),
    "lambda/100": ((1.0, 1.0, 0.01, 0.5), None),
    "under-lambda/100": (
        (1.0, 1.0, float(np.nextafter(0.01, 0)), 0.5),
        f"distance 0.01 {_NEAR_CONTACT}",
    ),
}


def _rejection(call):
    """The ValueError message of ``call()``, or None if it returns."""
    try:
        call()
    except ValueError as err:
        return str(err)
    return None


@pytest.mark.parametrize("name", list(LATTICE_LINKS))
def test_config_and_spectrum_apply_one_statement_of_the_lattice_rules(name):
    (T, R, D, pitch), message = LATTICE_LINKS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the paraxial warning of D < R
        scenario = Scenario.normalized(T, R, D)
    from_config = _rejection(lambda: default_config("spectrum", T=T, R=R, D=D, spacing=pitch))
    from_spectrum = _rejection(lambda: svd_mode_spectrum(scenario, pitch * scenario.wavelength))
    assert from_config == from_spectrum == message
