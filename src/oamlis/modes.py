"""Optimum communication modes of the two-disk link.

The continuous coupling operator between the transmit and receive apertures
is discretized on regular lattices over both disks; the singular values of
the weighted Green matrix approximate the coupling strengths of the optimum
communication modes, and counting the values above a threshold relative to
the strongest one gives the number of usable spatial channels.

Both lattices map onto themselves under the quarter turn (x, y) -> (-y, x),
and the Green kernel is unchanged when both disks turn together.  The
weighted Green matrix is therefore block circulant over the four rotation
copies of the first-quadrant sites; a 4-point DFT over the rotation index
splits it into four blocks, and :func:`svd_mode_spectrum` returns the union
of the four blocks' singular values, which are those of the full matrix.

:func:`check_lattice` holds the rules that a lattice link must meet; the
spectrum applies it before it builds any lattice, the config when it is made.
"""

from __future__ import annotations

import numpy as np

from .geometry import Scenario
from .numerics import svd_spectrum

#: Pair-distance guard: the scalar Green function used here neglects the
#: reactive near-field terms, which is fine a few wavelengths out but not
#: at essentially zero separation.
_MIN_SEPARATION_WAVELENGTHS = 0.01
#: Upper bound on the four coupling blocks, 16 N_t N_r / 4 bytes; their
#: assembly adds one receive-row chunk of :data:`ASSEMBLY_CHUNK_BYTES`.
_MATRIX_BUDGET_BYTES = 2 * 1024**3
#: Bytes of the complex quadrant-coupling rows that :func:`svd_mode_spectrum`
#: assembles and transforms at a time (at least one row); bounds the
#: assembly's working memory beside the blocks at any lattice size.
ASSEMBLY_CHUNK_BYTES = 2 * 1024**2


def check_lattice(
    radius_tx: float, radius_rx: float, distance: float, spacing: float, wavelength: float
):
    """Raise ValueError unless both disk lattices (lengths in meters) hold a
    site, the disks are at least lambda/100 apart, where the scalar Green
    kernel applies, and the coupling blocks fit the assembly budget."""
    radius = min(radius_tx, radius_rx)
    if not _holds_a_site(radius, spacing):
        raise ValueError(
            f"spacing {spacing / wavelength:g} leaves no lattice site in a disk of "
            f"radius {radius / wavelength:g}; it must be at most sqrt(2) times each radius"
        )
    # Site counts estimated by disk area (a lattice holds a little more: 316
    # sites against 314.2 at a 5-wavelength radius and lambda/2 pitch); the
    # largest array is the four complex (N_r/4) x (N_t/4) coupling blocks,
    # assembled one receive-row chunk at a time.
    n_t = np.pi * radius_tx**2 / spacing**2
    n_r = np.pi * radius_rx**2 / spacing**2
    required = 16 * n_t * n_r / 4
    if required > _MATRIX_BUDGET_BYTES:
        factor = (required / _MATRIX_BUDGET_BYTES) ** 0.25
        raise ValueError(
            f"coupling blocks would need {required / 1024**3:.1f} GiB; increase the "
            f"lattice pitch to at least {spacing * factor / wavelength:.3g} wavelengths"
        )
    if not _kernel_applies(distance, 2 * np.pi / wavelength):
        raise ValueError(
            f"distance {distance / wavelength:g} is under {_MIN_SEPARATION_WAVELENGTHS:g} "
            "wavelengths, where the scalar Green kernel does not apply"
        )


def _holds_a_site(radius: float, spacing: float) -> bool:
    """Whether :func:`disk_grid`'s clip keeps its site nearest the center,
    (spacing/2, spacing/2), by the clip's own float64 operations (an
    array's ``**2`` is a product): a pitch of at most sqrt(2) * radius."""
    first = np.float64(0.5) * spacing
    return bool(first * first + first * first <= radius**2)


def _kernel_applies(separation: float, kappa: float) -> bool:
    """Whether planes ``separation`` meters apart pass the lambda/100 guard."""
    return separation >= _MIN_SEPARATION_WAVELENGTHS * (2 * np.pi / kappa)


def disk_grid(radius: float, spacing: float):
    """Square lattice clipped to a disk.

    Lattice sites sit at half-integer multiples of ``spacing`` (no site at
    the center, fourfold symmetry); a site belongs to the grid when its
    center lies inside the disk.  Use spacing = lambda/2 for the spatially
    Nyquist-sampled default.

    Args:
        radius: disk radius in meters.
        spacing: lattice pitch in meters.

    Returns:
        (points, weight): the (N, 2) site coordinates in meters and the
        uniform area weight pi * radius^2 / N of each site.  The points are
        the N/4 first-quadrant sites in row-major order, then those sites
        turned counterclockwise by 90, 180 and 270 degrees.
    """
    if radius <= 0 or spacing <= 0:
        raise ValueError("radius and spacing must be positive")
    if not _holds_a_site(radius, spacing):
        raise ValueError("spacing too coarse: no lattice site falls inside the disk")
    coords = (np.arange(int(radius / spacing) + 1) + 0.5) * spacing
    xx, yy = np.meshgrid(coords, coords)
    inside = xx**2 + yy**2 <= radius**2
    x, y = xx[inside], yy[inside]
    turns = [np.column_stack(turn) for turn in ((x, y), (-y, x), (-x, -y), (y, -x))]
    return np.concatenate(turns), np.pi * radius**2 / (4 * len(x))


def coupling_matrix(grid_t, grid_r, kappa: float, separation: float) -> np.ndarray:
    """Weighted Green coupling matrix between two discretized disks.

    Entry (i, j) couples transmit sample j to receive sample i:
    G(r_i, s_j) * sqrt(w_r w_t).  The symmetric square-root weighting makes
    the singular values of the matrix approximate those of the continuous
    operator.

    Args:
        grid_t: transmit-disk (points, weight), as :func:`disk_grid` returns.
        grid_r: receive-disk (points, weight).
        kappa: wavenumber in rad/m.
        separation: axial distance between the disk planes in meters.

    Returns:
        Complex matrix of shape (len(points_r), len(points_t)).
    """
    (points_t, weight_t), (points_r, weight_r) = grid_t, grid_r
    if not _kernel_applies(separation, kappa):
        raise ValueError("grids closer than lambda/100: scalar Green kernel not applicable")
    dx = points_r[:, 0][:, None] - points_t[:, 0][None, :]
    dy = points_r[:, 1][:, None] - points_t[:, 1][None, :]
    dist = np.sqrt(dx**2 + dy**2 + separation**2)
    return np.exp(-1j * kappa * dist) / (4 * np.pi * dist) * np.sqrt(weight_r * weight_t)


def count_modes(db, threshold_db: float) -> int:
    """Number of energy-scale dB values at or above ``threshold_db``.

    Args:
        db: couplings in dB on the energy scale, relative to whatever
            reference the caller counts against: 20 log10 of singular
            values, 10 log10 of mode energies.
        threshold_db: non-positive threshold; -5 dB counts entries whose
            energy is at least 10^-0.5 of the reference.

    Returns:
        Integer count.
    """
    if not threshold_db <= 0:
        raise ValueError(f"threshold_db must be <= 0, got {threshold_db}")
    return int(np.sum(np.asarray(db) >= threshold_db))


def svd_mode_spectrum(scenario: Scenario, spacing: float | None = None) -> np.ndarray:
    """Singular values of the discretized link, largest first.

    Equal to the singular values of ``coupling_matrix`` on the two disk
    lattices, computed from the four quarter-turn blocks.  With C_a the
    coupling of the first-quadrant receive sites to the first-quadrant
    transmit sites rotated by a * 90 degrees, the full matrix is block
    circulant in the C_a, and its singular values are the union of those
    of B_m = sum_a C_a e^{-j 2 pi m a / 4}, m = 0..3.  That is a quarter
    of the matrix entries and a sixteenth of the SVD work.  The blocks are
    filled one chunk of receive rows at a time (:data:`ASSEMBLY_CHUNK_BYTES`),
    so beside them the assembly holds one chunk, not the whole coupling.

    Args:
        scenario: link geometry.
        spacing: lattice pitch in meters; defaults to lambda/2.

    Returns:
        Descending singular values.

    Raises:
        ValueError: if :func:`check_lattice` rejects the link.
    """
    if spacing is None:
        spacing = scenario.wavelength / 2
    check_lattice(
        scenario.radius_tx, scenario.radius_rx, scenario.distance, spacing, scenario.wavelength
    )
    grid_t = disk_grid(scenario.radius_tx, spacing)
    sites_r, weight_r = disk_grid(scenario.radius_rx, spacing)
    quadrant_r = sites_r[: len(sites_r) // 4]
    blocks = np.empty((4, len(quadrant_r), len(grid_t[0]) // 4), dtype=complex)
    rows = max(1, ASSEMBLY_CHUNK_BYTES // (16 * len(grid_t[0])))
    for start in range(0, len(quadrant_r), rows):
        chunk = (quadrant_r[start : start + rows], weight_r)
        couplings = coupling_matrix(grid_t, chunk, scenario.kappa, scenario.distance)
        turns = np.fft.fft(couplings.reshape(len(chunk[0]), 4, -1), axis=1)
        blocks[:, start : start + rows] = turns.transpose(1, 0, 2)
    values = np.concatenate([svd_spectrum(block) for block in blocks])
    return np.sort(values)[::-1]
