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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Scenario
from .numerics import svd_spectrum

#: Area-weight consistency bound for SurfaceGrid (fraction of pi R^2).
_AREA_TOLERANCE = 0.005
#: Pair-distance guard: the scalar Green function used here neglects the
#: reactive near-field terms, which is fine a few wavelengths out but not
#: at essentially zero separation.
_MIN_SEPARATION_WAVELENGTHS = 0.01
#: Upper bound on the coupling-block array assembled in one piece.
_MATRIX_BUDGET_BYTES = 2 * 1024**3


@dataclass(frozen=True)
class SurfaceGrid:
    """Discretization of one disk aperture.

    ``points`` holds the transverse (x, y) sample coordinates in meters,
    ``weights`` the per-sample area weights.  Weights are uniform and are
    normalized so that they sum exactly to the disk area pi R^2; this keeps
    the discrete operator's scale right regardless of how many lattice cells
    straddle the rim.
    """

    points: np.ndarray
    weights: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
            raise ValueError("points must be a non-empty (N, 2) array")
        if w.shape != (len(pts),):
            raise ValueError("weights must be one scalar per sample point")
        radii = np.hypot(pts[:, 0], pts[:, 1])
        if np.any(radii > self.radius * (1 + 1e-12)):
            raise ValueError("grid contains points outside the disk")
        area = np.pi * self.radius**2
        if abs(w.sum() - area) > _AREA_TOLERANCE * area:
            raise ValueError("area weights do not sum to the disk area")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.points)


def disk_grid(radius: float, spacing: float) -> SurfaceGrid:
    """Square lattice clipped to a disk.

    Lattice sites sit at half-integer multiples of ``spacing`` (no site at
    the center, fourfold symmetry); a site belongs to the grid when its
    center lies inside the disk.  Use spacing = lambda/2 for the spatially
    Nyquist-sampled default.

    Args:
        radius: disk radius in meters.
        spacing: lattice pitch in meters.

    Returns:
        SurfaceGrid with uniform weights summing to pi * radius^2.
    """
    if radius <= 0 or spacing <= 0:
        raise ValueError("radius and spacing must be positive")
    n = int(np.floor(radius / spacing)) + 1
    coords = (np.arange(-n, n + 1) + 0.5) * spacing
    xx, yy = np.meshgrid(coords, coords)
    inside = xx**2 + yy**2 <= radius**2
    pts = np.column_stack([xx[inside], yy[inside]])
    if len(pts) == 0:
        raise ValueError("spacing too coarse: no lattice site falls inside the disk")
    weights = np.full(len(pts), np.pi * radius**2 / len(pts))
    return SurfaceGrid(points=pts, weights=weights, radius=radius)


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


def coupling_matrix(
    grid_t: SurfaceGrid,
    grid_r: SurfaceGrid,
    kappa: float,
    separation: float,
) -> np.ndarray:
    """Weighted Green coupling matrix between two discretized disks.

    Entry (i, j) couples transmit sample j to receive sample i:
    G(r_i, s_j) * sqrt(w_i w_j).  The symmetric square-root weighting makes
    the singular values of the matrix approximate those of the continuous
    operator.

    Args:
        grid_t: transmit-disk grid.
        grid_r: receive-disk grid.
        kappa: wavenumber in rad/m.
        separation: axial distance between the disk planes in meters.

    Returns:
        Complex matrix of shape (len(grid_r), len(grid_t)).
    """
    g = _green_matrix(grid_r.points, grid_t.points, kappa, separation)
    return g * np.sqrt(grid_r.weights[:, None] * grid_t.weights[None, :])


def _green_matrix(points_r, points_t, kappa: float, separation: float) -> np.ndarray:
    """Unweighted Green function between two transverse point sets."""
    if separation <= 0:
        raise ValueError("separation must be positive")
    wavelength = 2 * np.pi / kappa
    if separation < _MIN_SEPARATION_WAVELENGTHS * wavelength:
        raise ValueError(
            "grids closer than lambda/100: scalar Green kernel not applicable"
        )
    dx = points_r[:, 0][:, None] - points_t[:, 0][None, :]
    dy = points_r[:, 1][:, None] - points_t[:, 1][None, :]
    dist = np.sqrt(dx**2 + dy**2 + separation**2)
    return np.exp(-1j * kappa * dist) / (4 * np.pi * dist)


def _quarter_turn_orbits(grid: SurfaceGrid) -> np.ndarray:
    """Open-first-quadrant sites of a grid and their quarter-turn copies.

    Args:
        grid: a grid that maps onto itself under (x, y) -> (-y, x) and has
            no site on either axis, such as any :func:`disk_grid`.

    Returns:
        Array of shape (4, len(grid) // 4, 2) whose slice a holds the
        first-quadrant sites rotated counterclockwise by a * 90 degrees.

    Raises:
        ValueError: if the rotated copies are not exactly the grid's sites.
    """
    points = grid.points
    x, y = points[(points[:, 0] > 0) & (points[:, 1] > 0)].T
    orbits = np.stack(
        [np.column_stack(turn) for turn in ((x, y), (-y, x), (-x, -y), (y, -x))]
    )
    if 4 * len(x) != len(points) or not np.array_equal(
        _lexsorted(orbits.reshape(-1, 2)), _lexsorted(points)
    ):
        raise ValueError("grid is not closed under the quarter-turn rotation")
    return orbits


def _lexsorted(points: np.ndarray) -> np.ndarray:
    return points[np.lexsort((points[:, 1], points[:, 0]))]


@dataclass(frozen=True)
class ModeSpectrum:
    """Ordered coupling intensities with a dB scale tag.

    ``scale`` records whether entries are amplitude-like (singular values,
    dB via 20 log10) or energy-like (mode energies, dB via 10 log10), so a
    threshold in dB means the same physical thing for both.  ``reference``
    is the normalization value and always equals the first (largest) entry.
    """

    values: np.ndarray
    scale: str

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("spectrum must be a non-empty 1-D array")
        if np.any(v < 0):
            raise ValueError("spectrum entries must be non-negative")
        if np.any(np.diff(v) > 0):
            raise ValueError("spectrum entries must be sorted descending")
        if self.scale not in ("amplitude", "energy"):
            raise ValueError(f"unknown spectrum scale {self.scale!r}")
        object.__setattr__(self, "values", v)

    @property
    def reference(self) -> float:
        return float(self.values[0])

    def db(self, reference: float | None = None) -> np.ndarray:
        """Energy-scale dB values relative to ``reference`` (default: own peak)."""
        ref = self.reference if reference is None else float(reference)
        factor = 20.0 if self.scale == "amplitude" else 10.0
        with np.errstate(divide="ignore"):
            return factor * np.log10(self.values / ref)


def count_modes(
    spectrum: ModeSpectrum,
    threshold_db: float,
    reference: float | None = None,
) -> int:
    """Number of spectrum entries within ``threshold_db`` of the reference.

    Args:
        spectrum: ordered coupling intensities.
        threshold_db: non-positive threshold; -5 dB counts entries whose
            energy is at least 10^-0.5 of the reference.
        reference: optional override in the spectrum's own linear scale.
            By default the spectrum's first entry is used; pass the peak
            intensity of a *different* strategy to count all strategies
            against one common best-connected mode.

    Returns:
        Integer count.
    """
    if threshold_db > 0:
        raise ValueError("threshold_db must be <= 0")
    return int(np.sum(spectrum.db(reference) >= threshold_db))


def svd_mode_spectrum(scenario: Scenario, spacing: float | None = None) -> ModeSpectrum:
    """Amplitude-scale singular spectrum of the discretized link.

    Equal to the singular values of ``coupling_matrix`` on the two disk
    lattices, computed from the four quarter-turn blocks.  With C_a the
    coupling of the first-quadrant receive sites to the first-quadrant
    transmit sites rotated by a * 90 degrees, the full matrix is block
    circulant in the C_a, and its singular values are the union of those
    of B_m = sum_a C_a e^{-j 2 pi m a / 4}, m = 0..3.  That is a quarter
    of the matrix entries and a sixteenth of the SVD work.

    Args:
        scenario: link geometry.
        spacing: lattice pitch in meters; defaults to lambda/2.

    Returns:
        ModeSpectrum of singular values.

    Raises:
        MemoryError: if the (N_r/4) x N_t coupling array would exceed
            the assembly budget.
    """
    if spacing is None:
        spacing = scenario.wavelength / 2
    _check_matrix_budget(scenario, spacing)
    grid_t = disk_grid(scenario.radius_tx, spacing)
    grid_r = disk_grid(scenario.radius_rx, spacing)
    sites_r = _quarter_turn_orbits(grid_r)[0]
    sites_t = _quarter_turn_orbits(grid_t)
    # Both lattices carry uniform weights.
    weight = np.sqrt(grid_r.weights[0] * grid_t.weights[0])
    couplings = weight * _green_matrix(
        sites_r, sites_t.reshape(-1, 2), scenario.kappa, scenario.distance
    ).reshape(len(sites_r), 4, -1)
    blocks = np.fft.fft(couplings, axis=1)
    values = np.concatenate([svd_spectrum(blocks[:, m, :]) for m in range(4)])
    return ModeSpectrum(values=np.sort(values)[::-1], scale="amplitude")


def _check_matrix_budget(scenario: Scenario, spacing: float) -> None:
    # Site count of each disk lattice, conservatively by area; the largest
    # array is the complex (N_r/4) x N_t coupling of the receive quadrant.
    n_t = np.pi * scenario.radius_tx**2 / spacing**2
    n_r = np.pi * scenario.radius_rx**2 / spacing**2
    required = 16 * n_t * n_r / 4
    if required > _MATRIX_BUDGET_BYTES:
        factor = (required / _MATRIX_BUDGET_BYTES) ** 0.25
        suggestion = spacing * factor / scenario.wavelength
        raise MemoryError(
            f"coupling blocks would need {required / 1024**3:.1f} GiB; "
            f"increase the lattice pitch to at least {suggestion:.3g} wavelengths"
        )
