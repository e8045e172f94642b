"""Optimum communication modes of the two-disk link.

The continuous coupling operator between the transmit and receive apertures
is discretized on regular lattices over both disks; the singular values of
the weighted Green matrix approximate the coupling strengths of the optimum
communication modes, and counting the values above a threshold relative to
the strongest one gives the number of usable spatial channels.

Both lattices map onto themselves under the quarter turn (x, y) -> (-y, x)
and the mirror (x, y) -> (y, x), which together form the dihedral group D4,
and the Green kernel is unchanged when both disks turn or mirror together.
The weighted Green matrix is therefore block circulant over the four
rotation copies of the first-quadrant sites; a 4-point DFT over the
rotation index splits it into four blocks B_0..B_3.  The mirror maps B_1
onto B_3 and each of B_0 and B_2 onto itself, so :func:`svd_mode_spectrum`
takes B_1's singular values twice and splits B_0 and B_2 into their
mirror-even and mirror-odd parts; the union is the full matrix's spectrum.
It builds all of them from the receive rows of one site per mirror orbit,
about an eighth of the full matrix's entries.

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
#: Budget for the coupling blocks, checked against the conservative bound of
#: four blocks, 16 N_t N_r / 4 bytes, though B_1 and the mirror parts of B_0
#: and B_2, about two blocks, are held; their assembly adds one receive-row
#: chunk of :data:`ASSEMBLY_CHUNK_BYTES`, and B_1's SVD its own copy of B_1.
_MATRIX_BUDGET_BYTES = 2 * 1024**3
#: Bytes of the complex quadrant-coupling rows that :func:`svd_mode_spectrum`
#: assembles and transforms at a time (at least one row); bounds the
#: assembly's working memory beside the blocks at any lattice size.
#: ``coupling_matrix``'s temporaries are about four times a chunk.
ASSEMBLY_CHUNK_BYTES = 512 * 1024


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
    # largest array is the complex (N_r/4) x (N_t/4) coupling blocks,
    # assembled one receive-row chunk at a time.  B_1 and the mirror parts
    # of B_0 and B_2 are held, about two blocks; the rule bounds four, which
    # is conservative.
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
    the center); a site belongs to the grid when its center lies inside
    the disk.  Both coordinates come from one array, so the grid maps onto
    itself exactly under the quarter turn and under the mirror
    (x, y) -> (y, x): the symmetry group D4 of the square.  Use
    spacing = lambda/2 for the spatially Nyquist-sampled default.

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
    lattices, computed from the quarter-turn blocks and the mirror.  With
    C_a the coupling of the first-quadrant receive sites to the
    first-quadrant transmit sites rotated by a * 90 degrees, the full
    matrix is block circulant in the C_a, and its singular values are the
    union of those of B_m = sum_a C_a e^{-j 2 pi m a / 4}, m = 0..3.
    The mirror sigma: (x, y) -> (y, x) permutes the first-quadrant sites
    and turns a rotation by a into one by -a, so sigma C_a sigma = C_{-a}:
    B_3 is sigma B_1 sigma, with B_1's singular values, and B_0 and B_2
    are sigma-invariant.  Each of those two is the direct sum of its
    sigma-even and sigma-odd parts, in the basis of the diagonal sites
    (x = y) and the pairs (u +- sigma u)/sqrt(2).  The SVD work is one B_1
    and four parts of about half its size: 3/128 of the full lattice SVD.

    Only the receive rows that represent the mirror's orbits, the diagonal
    sites and each pair's u, reach ``coupling_matrix`` (about an eighth of
    the full matrix's entries), one chunk of :data:`ASSEMBLY_CHUNK_BYTES`
    at a time.  Each chunk's 4-point DFT gives four lines of rows u.
    Lines 0 and 2 go straight into the even and odd parts of B_0 and B_2,
    which need only those rows.  Line 1 fills B_1's rows u, and line 3
    its rows sigma u, since B_1[sigma u, w] = B_3[u, sigma w] by the
    mirror relation.  So B_1 and the four parts are held, about half the
    four blocks' size, and neither B_0, B_2 nor B_3 is ever built.  The
    parts' SVDs come first and the parts are freed before B_1's SVD,
    which adds the SVD's own copy of B_1.

    The parts lose no value.  At one pitch the smaller disk's first-quadrant
    sites are a subset of the larger's, so its counts of diagonal sites and
    of pairs are both at most the larger's.  The even part of a block has
    min(d_r + p_r, d_t + p_t) singular values and the odd part
    min(p_r, p_t), for d diagonal sites and p pairs on each side, and these
    add to min(n_r, n_t) = min(d_r + 2 p_r, d_t + 2 p_t): the spectrum has
    min(N_r, N_t) values, as the full matrix does.  A quadrant that holds
    only diagonal sites gives an empty odd part, which is skipped.

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
    turn, parts = _mirror_blocks(scenario, spacing)
    values = [svd_spectrum(part) for part in parts if part.size]
    del parts
    turn_values = svd_spectrum(turn)
    return np.sort(np.concatenate(values + [turn_values, turn_values]))[::-1]


def _mirror_blocks(scenario: Scenario, spacing: float):
    """(B_1, [even, odd part of B_0, even, odd part of B_2]) of the lattice
    link at ``spacing``, assembled from the receive rows that represent
    the mirror's orbits as :func:`svd_mode_spectrum` describes."""
    grid_t = disk_grid(scenario.radius_tx, spacing)
    sites_r, weight_r = disk_grid(scenario.radius_rx, spacing)
    quadrant_t = grid_t[0][: len(grid_t[0]) // 4]
    quadrant_r = sites_r[: len(sites_r) // 4]
    (diag_r, pair_r, image_r), orbits_t = _mirror_orbits(quadrant_r), _mirror_orbits(quadrant_t)
    diag_t, pair_t, image_t = orbits_t
    rows_r = np.concatenate([diag_r, pair_r])
    turn = np.empty((len(quadrant_r), len(quadrant_t)), dtype=complex)
    even = np.empty((2, len(rows_r), len(diag_t) + len(pair_t)), dtype=complex)
    odd = np.empty((2, len(pair_r), len(pair_t)), dtype=complex)
    rows = max(1, ASSEMBLY_CHUNK_BYTES // (16 * len(grid_t[0])))
    d = len(diag_r)
    for start in range(0, len(rows_r), rows):
        stop = min(start + rows, len(rows_r))
        sites = rows_r[start:stop]
        chunk = (quadrant_r[sites], weight_r)
        couplings = coupling_matrix(grid_t, chunk, scenario.kappa, scenario.distance)
        lines = np.fft.fft(couplings.reshape(len(sites), 4, -1), axis=1)
        split = min(max(start, d), stop) - start  # the chunk's diagonal sites come first
        for k, m in enumerate((0, 2)):
            even[k, start:stop], odd[k, max(start, d) - d : max(stop, d) - d] = _mirror_parts(
                lines[:split, m], lines[split:, m], orbits_t
            )
        turn[sites] = lines[:, 1]
        turn[image_r[sites[split:]]] = lines[split:, 3][:, image_t]
    return turn, [even[0], odd[0], even[1], odd[1]]


def _mirror_orbits(quadrant: np.ndarray):
    """The orbits of the mirror (x, y) -> (y, x) on :func:`disk_grid`'s
    first-quadrant sites: (diagonal, pair, image) index arrays, the sites
    on x = y, the u < sigma(u) of each off-diagonal pair, and every
    site's image sigma(site).

    The sites are in row-major order, y before x.  Sorted x before y, they
    come out as the mirror images of that order, so the k-th sorted index
    is that of site k's image.  Both coordinates come from one array, so
    the mirror maps the sites onto each other exactly."""
    image = np.lexsort((quadrant[:, 1], quadrant[:, 0]))
    index = np.arange(len(quadrant))
    return index[image == index], index[image > index], image


def _mirror_parts(diag: np.ndarray, pair: np.ndarray, orbits_t):
    """Rows of the (even, odd) parts of a mirror-invariant block B, from
    B's rows at diagonal receive sites (``diag``) and at pairs' u
    (``pair``), with the transmit quadrant's :func:`_mirror_orbits`.

    In the orthonormal basis of the diagonal sites and the pair vectors
    (u +- sigma u)/sqrt(2) on both sides, a block with B[sigma i, sigma j]
    = B[i, j] is the direct sum of its even-even and odd-odd parts, so its
    singular values are the union of theirs.  The same invariance reduces
    each entry of a part to the rows of the diagonal sites and of each
    pair's u: the even part is [[B_dd, sqrt2 B_du], [sqrt2 B_ud,
    B_uu + B_u(sigma u)]] and the odd part B_uu - B_u(sigma u).  Each row
    of a part depends on its own row of B only, so the rows of the given
    sites come out: the even part's ``diag`` rows then its ``pair`` rows,
    and the odd part's ``pair`` rows."""
    diag_t, pair_t, image_t = orbits_t
    mirror_t = image_t[pair_t]
    root2 = np.sqrt(2)
    even = np.block(
        [
            [diag[:, diag_t], root2 * diag[:, pair_t]],
            [root2 * pair[:, diag_t], pair[:, pair_t] + pair[:, mirror_t]],
        ]
    )
    return even, pair[:, pair_t] - pair[:, mirror_t]
