"""Receiver chain: decision statistics, noise, BER sweeps.

The receive processing acts on the radial signal left after angular
demultiplexing, y_n(rho) = 2 pi x_n psi_n^rho(rho) + n_n(rho).  Noise is
synthesized directly on a radial slot grid with the per-slot variance law
sigma_i^2 = 2 pi N0 / (rho_i delta), which reproduces the variances of all
linear statistics of the underlying white 2-D field while giving the energy
detector a finite slot count M.  Three decision statistics are provided:

* MF: correlate against the mode's own radial profile.
* ID: integrate over a radial window after compensating the deterministic
  propagation phase, optionally closing the loop with a single-tap phase
  equalizer.
* ED: accumulate energy over the window and compare with a threshold
  (OOK signaling); the threshold can be optimized in closed form through
  the central/noncentral chi-square statistics of the slot model.

:data:`STRATEGIES` names the six receivers built from them.  Monte Carlo
sweeps are chunked and seeded per chunk, so results are reproducible for a
given master seed.  Both sweeps take (charge, strategy name) branches and
one smart-window drop level: :func:`ber_curves` over the link SNR,
:func:`tnr_curves` over the energy detector's threshold at a fixed SNR.
They share one receiver model, which holds the slot grid, E_s, the branch
templates and the noise per SNR, and one error-count loop.  The draw does
not depend on the branch, so each chunk is drawn once and every branch is
scored on it.
No branch signal is synthesized: every MF/ID statistic and ED's signal x
noise term are linear in the noise, so one projection of the chunk's noise
onto the stacked branch templates, plus one windowed noise energy per ED
window, gives every branch's statistic (Proakis & Salehi, Digital
Communications, 2008, ch. 4).

The (point, chunk) units run on the CPUs the process may use.  Each chunk
draws its bits, then the real parts of its whole noise, then the imaginary
parts block by block from the same stream, and scores each block of rows
as it is drawn (:meth:`NoiseModel.blocks`).  Every unit has its own seed
and only integer error counts are summed, so the results do not depend on
the CPU count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtr, chdtrc, chndtr, erfc

from .geometry import DEFAULT_WAVELENGTH, Scenario
from .numerics import _run_shares
from .oam import default_radial_grid, field_energies, radial_fields

#: Default radial slot width for noise synthesis, as a wavelength fraction.
SLOT_WAVELENGTH_FRACTION = 0.25
#: Trials per Monte Carlo chunk; fixed so runs are seed-reproducible.
CHUNK_TRIALS = 25000
#: Trial rows per block when a chunk's imaginary parts are drawn and its
#: statistics scored; bounds the scoring's working memory at any chunk size.
NOISE_ROW_BLOCK = 2048
#: Upper bound on one chunk's real-part plane, CHUNK_TRIALS x M floats.
_CHUNK_BUDGET_BYTES = 2 * 1024**3
#: Fewest Monte Carlo trials per point that a sweep accepts.
MIN_TRIALS = 10000
#: Most Monte Carlo trials per point that a sweep accepts: 40,000 chunks.
MAX_TRIALS = 10**9
#: OOK "one" amplitude; average symbol energy then matches unit-amplitude BPSK.
OOK_ONE_AMPLITUDE = math.sqrt(2.0)
#: Golden-section steps of :func:`optimize_threshold`.
THRESHOLD_ITERATIONS = 80
#: Default smart-window drop level below the intensity peak, in dB.
DEFAULT_DROP_DB = 10.0
#: Default multiplexed charge set for link-level SNR bookkeeping.
DEFAULT_MODE_SET = (0, 1, 2, 3, 4)

#: Receiver name -> (statistic, smart window, phase equalizer).  ED uses OOK,
#: MF and ID use BPSK.  A smart window is the radial interval within the
#: sweep's drop level of the mode's intensity peak, else the full aperture.
STRATEGIES = {
    "mf": ("mf", False, False),
    "id": ("id", False, True),
    "id_noeq": ("id", False, False),
    "id_smart": ("id", True, True),
    "ed_full": ("ed", False, False),
    "ed_smart": ("ed", True, False),
}


def slot_grid(radius: float, slot: float | None = None, wavelength: float = DEFAULT_WAVELENGTH):
    """Radial slot midpoints tiling [0, radius].

    The requested slot width (default lambda/4) is rounded so an integer
    number of slots covers the radius exactly; midpoints start at delta/2.
    The slot rules live here alone: a positive width at most the radius, and
    one chunk's CHUNK_TRIALS x M real noise parts within the 2 GiB budget.

    Returns:
        (radii, delta) with radii of shape (M,).
    """
    if slot is None:
        slot = SLOT_WAVELENGTH_FRACTION * wavelength
    if not slot > 0:
        raise ValueError("slot width must be positive")
    if slot > radius:
        raise ValueError("slot must be at most the receive radius R")
    count = math.ceil(radius / slot)
    max_slots = _CHUNK_BUDGET_BYTES // (CHUNK_TRIALS * 8)
    if count > max_slots:
        raise ValueError(
            f"one Monte Carlo chunk would need {CHUNK_TRIALS * count * 8 / 1024**3:.1f} GiB "
            f"of noise for {count} slots; at most {max_slots} slots fit in the "
            f"{_CHUNK_BUDGET_BYTES / 1024**3:g} GiB chunk budget, so widen the slot"
        )
    delta = radius / count
    radii = (np.arange(count) + 0.5) * delta
    return radii, delta


def check_strategies(names) -> None:
    """Raise ValueError naming every entry of ``names`` that is not a key of
    :data:`STRATEGIES`."""
    unknown = [name for name in names if name not in STRATEGIES]
    if unknown:
        raise ValueError(f"unknown strategies {unknown}; expected names from {sorted(STRATEGIES)}")


def check_trials(trials: int) -> None:
    """Raise ValueError unless a sweep takes ``trials`` Monte Carlo trials
    per point: from MIN_TRIALS to MAX_TRIALS."""
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be at least {MIN_TRIALS}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}")


@dataclass(frozen=True)
class NoiseModel:
    """Post-demultiplexing noise on a radial slot grid.

    Each slot carries circular complex noise with variance
    2 pi N0 / (rho_i delta); the slot-weighted energy sum then has mean
    2 pi N0 per slot regardless of the slot layout.
    """

    n0: float
    radii: np.ndarray
    delta: float

    def __post_init__(self) -> None:
        if not self.n0 > 0:
            raise ValueError("noise spectral density must be positive")
        r = np.asarray(self.radii, dtype=float)
        if r.ndim != 1 or len(r) == 0 or not r[0] > 0 or not np.all(np.diff(r) > 0):
            raise ValueError("slot radii must be positive and strictly increasing")
        if not self.delta > 0:
            raise ValueError("slot width must be positive")
        object.__setattr__(self, "radii", r)

    @property
    def n_slots(self) -> int:
        return len(self.radii)

    def variances(self) -> np.ndarray:
        """Per-slot complex noise variance 2 pi N0 / (rho_i delta)."""
        return 2 * np.pi * self.n0 / (self.radii * self.delta)

    def blocks(self, rng: np.random.Generator, count: int, rows: int = NOISE_ROW_BLOCK):
        """Draw (count, M) circular complex noise samples, ``rows`` at a time.

        The real parts of all ``count`` samples are drawn first, then the
        imaginary parts block by block from the same stream; each part is
        scaled in place.  Each block is yielded in the interleaved (re, im)
        float layout, shape (rows, 2M): the float view of the complex
        samples.  The blocks concatenated are the same bits for any
        ``rows``, and only one block of imaginary parts is held at a time.
        """
        if count < 1 or rows < 1:
            raise ValueError("sample and block counts must be positive")
        scale = np.sqrt(self.variances() / 2)
        real = rng.standard_normal((count, self.n_slots))
        real *= scale
        for start in range(0, count, rows):
            part = real[start : start + rows]
            imag = rng.standard_normal(part.shape)
            imag *= scale
            block = np.empty((len(part), 2 * self.n_slots))
            block[:, 0::2] = part
            block[:, 1::2] = imag
            yield block

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw (count, M) circular complex noise samples: the one-block
        case of :meth:`blocks`."""
        (block,) = self.blocks(rng, count, rows=count)
        return block.view(complex)


@dataclass(frozen=True)
class BerCurve:
    """BER estimates over an SNR or TNR axis with binomial error bars."""

    axis_db: np.ndarray
    ber: np.ndarray
    trials: np.ndarray
    ci95: np.ndarray

    def __post_init__(self) -> None:
        axis = np.asarray(self.axis_db, dtype=float)
        ber = np.asarray(self.ber, dtype=float)
        trials = np.asarray(self.trials, dtype=int)
        ci95 = np.asarray(self.ci95, dtype=float)
        if not (axis.shape == ber.shape == trials.shape == ci95.shape) or axis.ndim != 1:
            raise ValueError("curve fields must be matching 1-D arrays")
        if np.any(ber < 0) or np.any(ber > 1):
            raise ValueError("BER estimates must lie in [0, 1]")
        if np.any(trials < 1):
            raise ValueError("trial counts must be positive")
        expected = 1.96 * np.sqrt(ber * (1 - ber) / trials)
        if not np.allclose(ci95, expected, atol=1e-12):
            raise ValueError("confidence half-widths inconsistent with trial counts")
        object.__setattr__(self, "axis_db", axis)
        object.__setattr__(self, "ber", ber)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "ci95", ci95)

    @classmethod
    def from_counts(cls, axis_db, errors, trials) -> "BerCurve":
        errors = np.asarray(errors, dtype=float)
        trials = np.asarray(trials, dtype=int)
        if np.any(errors < 0) or np.any(errors > trials):
            raise ValueError("error counts must lie in [0, trials]")
        ber = errors / trials
        ci95 = 1.96 * np.sqrt(ber * (1 - ber) / trials)
        return cls(axis_db=np.asarray(axis_db, float), ber=ber, trials=trials, ci95=ci95)


def smart_window(radii: np.ndarray, field: np.ndarray, drop_db: float = DEFAULT_DROP_DB):
    """Radial interval around a sampled field's intensity peak.

    Returns the smallest contiguous interval that contains the peak of
    |psi^rho| and on which the magnitude stays within ``drop_db`` of the
    peak.

    Args:
        radii: ascending radial grid of the samples.
        field: radial field samples on ``radii``.
        drop_db: window edge level below the peak, in dB (> 0).

    Returns:
        (rho_lo, rho_hi) in meters.
    """
    if not drop_db > 0:
        raise ValueError("drop level must be positive dB")
    radii = np.asarray(radii, dtype=float)
    magnitude = np.abs(np.asarray(field))
    if magnitude.shape != radii.shape:
        raise ValueError("field and grid lengths must match")
    peak = magnitude.max()
    if peak == 0:
        raise ValueError("degenerate field: flat zero profile has no window")
    above = magnitude >= peak * 10 ** (-drop_db / 20)
    index = int(magnitude.argmax())
    lo = index
    while lo > 0 and above[lo - 1]:
        lo -= 1
    hi = index
    while hi < len(above) - 1 and above[hi + 1]:
        hi += 1
    return float(radii[lo]), float(radii[hi])


def interval_mask(interval, radii: np.ndarray) -> np.ndarray:
    """Boolean mask of grid points inside a closed radial interval."""
    lo, hi = interval
    radii = np.asarray(radii, dtype=float)
    return (radii >= lo) & (radii <= hi)


def gaussian_ber(gain: float, variance: float) -> float:
    """BPSK error probability of a real sign decision.

    Args:
        gain: noiseless statistic magnitude for a unit symbol.
        variance: total complex noise variance of the statistic (the real
            decision axis carries half of it).

    Returns:
        Q(gain / sqrt(variance/2)).
    """
    if not variance > 0:
        raise ValueError("variance must be positive")
    return 0.5 * erfc(gain / math.sqrt(variance))


def ed_ber(threshold: float, n0: float, n_slots: int, window_energy: float) -> float:
    """Closed-form OOK error probability of the windowed energy detector.

    Over a window of M slots the normalized statistic Y/(pi N0) is central
    chi-square with 2M degrees of freedom for a "0" and noncentral with
    parameter 4 pi a^2 E_w / N0 for a "1", where a is
    :data:`OOK_ONE_AMPLITUDE` and E_w the window's radial template energy
    int_w |psi|^2 rho d rho.  The two tail probabilities come from
    ``scipy.special`` directly; they are the values that ``scipy.stats``
    ``chi2.sf`` and ``ncx2.cdf`` return, bit for bit.

    Args:
        threshold: decision level in the statistic's energy units.
        n0: noise spectral density.
        n_slots: slot count M of the window.
        window_energy: E_w, radial template energy over the window.
    """
    if not threshold >= 0:
        raise ValueError("threshold must be non-negative")
    dof = 2 * n_slots
    nc = 4 * np.pi * OOK_ONE_AMPLITUDE**2 * window_energy / n0
    normalized = threshold / (np.pi * n0)
    one_missed = chdtr(dof, normalized) if nc == 0 else chndtr(normalized, dof, nc)
    return 0.5 * (chdtrc(dof, normalized) + one_missed)


def optimize_threshold(n0: float, n_slots: int, window_energy: float):
    """Golden-section minimizer of the closed-form energy-detector BER.

    The error probability is unimodal in the threshold (monotone likelihood
    ratio of the two chi-square hypotheses), so :data:`THRESHOLD_ITERATIONS`
    golden-section steps over [0, 4 x mean received symbol-plus-noise
    energy] converge to the global optimum.

    Returns:
        (threshold, ber) at the optimum.
    """
    signal = 0.5 * (2 * np.pi * OOK_ONE_AMPLITUDE) ** 2 * window_energy
    mean_energy = 2 * np.pi * n0 * n_slots + signal
    lo, hi = 0.0, 4 * mean_energy
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = ed_ber(c, n0, n_slots, window_energy)
    fd = ed_ber(d, n0, n_slots, window_energy)
    for _ in range(THRESHOLD_ITERATIONS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = ed_ber(c, n0, n_slots, window_energy)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = ed_ber(d, n0, n_slots, window_energy)
    zeta = (a + b) / 2
    return zeta, ed_ber(zeta, n0, n_slots, window_energy)


def link_symbol_energy(
    scenario: Scenario,
    focused: bool,
    mode_set=DEFAULT_MODE_SET,
) -> float:
    """Total received symbol energy E_s of the multiplexed charge set.

    Each charge carries a unit-energy transmit profile (equal power
    allocation), so E_s is the sum of the per-mode received energies.  The
    link SNR is E_s/N0.
    """
    return _symbol_energy_and_fields(scenario, focused, mode_set)[0]


def _symbol_energy_and_fields(scenario: Scenario, focused: bool, mode_set):
    """E_s, and the default-grid field of each charge of ``mode_set`` by
    charge, from one radial pass."""
    grid = default_radial_grid(scenario)
    (fields,) = radial_fields(scenario, mode_set, (focused,), grid)
    # Running sum in mode order, as in path_gains.
    symbol_energy = float(np.cumsum(field_energies(fields, grid))[-1])
    return symbol_energy, dict(zip((int(m) for m in mode_set), fields))


class _Scorer:
    """The receiver model of one sweep: slot grid, E_s, and every branch's
    real decision statistic from one projection of the noise.

    Checks that there is a branch, the strategy names, the drop level, that
    every branch charge belongs to ``mode_set`` and the slot grid's rules,
    before any radial pass.  One radial pass on the default grid then gives
    E_s of ``mode_set`` and the fields that the smart windows read; a second
    gives the slot-grid templates of all distinct branch charges.

    For y = 2 pi s psi + n, a branch's statistic is its response to the
    noiseless symbol plus the projection n @ template:

    * MF: template conj(psi) rho delta; the statistic is s gain + n @ template.
    * ID: template mask conj(c) rho delta, times the equalizer phase
      conj(g)/|g| when the strategy equalizes; the statistic is as for MF.
    * ED: template mask conj(psi) rho delta, the cross term of
      |2 pi s psi + n|^2; the statistic is a^2 E_w + 2 a Re(n @ template)
      + sum_w |n|^2 rho delta with a = 2 pi s.

    ``radii`` and ``delta`` are the slot grid, ``symbol_energy`` is E_s.
    ``gains`` are the coherent branches' responses to a unit symbol after
    equalization, ``window_energies`` and ``slot_counts`` the E_w and M of
    the ED windows.  On the interleaved (re, im) float view v of the noise,
    Re(n @ t) is v @ [Re t, -Im t], the float view of conj(t), so the
    templates of all branches stack into one real (branches x 2M) matrix;
    ED's noise energy is v^2 @ [w, w] for each distinct window w.  The
    products run through ``np.einsum`` on contiguous rows, which keeps them
    single-threaded whatever the BLAS thread count.
    """

    def __init__(self, scenario: Scenario, branches, focused: bool, mode_set, slot, drop_db):
        if not branches:
            raise ValueError("a sweep needs at least one branch")
        check_strategies([name for _, name in branches])
        if not drop_db > 0:
            raise ValueError("window drop level must be positive dB")
        members = {int(m) for m in mode_set}
        if any(int(charge) not in members for charge, _ in branches):
            raise ValueError("branch charge must belong to the multiplexed set")
        radii, delta = slot_grid(scenario.radius_rx, slot, scenario.wavelength)
        self.radii, self.delta = radii, delta
        self.symbol_energy, fields = _symbol_energy_and_fields(scenario, focused, mode_set)
        kappa, z = scenario.kappa, scenario.distance
        compensation = np.exp(-1j * kappa * radii**2 / (2 * z)) * np.exp(-1j * kappa * z)
        charges = list(dict.fromkeys(int(charge) for charge, _ in branches))
        (on_slots,) = radial_fields(scenario, charges, (focused,), radii)
        psis = dict(zip(charges, on_slots))
        grid = default_radial_grid(scenario)
        weights = radii * delta
        templates, gains, energies, ed_masks = [], [], [], []
        for charge, name in branches:
            statistic, smart, equalize = STRATEGIES[name]
            psi = psis[int(charge)]
            mask = np.ones(len(radii), dtype=bool)
            if smart:
                lo, hi = smart_window(grid, fields[int(charge)], drop_db)
                mask = interval_mask((lo, hi), radii)
                if not mask.any():  # narrower than the slot grid: its slot nearest the center
                    mask[np.abs(radii - (lo + hi) / 2).argmin()] = True
            reference = compensation if statistic == "id" else psi
            template = np.where(mask, np.conj(reference) * weights, 0)
            if statistic == "mf":
                gains.append(2 * np.pi * (psi * np.conj(psi) * radii * delta).sum())
            elif statistic == "id":
                kernel = radii[mask] * delta * np.conj(compensation[mask])
                gain = 2 * np.pi * (psi[mask] * kernel).sum()
                if equalize:
                    if gain == 0:
                        raise ValueError("degenerate window: zero integrated profile")
                    phase = np.conj(gain) / abs(gain)
                    gain, template = gain * phase, template * phase
                gains.append(gain)
            else:
                ed_masks.append(mask)
                energies.append((np.abs(psi[mask]) ** 2 * radii[mask] * delta).sum())
            templates.append(template)
        self.rows = np.conj(np.stack(templates)).view(float)
        is_ed = np.array([STRATEGIES[name][0] == "ed" for _, name in branches])
        self.coherent, self.ed = np.flatnonzero(~is_ed), np.flatnonzero(is_ed)
        self.gains = np.array(gains, dtype=complex).real
        self.window_energies = np.array(energies, dtype=float)
        self.slot_counts = [int(mask.sum()) for mask in ed_masks]
        masks = np.array(ed_masks).reshape(len(self.ed), len(radii))
        windows, self.window_of = np.unique(masks, axis=0, return_inverse=True)
        self.windows = np.repeat(windows * weights, 2, axis=1)

    def noise(self, snr_db: float) -> NoiseModel:
        """The slot-grid noise at link SNR ``snr_db``: N0 = E_s / 10^(snr_db/10)."""
        n0 = self.symbol_energy / 10 ** (snr_db / 10)
        return NoiseModel(n0=n0, radii=self.radii, delta=self.delta)

    def thresholds(self, n0: float) -> np.ndarray:
        """Level each branch's statistic must reach to decide "1" at noise
        level n0: 0 for the coherent branches, the closed-form optimum for
        the energy detectors."""
        zetas = np.zeros(len(self.rows))
        for b, slots, energy in zip(self.ed, self.slot_counts, self.window_energies):
            zetas[b], _ = optimize_threshold(n0, slots, energy)
        return zetas

    def statistics(self, bits: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(count, branches) statistics of one draw.

        ``v`` is the (count, 2M) interleaved float view of the noise, as
        :meth:`NoiseModel.blocks` yields it.  Each row's statistics depend
        on that row alone, bitwise, so a chunk may be scored in blocks of
        rows.  A branch decides "1" where its statistic reaches its
        :meth:`thresholds`.
        """
        stats = np.einsum("nk,bk->nb", v, self.rows)
        if self.coherent.size:
            stats[:, self.coherent] += np.outer(2.0 * bits - 1.0, self.gains)
        if self.ed.size:
            energy = np.einsum("nk,wk->nw", np.square(v), self.windows)
            a = (2 * np.pi * OOK_ONE_AMPLITUDE * bits)[:, None]
            signal = a * (a * self.window_energies + 2 * stats[:, self.ed])
            stats[:, self.ed] = signal + energy[:, self.window_of]
        return stats


def _db_axis(values, name: str) -> np.ndarray:
    """``values`` as a 1-D float array; raises unless every entry is finite."""
    axis = np.atleast_1d(np.asarray(values, dtype=float))
    if not np.all(np.isfinite(axis)):
        raise ValueError(f"{name} must be finite, got {axis.tolist()}")
    return axis


def _chunk_sizes(trials: int) -> list[int]:
    """Trials of each Monte Carlo chunk of a point: CHUNK_TRIALS each, then
    the rest.  Raises unless :func:`check_trials` takes ``trials``."""
    check_trials(trials)
    full, rest = divmod(trials, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rest] if rest else [])


def _count_errors(scorer: _Scorer, models, point_seeds, sizes, thresholds) -> list:
    """Per point, the (branches, levels) bit error counts over chunks of
    ``sizes`` symbols (:func:`_chunk_sizes`).

    Point k draws with ``models[k]`` and decides at ``thresholds[k]``, which
    broadcasts to (branches, levels): a branch decides "1" at a level where
    its statistic reaches it.  Its chunk c is seeded by child c of
    ``point_seeds[k]``.  The (point, chunk) units run on the process's CPUs
    (largest chunks first, so the shares stay even) and each writes only its
    own counts, so the sums do not depend on the CPU count.
    """
    chunk_seeds = [point_seed.spawn(len(sizes)) for point_seed in point_seeds]
    units = [(k, c) for c in range(len(sizes)) for k in range(len(models))]
    counts = [None] * len(units)

    def work(share):
        for unit in share:
            k, c = units[unit]
            rng = np.random.default_rng(chunk_seeds[k][c])
            bits = rng.integers(0, 2, sizes[c])
            errors, start = 0, 0
            for block in models[k].blocks(rng, sizes[c]):
                rows = bits[start : start + len(block)]
                start += len(block)
                decided = scorer.statistics(rows, block)[:, :, None] >= thresholds[k]
                errors = errors + np.count_nonzero(decided != (rows == 1)[:, None, None], axis=0)
            counts[unit] = errors

    # numpy's draws and einsum release the GIL.
    _run_shares(work, len(units))
    return [sum(counts[k :: len(models)]) for k in range(len(models))]


def ber_curves(
    scenario: Scenario,
    branches,
    snr_db_list,
    trials: int,
    seed: int = 0,
    focused: bool = True,
    mode_set=DEFAULT_MODE_SET,
    slot: float | None = None,
    drop_db: float = DEFAULT_DROP_DB,
) -> tuple[list[BerCurve], float]:
    """Monte Carlo BER of several demultiplexed branches over one SNR sweep.

    The SNR axis is the link-level E_s/N0 of the full multiplexed set with
    equal power allocation; each point sets N0 = E_s / snr.  Per trial a
    symbol is drawn, and each branch's statistic of the post-demultiplexing
    signal 2 pi x psi + noise on the slot grid decides; the statistics come
    from one projection of the noise (see :class:`_Scorer`), not from a
    synthesized signal per branch.  The energy detector decides at the
    closed-form optimum threshold of each point.

    The bits and the noise depend only on the seed, the SNR point and the
    chunk, so they are drawn once per (point, chunk) and every branch is
    scored on the same draw: the curves are paired samples, and each equals
    the curve of a one-branch run at the same seed.

    Args:
        scenario: link geometry.
        branches: (charge, strategy name) pairs, each name a key of
            :data:`STRATEGIES`; every charge must belong to ``mode_set``.
        snr_db_list: link SNR axis in dB.
        trials: Monte Carlo symbols per point, MIN_TRIALS to MAX_TRIALS.
        seed: master seed; point and chunk streams are spawned from it.
        focused: transmit focusing of the whole mode set.
        mode_set: multiplexed charges defining E_s.
        slot: radial slot width override (default lambda/4).
        drop_db: drop level of every smart window below its peak, in dB
            (> 0).

    Returns:
        (curves, symbol_energy): one BerCurve over the SNR axis per branch,
        in branch order, and the E_s that the axis refers to.
    """
    sizes = _chunk_sizes(trials)
    snr_db = _db_axis(snr_db_list, "SNR axis")
    scorer = _Scorer(scenario, branches, focused, mode_set, slot, drop_db)
    point_seeds = np.random.SeedSequence(seed).spawn(len(snr_db))
    models = [scorer.noise(snr) for snr in snr_db]
    zetas = [scorer.thresholds(model.n0)[:, None] for model in models]
    errors = np.array(_count_errors(scorer, models, point_seeds, sizes, zetas))[:, :, 0]
    counts = np.full(len(snr_db), trials)
    return [BerCurve.from_counts(snr_db, row, counts) for row in errors.T], scorer.symbol_energy


def tnr_curves(
    scenario: Scenario,
    branches,
    snr_db: float,
    tnr_db_list,
    trials: int,
    seed: int = 0,
    focused: bool = True,
    mode_set=DEFAULT_MODE_SET,
    slot: float | None = None,
    drop_db: float = DEFAULT_DROP_DB,
) -> list[BerCurve]:
    """Monte Carlo energy-detector BER of several branches over a TNR sweep.

    The link SNR is held fixed; the threshold is swept as
    zeta = N0 * 10^(TNR/10).  One draw per chunk serves every threshold and
    every branch, so the shape of a curve is not blurred by independent
    sampling noise, and each curve equals a one-branch run at the same seed.

    Args:
        branches: (charge, strategy name) pairs as for :func:`ber_curves`;
            every name must be an energy detector's ("ed_full" or
            "ed_smart").
        snr_db: fixed link SNR in dB.
        tnr_db_list: threshold-to-noise axis in dB.

    The other arguments are those of :func:`ber_curves`.

    Returns:
        One BerCurve over the TNR axis per branch, in branch order.
    """
    sizes = _chunk_sizes(trials)
    if any(STRATEGIES[name][0] != "ed" for _, name in branches if name in STRATEGIES):
        raise ValueError("a TNR sweep takes energy-detector branches only")
    _db_axis(snr_db, "SNR")
    tnr_db = _db_axis(tnr_db_list, "TNR axis")
    scorer = _Scorer(scenario, branches, focused, mode_set, slot, drop_db)
    model = scorer.noise(snr_db)
    thresholds = model.n0 * 10 ** (tnr_db / 10)
    seeds = [np.random.SeedSequence(seed)]
    (errors,) = _count_errors(scorer, [model], seeds, sizes, [thresholds])
    counts = np.full(len(tnr_db), trials)
    return [BerCurve.from_counts(tnr_db, row, counts) for row in errors]
