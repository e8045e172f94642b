"""Simulator for line-of-sight near-field links between two circular apertures.

The library models a link between a transmitting and a receiving large
intelligent surface (LIS), both circular disks facing each other on a common
axis.  It provides:

* the optimum communication modes of the link, obtained by discretizing both
  surfaces and taking the SVD of the scalar Green coupling matrix
  (:mod:`oamlis.modes`),
* synthesis and Fresnel-zone propagation of orbital-angular-momentum (OAM)
  beams with optional transmit focusing (:mod:`oamlis.oam`),
* matched-filter, integrate-and-dump and energy-detection receivers on the
  demultiplexed radial signal, with Monte Carlo BER evaluation
  (:mod:`oamlis.detect`),
* CSV experiment runners and a command line front end
  (:mod:`oamlis.experiments`, :mod:`oamlis.cli`).

The modules pass plain numpy arrays and signed topological charges between
each other: a spectrum is an array of singular values or energies, a mode is
its charge l, and :func:`~oamlis.oam.standard_charges` fixes the order
0, +1, -1, +2, ... wherever a mode count is turned into charges.

All simulator quantities are expressed in SI units internally; configuration
uses radii and distances normalized by the wavelength because every quantity
of interest (mode counts, energy ratios, BER) depends only on those ratios.
"""

from .geometry import Scenario, analytic_dof
from .modes import disk_grid, coupling_matrix, count_modes, svd_mode_spectrum
from .numerics import bessel_j, svd_spectrum
from .oam import (
    field_energies,
    mode_energies,
    path_gains,
    radial_fields,
    standard_charges,
    tx_radial,
)
from .detect import BerCurve, NoiseModel, ber_curves, smart_window, tnr_curves
from .experiments import ExperimentConfig, default_config, parse_config, serialize_config, run

__version__ = "0.1.0"

__all__ = [
    "Scenario",
    "analytic_dof",
    "disk_grid",
    "coupling_matrix",
    "count_modes",
    "svd_mode_spectrum",
    "bessel_j",
    "svd_spectrum",
    "field_energies",
    "mode_energies",
    "path_gains",
    "radial_fields",
    "standard_charges",
    "tx_radial",
    "BerCurve",
    "NoiseModel",
    "ber_curves",
    "smart_window",
    "tnr_curves",
    "ExperimentConfig",
    "default_config",
    "parse_config",
    "serialize_config",
    "run",
    "__version__",
]
