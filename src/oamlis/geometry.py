"""Link geometry: scenario container and closed-form geometric quantities."""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

#: Default carrier wavelength in meters (3 GHz).
DEFAULT_WAVELENGTH = 0.1


@dataclass(frozen=True)
class Scenario:
    """Geometry of one transmit/receive disk pair.

    Two parallel coaxial disks: the transmitter of radius ``radius_tx`` and
    the receiver of radius ``radius_rx``, separated by ``distance`` along
    the propagation axis.  All lengths in meters.  The normalized values
    T = R_T/lambda, R = R_R/lambda, D = z/lambda are what configs and all
    experiment parameters use, since the physics depends on lengths only
    through these ratios.
    """

    wavelength: float = DEFAULT_WAVELENGTH
    radius_tx: float = 10 * DEFAULT_WAVELENGTH
    radius_rx: float = 10 * DEFAULT_WAVELENGTH
    distance: float = 50 * DEFAULT_WAVELENGTH

    def __post_init__(self) -> None:
        for name in ("wavelength", "radius_tx", "radius_rx", "distance"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.distance < max(self.radius_tx, self.radius_rx):
            # Name the line that built the scenario: the first frame past this
            # method, the dataclass-made __init__ and any constructor here.
            level, frame = 3, sys._getframe(2)
            while frame.f_code.co_filename == __file__ and frame.f_back is not None:
                level, frame = level + 1, frame.f_back
            warnings.warn(
                "link distance is smaller than the largest disk radius; "
                "the paraxial mode-count formula and the quadratic phase "
                "approximation are unreliable in this regime",
                stacklevel=level,
            )

    @classmethod
    def normalized(
        cls, T: float, R: float, D: float, wavelength: float = DEFAULT_WAVELENGTH
    ) -> "Scenario":
        """Build a scenario from wavelength-normalized radii and distance."""
        return cls(
            wavelength=wavelength,
            radius_tx=T * wavelength,
            radius_rx=R * wavelength,
            distance=D * wavelength,
        )

    @property
    def kappa(self) -> float:
        """Wavenumber 2*pi/lambda in rad/m."""
        return 2 * np.pi / self.wavelength

    @property
    def T(self) -> float:
        return self.radius_tx / self.wavelength

    @property
    def R(self) -> float:
        return self.radius_rx / self.wavelength

    @property
    def D(self) -> float:
        return self.distance / self.wavelength


def analytic_dof(scenario: Scenario) -> float:
    """Closed-form degrees-of-freedom estimate pi^2 T^2 R^2 / D^2.

    Returns the raw real value; callers that need an integer mode count
    round down.
    """
    return np.pi**2 * scenario.T**2 * scenario.R**2 / scenario.D**2

