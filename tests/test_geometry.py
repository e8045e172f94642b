"""Tests for scenario geometry and closed-form link quantities."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oamlis.geometry import (
    DEFAULT_WAVELENGTH,
    Scenario,
    analytic_dof,
)
from oracles import point_distance


def test_point_distance_examples():
    # opposite azimuths: 3 and 4 add up across the axis
    assert_allclose(point_distance(3.0, 0.0, 4.0, np.pi, 12.0), np.sqrt(193.0))
    assert_allclose(point_distance(0.0, 0.0, 0.0, 0.0, 7.5), 7.5)
    # same transverse point: pure axial separation
    assert_allclose(point_distance(2.0, 1.3, 2.0, 1.3, 5.0), 5.0)


def test_point_distance_broadcasts():
    rho_t = np.linspace(0, 1, 4)[:, None]
    rho_r = np.linspace(0, 2, 3)[None, :]
    d = point_distance(rho_t, 0.0, rho_r, np.pi / 3, 10.0)
    assert d.shape == (4, 3)
    assert np.all(d >= 10.0)


def test_point_distance_validation():
    with pytest.raises(ValueError):
        point_distance(-1.0, 0.0, 1.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        point_distance(1.0, 0.0, 1.0, 0.0, 0.0)


def test_scenario_defaults_and_normalized_constructor():
    s = Scenario()
    assert s.wavelength == DEFAULT_WAVELENGTH
    assert_allclose((s.T, s.R, s.D), (10.0, 10.0, 50.0))
    t = Scenario.normalized(25, 5, 200, wavelength=0.2)
    assert_allclose((t.radius_tx, t.radius_rx, t.distance), (5.0, 1.0, 40.0))
    assert_allclose((t.T, t.R, t.D), (25.0, 5.0, 200.0))
    assert_allclose(t.kappa, 2 * np.pi / 0.2)


def test_scenario_rejects_nonpositive_lengths():
    for kwargs in (
        dict(wavelength=0.0),
        dict(radius_tx=-1.0),
        dict(radius_rx=0.0),
        dict(distance=0.0),
    ):
        with pytest.raises(ValueError):
            Scenario(**kwargs)


def test_scenario_warns_outside_paraxial_regime():
    with pytest.warns(UserWarning):
        Scenario.normalized(10, 10, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Scenario.normalized(10, 10, 50)


def test_paraxial_warning_names_the_callers_line():
    for build in (lambda: Scenario(distance=0.5), lambda: Scenario.normalized(10, 10, 5)):
        with pytest.warns(UserWarning, match="link distance") as record:
            build()
        assert [warning.filename for warning in record] == [__file__]


def test_analytic_dof_examples():
    assert_allclose(analytic_dof(Scenario.normalized(10, 10, 50)), 4 * np.pi**2)
    assert_allclose(analytic_dof(Scenario.normalized(25, 5, 50)), 6.25 * np.pi**2)
    assert_allclose(analytic_dof(Scenario.normalized(1, 1, np.pi)), 1.0)


def test_analytic_dof_symmetry_and_distance_scaling():
    a = analytic_dof(Scenario.normalized(25, 5, 100))
    b = analytic_dof(Scenario.normalized(5, 25, 100))
    assert_allclose(a, b)
    near = analytic_dof(Scenario.normalized(10, 10, 100))
    far = analytic_dof(Scenario.normalized(10, 10, 200))
    assert_allclose(near / far, 4.0)


def test_analytic_dof_wavelength_invariant_for_normalized_geometry():
    a = analytic_dof(Scenario.normalized(10, 10, 50, wavelength=1.0))
    b = analytic_dof(Scenario.normalized(10, 10, 50, wavelength=0.01))
    assert_allclose(a, b)

