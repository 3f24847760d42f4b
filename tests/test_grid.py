"""Grid and quadrature sanity checks."""

import math

import numpy as np
import pytest

from vww.errors import ConfigError, GridMismatch
from vww.grid import Grid, GridFunction

from oracles import restrict


def test_grid_rejects_odd_interval_count():
    with pytest.raises(ConfigError):
        Grid(513)
    with pytest.raises(ConfigError):
        Grid(0)
    # even, but too few nodes for second_difference's 4-node stencil
    with pytest.raises(ConfigError, match="4-node"):
        Grid(2)


def test_simpson_exact_for_cubics():
    g = Grid(16)
    vals = g.nodes**3 - 2.0 * g.nodes**2 + 0.25
    assert g.simpson_weights @ vals == pytest.approx(
        1.0 / 4.0 - 2.0 / 3.0 + 0.25, abs=1e-15)


def test_simpson_sine_norm():
    g = Grid(512)
    f = GridFunction(g, np.sin(math.pi * g.nodes))
    assert f.norm_l2() == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_gridfunction_arithmetic_and_mismatch():
    g = Grid(8)
    f = GridFunction(g, np.arange(9.0))
    h = 2.0 * f - f
    assert np.allclose(h.values, f.values)
    with pytest.raises(GridMismatch):
        f + GridFunction(Grid(10), np.zeros(11))


def test_values_frozen():
    g = Grid(8)
    f = GridFunction(g, np.zeros(9))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_second_difference_on_quadratic_is_exact():
    g = Grid(64)
    f = GridFunction(g, 3.0 * g.nodes**2)
    d2 = f.second_difference()
    assert np.allclose(d2.values, 6.0, atol=1e-8)


def test_restrict_picks_shared_nodes():
    fine, coarse = Grid(64), Grid(16)
    f = GridFunction(fine, fine.nodes**2)
    r = restrict(f, coarse)
    assert np.allclose(r.values, coarse.nodes**2)
    with pytest.raises(GridMismatch):
        restrict(f, Grid(48))
