"""Grid construction and lookup."""
import math

import numpy as np
import pytest

from claimflow import ConfigurationError, GridRangeError, TimeGrid
from claimflow.grids import DEFAULT_STEP


def test_regular_grid_hits_both_endpoints():
    grid = TimeGrid.regular(2.0)
    assert grid.points[0] == 0.0
    assert grid.points[-1] == 2.0
    assert grid.n_cells == 730
    steps = np.diff(grid.points)
    assert np.allclose(steps, grid.step, rtol=0, atol=1e-15)


def test_step_snaps_to_divide_span():
    grid = TimeGrid.regular(1.0, step=0.3)
    assert grid.points[-1] == 1.0
    assert grid.n_cells == 3
    assert grid.step == pytest.approx(1.0 / 3.0)


def test_invalid_grids_rejected():
    with pytest.raises(ConfigurationError):
        TimeGrid.regular(0.0)
    with pytest.raises(ConfigurationError):
        TimeGrid.regular(1.0, step=-0.1)
    # t_end / step overflows to inf in both: not a bare OverflowError.
    with pytest.raises(ConfigurationError, match="too many cells"):
        TimeGrid.regular(math.inf)
    with pytest.raises(ConfigurationError, match="too many cells"):
        TimeGrid.regular(1.0, 1e-320)


def test_require_inside_bounds():
    grid = TimeGrid.regular(1.0)
    grid.require_inside(0.0)
    grid.require_inside(1.0)
    with pytest.raises(GridRangeError):
        grid.require_inside(1.0 + 1e-9)
    with pytest.raises(GridRangeError):
        grid.require_inside(-1e-9)


def test_locate_cells():
    grid = TimeGrid.regular(1.0, step=0.25)
    assert grid.locate(0.0) == (0, 0.0)
    idx, frac = grid.locate(0.375)
    assert idx == 1 and frac == pytest.approx(0.5)
    idx, frac = grid.locate(1.0)
    assert idx == 3 and frac == pytest.approx(1.0)


def test_locate_puts_every_node_on_a_cell_boundary():
    # On this grid t_i / step rounds below i at 344 of 5,841 nodes; each
    # node still starts its own cell, and the end node ends the last one.
    grid = TimeGrid.regular(2.0, step=1.0 / (365.0 * 8.0))
    n = grid.n_cells
    assert [grid.locate(float(t)) for t in grid.points] == [(i, 0.0) for i in range(n)] + [(n - 1, 1.0)]
    # A date just below a node, where t / step rounds up to it, stays at
    # that node: the valuation-ladder reference encodes it (ROADMAP item 1).
    assert grid.points[1400] - 175.0 / 365.0 == 2.0 ** -54
    assert grid.locate(175.0 / 365.0) == (1400, 0.0)


def test_node_index_accepts_nodes_only():
    grid = TimeGrid.regular(2.0)
    assert grid.node_index(1.0) == 365
    assert grid.node_index(0.0) == 0
    assert grid.node_index(2.0) == 730
    with pytest.raises(ConfigurationError):
        grid.node_index(1.0 + 0.3 * DEFAULT_STEP)
