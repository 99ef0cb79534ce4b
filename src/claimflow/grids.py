"""Uniform time grids, the discretization carrier for every path object."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, GridRangeError

#: Default resolution of one calendar day, in years.
DEFAULT_STEP = 1.0 / 365.0


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing uniform grid from 0 to ``t_end`` (years).

    Every grid starts at time 0, the origin of the reserve's t = 0 rules and
    of the oracle's deflator.  Build instances with :meth:`regular`; the
    constructor trusts its inputs.
    """

    t_end: float
    step: float
    points: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def regular(cls, t_end: float, step: float = DEFAULT_STEP) -> "TimeGrid":
        """Grid over ``[0, t_end]`` with (approximately) the requested step.

        The step is snapped to ``t_end / n`` with ``n = round(t_end / step)``
        so that both endpoints lie exactly on the grid.
        """
        if not t_end > 0.0:
            raise ConfigurationError(f"grid end must exceed start, got [0.0, {t_end}]")
        if not step > 0.0:
            raise ConfigurationError(f"grid step must be > 0, got {step}")
        cells = t_end / step
        if not cells < math.inf:
            raise ConfigurationError(f"grid [0.0, {t_end}] at step {step} has too many cells")
        n = max(1, int(round(cells)))
        points = np.linspace(0.0, t_end, n + 1)
        return cls(t_end=float(t_end), step=t_end / n, points=points)

    @property
    def n_cells(self) -> int:
        return len(self.points) - 1

    def require_inside(self, t: float) -> None:
        if not (0.0 <= t <= self.t_end):
            raise GridRangeError(f"time {t} outside grid [0.0, {self.t_end}]")

    def locate(self, t: float) -> tuple[int, float]:
        """Cell index and fractional position of ``t``; ``t`` must be in range.

        A ``t`` equal to node ``i`` is at the start of cell ``i``, also where
        ``t / step`` rounds below ``i``; the end node ends the last cell.
        """
        self.require_inside(t)
        if t == self.t_end:
            return self.n_cells - 1, 1.0
        idx = min(max(int(t / self.step), 0), self.n_cells - 1)
        if self.points[idx + 1] <= t:
            idx += 1
        frac = (t - self.points[idx]) / self.step
        return idx, float(min(max(frac, 0.0), 1.0))

    def node_index(self, t: float, *, what: str = "time") -> int:
        """Index of the grid node equal to ``t``, within a tight tolerance."""
        self.require_inside(t)
        i = int(round(t / self.step))
        if abs(self.points[min(i, self.n_cells)] - t) > 1e-9 * max(1.0, self.step):
            raise ConfigurationError(f"{what} {t} does not lie on the grid (step {self.step})")
        return i
