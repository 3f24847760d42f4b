"""Uniform grids on [0, 1] and grid-sampled functions.

All quadrature in the package goes through the composite Simpson rule
attached to the grid, so inner products, norms and eigenfunction
normalization are mutually consistent.  Grids have an even number of
intervals (Simpson panels are node pairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, GridMismatch


@lru_cache(maxsize=32)
def _grid_arrays(n: int):
    nodes = np.linspace(0.0, 1.0, n + 1)
    h = 1.0 / n
    w = np.empty(n + 1)
    w[0] = w[-1] = h / 3.0
    w[1:-1:2] = 4.0 * h / 3.0
    w[2:-1:2] = 2.0 * h / 3.0
    nodes.flags.writeable = False
    w.flags.writeable = False
    return nodes, h, w


def freeze_arrays(record, *names: str, copy: bool = False) -> None:
    """Set the named fields of a frozen dataclass to read-only float arrays:
    C-ordered copies with ``copy``, else views, so that a record never
    changes the ``writeable`` flag of the caller's arrays."""
    for name in names:
        arr = np.asarray(getattr(record, name), dtype=float)
        arr = arr.copy() if copy else arr.view()  # ndarray.copy is C-ordered
        arr.flags.writeable = False
        object.__setattr__(record, name, arr)


@dataclass(frozen=True)
class Grid:
    """Uniform grid with ``n`` intervals (``n + 1`` nodes) on [0, 1]."""

    n: int

    def __post_init__(self):
        if self.n % 2 != 0:
            raise ConfigError(f"grid needs an even interval count, got {self.n}")
        if self.n < 4:  # second_difference's one-sided stencil reads 4 nodes
            raise ConfigError(f"grid needs at least 4 intervals for the "
                              f"4-node second-difference stencil, got {self.n}")

    @property
    def nodes(self) -> np.ndarray:
        return _grid_arrays(self.n)[0]

    @property
    def h(self) -> float:
        return _grid_arrays(self.n)[1]

    @property
    def simpson_weights(self) -> np.ndarray:
        return _grid_arrays(self.n)[2]

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(self.simpson_weights @ (u * v))

    def norm_l2(self, values: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(values, values), 0.0)))


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function sampled on the nodes of a :class:`Grid`.

    Values are frozen after construction; arithmetic returns new objects.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        freeze_arrays(self, "values", copy=True)
        if self.values.shape != (self.grid.n + 1,):
            raise GridMismatch(f"expected {self.grid.n + 1} samples, "
                               f"got shape {self.values.shape}")

    @classmethod
    def zeros(cls, grid: Grid) -> "GridFunction":
        return cls(grid, np.zeros(grid.n + 1))

    def _check(self, other: "GridFunction"):
        if self.grid.n != other.grid.n:
            raise GridMismatch(f"grids differ: {self.grid.n} vs {other.grid.n}")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check(other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check(other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, c) -> "GridFunction":
        return GridFunction(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def inner(self, other: "GridFunction") -> float:
        self._check(other)
        return self.grid.inner(self.values, other.values)

    def norm_l2(self) -> float:
        return self.grid.norm_l2(self.values)

    def norm_linf(self) -> float:
        return float(np.max(np.abs(self.values)))

    def second_difference(self) -> "GridFunction":
        """Centered second difference, one-sided (second order) at endpoints."""
        v, h = self.values, self.grid.h
        d2 = np.empty_like(v)
        d2[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
        d2[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
        d2[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
        return GridFunction(self.grid, d2)
