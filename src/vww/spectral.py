"""Projection onto an eigenbasis and spectrally defined Sobolev norms.

The norm of order k weighs squared coefficients by lambda_n^k, i.e. it
is the L^2 norm of the k/2-th operator power; k may be any real number,
negative orders appearing in the energy estimates for the initial
velocity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, NonFiniteResult
from .grid import GridFunction, freeze_arrays
from .prufer import EigenBasis


@dataclass(frozen=True)
class SpectralCoeffs:
    """Coefficients of a function against an :class:`EigenBasis`."""

    basis: EigenBasis
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        freeze_arrays(self, "coeffs", copy=True)
        if self.coeffs.shape != (len(self.basis),):
            raise GridMismatch(f"expected {len(self.basis)} coefficients, "
                               f"got {self.coeffs.shape}")


def analyze(f: GridFunction, basis: EigenBasis) -> SpectralCoeffs:
    """c_n = <f, phi_n> by the grid's Simpson rule."""
    if f.grid.n != basis.grid.n:
        raise GridMismatch(
            f"function grid {f.grid.n} != basis grid {basis.grid.n}")
    weighted = basis.grid.simpson_weights * f.values
    return SpectralCoeffs(basis, basis.phi_matrix @ weighted)


def synthesize(c: SpectralCoeffs) -> GridFunction:
    """sum_n c_n phi_n sampled on the basis grid."""
    return GridFunction(c.basis.grid, c.coeffs @ c.basis.phi_matrix)


def lambda_power(lam: np.ndarray, k: float) -> np.ndarray:
    """lambda_n^k for real k, as exp(k log lambda_n): every lambda_n > 0.
    Raises NonFiniteResult when a weight overflows, or when even the
    largest underflows below the smallest normal float, which would make
    every weighted norm 0."""
    with np.errstate(over="ignore"):
        weights = np.exp(k * np.log(lam))
    if not np.all(np.isfinite(weights)):
        raise NonFiniteResult(f"lambda^k overflows for k={k:g} at "
                              f"lambda_max={np.max(lam):.6g}")
    if np.max(weights) < np.finfo(float).tiny:
        raise NonFiniteResult(f"lambda^k underflows for k={k:g} at "
                              f"lambda_min={np.min(lam):.6g}")
    return weights


def sobolev_norm(c: SpectralCoeffs, k: float) -> float:
    """(sum_n lambda_n^k c_n^2)^(1/2) for real k."""
    return float(np.sqrt(np.sum(lambda_power(c.basis.lambdas, k)
                                * c.coeffs**2)))


def parseval_defect(f: GridFunction, basis: EigenBasis) -> float:
    """||f||^2 - sum c_n^2; nonnegative up to quadrature error."""
    c = analyze(f, basis)
    return f.inner(f) - float(np.sum(c.coeffs**2))
