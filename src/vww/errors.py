"""Exception hierarchy shared across the package.

``VwwError`` is the common base; ``ConfigError`` marks bad user input
(CLI exit code 2) while the numerical subclasses map to exit code 3.
A failure at a rung of an eps-ladder keeps its class; its message is
prefixed with the rung's eps.
"""

from __future__ import annotations


class VwwError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(VwwError):
    """Invalid configuration, schema violation or unusable parameters."""


class GridMismatch(VwwError):
    """Two objects that must share a grid do not."""


class DegenerateNet(VwwError):
    """A regularized net contains a zero norm; no finite log-log fit exists."""


class StepFailure(VwwError):
    """Adaptive integrator could not meet the tolerance."""


class BracketFailure(VwwError):
    """No sign change found for an eigenvalue bracket."""

    def __init__(self, n, lo, hi, message=None):
        self.n = n
        self.bracket = (lo, hi)
        super().__init__(
            message
            or f"no sign change for mode n={n} in bracket [{lo:.6g}, {hi:.6g}]"
        )


class MeshTooLarge(VwwError):
    """A Magnus mesh or a mollifier window rule would exceed its ceiling."""


class UnresolvedBasis(VwwError):
    """Grid too coarse for the requested modes: their samples are not
    orthogonal, or a mode's Simpson and trapezoid norms disagree."""


class NonPositiveSpectrum(VwwError):
    """An eigenbasis was given a non-positive eigenvalue."""


class TimeGridTooCoarse(VwwError):
    """Forcing time grid cannot resolve the fastest retained mode."""


class AtomEvaluation(VwwError):
    """Second spatial derivative requested at a Dirac atom location."""


class MissingNorm(VwwError):
    """An estimate needs a norm the given problem cannot furnish."""


class NonFiniteResult(VwwError):
    """A finite input would make a result overflow, underflow to nothing,
    or reach an output file as a non-finite number."""

