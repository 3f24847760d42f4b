"""Spectral laboratory for the Dirichlet wave equation with singular
Sturm-Liouville potentials: eigenpairs via the phase/amplitude system,
spectral evolution, a-priori estimate verification and regularization
(moderateness / negligibility / consistency) experiments."""

__version__ = "0.1.0"

from .errors import VwwError
from .grid import Grid, GridFunction
from .potential import (BumpProfile, MollifiedNu, MollifierSpec, NuPrimitive,
                        PerturbedNu)
from .prufer import EigenBasis, build_basis
from .spectral import SpectralCoeffs, analyze, parseval_defect, sobolev_norm, synthesize
from .wave import (ForcingTable, WaveProblem, WaveSolution, analyze_forcing,
                   solve_forced, solve_homogeneous)
from .estimates import (ALL_ESTIMATE_IDS, CORE_ESTIMATE_IDS, EstimateReport,
                        verify)
from .veryweak import (DataNet, ExponentFit, NegligibilityReport, NetReport,
                       VeryWeakExperiment, check_negligibility, default_ladder,
                       fit_moderateness, run_consistency, run_existence,
                       run_uniqueness)

__all__ = [name for name in dir() if not name.startswith("_")]
