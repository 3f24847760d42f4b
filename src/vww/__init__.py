"""Spectral laboratory for the Dirichlet wave equation with singular
Sturm-Liouville potentials: eigenpairs via the phase/amplitude system,
spectral evolution, a-priori estimate verification and regularization
(moderateness / negligibility / consistency) experiments."""

__version__ = "0.1.0"

from .errors import VwwError
from .grid import Grid, GridFunction
from .potential import (BumpProfile, MollifiedNu, MollifierSpec, NuPrimitive,
                        PerturbedNu, evaluate_nu, extend_by_zero, mollify_potential)
from .prufer import (EigenBasis, PruferPath, asymptotic_residuals, build_bases,
                     build_basis, integrate_prufer, shoot_eigenvalue)
from .spectral import SpectralCoeffs, analyze, parseval_defect, sobolev_norm, synthesize
from .wave import (ForcingTable, WaveProblem, WaveSolution, analyze_forcing,
                   fd_oracle, solve_forced, solve_homogeneous,
                   spatial_derivatives)
from .estimates import (ALL_ESTIMATE_IDS, CORE_ESTIMATE_IDS, EstimateReport,
                        constant_sweep, verify)
from .veryweak import (DataNet, ExponentFit, NegligibilityReport, NetReport,
                       VeryWeakExperiment, check_negligibility, default_ladder,
                       fit_moderateness, run_consistency, run_existence,
                       run_uniqueness)

__all__ = [name for name in dir() if not name.startswith("_")]
