"""Toric hyperkaehler metrics from flat arrangements.

Construct the master potential of an arrangement of codimension-3 flats in
R^n x C^n, evaluate the induced metrics, verify the defining geometric
identities numerically, and classify the arrangement (smoothness, topology,
deformation order, volume growth).
"""

from .arrangement import (ClassificationReport, DeformationMatrix, Flat,
                          FlatArrangement, Point3n, Stratum,
                          classification_report, flat_distances,
                          intersection_strata, translate)
from .catalog import CatalogEntry, Expected, catalog, entry, entry_names
from .config import DEFAULT, Tolerances
from .errors import (ArrangementError, BranchLocusError, DifferentiationError,
                     DomainEscapeError, EvaluationError, NoConvergenceError,
                     OnFlatError, SamplingError, StencilClippedError)
from .io import dump_arrangement, load_arrangement, parse_arrangement
from .potential import (KahlerChartPoint, ReconstructedPotential, eval_F,
                        eval_F_z, eval_Phi, eval_connection, eval_metric,
                        legendre_solve, phi_batch, quotient_metric,
                        reconstruct_F_from_K)
from .verify import (GrowthFit, ResidualReport, growth_fit,
                     hessian_identity_residual, phi_harmonic_residual,
                     polyharmonic_residual, ricci_residual, run_checks,
                     sp_condition_residual)

__version__ = "0.1.0"

__all__ = [
    "ArrangementError", "BranchLocusError", "CatalogEntry",
    "ClassificationReport", "DEFAULT", "DeformationMatrix",
    "DifferentiationError", "DomainEscapeError", "EvaluationError", "Expected",
    "Flat", "FlatArrangement", "GrowthFit", "KahlerChartPoint",
    "NoConvergenceError", "OnFlatError", "Point3n", "ReconstructedPotential",
    "ResidualReport", "SamplingError",
    "StencilClippedError", "Stratum", "Tolerances", "catalog",
    "classification_report", "dump_arrangement",
    "entry", "entry_names", "eval_F", "eval_F_z", "eval_Phi",
    "eval_connection", "eval_metric", "flat_distances", "growth_fit",
    "hessian_identity_residual", "intersection_strata", "legendre_solve",
    "load_arrangement", "parse_arrangement", "phi_batch", "phi_harmonic_residual",
    "polyharmonic_residual", "quotient_metric", "reconstruct_F_from_K",
    "ricci_residual", "run_checks", "sp_condition_residual", "translate",
    "__version__",
]
