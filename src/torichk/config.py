"""Central numeric configuration.

The tolerances, step sizes and residual thresholds of the evaluators, the
Newton solver and the verification checks live here, in the one read-only
table DEFAULT that every module reads; no function takes an override.  The
sampling choices of each check (its point counts and flat clearances) live
with the check in the verify module.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # point classification
    on_flat: float = 1e-9          # |affine residual| below this counts as "on"
    branch: float = 1e-9           # t = s + r of svr below this counts as branch locus

    # Legendre / Newton solve
    newton_residual: float = 1e-10
    newton_max_iter: int = 200
    armijo: float = 1e-4

    # finite differences
    fd_step: float = 1e-4          # Hessian checks of F and K
    phi_fd_step: float = 1e-3      # Richardson base step for the Phi oracle
    poly_step: float = 5e-4        # 7-point Laplacian of F
    harmonic_step: float = 5e-4    # Richardson 7-point Laplacian of Phi's entries
    curvature_step: float = 1e-3   # nested Christoffel differences
    reconstruct_step: float = 1e-3
    stencil_clearance: float = 10.0  # required flat distance, in units of step

    # verification residual thresholds
    phi_fd_rel: float = 1e-6
    polyharmonic: float = 1e-5
    hessian_identity: float = 1e-5
    sp_condition: float = 1e-4
    ricci: float = 1e-3
    harmonic: float = 1e-6
    roundtrip: float = 1e-8

    # volume growth estimator
    growth_max_stderr: float = 0.2
    growth_tolerance: float = 0.2  # |fitted - integer law| accepted in reports

    # sampling
    default_seed: int = 20260815
    strata_subset_limit: int = 1 << 20


DEFAULT = Tolerances()

