"""Central numeric configuration.

Every tolerance and step size used by the evaluators, the Newton solver and
the verification residuals lives here, so that a single object pins down the
numerical contract of the whole package.
"""

import os
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    # point classification
    on_flat: float = 1e-9          # |affine residual| below this counts as "on"
    branch: float = 1e-9           # s + r below this counts as branch locus

    # Legendre / Newton solve
    newton_residual: float = 1e-10
    newton_max_iter: int = 200
    armijo: float = 1e-4

    # finite differences
    fd_step: float = 1e-4          # Hessian checks of F and K
    phi_fd_step: float = 1e-3      # Richardson base step for the Phi oracle
    poly_step: float = 5e-4        # 7-point Laplacian of F
    harmonic_step: float = 5e-4    # 7-point Laplacian of the conformal factor
    curvature_step: float = 1e-3   # nested Christoffel differences
    reconstruct_step: float = 1e-3
    stencil_clearance: float = 10.0  # required flat distance, in units of step

    # verification residual thresholds
    phi_fd_rel: float = 1e-6
    polyharmonic: float = 1e-5
    monge_ampere: float = 1e-4
    hessian_identity: float = 1e-5
    sp_condition: float = 1e-4
    ricci: float = 1e-3
    harmonic: float = 1e-6
    roundtrip: float = 1e-8
    local_model: float = 1e-12

    # volume growth estimator
    growth_max_stderr: float = 0.2
    growth_tolerance: float = 0.2  # |fitted - integer law| accepted in reports

    # sampling
    default_seed: int = 20260815
    sample_clearance: float = 0.25  # Euclidean flat clearance for random points
    strata_subset_limit: int = 1 << 20


DEFAULT = Tolerances()


def with_overrides(**kw) -> Tolerances:
    return replace(DEFAULT, **kw)


def thread_cap() -> int | None:
    """Parallelism cap from TORIC_HK_THREADS (None means no explicit cap).

    Raises ValueError unless the variable is unset, empty or a positive integer.
    """
    raw = os.environ.get("TORIC_HK_THREADS")
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"TORIC_HK_THREADS must be a positive integer, got {raw!r}")
    return value
