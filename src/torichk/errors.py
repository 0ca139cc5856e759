"""Exception types shared across the package."""


class ArrangementError(ValueError):
    """Invalid arrangement data (bad normal, malformed file, shape mismatch)."""


class EvaluationError(Exception):
    """Base class for point-evaluation failures."""


class OnFlatError(EvaluationError):
    """The point lies on (or numerically too close to) a flat."""

    def __init__(self, index, distance):
        self.index = index
        self.distance = distance
        super().__init__(f"point lies on flat {index} (distance {distance:.3e})")


class BranchLocusError(EvaluationError):
    """The point lies on the logarithmic branch locus s_k + r_k = 0."""

    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(
            f"point lies on the branch locus of flat {index} (s+r = {value:.3e})"
        )


class StencilClippedError(EvaluationError):
    """A finite-difference stencil would cross a flat; step too large here."""


class NoConvergenceError(Exception):
    """Newton iteration failed to reach the residual target."""

    def __init__(self, residual, iterations):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"Newton did not converge: residual {residual:.3e} "
            f"after {iterations} iterations"
        )


class DomainEscapeError(Exception):
    """Newton iterate left (or started outside) the potential's domain."""


class SamplingError(RuntimeError):
    """A sampler or the growth integrator could not produce its points or rays."""


class DifferentiationError(Exception):
    """Numerical differentiation of a sampled potential failed to stabilize."""
