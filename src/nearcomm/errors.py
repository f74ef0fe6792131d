"""Exception types shared across the package.

Every failure mode that callers are expected to catch has its own class;
nothing is ever reported by returning silently-degraded output.
"""


class NearcommError(Exception):
    """Base class for all package-specific errors."""


class QuadratureError(NearcommError):
    """A numerical integral failed its refinement/consistency check."""


class EigensolverError(NearcommError):
    """LAPACK eigensolver did not converge on the given matrix."""


class FunctionDomainError(NearcommError):
    """Functional calculus hit an eigenvalue where f is undefined."""


class LinSolverFailure(NearcommError):
    """Joint diagonalization stopped before reaching its target residual."""


class SandwichViolation(NearcommError):
    """A constructed window projection failed its certificates.

    Signals the commutator norm of the input pair is too large for the
    requested tolerance.
    """


class BlockNormViolation(NearcommError):
    """A compressed block exceeded its guaranteed norm bound."""


class SpectralGapMissing(NearcommError):
    """Spectrum does not split into the two clusters a construction needs."""


class DegenerateMeasure(NearcommError):
    """Measure state has too little support for the requested construction."""


class MomentInfeasible(NearcommError):
    """No nonnegative density with the required moments exists at a stage."""
