"""Exception taxonomy shared by all modules."""


class PosDefWalksError(Exception):
    """Base class for every error raised by this package."""


class NotPositiveDefinite(PosDefWalksError):
    """Input expected to be symmetric positive definite is not."""


class EigenFailure(PosDefWalksError):
    """The symmetric eigensolver did not converge."""


class DomainError(PosDefWalksError):
    """Parameter outside the admissible range of an operation."""


class QuadratureNoConvergence(PosDefWalksError):
    """Adaptive quadrature failed to meet the requested tolerance."""


class NonFiniteIntegrand(PosDefWalksError):
    """A fixed-node quadrature met a NaN or infinite integrand value."""


class StepOverflow(PosDefWalksError):
    """A simulated state exceeded the representable range."""


class TruncationFailure(PosDefWalksError):
    """Series truncation rule not met within the term budget."""


class EmptySample(PosDefWalksError):
    """A statistic was requested on an empty sample."""


class InsufficientBinCount(PosDefWalksError):
    """Too few observations fell in a conditioning bin."""
