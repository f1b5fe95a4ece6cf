"""Exception types shared across the package."""


class RevPinskerError(ValueError):
    """Base class for all domain errors raised by this package."""


class EmptyVector(RevPinskerError):
    pass


class NegativeWeight(RevPinskerError):
    pass


class SumOutOfTolerance(RevPinskerError):
    pass


class LengthMismatch(RevPinskerError):
    pass


class NotAbsolutelyContinuous(RevPinskerError):
    """P puts mass where Q has none."""


class MeanOutOfRange(RevPinskerError):
    pass


class DegenerateInterval(RevPinskerError):
    pass


class InvalidAlpha(RevPinskerError):
    pass


class FailsAnchorCheck(RevPinskerError):
    """f(1) != 0 beyond tolerance."""


class FailsConvexitySample(RevPinskerError):
    """Sampled midpoint-convexity check failed."""


class InvalidParams(RevPinskerError):
    pass


class Infeasible(RevPinskerError):
    """No distribution pair realizes the requested (delta, m, M)."""


class UnboundedM(RevPinskerError):
    """Operation requires a finite ratio supremum M."""


class LogDomain(RevPinskerError):
    """Argument of a logarithm is nonpositive."""
