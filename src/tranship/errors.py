"""Exception hierarchy shared across the package."""


class TranshipError(Exception):
    """Base class for all package errors."""


class ValidationError(TranshipError):
    """Input data violates a documented invariant or precondition."""


class UnbalancedMeasureError(ValidationError):
    """A balanced measure was required but the total mass is nonzero."""

    def __init__(self, total, scale, rtol):
        self.total = total
        self.scale = scale
        super().__init__(
            f"measure is not balanced: total mass {total!r} "
            f"exceeds tolerance {rtol * scale!r}"
        )


class InfeasibleFlowError(TranshipError):
    """No feasible flow exists (supply separated from demand)."""


class VerificationError(TranshipError):
    """A certificate or residual check failed its tolerance."""


class TailBoundError(ValidationError):
    """A dipole-chain tail bound cannot be met with the listed pairs."""
