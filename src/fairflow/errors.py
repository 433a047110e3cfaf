"""Exception types shared across the package."""


class FairFlowError(Exception):
    """Base class for all fairflow errors."""


class InfinityClashError(FairFlowError):
    """Raised when an arithmetic step would add -inf to +inf."""


class InfeasibleError(FairFlowError):
    """No feasible flow exists.

    Carries the violating node set (a Hoffman cut certificate) when one
    was computed; ``certificate`` may be None for callers that detected
    infeasibility indirectly.  Without a message, the certificate's set
    and deficiency make it.
    """

    def __init__(self, message: str | None = None, certificate=None):
        if message is None and certificate is not None:
            nodes, deficiency = sorted(certificate.nodes), certificate.deficiency
            message = f"no feasible flow: set {nodes} has deficiency {deficiency}"
        super().__init__(message or "no feasible flow exists")
        self.certificate = certificate


class UnboundedCostError(FairFlowError):
    """The minimum-cost flow problem is unbounded below."""


class NegativeCycleError(FairFlowError):
    """A residual digraph expected to be conservative contains a negative di-circuit."""


class NoDecMinError(FairFlowError):
    """No fair (decreasingly minimal) flow exists; carries a witness di-circuit."""

    def __init__(self, message: str = "no dec-min flow exists", witness=None):
        super().__init__(message)
        self.witness = witness


class AssumptionViolatedError(FairFlowError):
    """Input violates the standing assumptions of the ratio-maximization routine."""


class InternalCertificateFailure(FairFlowError):
    """A constructed optimality certificate failed its own verification.

    This always indicates a bug: certificates are checked before being
    returned and must never be silently wrong.
    """


class LimitExceededError(FairFlowError):
    """A brute-force enumeration exceeded its configured caps."""


class InfiniteBoundsError(FairFlowError):
    """An operation requiring finite bounds was given an infinite one."""
