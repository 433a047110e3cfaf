"""Exception types shared across the package; the two exit-1 failures require their proof."""

from functools import partial


class FairFlowError(Exception):
    """Base class for all fairflow errors."""


class InfinityClashError(FairFlowError):
    """Raised when an arithmetic step would add -inf to +inf."""


class InfeasibleError(FairFlowError):
    """No feasible flow exists; ``certificate`` (required) is a node set,
    a maxflow.CutCertificate, whose positive Hoffman deficiency proves it.
    """

    def __init__(self, certificate):
        super().__init__(certificate)  # the proof as the one argument, so pickle can rebuild it
        self.certificate = certificate

    def __str__(self) -> str:
        nodes, deficiency = sorted(self.certificate.nodes), self.certificate.deficiency
        return f"no feasible flow: set {nodes} has deficiency {deficiency}"


class UnboundedCostError(FairFlowError):
    """The minimum-cost flow problem is unbounded below."""


class NegativeCycleError(FairFlowError):
    """A residual digraph expected to be conservative contains a negative di-circuit."""


class NoDecMinError(FairFlowError):
    """No fair flow exists; ``witness`` (required) is a circuit of
    existence.InfArc along which any feasible flow improves forever.
    """

    def __init__(self, message: str = "no dec-min flow exists", *, witness):
        super().__init__(message)
        self.witness = witness

    def __reduce__(self):  # pickle rebuilds from args alone, and the witness is keyword-only
        return partial(type(self), witness=self.witness), self.args


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
