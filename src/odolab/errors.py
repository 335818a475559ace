"""Exception types shared across the package."""


class OdolabError(Exception):
    """Base class for all package-specific errors."""


class CapExceeded(OdolabError):
    """Work past a budget that is checked before the work starts.

    The budget is a cell cap for a truncation or enumeration, where callers
    fall back to product-form algebra or seeded sampling, or a DP-step
    budget for an optimizer scan, where a table stops short and a verdict
    or witness is inconclusive.
    """


class CarryOverflow(OdolabError):
    """A carry propagated past the available prefix depth; deepen the prefix."""


class UnresolvedTail(OdolabError):
    """The requested quantity depends on coordinates beyond the given prefix."""


class UnknownTheorem(OdolabError):
    """No rule is registered under the requested criterion id."""


class StrategyInfeasible(OdolabError):
    """No index subsequence / offset met the required smallness conditions."""


class HypothesisUnavailable(OdolabError):
    """The construction's hypothesis could not be met within the horizon."""


class NotFoundWithinHorizon(OdolabError):
    """An exhaustive search over the candidate family came up empty."""


class WindowTooSmall(OdolabError):
    """The finite shift window does not contain every translate the check uses."""


class BracketFailure(OdolabError):
    """A root bracket did not enclose a sign change; the solver spec is wrong."""
