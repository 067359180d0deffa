"""Exception types shared across the library."""


class PolyaggError(Exception):
    """Base class for all polyagg-specific errors."""


class InfeasibleModel(PolyaggError):
    """The occupancy polytope of a model has no feasible point."""


class SingularChain(PolyaggError):
    """The average-reward stationary system is singular beyond regularization."""


class AllAgentsIndifferent(PolyaggError):
    """Reward normalization dropped every agent."""


class InfeasibleBounds(PolyaggError):
    """The rows a solve adds to the polytope meet nowhere, such as return
    lower bounds no policy reaches."""


class DegeneratePolytope(PolyaggError):
    """The polytope has no interior relative to its affine hull."""


class ConcaveRegionEmpty(PolyaggError):
    """No policy clears every agent's density mode simultaneously."""


class MilpBudgetExhausted(PolyaggError):
    """The MILP solver reached its node limit before proving optimality."""


class SizeLimit(PolyaggError):
    """Instance exceeds a configured size or enumeration cap."""


class ZeroWelfare(PolyaggError):
    """Metric undefined because total welfare is (near) zero."""


class LpFailure(PolyaggError):
    """Unexpected solver failure (unbounded, numerical trouble, or any
    status other than optimal, infeasible or a MILP's node limit)."""
