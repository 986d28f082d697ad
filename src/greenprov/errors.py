"""Exception types shared across the package.

Input-shaped problems (bad distribution parameters, malformed config,
inconsistent statistics) are ValueError subclasses; solver-shaped problems
(no equilibrium in range, degenerate prices) get their own leaf types so a
caller can branch on them, as the CLI does for exit codes.
"""


class InvalidDistribution(ValueError):
    """Demand profile parameters violate a family constraint."""


class UnboundedSupport(ValueError):
    """A true upper bound was requested for a distribution without one."""


class InvalidStats(ValueError):
    """Demand statistics are inconsistent (ordering or sign constraints)."""


class InvalidRates(ValueError):
    """Cost rates are negative or non-finite."""


class InvalidScenario(ValueError):
    """Simulation scenario fields violate their constraints."""


class DegenerateCosts(ValueError):
    """Both cost channels are zero, so the balance equation has no
    information, or their weights overflow a float."""


class NonzeroSatisfaction(ValueError):
    """The closed-form balance only covers a zero satisfaction term."""


class NoRootInRange(ValueError):
    """The cost-difference function has no zero between mean and max demand,
    or bisection cannot bring its residual within tolerance."""


class NonFiniteResult(ArithmeticError):
    """A simulated total overflows a float, so the report would hold inf or NaN."""


class PolicyUnresolvable(RuntimeError):
    """A provisioning policy could not be mapped to a concrete level."""


class ConfigError(ValueError):
    """A scenario config failed strict validation; `path` names the key."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path
