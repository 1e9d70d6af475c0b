"""Exception types shared across the package."""

__all__ = ["DomainError", "ConfigurationError", "ComputationError", "DegenerateBeyondSecondOrder"]


class DomainError(ValueError):
    """An input value violates a documented precondition."""


class ConfigurationError(ValueError):
    """A run configuration is unusable (bad grid, budget, or flag combination)."""


class ComputationError(RuntimeError):
    """A numerical routine failed in a way that retrying will not fix."""


class DegenerateBeyondSecondOrder(ComputationError):
    """A coincident-level member vanishes to second order along the probe direction.

    The perturb-and-count machinery only resolves movement up to quadratic
    order, so such a member cannot be assigned a direction.
    """
