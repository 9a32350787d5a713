"""Exception types shared across the package."""


class ArgumentError(ValueError):
    """A precondition on an operation's arguments was violated."""


class PrecisionError(ArgumentError):
    """Floating-point geometry too degenerate to proceed (near-dependent vectors)."""


class ResourceError(RuntimeError):
    """A configured memory or size cap would be exceeded."""


class EstimateError(RuntimeError):
    """A statistical estimate could not be produced (degenerate input)."""


class ExtendabilityError(RuntimeError):
    """A greedy matching level found a net cell with no feasible partner."""


class LoadError(RuntimeError):
    """A stored run failed to load (bad magic, hash mismatch, truncation)."""
