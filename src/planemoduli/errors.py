"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed input: non-finite coordinates, wrong shape, off-sphere point."""


class DomainError(ValueError):
    """Argument outside the domain of a modulus or reference curve."""


class RepresentationError(ValueError):
    """Invalid norm representation (degenerate or non-convex polygon, bad p or weights)."""


class PreconditionError(ValueError):
    """Geometric precondition violated, e.g. a direction that is not quasi-orthogonal."""


class UnsupportedNormError(ValueError):
    """Operation requires a property (smoothness) the given norm lacks."""
