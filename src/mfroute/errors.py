"""Exception types shared across the package."""


class MFRouteError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MFRouteError):
    """Scenario file cannot be read or does not match the schema."""


class ValidationError(MFRouteError):
    """Scenario or network data violates a model assumption."""


class CycleDetected(ValidationError):
    """The edge set contains a directed cycle."""


class Unreachable(ValidationError):
    """Some vertex is not reachable from the origin, or cannot reach the destination."""


class BadEdge(ValidationError):
    """An edge is malformed: self-loop, nonpositive length or capacity, unknown endpoint."""


class TooManyPaths(ValidationError):
    """Path enumeration exceeded the configured limit."""


class ShapeMismatch(MFRouteError):
    """Array arguments do not share the expected (pair, node) shape."""


class SimplexViolation(MFRouteError):
    """Initial path preferences do not sum to the initial throughput."""


class DegenerateSimplex(MFRouteError):
    """Preference vector sums to a nonpositive value; splitting fractions undefined."""


class MassBoundExceeded(MFRouteError):
    """Integrated edge mass exceeded the configured maximum; capacity margins too tight."""
