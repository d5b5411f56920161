"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all geometry errors raised by this package."""


class OutOfDomain(GeometryError):
    """A point lies outside the chart domain."""


class DegenerateMetric(GeometryError):
    """Metric matrix is singular or has the wrong signature."""


class SpaceFormMismatch(DegenerateMetric):
    """A space-form chart's sampled sectional curvature is not finite or misses its c beyond the bound."""


class DegeneratePlane(GeometryError):
    """A 2-plane is degenerate for the metric (Gram determinant ~ 0)."""


class SamplingFailure(GeometryError):
    """A sampler found no admissible sample of the configured geometry."""


class PointMismatch(GeometryError):
    """Two bundle vectors do not live at the same bundle point."""


class NoSolvableCoordinate(GeometryError):
    """No fiber coordinate has a usable constraint gradient (defensive)."""


class InvalidConfig(GeometryError):
    """A verification-suite configuration violates its invariants."""


class IOFailure(GeometryError):
    """Report emission failed at the I/O layer."""
