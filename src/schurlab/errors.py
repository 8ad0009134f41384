"""Exception types shared across the package."""


class SchurLabError(Exception):
    """Base class for all schurlab errors."""


class NonFinite(SchurLabError):
    """Matrix or vector contains NaN/Inf entries."""


class InvalidExponent(SchurLabError):
    """Schatten exponent outside [1, inf]."""


class ShapeMismatch(SchurLabError):
    """Operands have incompatible shapes."""


class ShapeInvalid(SchurLabError):
    """Operand is not a rectangular dense matrix."""


class OutOfDomain(SchurLabError):
    """Point lies outside the symbol's domain box or chart."""


class DegenerateGradient(SchurLabError):
    """Gradient too small to define a normal direction."""


class NoConvergence(SchurLabError):
    """Iterative solve failed to reach tolerance."""


class NonTransverse(SchurLabError):
    """Boundary point fails the transversality condition."""


class NonTransverseSample(NonTransverse):
    """A sampled point needed by a curvature check is non-transverse."""


class RequiresC2(SchurLabError):
    """Second derivatives are not available for this symbol."""


class ZeroDirection(SchurLabError):
    """Direction vector is (numerically) zero."""


class ZeroVector(ZeroDirection):
    """Normal component is (numerically) zero."""


class NegativeWeight(SchurLabError):
    """Compression weights must be entrywise nonnegative."""


class GroupMismatch(SchurLabError):
    """Group elements belong to different groups, or the operation is
    undefined for this group."""


class DegenerateBasis(SchurLabError):
    """Candidate subspace vectors are linearly dependent."""


class ExpressionError(SchurLabError):
    """User symbol expression failed to parse or uses forbidden syntax."""


class ConfigInvalid(SchurLabError):
    """Experiment configuration fails schema validation."""
