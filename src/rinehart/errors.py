"""Exception types shared across the engine."""


class RinehartError(Exception):
    """Base class for all engine-specific errors."""


class RingMismatch(RinehartError):
    """Operands belong to different ground rings."""


class ArityMismatch(RinehartError):
    """Operands disagree on the number of variables."""


class IdealMismatch(RinehartError):
    """Quotient elements belong to different quotient rings."""


class SpaceMismatch(RinehartError):
    """Fields or forms belong to different Rinehart spaces."""


class NotAUnit(RinehartError):
    """The element has no multiplicative inverse."""


class MetricNotMusical(RinehartError):
    """The metric does not certify an invertible Gram matrix."""


class NotEuclidean(RinehartError):
    """The operation requires the Euclidean metric."""


class TwoNotAUnit(RinehartError):
    """The Koszul formula or a sphere quotient needs 2 to be invertible."""


class NotTangent(RinehartError):
    """A vector field argument is not tangent to the hypersurface; `field` is that field."""

    def __init__(self, argument: str, field):
        super().__init__(f"field {argument!r} is not tangent to the hypersurface")
        self.argument = argument
        self.field = field


class DegreeOverflow(RinehartError):
    """A monomial exceeds the total degree that packed keys can hold."""


class ParseError(RinehartError):
    """A polynomial or scalar string failed to parse."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ValidationError(RinehartError):
    """A space specification is structurally invalid."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def spec_object(field: str, value, keys: tuple) -> dict:
    """`value` as a spec object whose keys all lie in `keys`, else a ValidationError of `field`."""
    if not isinstance(value, dict):
        raise ValidationError(field, "must be an object")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValidationError(field, f"unknown key {unknown[0]!r}; known keys: {', '.join(keys)}")
    return value
