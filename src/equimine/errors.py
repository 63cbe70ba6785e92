"""Exception types shared across the toolkit, and the label, integer, real-number and
string rules its loaders and parameter classes share."""

import numbers


class EquimineError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(EquimineError, ValueError):
    """Input violates a documented precondition or invariant."""


class ParseError(EquimineError, ValueError):
    """Malformed input file. The message leads with the 1-based line number when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")


class PipelineError(EquimineError):
    """A pipeline stage failed. Carries the stage name and detail fields."""

    def __init__(self, stage, message, detail=None):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage
        self.message = message
        self.detail = dict(detail or {})


def check_labels(labels, n: int, what: str):
    """Raise ValidationError unless `labels` holds n labels, none repeated; name a repeat."""
    if len(labels) != n:
        raise ValidationError(f"expected {n} {what} labels, got {len(labels)}")
    if len(set(labels)) != n:
        repeated = next(x for i, x in enumerate(labels) if x in labels[:i])
        raise ValidationError(f"{what} label {repeated!r} is repeated; labels must be distinct")


def as_integer(value, what="value") -> int:
    """`value` as an int: an int or numpy integer that is not a bool, or a float
    with no fractional part. Anything else raises ValidationError naming `what`."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_real(value, what="value") -> float:
    """`value` as a float: an int, float or numpy number that is not a bool. Anything
    else, a numeric string included, raises ValidationError naming `what`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    return float(value)


def as_text(value, what="value") -> str:
    """`value` if it is a str; anything else raises ValidationError naming `what`."""
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string, got {value!r}")
    return value
