"""Exception types shared across the toolkit, and the integer and real-number
rules its loaders and parameter classes share."""

import numbers


class EquimineError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(EquimineError, ValueError):
    """Input violates a documented precondition or invariant."""


class ParseError(EquimineError, ValueError):
    """Malformed input file. The message leads with the 1-based line number when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")


class ConvergenceError(EquimineError, RuntimeError):
    """Iterative method failed to converge within its iteration cap."""

    def __init__(self, message, iterations):
        super().__init__(f"{message} (after {iterations} iterations)")


class DegenerateColumnError(ValidationError):
    """A matrix column is unusable (e.g. all zeros). Names the indicator."""

    def __init__(self, indicator, message="column is all zeros"):
        super().__init__(f"indicator {indicator!r}: {message}")


class SingularityError(EquimineError, ZeroDivisionError):
    """A leave-one-out mean hit zero for the named country and year."""

    def __init__(self, country, year):
        super().__init__(
            f"leave-one-out mean score is zero for country {country!r} in year {year}"
        )
        self.country = country
        self.year = year


class TrainingError(EquimineError, RuntimeError):
    """Training diverged or left an unusable network. Carries the epoch at
    which training diverged, or None when the trained network is the fault."""

    def __init__(self, message, epoch=None):
        super().__init__(message if epoch is None else f"{message} (epoch {epoch})")
        self.epoch = epoch


class PipelineError(EquimineError):
    """A pipeline stage failed. Carries the stage name and detail fields."""

    def __init__(self, stage, message, detail=None):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage
        self.message = message
        self.detail = dict(detail or {})


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
