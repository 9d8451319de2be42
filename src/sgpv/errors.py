"""Semantic exception types shared across the package, and the range checks that raise them."""


class SgpvError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInterval(SgpvError, ValueError):
    """An interval violates its constraints (NaN endpoint, lo > hi, ...)."""


class TruncationEmpty(SgpvError):
    """Truncation bounds do not intersect the interval."""


class InvalidScale(SgpvError, ValueError):
    """A scale parameter (standard error, variance, sd) is not positive."""


class InvalidProbability(SgpvError, ValueError):
    """A probability-like argument lies outside its required range."""


def check_probability(name: str, value: float) -> None:
    """Raise InvalidProbability unless ``value`` lies in the open interval (0, 1)."""
    if not 0.0 < value < 1.0:
        raise InvalidProbability(f"{name} must be in (0, 1), got {value!r}")


def check_proportion(name: str, value: float) -> None:
    """Raise InvalidProportion unless ``value`` lies in the closed interval [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise InvalidProportion(f"{name} must lie in [0, 1], got {value!r}")


def check_standard_error(se: float) -> None:
    """Raise InvalidScale unless the standard error ``se`` is positive."""
    if not se > 0:
        raise InvalidScale(f"standard error must be positive, got {se!r}")


class InvalidProportion(SgpvError, ValueError):
    """A proportion lies outside [0, 1]."""


class InvalidOdds(SgpvError, ValueError):
    """Prior odds must be strictly positive and finite."""


class UnboundedEstimate(SgpvError):
    """The interval estimate covers the whole real line; truncate it first."""


class DegenerateDesign(SgpvError):
    """A design probability vanished where a Bayes ratio requires it positive."""


class InvalidSummary(SgpvError, ValueError):
    """A group summary has n < 2 or a non-positive standard deviation."""


class InvalidSeries(SgpvError, ValueError):
    """A time series is empty or its time points do not strictly increase, or the
    columns of a series or a screen differ in length."""


class MissingComparator(SgpvError):
    """An operation needs classical p-values that the report does not carry."""


class InvalidConfig(SgpvError, ValueError):
    """A run or simulation configuration value is out of range."""
