"""Exception hierarchy, plus the setting checks that raise :class:`ConfigError`.

Every toolkit-specific failure derives from :class:`DetfuseError` so callers
(and the CLI) can distinguish data problems from programming errors.
"""

from __future__ import annotations

import numbers


class DetfuseError(Exception):
    """Base class for all toolkit errors."""


class MalformedFile(DetfuseError):
    """Input file is not valid JSON or lacks required structure."""


class DanglingReference(DetfuseError):
    """An annotation or record points at an image that does not exist."""


class InvalidCategory(DetfuseError):
    """A category id is outside its documented range."""


class InvalidScore(DetfuseError):
    """A detection score falls outside [0, 1]."""


class CountMismatch(DetfuseError):
    """Split counts do not sum to the dataset size."""


class UniverseMismatch(DetfuseError):
    """Two detection sets cover different image id sets."""


class MissingImage(DetfuseError):
    """A detection references an image unknown to the dataset."""


class DanglingCrop(DetfuseError):
    """A crop classification references a crop id that was never assigned."""


class AxisUnavailable(DetfuseError, ValueError):
    """The requested category axis is not populated in the data."""


class ConfigError(DetfuseError, ValueError):
    """A configuration value is missing, of the wrong type or out of range."""


def is_number(value) -> bool:
    """True for a real number; a bool is not a setting's number."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def fraction_problem(name: str, value) -> list[str]:
    """The problem with a setting that must be a number in [0, 1], if any."""
    if is_number(value) and 0.0 <= value <= 1.0:
        return []
    return [f"{name} must be a number in [0, 1], got {value!r}"]


def raise_problems(problems: list[str]) -> None:
    """Raise one :class:`ConfigError` that lists every problem found."""
    if problems:
        raise ConfigError("; ".join(problems))
