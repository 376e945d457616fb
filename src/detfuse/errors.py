"""Exception hierarchy, the settings rules that raise :class:`ConfigError`, and message echoes.

Every toolkit-specific failure derives from :class:`DetfuseError` so callers
(and the CLI) can distinguish data problems from programming errors.
"""

from __future__ import annotations

import numbers
import sys


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


def shorten(value) -> str:
    """``repr(value)``, or past 120 characters its start and length; 4-float boxes fit."""
    text, limit = repr(value), 120
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


def _within(x, bounds: str):
    """Whether the number ``x``, or each number of an array ``x``, lies in ``bounds``; NaN does not."""
    low, high = (float(end) for end in bounds[1:-1].split(","))
    return (low < x if bounds[0] == "(" else low <= x) & (x < high if bounds[-1] == ")" else x <= high)


def setting_problems(name: str, value, bounds: str, *, integer=False, optional=False) -> list[str]:
    """The problem with the setting ``name``, if any, as a list of at most one message.

    A setting's number is a real number that is not a bool, and finite (an
    integer too large for a float is not); with ``integer`` it must be an
    integer. ``bounds`` is its range in interval notation, such as ``"[0, 1)"``
    or ``"(0, inf)"``. With ``optional``, ``None`` leaves the setting unset.
    """
    if optional and value is None:
        return []
    kinds = numbers.Integral if integer else numbers.Real
    number = isinstance(value, kinds) and not isinstance(value, bool)
    # A float of another width, such as numpy's float32, is compared as a Python float.
    x = float(value) if number and not isinstance(value, numbers.Rational) else value
    if number and (integer or -sys.float_info.max <= x <= sys.float_info.max) and _within(x, bounds):
        return []
    kind = f"{'an integer' if integer else 'a number'} in {bounds}{' when set' if optional else ''}"
    return [f"{name} must be {kind}, got {shorten(value)}"]


def choice_problems(name: str, value, choices) -> list[str]:
    """The problem with the flag, name or choice ``name``, if any, as a list of at most one message.

    ``choices`` is ``bool`` for a flag, which must be ``True`` or ``False``;
    ``str`` for a name, which must be a string; or else the tuple of the
    strings allowed.
    """
    if choices is bool or choices is str:
        ok, kind = type(value) is choices, "a bool" if choices is bool else "a string"
    else:
        ok, kind = type(value) is str and value in choices, f"one of {choices}"
    return [] if ok else [f"{name} must be {kind}, got {shorten(value)}"]


def raise_problems(problems: list[str]) -> None:
    """Raise one :class:`ConfigError` that lists every problem found."""
    if problems:
        raise ConfigError("; ".join(problems))
