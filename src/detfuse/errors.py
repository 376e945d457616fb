"""Exception hierarchy, the settings and column rules that raise :class:`ConfigError`, and message echoes.

Every toolkit-specific failure derives from :class:`DetfuseError` so callers
(and the CLI) can distinguish data problems from programming errors.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from typing import Sequence

import numpy as np


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


@functools.lru_cache(maxsize=256)
def _closed_ends(bounds: str, integer: bool) -> tuple:
    """The least and the greatest value in ``bounds``: with ``integer`` Python integers (or an
    infinite end), so that ``int64`` is never compared as a float, and else ``np.float64``
    values, so that a narrower float is compared as a ``float64``. A number lies in ``bounds``
    exactly when it lies between them, inclusive; NaN does not."""
    low, high = (float(end) for end in bounds[1:-1].split(","))
    if integer:
        low = low if math.isinf(low) else int(low) + (bounds[0] == "(")
        high = high if math.isinf(high) else int(high) - (bounds[-1] == ")")
    else:
        low = math.nextafter(low, math.inf) if bounds[0] == "(" else low
        high = math.nextafter(high, -math.inf) if bounds[-1] == ")" else high
        low, high = np.float64(low), np.float64(high)
    return low, high


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


def column_problems(columns: Sequence[tuple]) -> list[str]:
    """The problems of the columns ``columns``, each a ``(name, array, bounds, integer)``.

    Each entry of an array is a setting that :func:`setting_problems` checks with
    ``bounds`` and ``integer``; the problems are those of the first row holding a
    bad entry, one per bad entry, at ``name[i]``. Columns of unequal lengths are
    one problem instead. A column whose ``bounds`` is ``None`` is only counted.
    """
    lengths = [len(array) for _, array, _, _ in columns]
    if len(set(lengths)) > 1:
        names = [name for name, _, _, _ in columns]
        return [f"{', '.join(names[:-1])} and {names[-1]} must be of one length, got {lengths}"]
    checked = [column for column in columns if column[2] is not None]
    if all(map(_holds, checked)):
        return []
    for i, row in enumerate(zip(*(array.tolist() for _, array, _, _ in checked))):
        problems = [
            problem
            for (name, _, bounds, integer), value in zip(checked, row)
            for problem in setting_problems(f"{name}[{i}]", value, bounds, integer=integer)
        ]
        if problems:
            return problems
    return []


def _holds(column: tuple) -> bool:
    """Whether the least and the greatest entry of a numeric ``(name, array, bounds, integer)``
    column lie in its bounds, so that every entry does and none is NaN. Each entry of another
    column, of bools or objects, is left to :func:`setting_problems`."""
    _, array, bounds, integer = column
    if not len(array):
        return True
    if array.dtype.kind not in ("iu" if integer else "iuf"):
        return False
    low, high = _closed_ends(bounds, integer)
    least, greatest = np.minimum.reduce(array), np.maximum.reduce(array)
    if integer:
        least, greatest = least.item(), greatest.item()
    return low <= least and greatest <= high


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
