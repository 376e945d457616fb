"""Exception hierarchy, the settings and column rules that raise :class:`ConfigError`, and message echoes.

Every toolkit-specific failure derives from :class:`DetfuseError` so callers
(and the CLI) can distinguish data problems from programming errors.
"""

from __future__ import annotations

import dataclasses
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


@functools.lru_cache(maxsize=256)
def _closed_ends(bounds: str, integer: bool, finite: bool) -> tuple:
    """The least and the greatest integer (with ``integer``) or float in ``bounds``, interval
    notation such as ``"[0, 1)"``; with ``finite`` neither passes the largest float. A number lies
    in ``bounds`` exactly when it lies between them, inclusive; NaN never does."""
    low, high = (float(end) for end in bounds[1:-1].split(","))
    low_open, high_open = bounds[0] == "(" and low > -math.inf, bounds[-1] == ")" and high < math.inf
    if finite:
        low, high = max(low, -sys.float_info.max), min(high, sys.float_info.max)
    if integer:
        low = low if math.isinf(low) else math.floor(low) + 1 if low_open else math.ceil(low)
        high = high if math.isinf(high) else math.ceil(high) - 1 if high_open else math.floor(high)
    else:
        low = math.nextafter(low, math.inf) if low_open else low
        high = math.nextafter(high, -math.inf) if high_open else high
    return low, high


def _within(x, bounds: str, integer: bool):
    """Whether the number ``x``, or each entry of the integer or ``float64`` array ``x``, lies in
    the range ``bounds`` of a field of integers (``integer``) or of finite numbers: an integer
    between the integer ends of :func:`_closed_ends`, any other number between its float ends."""
    if isinstance(x, np.generic):
        x = x.item()
    whole = x.dtype.kind in "iu" if isinstance(x, np.ndarray) else isinstance(x, int)
    low, high = _closed_ends(bounds, whole, not integer)
    if whole and isinstance(x, np.ndarray):
        # numpy 1.x compares an integer array with an integer outside its dtype as floats.
        info = np.iinfo(x.dtype)
        low, high = max(low, info.min), min(high, info.max)
        if low > high:
            return np.zeros(x.shape, bool)
    return (low <= x) & (x <= high)


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
    if isinstance(value, kinds) and not isinstance(value, bool) and _within(value, bounds, integer):
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
    least, greatest = np.minimum.reduce(array).item(), np.maximum.reduce(array).item()
    return _within(least, bounds, integer) and _within(greatest, bounds, integer)


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


def settings_from(make: type, payload, what: str, problems: Sequence[str] = ()):
    """The settings dataclass ``make`` built from the JSON object ``payload`` of its fields, read
    from a ``what``. One :class:`ConfigError` lists ``problems``, a ``payload`` that is no object,
    each key ``make`` has no init field for, in ``repr`` order, and each problem of its rule."""
    problems = list(problems)
    if not isinstance(payload, dict):
        raise_problems([*problems, f"{what} must be a JSON object"])
    names = {f.name for f in dataclasses.fields(make) if f.init}
    if unknown := sorted(payload.keys() - names, key=repr):
        problems.append(f"unknown {what} keys: {shorten(unknown)}")
    try:
        settings = make(**{key: payload[key] for key in payload.keys() & names})
    except ConfigError as exc:
        problems.append(str(exc))
    raise_problems(problems)
    return settings
