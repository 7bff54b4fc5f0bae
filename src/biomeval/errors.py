"""Exception types shared across the package, and helpers that keep their messages bounded."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

# Error messages that list ids show at most this many of them.
MESSAGE_LIST_LIMIT = 10


def duplicates(values: Iterable[str]) -> list[str]:
    """Values that occur more than once, sorted; one counting pass."""
    return sorted(v for v, n in Counter(values).items() if n > 1)


def no_repeats(name: str, values: Sequence) -> Sequence:
    """values, unless the list setting `name` holds a value twice (1 and 1.0 are one value)."""
    if len(set(values)) != len(values):
        raise ValidationError(f"{name} must not repeat, got {brief(list(values))}")
    return values


def preview(items: Sequence[str]) -> str:
    """The first MESSAGE_LIST_LIMIT items as a list, each cut by brief, plus the total
    count when some are cut."""
    shown = f"[{', '.join(map(brief, items[:MESSAGE_LIST_LIMIT]))}]"
    if len(items) <= MESSAGE_LIST_LIMIT:
        return shown
    return f"{shown} (first {MESSAGE_LIST_LIMIT} of {len(items)})"


def brief(value, limit: int = 40) -> str:
    """repr(value), cut after `limit` characters (with the full length) when longer."""
    try:
        text = repr(value)
    except RecursionError:  # a JSON value parsed just inside the nesting limit
        return "a value nested too deep to show"
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


def json_error(exc) -> str:
    """A json.JSONDecodeError's message with the line and column it names."""
    return f"invalid JSON ({exc.msg}) at line {exc.lineno} column {exc.colno}"


class BiomevalError(Exception):
    """Base class for errors raised by this package."""


class ParseError(BiomevalError):
    """A line or document could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(BiomevalError, ValueError):
    """Parsed data or a setting violates a declared invariant."""


class FormatError(BiomevalError):
    """A binary or structured file does not match its declared format."""


class ProtocolError(BiomevalError):
    """A gallery/probe protocol is unusable for the requested metric."""
