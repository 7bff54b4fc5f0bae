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
    """repr(value), cut after `limit` characters (with the full length) when longer. A list
    or tuple is rendered item by item, and rendering stops once the text passes `limit`
    (after its first item, so a value nested too deep for repr stays too deep to show); a
    cut that leaves items unrendered gives the value's item count instead of a length."""
    try:
        text, whole = _render(value, limit)
    except RecursionError:  # a JSON value parsed just inside the nesting limit
        return "a value nested too deep to show"
    if whole:
        return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"
    n = len(value)
    return f"{text[:limit]}... (a {type(value).__name__} of {n} item{'s' * (n != 1)})"


def _render(value, limit: int) -> tuple[str, bool]:
    """repr(value) and True, except for a list or tuple whose text passes `limit`
    characters with items after the first still to render: then the text so far and False."""
    if type(value) is list:
        text, closing = "[", "]"
    elif type(value) is tuple:
        text, closing = "(", ",)" if len(value) == 1 else ")"
    else:
        return repr(value), True
    for i, item in enumerate(value):
        if i and len(text) > limit:
            return text, False
        part, whole = _render(item, limit - len(text))
        text += f", {part}" if i else part
        if not whole:
            return text, False
    return text + closing, True


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
