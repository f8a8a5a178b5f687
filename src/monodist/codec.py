"""Canonical bytes and the one decoder that every JSON record format goes through.

The helpers are private so that tracing the package's public functions
counts their time inside the parser or serialiser that calls them.
"""
from __future__ import annotations

import json
from collections.abc import Iterator
from contextlib import contextmanager

from .errors import DataError


def _dump(doc: dict) -> bytes:
    """Canonical record bytes: 2-space indented JSON, one trailing newline, UTF-8."""
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


@contextmanager
def _decode(data: bytes | str, error: type[DataError], what: str) -> Iterator[dict]:
    """Decode one JSON object for the ``with`` block that builds its record.

    Bad UTF-8, bad JSON, a top level that is not an object, and any missing
    or malformed field or invalid value met inside the block (``int`` of an
    infinite float included) are all raised as ``error``.
    """
    try:
        doc = json.loads(data)
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise error(f"malformed {what} JSON: {e}") from None
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object, got {type(doc).__name__}")
    try:
        yield doc
    except DataError as e:
        raise error(str(e)) from None
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise error(f"missing or malformed field: {e}") from None
