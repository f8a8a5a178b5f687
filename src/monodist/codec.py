"""Canonical bytes and the one decoder that every JSON record format goes through.

The helpers are private so that tracing the package's public functions
counts their time inside the parser or serialiser that calls them.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

from .errors import DataError

# json's C encoder, exact where indent adds nothing: scalars, empty containers, {key: 0}
_flat = json.JSONEncoder().encode


class _Table(dict):
    """``{key: column}``, encoded as ``[dict(zip(table, row)) for row in zip(*table.values())]``."""


def _dump(doc: dict) -> bytes:
    """Canonical record bytes: those of ``json.dumps(doc, indent=2)`` plus one newline."""
    return (_column([doc], "\n")[0] + "\n").encode("ascii")


def _column(values: list, nl: str) -> list[str]:
    """The ``json.dumps(indent=2)`` text of each value at margin ``nl`` (newline and indent).

    A column of one kind goes through C-level maps: finite floats and ints by ``repr``,
    strings by json's quoting, the items of lists as one column, and same-keyed dicts
    (same order) or `_Table` rows as one column per key. Other values go one at a time.
    """
    kinds, inner = set(map(type, values)), nl + "  "
    if kinds == {int} or kinds == {float} and math.isfinite(sum(values)):
        return list(map(repr, values))  # a NaN or infinity makes the sum NaN or infinite
    if kinds == {str}:
        return list(map(_quote, values))
    if kinds == {list} and all(values):
        items = iter(_column(list(chain.from_iterable(values)), inner))
        return [f"[{inner}{(',' + inner).join(islice(items, len(v)))}{nl}]" for v in values]
    if kinds == {_Table}:
        rows = (_rows(t, list(t.values()), inner) for t in values)
        return [f"[{inner}{(',' + inner).join(r)}{nl}]" if r else "[]" for r in rows]
    shapes = set(map(tuple, values)) if kinds == {dict} and all(values) else ()
    if len(shapes) == 1:
        keys = shapes.pop()
        return _rows(keys, [list(map(itemgetter(k), values)) for k in keys], nl)
    return [_value(v, nl) for v in values]


def _rows(keys, columns: list[list], nl: str) -> list[str]:
    """The text at margin ``nl`` of a dict of ``keys`` per row of ``columns``, by one template."""
    inner = nl + "  "
    texts = [_column(c, inner) for c in columns]
    fields = (_flat({k: 0})[1:-4].replace("%", "%%") + ": %s" for k in keys)
    return list(map(f"{{{inner}{(',' + inner).join(fields)}{nl}}}".__mod__, zip(*texts)))


def _value(v, nl: str) -> str:
    """One value of a mixed column; a table or a non-empty container is a column of one."""
    if isinstance(v, _Table):
        return _column([v], nl)[0]
    if not (isinstance(v, (list, tuple, dict)) and v):
        return _flat(v)
    return _column([dict(v) if isinstance(v, dict) else list(v)], nl)[0]


@contextmanager
def _decode(data: bytes | str, error: type[DataError], what: str) -> Iterator[dict]:
    """Decode one JSON object for the ``with`` block that builds its record.

    Bad UTF-8, bad JSON, a top level that is not an object, and any missing
    or malformed field or invalid value met inside the block (``int`` of an
    infinite float included) are all raised as ``error``.
    """
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as e:  # JSONDecodeError, UnicodeDecodeError, nesting
        raise error(f"malformed {what} JSON: {e}") from None
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object, got {type(doc).__name__}")
    try:
        yield doc
    except DataError as e:
        raise error(str(e)) from None
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise error(f"missing or malformed field: {e}") from None
