"""Indented JSON text, byte-identical to what the stdlib ``json`` module
writes with ``sort_keys=True`` and ``indent=2``, that renders each repeated
flat object once.

Reports share objects: every step of a simulation report points at the same
per-node usage dicts until a placement replaces one. The stdlib encoder is
pure Python once ``indent`` is set and renders every occurrence again. Here
a container whose children are all scalars is rendered once per nesting
depth (its indentation depends on the depth) and reused for the rest of the
call. The top two levels are produced piece by piece, so a writer never
holds more than one of their children's text at a time.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _encode_str
from typing import Iterator

_INDENT = "  "
_STREAMED_LEVELS = 2
_INF = float("inf")


def _scalar(value) -> str | None:
    """The JSON text of a scalar, or ``None`` when ``value`` is not one."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    return None


def _entries(obj) -> tuple[str, str, list[tuple[str, object]]]:
    """A container's brackets and its ``(label, child)`` pairs, where the
    label is ``'"key": '`` for a dict entry and empty for a list item."""
    if isinstance(obj, dict):
        entries = []
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                key = _scalar(key)
                if key is None:
                    raise TypeError("keys must be str, int, float, bool or None")
            entries.append((_encode_str(key) + ": ", value))
        return "{", "}", entries
    if isinstance(obj, (list, tuple)):
        return "[", "]", [("", value) for value in obj]
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _container(obj, depth: int, memo: dict) -> str:
    """The text of a container nested ``depth`` levels deep."""
    text = memo.get((id(obj), depth))
    if text is not None:
        return text
    open_, close, entries = _entries(obj)
    if not entries:
        return open_ + close
    inner = "\n" + _INDENT * (depth + 1)
    flat = True
    parts = []
    for label, child in entries:
        text = _scalar(child)
        if text is None:
            flat = False
            text = _container(child, depth + 1, memo)
        parts.append(label + text)
    text = open_ + inner + ("," + inner).join(parts) + "\n" + _INDENT * depth + close
    if flat:
        memo[id(obj), depth] = text
    return text


def _stream(obj, depth: int, memo: dict) -> Iterator[str]:
    text = _scalar(obj)
    if text is not None or depth == _STREAMED_LEVELS:
        yield text or _container(obj, depth, memo)
        return
    open_, close, entries = _entries(obj)
    if not entries:
        yield open_ + close
        return
    inner = "\n" + _INDENT * (depth + 1)
    separator = open_ + inner
    for label, child in entries:
        yield separator + label
        yield from _stream(child, depth + 1, memo)
        separator = "," + inner
    yield "\n" + _INDENT * depth + close


def iter_indented_json(payload) -> Iterator[str]:
    """Yield the JSON text of ``payload``, keys sorted and indented by two
    spaces as the stdlib ``json`` module writes it, in pieces for
    ``handle.writelines``.

    Raises ``TypeError`` for a value JSON cannot hold, as ``json`` does.
    The memo keys objects by ``id``; every keyed object stays reachable from
    ``payload``, so an id cannot be reused while the generator runs, and
    ``payload`` must not change until the generator is exhausted.
    """
    # Keyed by (id, depth), not id: the same dict may sit at two depths,
    # and its indentation differs between them.
    memo: dict[tuple[int, int], str] = {}
    yield from _stream(payload, 0, memo)
