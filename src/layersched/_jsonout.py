"""Indented JSON text, byte-identical to what the stdlib ``json`` module
writes with ``sort_keys=True`` and ``indent=2``, that renders each repeated
flat object once.

Reports share objects: every step of a simulation report points at the same
per-node usage dicts until a placement replaces one. The stdlib encoder is
pure Python once ``indent`` is set and renders every occurrence again. Here
a container whose children are all scalars is rendered once per nesting
depth (its indentation depends on the depth) and reused for the rest of the
call. Each dict key order is sorted and its keys encoded once per call,
so the many usage dicts with one node set share one plan. The top two
levels are produced piece by piece, so a writer never holds more than one
of their children's text at a time.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _encode_str
from typing import Iterator

_INDENT = "  "
_STREAMED_LEVELS = 2
_INF = float("inf")
_CONTAINERS = (dict, list, tuple)


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


def _plan(keys: tuple) -> tuple[list[tuple[object, str]], bool]:
    """The sorted ``(key, '"key": ')`` pairs of a dict with ``keys``, and
    whether the plan may be reused for any dict with equal keys: only
    string keys render by value alone (``1``, ``1.0`` and ``True`` are
    equal keys that render differently)."""
    plan, reusable = [], True
    for key in sorted(keys):
        text = key
        if not isinstance(key, str):
            reusable = False
            text = _scalar(key)
            if text is None:
                raise TypeError("keys must be str, int, float, bool or None")
        plan.append((key, _encode_str(text) + ": "))
    return plan, reusable


def _entries(obj, plans: dict) -> tuple[str, str, list[tuple[str, object]]]:
    """A container's brackets and its ``(label, child)`` pairs, where the
    label is ``'"key": '`` for a dict entry and empty for a list item.
    ``plans`` keeps each reusable key order's plan for the whole write."""
    if isinstance(obj, dict):
        keys = tuple(obj)
        plan = plans.get(keys)
        if plan is None:
            plan, reusable = _plan(keys)
            if reusable:
                plans[keys] = plan
        return "{", "}", [(label, obj[key]) for key, label in plan]
    if isinstance(obj, (list, tuple)):
        return "[", "]", [("", value) for value in obj]
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _container(obj, depth: int, memo: dict, plans: dict) -> str:
    """The text of a container nested ``depth`` levels deep."""
    text = memo.get((id(obj), depth))
    if text is not None:
        return text
    open_, close, entries = _entries(obj, plans)
    if not entries:
        return open_ + close
    inner = "\n" + _INDENT * (depth + 1)
    flat = True
    parts = []
    for label, child in entries:
        if isinstance(child, _CONTAINERS):
            flat = False
            text = (memo.get((id(child), depth + 1))
                    or _container(child, depth + 1, memo, plans))
        else:
            text = _scalar(child)
            if text is None:
                text = _container(child, depth + 1, memo, plans)  # raises TypeError
        parts.append(label + text)
    text = open_ + inner + ("," + inner).join(parts) + "\n" + _INDENT * depth + close
    if flat:
        memo[id(obj), depth] = text
    return text


def _stream(obj, depth: int, memo: dict, plans: dict) -> Iterator[str]:
    text = _scalar(obj)
    if text is not None or depth == _STREAMED_LEVELS:
        yield text or _container(obj, depth, memo, plans)
        return
    open_, close, entries = _entries(obj, plans)
    if not entries:
        yield open_ + close
        return
    inner = "\n" + _INDENT * (depth + 1)
    separator = open_ + inner
    for label, child in entries:
        yield separator + label
        yield from _stream(child, depth + 1, memo, plans)
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
    # Kept apart from the memo so a key tuple and an (id, depth) pair
    # cannot collide.
    plans: dict[tuple, list[tuple[object, str]]] = {}
    yield from _stream(payload, 0, memo, plans)
