"""Indented JSON text, byte-identical to what the stdlib ``json`` module
writes with ``sort_keys=True`` and ``indent=2`` for a payload whose dict keys
are all strings, that renders each container from its previous sibling. Any
other key raises ``TypeError``; every payload the package writes has string
keys only.

Reports share objects: every step of a simulation report points at the same
per-node usage dicts until a placement replaces one. The stdlib encoder is
pure Python once ``indent`` is set and renders every occurrence again. Each
dict key order is sorted and its keys encoded once per call, so the many
usage dicts with one node set share one plan. The top two levels are
produced piece by piece, so a writer never holds more than one of their
children's text at a time.

Sibling reuse: the call keeps, per depth, the last container rendered there
with its label list, its children and its entries (separator, label and
child text). A container at that depth with the same label list (the same
object) and the same length copies those entries and renders again only the
children that are not the very same objects as before. Identity, not
equality, decides: ``0.0`` and ``-0.0``, or ``1``, ``True`` and ``1.0``, are
equal and render differently. Reuse pays only where consecutive same-shaped
containers at one depth share children by identity, as report steps do. The
record keeps what it compares against alive, so an id cannot be reused while
the generator runs.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from operator import is_not

_INDENT = "  "
_STREAMED_LEVELS = 2
_INF = float("inf")
# The record of a depth where nothing was rendered: no children, so it
# matches no container (an empty one is never looked up).
_NO_RECORD = (None, (), None)


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


def _entries(obj, plans: dict) -> tuple[str, str, list[str] | None, list | tuple]:
    """A container's brackets, its labels (``'"key": '`` for each dict
    entry, ``None`` for a list) and its children, in output order. ``plans``
    keeps each key order's sorted keys (None if it is sorted) and labels for
    the whole write, so dicts with equal key orders share one label list."""
    if isinstance(obj, dict):
        keys = tuple(obj)
        plan = plans.get(keys)
        if plan is None:
            for key in keys:
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
            order = sorted(keys)
            plan = plans[keys] = (order if order != list(keys) else None,
                                  [_encode_str(key) + ": " for key in order])
        order, labels = plan
        return "{", "}", labels, list(map(obj.__getitem__, order) if order else obj.values())
    if isinstance(obj, (list, tuple)):
        return "[", "]", None, obj
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _container(obj, depth: int, plans: dict, records: dict) -> str:
    """The text of a container nested ``depth`` levels deep."""
    open_, close, labels, children = _entries(obj, plans)
    if not children:
        return open_ + close
    below = depth + 1
    # Sibling reuse (see the module docstring): a report step's node_usage
    # differs from the step before it in one node's dict.
    last_labels, last_children, entries = records.get(depth, _NO_RECORD)
    if last_labels is labels and len(last_children) == len(children):
        entries = entries.copy()
        changed = compress(range(len(children)), map(is_not, children, last_children))
    else:
        entries = [None] * len(children)
        changed = range(len(children))
    inner = "\n" + _INDENT * below
    for n in changed:
        child = children[n]
        text = _scalar(child)
        if text is None:
            text = _container(child, below, plans, records)  # or raises TypeError
        head = ("," if n else open_) + inner
        entries[n] = head + labels[n] + text if labels else head + text
    records[depth] = (labels, children, entries)
    return "".join(entries) + "\n" + _INDENT * depth + close


def _stream(obj, depth: int, plans: dict, records: dict) -> Iterator[str]:
    text = _scalar(obj)
    if text is not None or depth == _STREAMED_LEVELS:
        yield text or _container(obj, depth, plans, records)
        return
    open_, close, labels, children = _entries(obj, plans)
    if not children:
        yield open_ + close
        return
    inner = "\n" + _INDENT * (depth + 1)
    separator = open_ + inner
    for label, child in zip(labels or repeat(""), children):
        yield separator + label
        yield from _stream(child, depth + 1, plans, records)
        separator = "," + inner
    yield "\n" + _INDENT * depth + close


def iter_indented_json(payload) -> Iterator[str]:
    """Yield the JSON text of ``payload``, keys sorted and indented by two
    spaces as the stdlib ``json`` module writes it, in pieces for
    ``handle.writelines``: byte-identical to ``json.dumps(payload,
    sort_keys=True, indent=2)`` when every dict key is a string.

    Raises ``TypeError`` for a value JSON cannot hold, as ``json`` does, and
    for any dict key that is not a string, which ``json`` would convert.
    The sibling records compare children by identity; every compared object
    stays reachable from ``payload`` or a record, so an id cannot be reused
    while the generator runs, and ``payload`` must not change until the
    generator is exhausted.
    """
    plans: dict[tuple, tuple[list | None, list[str]]] = {}
    # Keyed by depth (a container's indentation depends on it): the labels,
    # children and entries of the last container rendered there.
    records: dict[int, tuple] = {}
    yield from _stream(payload, 0, plans, records)
