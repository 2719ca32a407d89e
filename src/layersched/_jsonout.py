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

from collections import defaultdict
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from operator import add, is_
from typing import Iterable, Iterator

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


def _plan(keys: tuple) -> tuple[tuple[list, list[str]], bool]:
    """The sorted keys of a dict with ``keys`` with their ``'"key": '``
    labels, and whether the plan may be reused for any dict with equal keys: only
    string keys render by value alone (``1``, ``1.0`` and ``True`` are
    equal keys that render differently)."""
    order, labels, reusable = sorted(keys), [], True
    for key in order:
        text = key
        if not isinstance(key, str):
            reusable = False
            text = _scalar(key)
            if text is None:
                raise TypeError("keys must be str, int, float, bool or None")
        labels.append(_encode_str(text) + ": ")
    return (order, labels), reusable


def _entries(obj, plans: dict) -> tuple[str, str, Iterable[str], list]:
    """A container's brackets, its labels (``'"key": '`` for a dict entry,
    empty for a list item) and its children, in output order. ``plans``
    keeps each reusable key order's sorted keys and labels for the whole
    write."""
    if isinstance(obj, dict):
        keys = tuple(obj)
        plan = plans.get(keys)
        if plan is None:
            plan, reusable = _plan(keys)
            if reusable:
                plans[keys] = plan
        order, labels = plan
        return "{", "}", labels, list(map(obj.__getitem__, order))
    if isinstance(obj, (list, tuple)):
        return "[", "]", repeat(""), list(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _container(obj, depth: int, memo: defaultdict, plans: dict) -> str:
    """The text of a container nested ``depth`` levels deep."""
    text = memo[depth].get(id(obj))
    if text is not None:
        return text
    open_, close, labels, children = _entries(obj, plans)
    if not children:
        return open_ + close
    below = depth + 1
    # Look every child up in one pass: most children of a large container
    # (a report step's node_usage) were rendered at this depth before. Only
    # containers are memoised, so a hit means this one is not flat; only
    # the misses are rendered one by one.
    texts = list(map(memo[below].get, map(id, children)))
    misses = list(compress(range(len(texts)), map(is_, texts, repeat(None))))
    flat = len(misses) == len(texts)
    for n in misses:
        child = children[n]
        if isinstance(child, _CONTAINERS):
            flat = False
            text = _container(child, below, memo, plans)
        else:
            text = _scalar(child)
            if text is None:
                text = _container(child, below, memo, plans)  # raises TypeError
        texts[n] = text
    inner = "\n" + _INDENT * below
    text = (open_ + inner + ("," + inner).join(map(add, labels, texts))
            + "\n" + _INDENT * depth + close)
    if flat:
        memo[depth][id(obj)] = text
    return text


def _stream(obj, depth: int, memo: defaultdict, plans: dict) -> Iterator[str]:
    text = _scalar(obj)
    if text is not None or depth == _STREAMED_LEVELS:
        yield text or _container(obj, depth, memo, plans)
        return
    open_, close, labels, children = _entries(obj, plans)
    if not children:
        yield open_ + close
        return
    inner = "\n" + _INDENT * (depth + 1)
    separator = open_ + inner
    for label, child in zip(labels, children):
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
    # Keyed by depth, then id: the same dict may sit at two depths, and its
    # indentation differs between them. A live scalar never shares an id
    # with a memoised container, so looking up a scalar child misses.
    memo: defaultdict[int, dict[int, str]] = defaultdict(dict)
    plans: dict[tuple, tuple[list, list[str]]] = {}
    yield from _stream(payload, 0, memo, plans)
