"""Domain types for nodes, layers, images, containers, and tasks.

Sizes are bytes, CPU is millicores throughout. All types are values: a
placement builds a new node state and leaves its input untouched (see
:func:`~layersched.scheduler.commit_placement`). Which placements fit is
decided by the scheduler's kernel, not here.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from functools import reduce

from .errors import UnknownImage

# Content digest of a layer, e.g. "sha256:abcd...". Opaque; compared by
# exact string equality.
LayerId = str


def ordered_sum(values):
    """Add ``values`` left to right, rounding after each addition, as
    ``sum`` did before Python 3.12; since then ``sum`` compensates float
    rounding, which would make reports differ across Python versions."""
    return reduce(operator.add, values, 0)


def _finite(number) -> bool:
    """Whether ``number`` is one float arithmetic can use: not NaN, not
    infinite and not an int beyond the float range."""
    try:
        return math.isfinite(number)
    except OverflowError:  # an int beyond the float range
        return False


class _Record:
    """A value type whose constructor stores each of its parameters under its
    name, in signature order; ``_fields`` lists them. Instances are equal when
    they are of the same class and their fields, less ``_uncompared``, are
    equal; the repr shows the fields less ``_hidden``. Like a dataclass that
    compares, an instance is unhashable unless it is :class:`_Frozen`."""

    _fields: tuple[str, ...]
    _hidden: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        init = vars(cls).get("__init__")
        if init is None:  # _Frozen, which keeps the fields of its base
            return
        code = init.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        cls._shown = tuple(name for name in cls._fields if name not in cls._hidden)
        # A tuple for several names, the bare value for one, which compares
        # the same; no frozen (hashed) record compares just one field.
        cls._key = operator.attrgetter(
            *(name for name in cls._fields if name not in cls._uncompared))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"


class _Frozen(_Record):
    """A :class:`_Record` that is hashable and refuses assignment; its
    constructor fills ``vars(self)`` directly."""

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: _Record, /, **changes) -> _Record:
    """A copy of ``record`` with ``changes`` to its fields, built through its
    constructor, so that every check a new record meets runs again."""
    return type(record)(**{name: getattr(record, name) for name in record._fields} | changes)


class ImageRef(_Frozen):
    """An image identified by name and tag; the pair is the unique key. Its
    hash, ``hash((name, tag))``, is computed once; a pickle carries only the
    pair, so a process with another string-hash seed recomputes it."""

    def __init__(self, name: str, tag: str):
        if not name or not tag:
            raise ValueError("image name and tag must be non-empty")
        vars(self).update(name=name, tag=tag, _hash=hash((name, tag)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), (self.name, self.tag)

    @property
    def key(self) -> str:
        return f"{self.name}:{self.tag}"

    @classmethod
    def parse(cls, ref: str) -> "ImageRef":
        """Split a ``name:tag`` string on the last colon; a tag holds no ``/``."""
        name, sep, tag = ref.rpartition(":")
        if not sep or not name or not tag or "/" in tag:
            raise ValueError(f"not a name:tag reference: {ref!r}")
        return cls(name, tag)


class LayerCatalog(_Record):
    """The universe of layers and the images assembled from them.

    ``layers`` maps each layer digest to its size in bytes; ``images`` maps
    each image to its ordered layer stack (each a new empty dict if not
    given). Identical digests across images are the same catalog entry,
    which is what makes layers shareable.
    """

    def __init__(self, layers: dict[LayerId, int] | None = None,
                 images: dict[ImageRef, tuple[LayerId, ...]] | None = None):
        self.layers = {} if layers is None else layers
        self.images = {} if images is None else images
        for digest, size in self.layers.items():
            if not digest:
                raise ValueError("layer digest must be non-empty")
            if not (size > 0 and _finite(size)):
                raise ValueError(f"layer {digest!r} has size {size}; must be finite and > 0")
        for image, stack in self.images.items():
            if len(set(stack)) != len(stack):
                raise ValueError(f"image {image.key} lists a duplicate layer")
            for digest in stack:
                if digest not in self.layers:
                    raise ValueError(
                        f"image {image.key} references unknown layer {digest!r}"
                    )

    def image_total_size(self, image: ImageRef) -> int:
        """Sum of the image's layer sizes in bytes, in stack order."""
        return ordered_sum(size for _, size in layers_of(self, image))


class NodeSpec(_Frozen):
    """Static description of an edge node."""

    def __init__(self, id: str, cpu_capacity: int, mem_capacity: int, bandwidth: int,
                 storage_capacity: int, max_containers: int = 110):
        vars(self).update(id=id, cpu_capacity=cpu_capacity, mem_capacity=mem_capacity,
                          bandwidth=bandwidth, storage_capacity=storage_capacity,
                          max_containers=max_containers)
        for name in ("cpu_capacity", "mem_capacity", "bandwidth", "storage_capacity"):
            # An infinite capacity fits every request, yet least-allocated
            # scores it (inf - request) / inf, a NaN, which never wins.
            value = getattr(self, name)
            if not (value > 0 and _finite(value)):
                raise ValueError(f"node {id}: {name} must be finite and > 0")
        if not max_containers >= 1:
            raise ValueError(f"node {id}: max_containers must be >= 1")


class TaskRequest(_Frozen):
    """One deployment request: an image plus CPU and memory demands."""

    def __init__(self, task_id: str, image: ImageRef, cpu_request: int, mem_request: int):
        if not (cpu_request > 0 and _finite(cpu_request)):
            raise ValueError(f"task {task_id}: cpu_request must be finite and > 0")
        if not (mem_request >= 0 and _finite(mem_request)):
            raise ValueError(f"task {task_id}: mem_request must be finite and >= 0")
        vars(self).update(task_id=task_id, image=image, cpu_request=cpu_request,
                          mem_request=mem_request)


class NodeState(_Frozen):
    """A node's cached layers/images, running containers, and commitments.

    Resource accounting uses requested (committed) amounts, not measured
    usage, and a committed amount must be finite and >= 0, as a sum of
    placed requests is. Instances are immutable; the scheduler's kernel
    keeps node state in columns and builds a ``NodeState`` from them when it
    is read, as :func:`~layersched.scheduler.commit_placement` does for its
    result.
    """

    def __init__(self, spec: NodeSpec, local_layers: frozenset[LayerId] = frozenset(),
                 local_images: frozenset[ImageRef] = frozenset(),
                 running: tuple[TaskRequest, ...] = (), cpu_committed: int = 0,
                 mem_committed: int = 0):
        for name, value in (("cpu_committed", cpu_committed), ("mem_committed", mem_committed)):
            if not (value >= 0 and _finite(value)):
                raise ValueError(f"node {spec.id}: {name} must be finite and >= 0")
        vars(self).update(spec=spec, local_layers=local_layers, local_images=local_images,
                          running=running, cpu_committed=cpu_committed,
                          mem_committed=mem_committed)

    def stored_layer_bytes(self, catalog: LayerCatalog) -> int:
        """Bytes currently occupied by cached layers, per catalog sizes,
        added in sorted digest order."""
        return ordered_sum(map(catalog.layers.__getitem__, sorted(self.local_layers)))

    def cpu_ratio(self) -> float:
        return self.cpu_committed / self.spec.cpu_capacity

    def mem_ratio(self) -> float:
        return self.mem_committed / self.spec.mem_capacity


def layers_of(catalog: LayerCatalog, image: ImageRef) -> list[tuple[LayerId, int]]:
    """The image's layer stack with sizes, manifest order preserved."""
    try:
        stack = catalog.images[image]
    except KeyError:
        raise UnknownImage(f"image not in catalog: {image.key}") from None
    return [(digest, catalog.layers[digest]) for digest in stack]


def missing_layers(node: NodeState, layers: Iterable[LayerId]) -> set[LayerId]:
    """The requested layers the node does not hold. Duplicates collapse."""
    return set(layers) - node.local_layers
