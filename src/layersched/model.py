"""Domain types for nodes, layers, images, containers, and tasks.

Sizes are bytes, CPU is millicores throughout. All types are values: a
placement builds a new node state and leaves its input untouched (see
:func:`~layersched.scheduler.commit_placement`). Which placements fit is
decided by the scheduler's kernel, not here.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from .errors import UnknownImage

# Content digest of a layer, e.g. "sha256:abcd...". Opaque; compared by
# exact string equality.
LayerId = str


def _finite(number) -> bool:
    """Whether ``number`` is one float arithmetic can use: not NaN, not
    infinite and not an int beyond the float range."""
    try:
        return math.isfinite(number)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class ImageRef:
    """An image identified by name and tag; the pair is the unique key. Its
    hash, ``hash((name, tag))``, is computed once; a pickle carries only the
    pair, so a process with another string-hash seed recomputes it."""

    name: str
    tag: str

    def __post_init__(self):
        if not self.name or not self.tag:
            raise ValueError("image name and tag must be non-empty")
        object.__setattr__(self, "_hash", hash((self.name, self.tag)))

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


@dataclass
class LayerCatalog:
    """The universe of layers and the images assembled from them.

    ``layers`` maps each layer digest to its size in bytes; ``images`` maps
    each image to its ordered layer stack. Identical digests across images
    are the same catalog entry, which is what makes layers shareable.
    """

    layers: dict[LayerId, int] = field(default_factory=dict)
    images: dict[ImageRef, tuple[LayerId, ...]] = field(default_factory=dict)

    def __post_init__(self):
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
        """Sum of the image's layer sizes in bytes."""
        return sum(size for _, size in layers_of(self, image))


@dataclass(frozen=True)
class NodeSpec:
    """Static description of an edge node."""

    id: str
    cpu_capacity: int  # millicores
    mem_capacity: int  # bytes
    bandwidth: int  # bytes/second
    storage_capacity: int  # bytes
    max_containers: int = 110

    def __post_init__(self):
        for name in ("cpu_capacity", "mem_capacity", "bandwidth", "storage_capacity"):
            # An infinite capacity fits every request, yet least-allocated
            # scores it (inf - request) / inf, a NaN, which never wins.
            value = getattr(self, name)
            if not (value > 0 and _finite(value)):
                raise ValueError(f"node {self.id}: {name} must be finite and > 0")
        if not self.max_containers >= 1:
            raise ValueError(f"node {self.id}: max_containers must be >= 1")


@dataclass(frozen=True)
class TaskRequest:
    """One deployment request: an image plus CPU and memory demands."""

    task_id: str
    image: ImageRef
    cpu_request: int  # millicores
    mem_request: int  # bytes

    def __post_init__(self):
        if not (self.cpu_request > 0 and _finite(self.cpu_request)):
            raise ValueError(f"task {self.task_id}: cpu_request must be finite and > 0")
        if not (self.mem_request >= 0 and _finite(self.mem_request)):
            raise ValueError(f"task {self.task_id}: mem_request must be finite and >= 0")


@dataclass(frozen=True)
class NodeState:
    """A node's cached layers/images, running containers, and commitments.

    Resource accounting uses requested (committed) amounts, not measured
    usage, and a committed amount must be finite and >= 0, as a sum of
    placed requests is. Instances are immutable; the scheduler's kernel
    keeps node state in columns and builds a ``NodeState`` from them when it
    is read, as :func:`~layersched.scheduler.commit_placement` does for its
    result.
    """

    spec: NodeSpec
    local_layers: frozenset[LayerId] = frozenset()
    local_images: frozenset[ImageRef] = frozenset()
    running: tuple[TaskRequest, ...] = ()
    cpu_committed: int = 0
    mem_committed: int = 0

    def __post_init__(self):
        for name in ("cpu_committed", "mem_committed"):
            value = getattr(self, name)
            if not (value >= 0 and _finite(value)):
                raise ValueError(f"node {self.spec.id}: {name} must be finite and >= 0")

    def stored_layer_bytes(self, catalog: LayerCatalog) -> int:
        """Bytes currently occupied by cached layers, per catalog sizes."""
        return sum(catalog.layers[digest] for digest in self.local_layers)

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
