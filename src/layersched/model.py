"""Domain types for nodes, layers, images, containers, and tasks.

Sizes are bytes, CPU is millicores throughout. All types are values:
mutation happens only through :func:`commit_placement`, which returns a new
node state and leaves its input untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import CapacityViolation, UnknownImage

# Content digest of a layer, e.g. "sha256:abcd...". Opaque; compared by
# exact string equality.
LayerId = str


def _record(cls, **fields):
    """The frozen dataclass ``cls`` with ``fields``, all of them in field
    order, built without the generated ``__init__`` and its per-field
    ``object.__setattr__``; only for a class without ``__post_init__``."""
    record = object.__new__(cls)
    object.__setattr__(record, "__dict__", fields)
    return record


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
            if size <= 0:
                raise ValueError(f"layer {digest!r} has non-positive size {size}")
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
            if not getattr(self, name) > 0:  # negated, so NaN fails too
                raise ValueError(f"node {self.id}: {name} must be > 0")
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
        if not self.cpu_request > 0:  # negated, so NaN fails too
            raise ValueError(f"task {self.task_id}: cpu_request must be > 0")
        if not self.mem_request >= 0:
            raise ValueError(f"task {self.task_id}: mem_request must be >= 0")


# A container committed to a node is the task it runs: ``NodeState.running``
# holds the placed ``TaskRequest`` values themselves.
PlacedContainer = TaskRequest


@dataclass(frozen=True)
class NodeState:
    """A node's cached layers/images, running containers, and commitments.

    Resource accounting uses requested (committed) amounts, not measured
    usage. Instances are immutable; :func:`commit_placement` produces the
    successor state.
    """

    spec: NodeSpec
    local_layers: frozenset[LayerId] = frozenset()
    local_images: frozenset[ImageRef] = frozenset()
    running: tuple[TaskRequest, ...] = ()
    cpu_committed: int = 0
    mem_committed: int = 0

    def stored_layer_bytes(self, catalog: LayerCatalog) -> int:
        """Bytes currently occupied by cached layers, per catalog sizes."""
        return sum(catalog.layers[digest] for digest in self.local_layers)

    def cpu_ratio(self) -> float:
        return self.cpu_committed / self.spec.cpu_capacity

    def mem_ratio(self) -> float:
        return self.mem_committed / self.spec.mem_capacity

    def check_invariants(self, catalog: LayerCatalog | None = None) -> None:
        """Raise AssertionError if any state invariant is broken."""
        assert 0 <= self.cpu_committed <= self.spec.cpu_capacity
        assert 0 <= self.mem_committed <= self.spec.mem_capacity
        assert len(self.running) <= self.spec.max_containers
        assert self.cpu_committed == sum(c.cpu_request for c in self.running)
        assert self.mem_committed == sum(c.mem_request for c in self.running)
        if catalog is not None:
            assert self.stored_layer_bytes(catalog) <= self.spec.storage_capacity
            for image in self.local_images:
                for digest in catalog.images.get(image, ()):
                    assert digest in self.local_layers


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


def first_violation(node: NodeState, task: TaskRequest, stored_bytes: int,
                    download_bytes: int) -> str | None:
    """The first constraint (``storage``, ``container_count``, ``cpu_fit``,
    ``mem_fit``) that placing ``task`` on ``node``, which holds
    ``stored_bytes`` of layers and must fetch ``download_bytes`` more, would
    break; None if it fits."""
    if stored_bytes + download_bytes > node.spec.storage_capacity:
        return "storage"
    if len(node.running) >= node.spec.max_containers:
        return "container_count"
    if node.cpu_committed + task.cpu_request > node.spec.cpu_capacity:
        return "cpu_fit"
    if node.mem_committed + task.mem_request > node.spec.mem_capacity:
        return "mem_fit"
    return None


def commit_placement(
    node: NodeState, task: TaskRequest, catalog: LayerCatalog,
    stored_bytes: int | None = None,
) -> NodeState:
    """Place ``task`` on ``node``, returning the successor state.

    Re-checks the filter constraints and raises :class:`CapacityViolation`
    naming the first violated one, so a caller that skipped filtering
    cannot corrupt node state. ``stored_bytes`` is what
    :meth:`NodeState.stored_layer_bytes` returns for ``node``; a caller that
    keeps that figure passes it to spare the re-summing of every layer. The
    successor shares ``node``'s layer and image sets when nothing is added
    to them.
    """
    try:
        stack = catalog.images[task.image]
    except KeyError:
        raise UnknownImage(f"image not in catalog: {task.image.key}") from None
    held, sizes = node.local_layers, catalog.layers
    need = [digest for digest in stack if digest not in held]
    if stored_bytes is None:
        stored_bytes = node.stored_layer_bytes(catalog)
    violated = first_violation(node, task, stored_bytes, sum([sizes[d] for d in need]))
    if violated is not None:
        raise CapacityViolation(violated)

    images = node.local_images
    return _record(
        NodeState,
        spec=node.spec,
        local_layers=held.union(need) if need else held,
        local_images=images if task.image in images else images | {task.image},
        running=node.running + (task,),
        cpu_committed=node.cpu_committed + task.cpu_request,
        mem_committed=node.mem_committed + task.mem_request,
    )
