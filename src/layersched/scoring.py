"""Node scoring: download cost, layer-sharing score, baseline plugin scores,
resource-balance and CPU load, the dynamic-weight gate, and the blended final
score.

All functions here are pure; evaluating them per node in parallel is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import ImageRef, LayerCatalog, NodeState, TaskRequest, layers_of

MB = 1024 * 1024

WEIGHT_MODES = ("static", "dynamic", "custom")

# Baseline plugins whose inputs exist in this model. Taints, affinity,
# topology-spread and volume plugins need cluster metadata we do not carry.
PLUGIN_NAMES = ("least_allocated", "balanced_allocation", "image_locality")


@dataclass(frozen=True)
class PluginConfig:
    """Which baseline plugins contribute to the blended score, with weights.

    A weight of ``None`` disables the plugin. The combined baseline score is
    ``sum(weight_i * score_i) / enabled_count`` so that with default weights
    of 1 it stays within [0, 100], commensurate with the layer score.
    """

    least_allocated: float | None = 1.0
    balanced_allocation: float | None = 1.0
    image_locality: float | None = 1.0

    def enabled(self) -> list[tuple[str, float]]:
        out = []
        for name in PLUGIN_NAMES:
            weight = getattr(self, name)
            if weight is not None:
                out.append((name, weight))
        return out


@dataclass
class WeightPolicy:
    """How the layer-score weight is chosen.

    ``static`` always applies ``omega_static``. ``dynamic`` applies
    ``omega_high`` when the gate fires (large overlap on a lightly loaded,
    balanced node) and ``omega_low`` otherwise. ``custom`` looks the weight
    up in a piecewise table keyed by how many of the three gate conditions
    hold, generalising the two-valued dynamic rule.
    """

    mode: str = "dynamic"
    omega_static: float = 4.0
    omega_high: float = 2.0
    omega_low: float = 0.5
    h_size: int = 10 * MB  # overlap bytes threshold
    h_cpu: float = 0.6
    h_std: float = 0.16
    custom_table: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode {self.mode!r}")
        if not self.omega_high >= self.omega_low >= 0:
            raise ValueError("need omega_high >= omega_low >= 0")
        if self.omega_static < 0:
            raise ValueError("omega_static must be >= 0")
        if self.h_size < 0:
            raise ValueError("h_size must be >= 0")
        if not 0 <= self.h_cpu <= 1:
            raise ValueError("h_cpu must be within [0, 1]")
        if not 0 <= self.h_std <= 0.5:
            raise ValueError("h_std must be within [0, 0.5]")
        if self.mode == "custom":
            missing = [k for k in range(4) if k not in self.custom_table]
            if missing:
                raise ValueError(
                    f"custom_table must map condition counts 0..3, missing {missing}"
                )


@dataclass(frozen=True)
class ScoreBreakdown:
    """Everything that went into one node's final score, for auditability."""

    layer_score: float
    baseline_score: float
    std_score: float
    cpu_score: float
    weight_gate: int
    omega_used: float
    final: float


def download_cost(catalog: LayerCatalog, node: NodeState, image: ImageRef) -> int:
    """Bytes the node must fetch to run the image: sizes of absent layers."""
    return sum(
        size for digest, size in layers_of(catalog, image)
        if digest not in node.local_layers
    )


def local_layer_size(catalog: LayerCatalog, node: NodeState, image: ImageRef) -> int:
    """Bytes of the image's layers the node already holds."""
    return sum(
        size for digest, size in layers_of(catalog, image)
        if digest in node.local_layers
    )


def layer_score(catalog: LayerCatalog, node: NodeState, image: ImageRef) -> float:
    """Fraction of the image's bytes already local, scaled to [0, 100].

    An image with no layer bytes scores 0: nothing can be shared.
    """
    total = catalog.image_total_size(image)
    if total == 0:
        return 0.0
    return local_layer_size(catalog, node, image) / total * 100.0


def std_score(node: NodeState) -> float:
    """Half the gap between CPU and memory utilisation; 0 is balanced."""
    return abs(node.cpu_ratio() - node.mem_ratio()) / 2.0


def cpu_score(node: NodeState) -> float:
    """Committed CPU as a fraction of capacity."""
    return node.cpu_ratio()


def gate_conditions(
    policy: WeightPolicy, local_layer_bytes: int, cpu: float, std: float
) -> tuple[bool, bool, bool]:
    """The three dynamic-weight conditions, each a strict inequality."""
    return (
        local_layer_bytes > policy.h_size,
        cpu < policy.h_cpu,
        std < policy.h_std,
    )


def weight_gate(
    policy: WeightPolicy, local_layer_bytes: int, cpu: float, std: float
) -> int:
    """1 iff all three gate conditions hold, else 0."""
    return int(all(gate_conditions(policy, local_layer_bytes, cpu, std)))


def baseline_score(
    node: NodeState,
    task: TaskRequest,
    catalog: LayerCatalog,
    plugins: PluginConfig = PluginConfig(),
) -> float:
    """Blend of the enabled baseline plugin scores, each in [0, 100].

    least_allocated averages the post-placement free fraction of CPU and
    memory. balanced_allocation rewards equal post-placement CPU/memory
    ratios (it looks at state *after* adding the candidate's requests, the
    way a real scheduler ranks the outcome). image_locality is all-or-
    nothing on the exact image. Assumes the node already passed filtering.
    """
    return blend_baseline(node, task, plugins.enabled())


def blend_baseline(
    node: NodeState, task: TaskRequest, enabled: list[tuple[str, float]]
) -> float:
    """:func:`baseline_score` with ``plugins.enabled()`` already resolved."""
    if not enabled:
        return 0.0

    total = 0.0
    for name, weight in enabled:
        if name == "least_allocated":
            free_cpu = (
                node.spec.cpu_capacity - node.cpu_committed - task.cpu_request
            ) / node.spec.cpu_capacity * 100.0
            free_mem = (
                node.spec.mem_capacity - node.mem_committed - task.mem_request
            ) / node.spec.mem_capacity * 100.0
            score = (free_cpu + free_mem) / 2.0
        elif name == "balanced_allocation":
            cpu_after = (node.cpu_committed + task.cpu_request) / node.spec.cpu_capacity
            mem_after = (node.mem_committed + task.mem_request) / node.spec.mem_capacity
            std_after = abs(cpu_after - mem_after) / 2.0
            score = (1.0 - 2.0 * std_after) * 100.0
        else:  # image_locality
            score = 100.0 if task.image in node.local_images else 0.0
        total += weight * score
    return total / len(enabled)


def select_omega(policy: WeightPolicy, gate: int, conditions_met: int) -> float:
    if policy.mode == "static":
        return policy.omega_static
    if policy.mode == "dynamic":
        return policy.omega_high if gate == 1 else policy.omega_low
    return policy.custom_table[conditions_met]


def final_score(
    policy: WeightPolicy,
    layer: float,
    baseline: float,
    gate: int,
    *,
    std: float = 0.0,
    cpu: float = 0.0,
    conditions_met: int | None = None,
) -> ScoreBreakdown:
    """Resolve the weight per ``policy`` and blend: final = omega * layer + baseline."""
    if conditions_met is None:
        conditions_met = 3 if gate == 1 else 0
    omega = select_omega(policy, gate, conditions_met)
    return ScoreBreakdown(
        layer_score=layer,
        baseline_score=baseline,
        std_score=std,
        cpu_score=cpu,
        weight_gate=gate,
        omega_used=omega,
        final=omega * layer + baseline,
    )


def blended_score(
    gate_policy: WeightPolicy,
    omega_policy: WeightPolicy,
    local_layer_bytes: int,
    image_bytes: int,
    cpu: float,
    std: float,
    baseline: float,
) -> ScoreBreakdown:
    """The score of one feasible node from its precomputed parts.

    ``local_layer_bytes`` of the image's ``image_bytes`` are already on the
    node; ``cpu`` and ``std`` are its load. The gate thresholds come from
    ``gate_policy`` and the weight rule from ``omega_policy``, which differ
    when a scheduler policy overrides the weight mode.
    """
    layer = local_layer_bytes / image_bytes * 100.0 if image_bytes else 0.0
    conditions = gate_conditions(gate_policy, local_layer_bytes, cpu, std)
    return final_score(
        omega_policy, layer, baseline, int(all(conditions)),
        std=std, cpu=cpu, conditions_met=sum(conditions),
    )
