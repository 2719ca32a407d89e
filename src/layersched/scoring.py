"""Scoring's inputs and views: the weight policy, the baseline plugins, the
score breakdown, download cost, layer overlap and resource balance.

The score itself (the baseline plugins, the weight gate and the final
``omega * layer + baseline``) is computed in one place, the scheduler's
kernel; :func:`baseline_score` and :func:`layer_score` read it there. All
functions here are pure.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from types import MappingProxyType

from .model import (ImageRef, LayerCatalog, NodeState, TaskRequest, _finite, _Frozen, layers_of,
                    ordered_sum)

MB = 1024 * 1024

WEIGHT_MODES = ("static", "dynamic", "custom")

# Baseline plugins whose inputs exist in this model. Taints, affinity,
# topology-spread and volume plugins need cluster metadata we do not carry.
PLUGIN_NAMES = ("least_allocated", "balanced_allocation", "image_locality")


class PluginConfig(_Frozen):
    """Which baseline plugins contribute to the final score, with weights.

    A weight of ``None`` disables the plugin. The combined baseline score is
    ``sum(weight_i * score_i) / enabled_count``, added in
    :data:`PLUGIN_NAMES` order, so that with default weights of 1 it stays
    within [0, 100], commensurate with the layer score.
    """

    def __init__(self, least_allocated: float | None = 1.0,
                 balanced_allocation: float | None = 1.0, image_locality: float | None = 1.0):
        vars(self).update(least_allocated=least_allocated,
                          balanced_allocation=balanced_allocation, image_locality=image_locality)
        for name in PLUGIN_NAMES:
            weight = getattr(self, name)
            if weight is not None and not _finite(weight):
                raise ValueError(f"{name} weight must be finite")


class WeightPolicy(_Frozen):
    """The layer-score weights and the thresholds of the gate that picks one.

    ``dynamic`` applies ``omega_high`` when the gate fires (large overlap on
    a lightly loaded, balanced node) and ``omega_low`` otherwise. ``custom``
    looks the weight up in a piecewise table keyed by how many of the three
    gate conditions hold, generalising the two-valued dynamic rule.
    ``static`` pairs with the ``layer_static`` policy, which always applies
    ``omega_static``. :meth:`SchedulerConfig.omegas` turns policy and mode
    into the weight table. ``h_size`` is the overlap threshold in bytes.
    Frozen; ``custom_table`` is a read-only copy of the mapping given (an
    empty one if none is).
    """

    def __init__(self, mode: str = "dynamic", omega_static: float = 4.0,
                 omega_high: float = 2.0, omega_low: float = 0.5, h_size: int = 10 * MB,
                 h_cpu: float = 0.6, h_std: float = 0.16,
                 custom_table: Mapping[int, float] | None = None):
        vars(self).update(mode=mode, omega_static=omega_static, omega_high=omega_high,
                          omega_low=omega_low, h_size=h_size, h_cpu=h_cpu, h_std=h_std,
                          custom_table=MappingProxyType(dict(custom_table or {})))
        if self.mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode {self.mode!r}")
        weights = (self.omega_static, self.omega_high, self.omega_low,
                   *self.custom_table.values())
        if not all(map(_finite, weights)):
            raise ValueError("weights must be finite")
        if not self.omega_high >= self.omega_low >= 0:
            raise ValueError("need omega_high >= omega_low >= 0")
        if self.omega_static < 0:
            raise ValueError("omega_static must be >= 0")
        if not 0 <= self.h_size < math.inf:
            raise ValueError("h_size must be finite and >= 0")
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

    def __reduce__(self):  # rebuilt through the constructor: a mapping proxy cannot be pickled
        return type(self), (*map(vars(self).get, self._fields[:-1]), dict(self.custom_table))


class ScoreBreakdown(_Frozen):
    """Everything that went into one node's final score, for auditability."""

    def __init__(self, layer_score: float, baseline_score: float, std_score: float,
                 cpu_score: float, weight_gate: int, omega_used: float, final: float):
        vars(self).update(layer_score=layer_score, baseline_score=baseline_score,
                          std_score=std_score, cpu_score=cpu_score, weight_gate=weight_gate,
                          omega_used=omega_used, final=final)


def download_cost(catalog: LayerCatalog, node: NodeState, image: ImageRef) -> int:
    """Bytes the node must fetch to run the image: sizes of absent layers."""
    return catalog.image_total_size(image) - local_layer_size(catalog, node, image)


def local_layer_size(catalog: LayerCatalog, node: NodeState, image: ImageRef) -> int:
    """Bytes of the image's layers the node already holds, in stack order."""
    return ordered_sum(
        size for digest, size in layers_of(catalog, image)
        if digest in node.local_layers
    )


def layer_score(catalog: LayerCatalog, node: NodeState, image: ImageRef) -> float:
    """Fraction of the image's bytes already local, scaled to [0, 100].

    An image with no layer bytes scores 0: nothing can be shared. This is
    the ``layer_score`` of the node's
    :func:`~layersched.scheduler.score_node` breakdown for a task running
    ``image``.
    """
    from .scheduler import SchedulerConfig, score_node  # scheduler imports this module

    task = TaskRequest(task_id="", image=image, cpu_request=1, mem_request=0)
    return score_node(node, task, catalog, SchedulerConfig()).layer_score


def std_score(node: NodeState) -> float:
    """Half the gap between CPU and memory utilisation; 0 is balanced."""
    return abs(node.cpu_ratio() - node.mem_ratio()) / 2.0


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
    nothing on the exact image. The node is scored whether or not it passes
    the filter; this is the ``baseline_score`` of its
    :func:`~layersched.scheduler.score_node` breakdown.
    """
    from .scheduler import SchedulerConfig, score_node  # scheduler imports this module

    config = SchedulerConfig(policy="default", plugins=plugins)
    return score_node(node, task, catalog, config).baseline_score
