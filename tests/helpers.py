"""Converters and seeded random-instance builders shared by the tests.

The converters turn package objects into the plain-dict form oracles.py
consumes; the builders generate the randomized catalogs, nodes, tasks and
configs the equivalence suites sweep over. Builders draw only from the
passed rng, so every instance is reproducible from its seed.
"""

from __future__ import annotations

import random

from layersched.model import (
    ImageRef,
    LayerCatalog,
    NodeSpec,
    NodeState,
    TaskRequest,
)
from layersched.scheduler import POLICIES, SchedulerConfig
from layersched.scoring import MB, PLUGIN_NAMES, PluginConfig, WeightPolicy

GB = 1024 ** 3


def catalog_dict(catalog: LayerCatalog) -> dict:
    return {
        "layers": dict(catalog.layers),
        "images": {ref.key: list(stack) for ref, stack in catalog.images.items()},
    }


def node_dict(node: NodeState) -> dict:
    return {
        "id": node.spec.id,
        "cpu_capacity": node.spec.cpu_capacity,
        "mem_capacity": node.spec.mem_capacity,
        "bandwidth": node.spec.bandwidth,
        "storage_capacity": node.spec.storage_capacity,
        "max_containers": node.spec.max_containers,
        "local_layers": set(node.local_layers),
        "local_images": {ref.key for ref in node.local_images},
        "running": len(node.running),
        "cpu_committed": node.cpu_committed,
        "mem_committed": node.mem_committed,
    }


def task_dict(task: TaskRequest) -> dict:
    return {"image": task.image.key, "cpu": task.cpu_request, "mem": task.mem_request}


def params_dict(config: SchedulerConfig) -> dict:
    wp = config.weight_policy
    return {
        "policy": config.policy,
        "mode": wp.mode,
        "omega_static": wp.omega_static,
        "omega_high": wp.omega_high,
        "omega_low": wp.omega_low,
        "h_size": wp.h_size,
        "h_cpu": wp.h_cpu,
        "h_std": wp.h_std,
        "custom_table": dict(wp.custom_table),
        "plugins": {name: getattr(config.plugins, name) for name in PLUGIN_NAMES},
    }


def random_catalog(rng: random.Random, max_layers: int = 8,
                   max_images: int = 4) -> LayerCatalog:
    n_layers = rng.randint(1, max_layers)
    layers = {
        f"sha256:l{i:02d}": rng.randint(1, 200 * MB) for i in range(n_layers)
    }
    digests = sorted(layers)
    images = {}
    for i in range(rng.randint(1, max_images)):
        stack = tuple(rng.sample(digests, rng.randint(1, n_layers)))
        images[ImageRef(f"img-{i}", "1.0")] = stack
    return LayerCatalog(layers=layers, images=images)


def random_node(rng: random.Random, catalog: LayerCatalog,
                node_id: str) -> NodeState:
    cpu_cap = rng.randint(1000, 8000)
    mem_cap = rng.randint(1, 8) * GB
    spec = NodeSpec(
        id=node_id,
        cpu_capacity=cpu_cap,
        mem_capacity=mem_cap,
        bandwidth=rng.randint(1, 20) * MB,
        storage_capacity=rng.randint(5, 40) * GB,
        max_containers=rng.randint(3, 110),
    )
    local = frozenset(d for d in sorted(catalog.layers) if rng.random() < 0.5)
    refs = sorted(catalog.images, key=lambda r: r.key)
    # Only images whose whole stack is cached may be marked locally present.
    complete = [ref for ref in refs if set(catalog.images[ref]) <= local]
    local_images = frozenset(ref for ref in complete if rng.random() < 0.8)

    running = []
    cpu_total = mem_total = 0
    for j in range(rng.randint(0, 3)):
        cpu_req = rng.randint(50, cpu_cap // 4)
        mem_req = rng.randint(0, mem_cap // 4)
        running.append(TaskRequest(
            task_id=f"{node_id}-warm{j}",
            image=rng.choice(refs),
            cpu_request=cpu_req,
            mem_request=mem_req,
        ))
        cpu_total += cpu_req
        mem_total += mem_req
    return NodeState(
        spec=spec,
        local_layers=local,
        local_images=local_images,
        running=tuple(running),
        cpu_committed=cpu_total,
        mem_committed=mem_total,
    )


def random_task(rng: random.Random, catalog: LayerCatalog,
                task_id: str) -> TaskRequest:
    refs = sorted(catalog.images, key=lambda r: r.key)
    return TaskRequest(
        task_id=task_id,
        image=rng.choice(refs),
        cpu_request=rng.randint(50, 1000),
        mem_request=rng.randint(0, GB),
    )


def random_weight_policy(rng: random.Random, allow_static: bool = True) -> WeightPolicy:
    modes = ("static", "dynamic", "custom") if allow_static else ("dynamic", "custom")
    mode = rng.choice(modes)
    omega_low = round(rng.uniform(0.0, 2.0), 3)
    return WeightPolicy(
        mode=mode,
        omega_static=round(rng.uniform(0.0, 6.0), 3),
        omega_high=omega_low + round(rng.uniform(0.0, 4.0), 3),
        omega_low=omega_low,
        h_size=rng.randint(0, 50 * MB),
        h_cpu=round(rng.uniform(0.0, 1.0), 3),
        h_std=round(rng.uniform(0.0, 0.5), 3),
        custom_table={k: round(rng.uniform(0.0, 5.0), 3) for k in range(4)},
    )


def random_plugins(rng: random.Random) -> PluginConfig:
    def weight():
        roll = rng.random()
        if roll < 0.2:
            return None
        if roll < 0.4:
            return round(rng.uniform(0.1, 3.0), 3)
        return 1.0

    return PluginConfig(
        least_allocated=weight(),
        balanced_allocation=weight(),
        image_locality=weight(),
    )


def random_config(rng: random.Random, policy: str | None = None) -> SchedulerConfig:
    policy = policy or rng.choice(POLICIES)
    return SchedulerConfig(
        policy=policy,
        weight_policy=random_weight_policy(rng, allow_static=policy != "lr_dynamic"),
        plugins=random_plugins(rng),
        tie_break="lowest_node_id",
    )


def random_scoring_instance(seed: int):
    """One (catalog, nodes, task, config) tuple for oracle equivalence."""
    rng = random.Random(seed)
    catalog = random_catalog(rng)
    nodes = [random_node(rng, catalog, f"node-{i}")
             for i in range(rng.randint(1, 4))]
    task = random_task(rng, catalog, f"task-{seed}")
    config = random_config(rng)
    return catalog, nodes, task, config


def micro_scenario(seed: int):
    """A 3-node, 10-task sequential scheduling instance.

    Resources are sized so some seeds hit capacity limits mid-trace,
    exercising the filter path as well as pure argmax.
    """
    rng = random.Random(seed)
    catalog = random_catalog(rng, max_layers=8, max_images=6)
    nodes = []
    for i in range(3):
        cpu_cap = rng.randint(2000, 6000)
        mem_cap = rng.randint(2, 6) * GB
        spec = NodeSpec(
            id=f"node-{i}",
            cpu_capacity=cpu_cap,
            mem_capacity=mem_cap,
            bandwidth=rng.choice([5, 10, 20]) * MB,
            storage_capacity=rng.randint(1, 4) * GB,
            max_containers=rng.choice([4, 6, 110]),
        )
        nodes.append(NodeState(spec=spec))
    tasks = [
        TaskRequest(
            task_id=f"task-{seed}-{j}",
            image=rng.choice(sorted(catalog.images, key=lambda r: r.key)),
            cpu_request=rng.randint(100, 1200),
            mem_request=rng.randint(64 * MB, GB),
        )
        for j in range(10)
    ]
    config = random_config(rng, policy=POLICIES[seed % len(POLICIES)])
    return catalog, nodes, tasks, config
