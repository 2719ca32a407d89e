"""Reference implementations the test suite compares the package against.

Everything here is computed straight from the scoring and selection rules
using plain dicts and explicit loops, importing nothing from layersched.
Keep this file boring: no shared helpers with the package, no cleverness.
If the package and this file disagree, one of them is wrong.

Representations:
  catalog: {"layers": {digest: size}, "images": {"name:tag": [digest, ...]}}
  node:    {"id", "cpu_capacity", "mem_capacity", "bandwidth",
            "storage_capacity", "max_containers", "local_layers": set,
            "local_images": set, "running": int, "cpu_committed",
            "mem_committed"}
  task:    {"image": "name:tag", "cpu": int, "mem": int}
  params:  {"policy", "mode", "omega_static", "omega_high", "omega_low",
            "h_size", "h_cpu", "h_std", "custom_table",
            "plugins": {name: weight-or-None}}
"""


def oracle_download_cost(catalog, node, image_key):
    total = 0
    for digest in catalog["images"][image_key]:
        if digest not in node["local_layers"]:
            total += catalog["layers"][digest]
    return total


def oracle_local_size(catalog, node, image_key):
    total = 0
    for digest in catalog["images"][image_key]:
        if digest in node["local_layers"]:
            total += catalog["layers"][digest]
    return total


def oracle_layer_score(catalog, node, image_key):
    image_total = 0
    for digest in catalog["images"][image_key]:
        image_total += catalog["layers"][digest]
    if image_total == 0:
        return 0.0
    return oracle_local_size(catalog, node, image_key) / image_total * 100


def oracle_std(node):
    cpu = node["cpu_committed"] / node["cpu_capacity"]
    mem = node["mem_committed"] / node["mem_capacity"]
    return abs(cpu - mem) / 2


def oracle_cpu(node):
    return node["cpu_committed"] / node["cpu_capacity"]


def oracle_gate(params, local_bytes, cpu, std):
    """Returns (gate, satisfied-condition count); every inequality strict."""
    conditions = [
        local_bytes > params["h_size"],
        cpu < params["h_cpu"],
        std < params["h_std"],
    ]
    gate = 1 if all(conditions) else 0
    return gate, sum(1 for c in conditions if c)


def oracle_baseline(catalog, node, task, plugins):
    scores = []
    weights = []

    if plugins.get("least_allocated") is not None:
        cpu_part = (node["cpu_capacity"] - node["cpu_committed"] - task["cpu"]) \
            / node["cpu_capacity"] * 100
        mem_part = (node["mem_capacity"] - node["mem_committed"] - task["mem"]) \
            / node["mem_capacity"] * 100
        scores.append((cpu_part + mem_part) / 2)
        weights.append(plugins["least_allocated"])

    if plugins.get("balanced_allocation") is not None:
        cpu_after = (node["cpu_committed"] + task["cpu"]) / node["cpu_capacity"]
        mem_after = (node["mem_committed"] + task["mem"]) / node["mem_capacity"]
        std_after = abs(cpu_after - mem_after) / 2
        scores.append((1 - 2 * std_after) * 100)
        weights.append(plugins["balanced_allocation"])

    if plugins.get("image_locality") is not None:
        scores.append(100.0 if task["image"] in node["local_images"] else 0.0)
        weights.append(plugins["image_locality"])

    if not scores:
        return 0.0
    weighted = 0.0
    for score, weight in zip(scores, weights):
        weighted += weight * score
    return weighted / len(scores)


def oracle_omega(params, gate, conditions_met):
    policy = params["policy"]
    if policy == "default":
        return 0.0
    if policy == "layer_static":
        return params["omega_static"]
    # lr_dynamic: gated, or a custom table keyed by satisfied-condition count
    if params["mode"] == "custom":
        return params["custom_table"][conditions_met]
    return params["omega_high"] if gate == 1 else params["omega_low"]


def oracle_final(catalog, node, task, params):
    """Full per-node breakdown, mirroring the recorded ScoreBreakdown."""
    image_key = task["image"]
    layer = oracle_layer_score(catalog, node, image_key)
    local_bytes = oracle_local_size(catalog, node, image_key)
    std = oracle_std(node)
    cpu = oracle_cpu(node)
    gate, conditions = oracle_gate(params, local_bytes, cpu, std)
    baseline = oracle_baseline(catalog, node, task, params["plugins"])
    omega = oracle_omega(params, gate, conditions)
    return {
        "layer_score": layer,
        "baseline_score": baseline,
        "std_score": std,
        "cpu_score": cpu,
        "weight_gate": gate,
        "omega_used": omega,
        "final": omega * layer + baseline,
    }


def oracle_filter(catalog, node, task):
    """Returns None when feasible, else the first violated constraint in
    the fixed order: storage, container_count, cpu_fit, mem_fit."""
    stored = 0
    for digest in node["local_layers"]:
        stored += catalog["layers"][digest]
    cost = oracle_download_cost(catalog, node, task["image"])
    if cost + stored > node["storage_capacity"]:
        return "storage"
    if node["running"] >= node["max_containers"]:
        return "container_count"
    if node["cpu_committed"] + task["cpu"] > node["cpu_capacity"]:
        return "cpu_fit"
    if node["mem_committed"] + task["mem"] > node["mem_capacity"]:
        return "mem_fit"
    return None


def oracle_commit(catalog, node, task):
    """New node dict with the task placed; the input is not modified."""
    new = dict(node)
    new["local_layers"] = set(node["local_layers"]) | set(catalog["images"][task["image"]])
    new["local_images"] = set(node["local_images"]) | {task["image"]}
    new["running"] = node["running"] + 1
    new["cpu_committed"] = node["cpu_committed"] + task["cpu"]
    new["mem_committed"] = node["mem_committed"] + task["mem"]
    return new


def check_invariants(catalog, node, running):
    """Raise AssertionError if the node dict breaks a state invariant;
    ``running`` is the task dicts of its placed containers."""
    assert 0 <= node["cpu_committed"] <= node["cpu_capacity"]
    assert 0 <= node["mem_committed"] <= node["mem_capacity"]
    assert node["running"] == len(running) <= node["max_containers"]
    assert node["cpu_committed"] == sum(task["cpu"] for task in running)
    assert node["mem_committed"] == sum(task["mem"] for task in running)
    stored = 0
    for digest in node["local_layers"]:
        stored += catalog["layers"][digest]
    assert stored <= node["storage_capacity"]
    for image_key in node["local_images"]:
        for digest in catalog["images"].get(image_key, ()):
            assert digest in node["local_layers"]


def oracle_schedule_step(catalog, nodes, task, params):
    """Exhaustive argmax over feasible nodes; ties to the lowest node id.
    Returns the chosen node's id, or None if no node is feasible."""
    best_id = None
    best_final = None
    for node in nodes:
        if oracle_filter(catalog, node, task) is not None:
            continue
        final = oracle_final(catalog, node, task, params)["final"]
        if best_final is None or final > best_final or (
            final == best_final and node["id"] < best_id
        ):
            best_id = node["id"]
            best_final = final
    return best_id


def oracle_trace(catalog, nodes, tasks, params):
    """Sequential schedule+commit; returns the chosen node id per task
    (None for unschedulable tasks, which leave state untouched)."""
    current = [dict(node, local_layers=set(node["local_layers"]),
                    local_images=set(node["local_images"])) for node in nodes]
    choices = []
    for task in tasks:
        chosen = oracle_schedule_step(catalog, current, task, params)
        choices.append(chosen)
        if chosen is not None:
            for i, node in enumerate(current):
                if node["id"] == chosen:
                    current[i] = oracle_commit(catalog, node, task)
                    break
    return choices
