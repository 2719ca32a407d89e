"""Domain model: refs, catalog validation, node state, placement commits."""

import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import catalog_dict, node_dict, task_dict
from oracles import check_invariants
from layersched import replace
from layersched.errors import CapacityViolation, UnknownImage
from layersched.model import (
    ImageRef,
    LayerCatalog,
    NodeSpec,
    NodeState,
    TaskRequest,
    layers_of,
    missing_layers,
)
from layersched.scheduler import commit_placement
from layersched.scoring import MB

GB = 1024 ** 3
SRC = Path(__file__).resolve().parents[1] / "src"


def small_catalog():
    return LayerCatalog(
        layers={"sha256:a": 30 * MB, "sha256:b": 70 * MB, "sha256:c": 10 * MB},
        images={
            ImageRef("web", "1"): ("sha256:a", "sha256:b"),
            ImageRef("db", "1"): ("sha256:a", "sha256:c"),
        },
    )


def idle_node(node_id="node-0", **overrides) -> NodeState:
    defaults = dict(cpu_capacity=4000, mem_capacity=4 * GB,
                    bandwidth=10 * MB, storage_capacity=30 * GB)
    defaults.update(overrides)
    return NodeState(spec=NodeSpec(id=node_id, **defaults))


class TestImageRef:
    def test_parse_name_tag(self):
        assert ImageRef.parse("web:1.0") == ImageRef("web", "1.0")

    def test_parse_splits_on_last_colon(self):
        ref = ImageRef.parse("registry.local:5000/team/web:2")
        assert ref.name == "registry.local:5000/team/web"
        assert ref.tag == "2"

    def test_key_round_trips(self):
        ref = ImageRef("team/web", "latest")
        assert ImageRef.parse(ref.key) == ref

    @pytest.mark.parametrize("bad", ["", "noTag", ":tag", "name:",
                                     "registry.local:5000/team/web"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            ImageRef.parse(bad)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="^image name and tag must be non-empty$"):
            ImageRef("", "1")

    def test_hash_is_the_hash_of_the_pair(self):
        assert hash(ImageRef("team/web", "2")) == hash(("team/web", "2"))

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, replace,
                                       lambda ref: pickle.loads(pickle.dumps(ref))])
    def test_copies_keep_the_pair_hash(self, clone):
        ref = ImageRef("team/web", "2")
        twin = clone(ref)
        assert twin == ref and hash(twin) == hash(("team/web", "2"))
        assert {twin: 1}[ref] == 1

    def test_replace_rehashes_the_new_pair(self):
        ref = replace(ImageRef("team/web", "2"), tag="3")
        assert ref == ImageRef("team/web", "3") and hash(ref) == hash(("team/web", "3"))

    def test_pickled_keys_are_found_under_another_hash_seed(self):
        # A pickle that carried the cached hash would file the key under the
        # first process's string hash, where the second never looks.
        def child(code, seed, data=b""):
            result = subprocess.run(
                [sys.executable, "-c", "import pickle, sys\n"
                 "from layersched.model import ImageRef\n" + code],
                input=data, capture_output=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed})
            assert result.returncode == 0, result.stderr.decode()
            return result.stdout

        data = child("sys.stdout.buffer.write(pickle.dumps({ImageRef('web', '1'): 7}))", "1")
        found = child("table = pickle.loads(sys.stdin.buffer.read())\n"
                      "print(table.get(ImageRef('web', '1')))", "2", data)
        assert found.split() == [b"7"]


class TestLayerCatalog:
    def test_image_total_size_sums_the_stack(self):
        assert small_catalog().image_total_size(ImageRef("web", "1")) == 100 * MB

    def test_unknown_image_raises(self):
        with pytest.raises(UnknownImage):
            layers_of(small_catalog(), ImageRef("ghost", "1"))

    def test_rejects_nonpositive_layer_size(self):
        with pytest.raises(ValueError):
            LayerCatalog(layers={"sha256:a": 0}, images={})

    # A NaN or infinite size would fail the storage test on every node, so
    # schedule would name storage for a node with 30 GB free; an int beyond
    # the float range overflowed the kernel's download seconds.
    @pytest.mark.parametrize("size", [float("nan"), float("inf"), 10 ** 400],
                             ids=["nan", "inf", "int-beyond-float"])
    def test_rejects_non_finite_layer_size(self, size):
        with pytest.raises(ValueError, match="^layer 'sha256:a' has size .*; must be finite and > 0$"):
            LayerCatalog(layers={"sha256:a": size}, images={})

    def test_rejects_empty_layer_digest(self):
        with pytest.raises(ValueError, match="^layer digest must be non-empty$"):
            LayerCatalog(layers={"": 1}, images={})

    def test_rejects_unknown_layer_in_stack(self):
        with pytest.raises(ValueError):
            LayerCatalog(layers={}, images={ImageRef("x", "1"): ("sha256:a",)})

    def test_rejects_duplicate_layer_in_stack(self):
        with pytest.raises(ValueError):
            LayerCatalog(
                layers={"sha256:a": 1},
                images={ImageRef("x", "1"): ("sha256:a", "sha256:a")},
            )


class TestFloatSizeOrder:
    """Float layer sizes add left to right in one fixed order: a node's in
    sorted digest order, an image's in stack order. A set's hash order moved
    a node's stored bytes, and with them the preloaded storage check, with
    the hash seed; the compensated ``sum`` of Python 3.12+ moved an image's
    bytes with the version."""

    CHILD = """
from layersched.errors import ScenarioError
from layersched.model import ImageRef, LayerCatalog, NodeSpec, NodeState
from layersched.scoring import local_layer_size
from layersched.simulator import Scenario
from layersched.workload import WorkloadSpec
sizes = {"sha256:a": 0.1, "sha256:b": 0.2, "sha256:c": 0.3}
image = ImageRef("web", "1")
catalog = LayerCatalog(dict(sizes), {image: ("sha256:a", "sha256:b", "sha256:c")})
spec = NodeSpec("n", 1000, 1000, 1000, storage_capacity=0.6)
node = NodeState(spec, local_layers=frozenset(sizes))
try:
    Scenario([spec], catalog, WorkloadSpec(count=0), preloaded={"n": tuple(sizes)}).validate()
    checked = "fits"
except ScenarioError:
    checked = "refused"
print(repr(node.stored_layer_bytes(catalog)), repr(catalog.image_total_size(image)),
      repr(local_layer_size(catalog, node, image)), checked)
"""

    def test_sums_do_not_depend_on_the_hash_seed(self):
        outputs = set()
        for seed in ("0", "1", "2", "3", "4", "5"):
            result = subprocess.run(
                [sys.executable, "-c", self.CHILD], capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed})
            assert result.returncode == 0, result.stderr
            outputs.add(result.stdout)
        # 0.1 + 0.2 + 0.3 left to right, which exceeds a 0.6 disk.
        assert outputs == {"0.6000000000000001 0.6000000000000001 0.6000000000000001 refused\n"}


class TestMissingLayers:
    def test_all_missing_on_empty_node(self):
        catalog = small_catalog()
        node = idle_node()
        stack = [d for d, _ in layers_of(catalog, ImageRef("web", "1"))]
        assert missing_layers(node, stack) == {"sha256:a", "sha256:b"}

    def test_cached_layers_excluded(self):
        node = idle_node()
        node = NodeState(spec=node.spec, local_layers=frozenset({"sha256:a"}))
        assert missing_layers(node, ["sha256:a", "sha256:b"]) == {"sha256:b"}


class TestCommitPlacement:
    def task(self, image="web:1", cpu=500, mem=256 * MB):
        return TaskRequest(task_id="t1", image=ImageRef.parse(image),
                           cpu_request=cpu, mem_request=mem)

    def test_commit_accumulates_layers_and_resources(self):
        catalog = small_catalog()
        node = commit_placement(idle_node(), self.task(), catalog)
        assert node.local_layers == {"sha256:a", "sha256:b"}
        assert node.local_images == {ImageRef("web", "1")}
        assert node.cpu_committed == 500
        assert node.mem_committed == 256 * MB
        assert len(node.running) == 1
        check_invariants(catalog_dict(catalog), node_dict(node),
                         [task_dict(t) for t in node.running])

    def test_commit_does_not_mutate_input(self):
        catalog = small_catalog()
        before = idle_node()
        commit_placement(before, self.task(), catalog)
        assert before.local_layers == frozenset()
        assert before.running == ()

    def test_shared_layer_stored_once(self):
        catalog = small_catalog()
        node = commit_placement(idle_node(), self.task("web:1"), catalog)
        node = commit_placement(node, self.task("db:1"), catalog)
        # sha256:a is shared; stored bytes must count it once
        assert node.stored_layer_bytes(catalog) == (30 + 70 + 10) * MB

    def test_sets_with_nothing_new_are_shared(self):
        catalog = small_catalog()
        node = commit_placement(idle_node(), self.task("web:1"), catalog)
        again = commit_placement(node, self.task("web:1"), catalog)
        assert again.local_layers is node.local_layers
        assert again.local_images is node.local_images
        # db:1 adds a layer and an image; web:1's layers stay held.
        db = commit_placement(node, self.task("db:1"), catalog)
        assert db.local_layers == node.local_layers | {"sha256:c"}
        assert db.local_images == {ImageRef("web", "1"), ImageRef("db", "1")}

    def test_unknown_image_named_as_layers_of_names_it(self):
        with pytest.raises(UnknownImage) as err:
            commit_placement(idle_node(), self.task("ghost:1"), small_catalog())
        with pytest.raises(UnknownImage) as want:
            layers_of(small_catalog(), ImageRef("ghost", "1"))
        assert str(err.value) == str(want.value) == "image not in catalog: ghost:1"

    def test_storage_violation_detected_first(self):
        catalog = small_catalog()
        node = idle_node(storage_capacity=50 * MB, cpu_capacity=1)
        with pytest.raises(CapacityViolation) as err:
            commit_placement(node, self.task(cpu=5), catalog)
        assert err.value.constraint == "storage"

    def test_container_count_violation(self):
        catalog = small_catalog()
        node = commit_placement(idle_node(max_containers=1), self.task(), catalog)
        with pytest.raises(CapacityViolation) as err:
            commit_placement(node, self.task("db:1"), catalog)
        assert err.value.constraint == "container_count"

    def test_cpu_violation(self):
        catalog = small_catalog()
        with pytest.raises(CapacityViolation) as err:
            commit_placement(idle_node(), self.task(cpu=4001), catalog)
        assert err.value.constraint == "cpu_fit"

    def test_mem_violation(self):
        catalog = small_catalog()
        with pytest.raises(CapacityViolation) as err:
            commit_placement(idle_node(), self.task(mem=5 * GB), catalog)
        assert err.value.constraint == "mem_fit"


class TestValidation:
    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            NodeSpec(id="n", cpu_capacity=0, mem_capacity=1,
                     bandwidth=1, storage_capacity=1)

    def test_nonpositive_cpu_request_rejected(self):
        with pytest.raises(ValueError):
            TaskRequest(task_id="t", image=ImageRef("a", "1"),
                        cpu_request=0, mem_request=0)

    @pytest.mark.parametrize("field", ["cpu_capacity", "mem_capacity", "bandwidth",
                                       "storage_capacity", "max_containers"])
    def test_nan_capacity_rejected(self, field):
        capacities = dict(cpu_capacity=1, mem_capacity=1, bandwidth=1, storage_capacity=1)
        with pytest.raises(ValueError, match=f"{field} must be"):
            NodeSpec(id="n", **{**capacities, field: float("nan")})

    # An infinite CPU or memory capacity passed filter_node, yet least-allocated
    # scored inf / inf, a NaN, so schedule found no node; an int capacity
    # beyond the float range overflowed the kernel's float arithmetic.
    @pytest.mark.parametrize("field", ["cpu_capacity", "mem_capacity", "bandwidth",
                                       "storage_capacity"])
    def test_infinite_capacity_rejected(self, field):
        capacities = dict(cpu_capacity=1, mem_capacity=1, bandwidth=1, storage_capacity=1)
        for value in (float("inf"), 10 ** 400):
            with pytest.raises(ValueError, match=f"^node n: {field} must be finite and > 0$"):
                NodeSpec(id="n", **{**capacities, field: value})

    @pytest.mark.parametrize("field", ["cpu_request", "mem_request"])
    def test_nan_request_rejected(self, field):
        requests = dict(cpu_request=1, mem_request=0)
        with pytest.raises(ValueError, match=f"{field} must be"):
            TaskRequest(task_id="t", image=ImageRef("a", "1"),
                        **{**requests, field: float("nan")})

    # A request beyond the float range ended in a bare OverflowError where
    # the kernel divided it by a capacity.
    @pytest.mark.parametrize("value", [10 ** 400, -10 ** 400, float("inf"), -float("inf")],
                             ids=["beyond-float-range", "below-float-range", "inf",
                                  "minus-inf"])
    @pytest.mark.parametrize("field, bound", [("cpu_request", "> 0"),
                                              ("mem_request", ">= 0")], ids=["cpu", "mem"])
    def test_out_of_range_request_rejected(self, field, bound, value):
        message = f"^task t: {field} must be finite and {re.escape(bound)}$"
        requests = dict(cpu_request=1, mem_request=0)
        with pytest.raises(ValueError, match=message):
            TaskRequest(task_id="t", image=ImageRef("a", "1"), **{**requests, field: value})
        request = TaskRequest(task_id="t", image=ImageRef("a", "1"), **requests)
        with pytest.raises(ValueError, match=message):
            replace(request, **{field: value})

    # A committed amount is a sum of placed requests. The kernel's bounded
    # argmax needs it >= 0 (a negative one scores free CPU above 100, past
    # the baseline ceiling), and its load ratios need it finite.
    @pytest.mark.parametrize("value", [-1, -10 ** 400, 10 ** 400, float("nan"),
                                       float("inf"), -float("inf")],
                             ids=["negative", "below-float-range", "beyond-float-range",
                                  "nan", "inf", "minus-inf"])
    @pytest.mark.parametrize("field", ["cpu_committed", "mem_committed"])
    def test_out_of_range_commitment_rejected(self, field, value):
        message = f"^node n: {field} must be finite and >= 0$"
        with pytest.raises(ValueError, match=message):
            NodeState(spec=idle_node("n").spec, **{field: value})
        with pytest.raises(ValueError, match=message):
            replace(idle_node("n"), **{field: value})
        assert getattr(replace(idle_node("n"), **{field: 0}), field) == 0
