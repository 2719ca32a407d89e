"""Domain model: refs, catalog validation, node state, placement commits."""

import pytest

from layersched.errors import CapacityViolation, UnknownImage
from layersched.model import (
    ImageRef,
    LayerCatalog,
    NodeSpec,
    NodeState,
    TaskRequest,
    commit_placement,
    layers_of,
    missing_layers,
)
from layersched.scoring import MB

GB = 1024 ** 3


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

    @pytest.mark.parametrize("bad", ["", "noTag", ":tag", "name:"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            ImageRef.parse(bad)


class TestLayerCatalog:
    def test_image_total_size_sums_the_stack(self):
        assert small_catalog().image_total_size(ImageRef("web", "1")) == 100 * MB

    def test_unknown_image_raises(self):
        with pytest.raises(UnknownImage):
            layers_of(small_catalog(), ImageRef("ghost", "1"))

    def test_rejects_nonpositive_layer_size(self):
        with pytest.raises(ValueError):
            LayerCatalog(layers={"sha256:a": 0}, images={})

    def test_rejects_unknown_layer_in_stack(self):
        with pytest.raises(ValueError):
            LayerCatalog(layers={}, images={ImageRef("x", "1"): ("sha256:a",)})

    def test_rejects_duplicate_layer_in_stack(self):
        with pytest.raises(ValueError):
            LayerCatalog(
                layers={"sha256:a": 1},
                images={ImageRef("x", "1"): ("sha256:a", "sha256:a")},
            )


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
        node.check_invariants(catalog)

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

    def test_given_stored_bytes_are_the_ones_checked(self):
        catalog = small_catalog()
        node = commit_placement(idle_node(storage_capacity=200 * MB), self.task(), catalog)
        stored = node.stored_layer_bytes(catalog)
        assert commit_placement(node, self.task("db:1"), catalog, stored) == \
            commit_placement(node, self.task("db:1"), catalog)
        with pytest.raises(CapacityViolation) as err:
            commit_placement(node, self.task("db:1"), catalog, 200 * MB)
        assert err.value.constraint == "storage"

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
