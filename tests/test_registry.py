"""Registry client, metadata cache file, and the catalog bridge."""

import http.client
import json
import re
import shutil
import socket
import threading
import urllib.request
from contextlib import contextmanager
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersched import registry as registry_module
from layersched.cli import main
from layersched.errors import (
    CacheCorrupt,
    DigestSizeConflict,
    LayerSchedError,
    RegistryProtocolError,
    RegistryUnavailable,
    UnknownImage,
    UnsupportedManifest,
)
from layersched.fake_registry import FakeImage, FakeRegistry, bundled_images
from layersched.model import ImageRef
from layersched.registry import (
    ImageMetadata,
    ImageMetadataLists,
    LayerMetadata,
    RegistryClient,
    RegistryConfig,
    RegistryWatcher,
    catalog_from_cache,
    load_cache,
    lookup,
    refresh_cache,
    save_cache,
    strip_repo_host,
    walk_registry,
)


@pytest.fixture
def registry():
    with FakeRegistry(bundled_images()) as reg:
        yield reg


def client_for(reg: FakeRegistry, **kwargs) -> RegistryClient:
    return RegistryClient(RegistryConfig(base_url=reg.url, **kwargs))


class TestClient:
    def test_catalog_lists_every_repository(self, registry):
        names = client_for(registry).fetch_catalog()
        assert names == ["alpine-cache", "alpine-db", "alpine-web"]

    def test_catalog_pagination_follows_link_headers(self):
        with FakeRegistry(bundled_images(), page_size=1) as reg:
            before = reg.request_count
            names = client_for(reg).fetch_catalog()
            assert names == ["alpine-cache", "alpine-db", "alpine-web"]
            assert reg.request_count - before >= 3  # one request per page

    def test_tags_list(self, registry):
        assert client_for(registry).fetch_tags("alpine-web") == ["1.0"]

    def test_tags_of_unknown_repo_is_protocol_error(self, registry):
        with pytest.raises(RegistryProtocolError) as err:
            client_for(registry).fetch_tags("ghost")
        assert err.value.status == 404

    def test_manifest_maps_to_image_metadata(self, registry):
        image = client_for(registry).fetch_image_metadata("alpine-web", "1.0")
        assert image.id == "sha256:cfgweb00"
        assert image.name == "alpine-web"
        assert image.name_without_repo == "alpine-web"
        assert image.tag == "1.0"
        assert [l.layer for l in image.l_meta] == ["sha256:base0000", "sha256:web00000"]
        assert image.total_size == sum(l.size for l in image.l_meta)

    def test_multi_arch_resolves_first_platform_entry(self):
        images = [FakeImage(name="multi", tag="1",
                            config_digest="sha256:cfgmulti",
                            layers=[("sha256:m1", 11), ("sha256:m2", 22)],
                            multi_arch=True)]
        with FakeRegistry(images) as reg:
            image = client_for(reg).fetch_image_metadata("multi", "1")
            assert image.id == "sha256:cfgmulti"
            assert [l.layer for l in image.l_meta] == ["sha256:m1", "sha256:m2"]

    def test_schema1_manifest_is_unsupported(self, registry):
        registry.serve_schema1["alpine-web:1.0"] = True
        with pytest.raises(UnsupportedManifest):
            client_for(registry).fetch_image_metadata("alpine-web", "1.0")

    def test_missing_manifest_is_unknown_image(self, registry):
        with pytest.raises(UnknownImage):
            client_for(registry).fetch_image_metadata("alpine-web", "9.9")

    def test_unreachable_registry_raises_unavailable(self):
        client = RegistryClient(RegistryConfig(base_url="http://127.0.0.1:1"))
        with pytest.raises(RegistryUnavailable):
            client.fetch_catalog()


class TestStripRepoHost:
    @pytest.mark.parametrize("full,short", [
        ("registry.local:5000/team/web", "team/web"),
        ("registry.local/web", "web"),
        ("localhost/web", "web"),
        ("localhost:5000/team/web", "team/web"),
        ("team/web", "team/web"),  # plain namespace, not a host
        ("web", "web"),
    ])
    def test_host_component_stripped(self, full, short):
        assert strip_repo_host(full) == short


def sample_lists(path="cache.json") -> ImageMetadataLists:
    layers = [LayerMetadata(size=100, layer="sha256:one"),
              LayerMetadata(size=50, layer="sha256:two")]
    image = ImageMetadata(id="sha256:cfg", name="team/web",
                          name_without_repo="team/web", tag="1",
                          total_size=150, l_meta=layers)
    return ImageMetadataLists(catch_file=path, lists={image.key: image})


class TestCacheFile:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        lists = sample_lists(str(path))
        save_cache(lists, path)
        assert load_cache(path) == lists

    def test_save_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "cache.json"
        save_cache(sample_lists(), path)
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]

    def test_serialized_shape_uses_exact_field_names(self, tmp_path):
        path = tmp_path / "cache.json"
        save_cache(sample_lists(), path)
        payload = json.loads(path.read_text())
        record = payload["team/web:1"]
        assert set(record) == {"id", "name", "name_without_repo", "tag",
                               "total_size", "l_meta"}
        assert set(record["l_meta"][0]) == {"size", "layer"}

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        with pytest.raises(CacheCorrupt):
            load_cache(path)

    def test_inconsistent_total_size_raises(self, tmp_path):
        path = tmp_path / "cache.json"
        record = {"id": "x", "name": "a", "name_without_repo": "a", "tag": "1",
                  "total_size": 999, "l_meta": [{"size": 1, "layer": "sha256:l"}]}
        path.write_text(json.dumps({"a:1": record}))
        with pytest.raises(CacheCorrupt):
            load_cache(path)

    @staticmethod
    def write_record(path, key, name="a", tag="1", l_meta=(("sha256:l", 1),)):
        record = {"id": "x", "name": name, "name_without_repo": name, "tag": tag,
                  "total_size": sum(size for _, size in l_meta),
                  "l_meta": [{"size": size, "layer": layer} for layer, size in l_meta]}
        path.write_text(json.dumps({key: record}))

    @staticmethod
    def assert_validate_exits_2(cache, capsys):
        """``validate`` of a scenario reading ``cache`` exits 2 with one
        ``error:`` line naming the cache."""
        scenario = cache.parent / "scenario.json"
        scenario.write_text(json.dumps({
            "nodes": [{"id": "n0", "cpu": "4", "memory": "4GB",
                       "bandwidth": "10MB", "storage": "30GB"}],
            "catalog": {"cache_file": cache.name},
            "workload": {"count": 1},
        }))
        assert main(["validate", str(scenario)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cache}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key, name, tag", [
        ("a:1", "b", "1"), (":1", "", "1"), ("a:", "a", ""),
    ], ids=["key-mismatch", "empty-name", "empty-tag"])
    def test_record_the_model_refuses_raises_naming_the_path(self, tmp_path,
                                                               key, name, tag):
        path = tmp_path / "cache.json"
        self.write_record(path, key, name, tag)
        with pytest.raises(CacheCorrupt, match=re.escape(str(path))):
            load_cache(path)

    @pytest.mark.parametrize("payload", ["[]", '"a:1"', "null"])
    def test_top_level_that_is_no_object_raises_naming_the_path(self, tmp_path, payload):
        cache = tmp_path / "cache.json"
        cache.write_text(payload)
        with pytest.raises(CacheCorrupt) as err:
            load_cache(cache)
        assert str(err.value) == f"{cache}: top level must be an object"

    def test_empty_layer_digest_raises_naming_the_path(self, tmp_path):
        cache = tmp_path / "cache.json"
        self.write_record(cache, "a:1", l_meta=(("", 1),))
        with pytest.raises(CacheCorrupt) as err:
            load_cache(cache)
        assert str(err.value) == f"{cache}: layer digest must be non-empty"

    def test_size_beyond_float_raises_naming_the_path(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        self.write_record(cache, "a:1")
        cache.write_text(cache.read_text().replace('"total_size": 1', '"total_size": Infinity'))
        with pytest.raises(CacheCorrupt, match=re.escape(str(cache))):
            load_cache(cache)
        self.assert_validate_exits_2(cache, capsys)
        # A 401-digit JSON integer: a size, and the total that matches it.
        self.write_record(cache, "a:1", l_meta=(("sha256:l", 10 ** 400),))
        with pytest.raises(CacheCorrupt, match=re.escape(f"{cache}: size is beyond the float range")):
            load_cache(cache)
        self.assert_validate_exits_2(cache, capsys)

    @pytest.mark.parametrize("before, after", [
        ('"size": 1,', '"size": true,'),
        ('"size": 1,', '"size": 1.0,'),
        ('"size": 1,', '"size": "1",'),
        ('"total_size": 1,', '"total_size": true,'),
        ('"total_size": 1,', '"total_size": 1.0,'),
    ], ids=["bool-size", "float-size", "string-size", "bool-total", "float-total"])
    def test_size_that_is_no_json_integer_raises_naming_the_path(self, tmp_path, before, after):
        # A size is never coerced: true is not 1 byte, nor "1" one byte.
        cache = tmp_path / "cache.json"
        self.write_record(cache, "a:1")
        assert before in cache.read_text()
        cache.write_text(cache.read_text().replace(before, after))
        with pytest.raises(CacheCorrupt, match=re.escape(str(cache))):
            load_cache(cache)

    @pytest.mark.parametrize("before, after, message", [
        ('"id": "x"', '"id": 7', "id must be a JSON string, not 7"),
        ('"tag": "1"', '"tag": 1', "tag must be a JSON string, not 1"),
        ('"layer": "sha256:l"', '"layer": null', "layer must be a JSON string, not None"),
    ], ids=["number-id", "number-tag", "null-layer"])
    def test_string_field_that_is_no_json_string_raises_naming_the_path(
            self, tmp_path, before, after, message):
        # A string field is never coerced: 7 is not the id "7", nor null a digest.
        cache = tmp_path / "cache.json"
        self.write_record(cache, "a:1")
        assert before in cache.read_text()
        cache.write_text(cache.read_text().replace(before, after))
        with pytest.raises(CacheCorrupt) as err:
            load_cache(cache)
        assert str(err.value) == f"{cache}: {message}"

    def test_layer_repeated_in_one_stack_collapses_to_its_first_place(self, tmp_path):
        path = tmp_path / "cache.json"
        self.write_record(path, "a:1", l_meta=(("sha256:a", 1), ("sha256:b", 2),
                                               ("sha256:a", 1)))
        catalog = catalog_from_cache(load_cache(path))
        assert catalog.images == {ImageRef("a", "1"): ("sha256:a", "sha256:b")}
        assert catalog.layers == {"sha256:a": 1, "sha256:b": 2}

    def test_layer_repeated_in_one_stack_with_two_sizes_conflicts(self, tmp_path):
        path = tmp_path / "cache.json"
        self.write_record(path, "a:1", l_meta=(("sha256:a", 1), ("sha256:a", 2)))
        with pytest.raises(DigestSizeConflict):
            catalog_from_cache(load_cache(path))

    @pytest.mark.parametrize("key, name", [("a:1", "b"), (":1", "")],
                             ids=["key-mismatch", "empty-name"])
    def test_validate_exits_2_on_a_refused_cache(self, tmp_path, capsys, key, name):
        cache = tmp_path / "cache.json"
        self.write_record(cache, key, name)
        self.assert_validate_exits_2(cache, capsys)

    def test_lookup(self):
        lists = sample_lists()
        assert lookup(lists, "team/web", "1").id == "sha256:cfg"
        with pytest.raises(UnknownImage):
            lookup(lists, "team/web", "2")

    digest = st.from_regex(r"sha256:[0-9a-f]{8}", fullmatch=True)
    name = st.from_regex(r"[a-z][a-z0-9-]{0,15}", fullmatch=True)

    @given(st.lists(
        st.tuples(name, name, digest,
                  st.lists(st.tuples(digest, st.integers(0, 10 ** 9)),
                           min_size=0, max_size=5)),
        min_size=0, max_size=6,
        unique_by=lambda t: (t[0], t[1]),
    ))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_lossless_on_generated_caches(self, tmp_path_factory, specs):
        lists = {}
        for repo, tag, config, layer_specs in specs:
            l_meta = [LayerMetadata(size=size, layer=d) for d, size in layer_specs]
            image = ImageMetadata(
                id=config, name=repo, name_without_repo=strip_repo_host(repo),
                tag=tag, total_size=sum(l.size for l in l_meta), l_meta=l_meta,
            )
            lists[image.key] = image
        snapshot = ImageMetadataLists(lists=lists)
        path = tmp_path_factory.mktemp("caches") / "cache.json"
        save_cache(snapshot, path)
        assert load_cache(path) == snapshot


class TestRefreshCache:
    def test_full_refresh_writes_every_image(self, registry, tmp_path):
        path = tmp_path / "cache.json"
        snapshot = refresh_cache(RegistryConfig(base_url=registry.url,
                                                cache_path=str(path)))
        assert sorted(snapshot.lists) == \
            ["alpine-cache:1.0", "alpine-db:1.0", "alpine-web:1.0"]
        assert not snapshot.stale and not snapshot.warnings
        assert path.exists()
        assert load_cache(path) == snapshot

    def test_partial_failure_becomes_warning(self, registry, tmp_path):
        registry.fail_manifests.add("alpine-db:1.0")
        path = tmp_path / "cache.json"
        snapshot = refresh_cache(RegistryConfig(base_url=registry.url,
                                                cache_path=str(path)))
        assert sorted(snapshot.lists) == ["alpine-cache:1.0", "alpine-web:1.0"]
        assert any("alpine-db" in w for w in snapshot.warnings)

    def test_outage_with_prior_cache_serves_stale(self, registry, tmp_path):
        path = tmp_path / "cache.json"
        config = RegistryConfig(base_url=registry.url, cache_path=str(path))
        fresh = refresh_cache(config)
        before = path.read_bytes()

        registry.down = True
        snapshot = refresh_cache(config)
        assert snapshot.stale
        assert snapshot.lists == fresh.lists
        assert path.read_bytes() == before  # prior cache not destroyed

    def test_outage_without_cache_raises(self, registry, tmp_path):
        registry.down = True
        config = RegistryConfig(base_url=registry.url,
                                cache_path=str(tmp_path / "cache.json"))
        with pytest.raises(RegistryUnavailable):
            refresh_cache(config)


STUB_URL = "http://registry.stub"
MANIFEST = {"schemaVersion": 2,
            "mediaType": "application/vnd.docker.distribution.manifest.v2+json",
            "config": {"digest": "sha256:cfg"},
            "layers": [{"size": 5, "digest": "sha256:one"}]}
INDEX = {"schemaVersion": 2,
         "mediaType": "application/vnd.oci.image.index.v1+json",
         "manifests": [{"digest": "sha256:arch", "size": 0}]}


class StubRegistry:
    """A connection factory, called as ``HTTPConnection`` is, whose
    connections answer each GET from a path -> reply table with 200, else
    with a 404, and which keeps the URL and headers of every request. A reply
    is a body or a ``(body, Link header)`` pair; a body that is not a string
    is sent as its JSON encoding. An int reply is that status."""

    def __init__(self, replies: dict):
        self.replies = replies
        self.requests = []  # (url, headers) per GET
        self.tunnels = []  # (proxy host, tunnel host, CONNECT headers) per tunnel

    def __call__(self, host, timeout=None):
        return StubConnection(self, host)


class StubConnection:
    """One connection of a :class:`StubRegistry`; it is its own reply."""

    def __init__(self, registry: StubRegistry, host: str):
        self.registry = registry
        self.host = host
        self.tunnel = None
        self.status = None

    def set_tunnel(self, host, port=None, headers=None):
        self.tunnel = host
        self.registry.tunnels.append((self.host, host, headers))

    def request(self, method, target, headers=None):
        assert method == "GET" and self.status is None
        url = target if "://" in target else f"http://{self.tunnel or self.host}{target}"
        self.registry.requests.append((url, headers))
        reply = self.registry.replies.get(url.removeprefix(STUB_URL), 404)
        self.status, reply = (reply, "{}") if isinstance(reply, int) else (200, reply)
        body, link = reply if isinstance(reply, tuple) else (reply, None)
        self.headers = {"Link": link} if link else {}
        self.body = (body if isinstance(body, str) else json.dumps(body)).encode()

    def getresponse(self):
        return self

    def getheader(self, name, default=None):
        return self.headers.get(name, default)

    def read(self):
        return self.body

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass


def stub_client(replies: dict, **credentials) -> RegistryClient:
    return RegistryClient(RegistryConfig(base_url=STUB_URL, **credentials),
                          connect=StubRegistry(replies))


def stub_walk(tmp_path, bad: dict) -> ImageMetadataLists:
    """Refresh from a stub holding the good image ``good:1`` and the
    repository ``bad`` (tag ``1``), whose replies ``bad`` sets."""
    replies = {"/v2/_catalog": {"repositories": ["bad", "good"]},
               "/v2/bad/tags/list": {"tags": ["1"]},
               "/v2/good/tags/list": {"tags": ["1"]},
               "/v2/good/manifests/1": MANIFEST, **bad}
    config = RegistryConfig(base_url=STUB_URL,
                            cache_path=str(tmp_path / "cache.json"))
    return refresh_cache(config, stub_client(replies))


class TestMalformedReplies:
    @pytest.mark.parametrize("body", [
        "not json",
        ["bad", "good"],
        {"repositories": "abc"},
        {"repositories": ["good", 7]},
    ], ids=["not-json", "list", "string", "non-string-name"])
    def test_bad_catalog_is_a_protocol_error(self, tmp_path, body):
        with pytest.raises(RegistryProtocolError):
            stub_client({"/v2/_catalog": body}).fetch_catalog()
        with pytest.raises(RegistryProtocolError):
            stub_walk(tmp_path, {"/v2/_catalog": body})

    @pytest.mark.parametrize("body", ["not json", ["1"], {"tags": "1"}],
                             ids=["not-json", "list", "string"])
    def test_bad_tags_reply_becomes_a_warning(self, tmp_path, body):
        with pytest.raises(RegistryProtocolError):
            stub_client({"/v2/bad/tags/list": body}).fetch_tags("bad")
        snapshot = stub_walk(tmp_path, {"/v2/bad/tags/list": body})
        assert list(snapshot.lists) == ["good:1"]
        assert len(snapshot.warnings) == 1
        assert snapshot.warnings[0].startswith("tags for bad: ")

    def test_null_tags_is_an_empty_repository(self, tmp_path):
        snapshot = stub_walk(tmp_path, {"/v2/bad/tags/list": {"tags": None}})
        assert list(snapshot.lists) == ["good:1"]
        assert snapshot.warnings == []

    @pytest.mark.parametrize("replies, message", [
        ({"/v2/bad/manifests/1": "not json"}, "bad:1: reply is not JSON"),
        ({"/v2/bad/manifests/1": [MANIFEST]}, "bad:1: reply is a JSON list, not an object"),
        ({"/v2/bad/manifests/1": {**MANIFEST, "layers": [{"digest": "sha256:x"}]}},
         "(KeyError: 'size')"),
        ({"/v2/bad/manifests/1": {**MANIFEST,
                                  "layers": [{"size": -1, "digest": "sha256:x"}]}},
         "(ValueError: layer size must be >= 0)"),
        ({"/v2/bad/manifests/1": {**MANIFEST, "layers": "abc"}}, "(TypeError: "),
        ({"/v2/bad/manifests/1": {**MANIFEST, "config": "sha256:cfg"}}, "(AttributeError: "),
        ({"/v2/bad/manifests/1": {**INDEX, "manifests": [{"size": 0}]},
          "/v2/bad/manifests/sha256:arch": MANIFEST}, "(KeyError: 'digest')"),
        ({"/v2/bad/manifests/1": json.dumps(MANIFEST).replace('"size": 5', '"size": 1e400')},
         "(TypeError: size must be a JSON integer, not inf)"),
        ({"/v2/bad/manifests/1": json.dumps(MANIFEST).replace('"size": 5', '"size": true')},
         "(TypeError: size must be a JSON integer, not True)"),
        ({"/v2/bad/manifests/1": json.dumps(MANIFEST).replace('"size": 5', '"size": 1.9')},
         "(TypeError: size must be a JSON integer, not 1.9)"),
        ({"/v2/bad/manifests/1": json.dumps(MANIFEST).replace('"size": 5', '"size": "12"')},
         "(TypeError: size must be a JSON integer, not '12')"),
        ({"/v2/bad/manifests/1": {**INDEX, "manifests": []}}, "bad:1: empty manifest list"),
        ({"/v2/bad/manifests/1": {**MANIFEST, "layers": [{"size": 5, "digest": 7}]}},
         "(TypeError: digest must be a JSON string, not 7)"),
        ({"/v2/bad/manifests/1": {**MANIFEST, "config": {"digest": 7}}},
         "(TypeError: digest must be a JSON string, not 7)"),
        ({"/v2/bad/manifests/1": {**INDEX, "manifests": [{"digest": 7}]}},
         "(TypeError: digest must be a JSON string, not 7)"),
    ], ids=["not-json", "list", "no-size", "negative-size", "layers-string",
            "config-string", "index-entry-without-digest", "size-beyond-float",
            "bool-size", "fractional-size", "string-size", "empty-index",
            "numeric-layer-digest", "numeric-config-digest", "numeric-index-digest"])
    def test_bad_manifest_becomes_a_warning(self, tmp_path, replies, message):
        with pytest.raises(UnsupportedManifest) as err:
            stub_client(replies).fetch_image_metadata("bad", "1")
        assert message in str(err.value)
        snapshot = stub_walk(tmp_path, replies)
        assert list(snapshot.lists) == ["good:1"]
        assert len(snapshot.warnings) == 1
        assert snapshot.warnings[0].startswith("manifest bad:1: ")


class TestCatalogStatus:
    """A catalog answered with an error status: a transient one (5xx, 429)
    keeps a prior cache, any other is raised."""

    @pytest.mark.parametrize("status", [503, 429])
    def test_transient_status_with_prior_cache_serves_stale(self, tmp_path, monkeypatch,
                                                            capsys, status):
        fresh = stub_walk(tmp_path, {})
        cache = tmp_path / "cache.json"
        before = cache.read_bytes()
        snapshot = stub_walk(tmp_path, {"/v2/_catalog": status})
        assert snapshot.stale
        assert snapshot.lists == fresh.lists
        assert snapshot.warnings == [
            f"GET {STUB_URL}/v2/_catalog: HTTP {status}; serving prior cache"]
        assert cache.read_bytes() == before

        monkeypatch.setattr(registry_module, "RegistryClient", partial(
            RegistryClient, connect=StubRegistry({"/v2/_catalog": status})))
        assert main(["fetch-registry", "--registry", STUB_URL, "--out", str(cache)]) == 0
        captured = capsys.readouterr()
        assert captured.err == (f"warning: GET {STUB_URL}/v2/_catalog: HTTP {status}; "
                                f"serving prior cache\n")
        assert "1 images (stale)" in captured.out
        assert cache.read_bytes() == before

    def test_transient_status_without_cache_raises(self, tmp_path):
        with pytest.raises(RegistryProtocolError, match="HTTP 503"):
            stub_walk(tmp_path, {"/v2/_catalog": 503})
        assert not (tmp_path / "cache.json").exists()

    @pytest.mark.parametrize("reply,message", [
        (401, "HTTP 401"),
        (404, "HTTP 404"),
        ("not json", "not JSON"),
        (({"repositories": ["good"]}, '</v2/_catalog>; rel="next"'), "repeats"),
    ], ids=["401", "404", "not-json", "repeated-next"])
    def test_other_catalog_error_with_prior_cache_raises(self, tmp_path, reply, message):
        stub_walk(tmp_path, {})
        with pytest.raises(RegistryProtocolError, match=message):
            stub_walk(tmp_path, {"/v2/_catalog": reply})


class TestTransientImageFailure:
    """An image whose tags or manifest fail transiently (5xx, 429) keeps its
    prior cache record and the snapshot is stale; a 404 drops the image."""

    REPLIES = {"/v2/_catalog": {"repositories": ["a", "b"]},
               "/v2/a/tags/list": {"tags": ["1"]},
               "/v2/b/tags/list": {"tags": ["1"]},
               "/v2/a/manifests/1": MANIFEST,
               "/v2/b/manifests/1": MANIFEST}

    def refresh(self, tmp_path, **faults) -> ImageMetadataLists:
        config = RegistryConfig(base_url=STUB_URL, cache_path=str(tmp_path / "cache.json"))
        return refresh_cache(config, stub_client({**self.REPLIES, **faults}))

    @pytest.mark.parametrize("path,status", [
        ("/v2/b/manifests/1", 503),
        ("/v2/b/manifests/1", 429),
        ("/v2/b/tags/list", 503),
    ], ids=["manifest-503", "manifest-429", "tags-503"])
    def test_transient_failure_keeps_the_prior_record(self, tmp_path, path, status):
        fresh = self.refresh(tmp_path)
        assert sorted(fresh.lists) == ["a:1", "b:1"] and not fresh.stale
        before = (tmp_path / "cache.json").read_bytes()
        snapshot = self.refresh(tmp_path, **{path: status})
        assert snapshot.lists == fresh.lists
        assert snapshot.stale
        assert snapshot.warnings[-1] == ("serving 1 image(s) from the prior cache "
                                         "after a transient failure: b:1")
        assert len(snapshot.warnings) == 2
        assert (tmp_path / "cache.json").read_bytes() == before

    def test_not_found_drops_the_image_without_reading_the_prior_cache(
            self, tmp_path, monkeypatch):
        self.refresh(tmp_path)

        def unread(path):
            raise AssertionError("prior cache read")

        monkeypatch.setattr(registry_module, "load_cache", unread)
        snapshot = self.refresh(tmp_path, **{"/v2/b/manifests/1": 404})
        assert list(snapshot.lists) == ["a:1"]
        assert not snapshot.stale
        assert snapshot.warnings == ["manifest b:1: b:1 not in registry"]

    def test_corrupt_prior_cache_keeps_nothing(self, tmp_path):
        self.refresh(tmp_path)
        (tmp_path / "cache.json").write_text("{")
        snapshot = self.refresh(tmp_path, **{"/v2/b/manifests/1": 503})
        assert list(snapshot.lists) == ["a:1"]
        assert not snapshot.stale
        assert snapshot.warnings[-1].endswith("; no prior records kept")


class TestTransport:
    """What the client's one GET does for every request, seen through the
    stub connections."""

    @pytest.mark.parametrize("credentials,header", [
        ({}, None),
        ({"token": "t0k"}, "Bearer t0k"),
        ({"token": "t0k", "username": "ann", "password": "pw"}, "Bearer t0k"),
        ({"username": "ann", "password": "pw"}, "Basic YW5uOnB3"),
        ({"username": "ann"}, "Basic YW5uOg=="),
    ], ids=["none", "token", "token-over-basic", "basic", "basic-no-password"])
    def test_authorization_is_sent_on_every_request(self, credentials, header):
        client = stub_client({
            "/v2/_catalog": ({"repositories": ["good"]},
                             '</v2/_catalog?page=2>; rel="next"'),
            "/v2/_catalog?page=2": {"repositories": []},
            "/v2/good/tags/list": {"tags": ["1"]},
            "/v2/good/manifests/1": MANIFEST,
        }, **credentials)
        assert list(walk_registry(client).lists) == ["good:1"]
        requests = client.connect.requests
        assert len(requests) == 4
        assert [headers.get("Authorization") for _, headers in requests] == [header] * 4

    # Two catalog pages, four tag-list pages, five manifests and one
    # per-arch manifest.
    PAGED = {
        "/v2/_catalog": ({"repositories": ["a", "team/b"]},
                         '</v2/_catalog?page=2>; rel="next"'),
        "/v2/_catalog?page=2": {"repositories": ["c"]},
        "/v2/a/tags/list": {"tags": ["1", "2"]},
        "/v2/team/b/tags/list": ({"tags": ["1"]},
                                 '</v2/team/b/tags/list?page=2>; rel="next"'),
        "/v2/team/b/tags/list?page=2": {"tags": ["2"]},
        "/v2/c/tags/list": {"tags": ["1"]},
        "/v2/a/manifests/1": MANIFEST,
        "/v2/a/manifests/2": MANIFEST,
        "/v2/team/b/manifests/1": MANIFEST,
        "/v2/team/b/manifests/2": MANIFEST,
        "/v2/c/manifests/1": INDEX,
        "/v2/c/manifests/sha256:arch": MANIFEST,
    }

    def test_a_walk_sends_one_get_per_page_and_manifest(self):
        # Work count: catalog pages + tag-list pages + manifests + per-arch
        # manifests, each fetched once.
        client = stub_client(self.PAGED)
        snapshot = walk_registry(client)
        assert sorted(snapshot.lists) == ["a:1", "a:2", "c:1", "team/b:1", "team/b:2"]
        assert snapshot.warnings == []
        assert len(client.connect.requests) == 2 + 4 + 5 + 1

    def test_a_walk_reads_the_proxy_settings_once(self, monkeypatch):
        # Work count: getproxies scans the whole environment, so a client
        # reads it when built, not once per GET.
        calls = []
        getproxies = urllib.request.getproxies

        def counting():
            calls.append(1)
            return getproxies()

        monkeypatch.setattr(urllib.request, "getproxies", counting)
        client = stub_client(self.PAGED)
        assert len(walk_registry(client).lists) == 5
        assert len(client.connect.requests) == 12
        assert len(calls) == 1  # 1; 13 if every GET read them again

    def test_next_link_after_a_prev_link_and_absolute_next_link_are_followed(self):
        client = stub_client({
            "/v2/_catalog": ({"repositories": ["a"]},
                             f'<{STUB_URL}/v2/_catalog?page=0>; rel="prev", '
                             f'</v2/_catalog?page=2>; rel="next"'),
            "/v2/_catalog?page=2": ({"repositories": ["b"]},
                                    f'<{STUB_URL}/v2/_catalog?page=3>; rel="next"'),
            "/v2/_catalog?page=3": {"repositories": ["c"]},
        })
        assert client.fetch_catalog() == ["a", "b", "c"]
        assert [url.removeprefix(STUB_URL) for url, _ in client.connect.requests] == \
            ["/v2/_catalog", "/v2/_catalog?page=2", "/v2/_catalog?page=3"]

    @pytest.mark.parametrize("next_url", [
        "http://elsewhere.stub/v2/_catalog?page=2",
        "https://registry.stub/v2/_catalog?page=2",
        "http://registry.stub:8080/v2/_catalog?page=2",
        "http://registry.stub:bad/v2/_catalog?page=2",
    ], ids=["host", "scheme", "port", "malformed-port"])
    def test_next_link_to_another_origin_is_refused(self, tmp_path, next_url):
        foreign = {"/v2/_catalog": ({"repositories": ["good"]}, f'<{next_url}>; rel="next"')}
        client = stub_client(foreign, token="t0k")
        with pytest.raises(RegistryProtocolError, match="leaves http://registry.stub"):
            client.fetch_catalog()
        assert [url for url, _ in client.connect.requests] == [f"{STUB_URL}/v2/_catalog"]

        # In a tags listing the refusal is one image's warning.
        replies = {"/v2/_catalog": {"repositories": ["bad", "good"]},
                   "/v2/bad/tags/list": ({"tags": ["1"]}, f'<{next_url}>; rel="next"'),
                   "/v2/good/tags/list": {"tags": ["1"]},
                   "/v2/good/manifests/1": MANIFEST}
        client = stub_client(replies, token="t0k")
        snapshot = refresh_cache(
            RegistryConfig(base_url=STUB_URL, cache_path=str(tmp_path / "cache.json")), client)
        assert list(snapshot.lists) == ["good:1"]
        assert [w.split(":")[0] for w in snapshot.warnings] == ["tags for bad"]
        foreign_requests = [url for url, _ in client.connect.requests
                            if not url.startswith(f"{STUB_URL}/")]
        assert foreign_requests == []
        assert all(headers.get("Authorization") == "Bearer t0k"
                   for _, headers in client.connect.requests)

    @pytest.mark.parametrize("next_url,key", [
        (f"{STUB_URL}:80/v2/_catalog?page=2", ":80/v2/_catalog?page=2"),
        ("HTTP://Registry.STUB/v2/_catalog?page=2", "http://Registry.STUB/v2/_catalog?page=2"),
    ], ids=["default-port", "case"])
    def test_next_link_spelling_the_same_origin_is_followed(self, next_url, key):
        client = stub_client({
            "/v2/_catalog": ({"repositories": ["a"]}, f'<{next_url}>; rel="next"'),
            key: {"repositories": ["b"]},
        })
        assert client.fetch_catalog() == ["a", "b"]

    @pytest.mark.parametrize("loop", [
        {"/v2/_catalog": ({"repositories": ["a"]}, '</v2/_catalog>; rel="next"')},
        {"/v2/_catalog": ({"repositories": ["a"]}, '</v2/_catalog?page=2>; rel="next"'),
         "/v2/_catalog?page=2": ({"repositories": ["b"]},
                                 f'<{STUB_URL}/v2/_catalog>; rel="next"')},
    ], ids=["self", "two-pages"])
    def test_repeated_next_link_stops_the_listing(self, tmp_path, loop):
        client = stub_client(loop)
        with pytest.raises(RegistryProtocolError, match="repeats an earlier page"):
            client.fetch_catalog()
        assert len(client.connect.requests) == len(loop)
        # A watcher tick over the same registry ends rather than hangs.
        watcher = RegistryWatcher(
            RegistryConfig(base_url=STUB_URL, cache_path=str(tmp_path / "cache.json")),
            client=stub_client(loop))
        with pytest.raises(RegistryProtocolError):
            watcher.refresh_once()

    def test_page_count_is_capped(self):
        pages = {f"/v2/_catalog?page={n}": ({"repositories": [f"r{n}"]},
                                            f'</v2/_catalog?page={n + 1}>; rel="next"')
                 for n in range(1, registry_module.MAX_PAGES + 1)}
        client = stub_client({"/v2/_catalog": ({"repositories": ["r0"]},
                                               '</v2/_catalog?page=1>; rel="next"'),
                              **pages})
        with pytest.raises(RegistryProtocolError,
                           match=f"more than {registry_module.MAX_PAGES} pages"):
            client.fetch_catalog()
        assert len(client.connect.requests) == registry_module.MAX_PAGES

    def test_https_through_a_proxy_is_tunnelled(self, monkeypatch):
        for name in ("https_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        monkeypatch.setenv("https_proxy", "http://u:p@proxy.stub:3128")
        stub = StubRegistry({"/v2/_catalog": {"repositories": ["a"]}})
        client = RegistryClient(RegistryConfig(base_url="https://registry.stub", token="t0k"),
                                connect=stub)
        assert client.fetch_catalog() == ["a"]
        assert stub.tunnels == [("proxy.stub:3128", "registry.stub",
                                 {"Proxy-Authorization": "Basic dTpw"})]
        [(url, headers)] = stub.requests
        assert url == f"{STUB_URL}/v2/_catalog"
        assert headers["Authorization"] == "Bearer t0k"
        assert "Proxy-Authorization" not in headers

    @pytest.mark.parametrize("base_url", ["foo", "http://[::1", "ftp://x", "file://{tmp}"],
                             ids=["no-scheme", "bad-host", "ftp", "file"])
    def test_unusable_base_url_exits_2_before_any_request(self, tmp_path, monkeypatch,
                                                           capsys, base_url):
        (tmp_path / "v2").mkdir()
        (tmp_path / "v2" / "_catalog").write_text('{"repositories": []}')
        stub = StubRegistry({})
        monkeypatch.setattr(registry_module, "RegistryClient",
                            partial(RegistryClient, connect=stub))
        cache = tmp_path / "cache.json"
        code = main(["fetch-registry", "--registry", base_url.format(tmp=tmp_path),
                     "--out", str(cache)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert stub.requests == []
        assert not cache.exists()


class WireServer(ThreadingHTTPServer):
    """A real HTTP server on 127.0.0.1 that answers each request target from
    ``routes`` (target -> ``(status, headers, body)``), else with a 404, and
    keeps the target and headers of every request. A proxy sees absolute
    targets."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), WireHandler)
        self.routes: dict = {}
        self.requests: list = []  # (target, headers) per request

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    @property
    def targets(self) -> list:
        return [target for target, _ in self.requests]


class WireHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_GET(self):
        self.server.requests.append((self.path, dict(self.headers)))
        status, headers, body = self.server.routes.get(self.path, (404, {}, {}))
        raw = json.dumps(body).encode()
        self.send_response(status)
        for name, value in {**headers, "Content-Length": str(len(raw))}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(raw)


@pytest.fixture
def wire():
    """Two started servers: the registry under test and another origin."""
    servers = [WireServer(), WireServer()]
    threads = [threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
               for server in servers]
    for thread in threads:
        thread.start()
    try:
        yield servers
    finally:
        for server, thread in zip(servers, threads):
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


def redirect(status, location):
    return status, {"Location": location}, {}


CATALOG_A = (200, {}, {"repositories": ["a"]})


@pytest.fixture
def no_proxy_variables(monkeypatch):
    for name in ("http_proxy", "https_proxy", "ftp_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@pytest.mark.usefixtures("no_proxy_variables")
class TestWire:
    """What one GET does on the wire, against real HTTP servers: redirects,
    the scheme check on every hop, and the proxy variables."""

    @pytest.mark.parametrize("status", [302, 307])
    @pytest.mark.parametrize("location", ["{url}/v2/moved", "/v2/moved", "moved"],
                             ids=["absolute", "absolute-path", "relative"])
    def test_same_origin_redirect_is_followed_without_authorization(self, wire, status,
                                                                    location):
        registry, _ = wire
        registry.routes["/v2/_catalog"] = redirect(status, location.format(url=registry.url))
        registry.routes["/v2/moved"] = CATALOG_A
        client = RegistryClient(RegistryConfig(base_url=registry.url, token="t0k"))
        assert client.fetch_catalog() == ["a"]
        assert registry.targets == ["/v2/_catalog", "/v2/moved"]
        assert [headers.get("Authorization") for _, headers in registry.requests] == \
            ["Bearer t0k", None]

    @pytest.mark.parametrize("status", [302, 307])
    def test_redirect_to_another_origin_is_followed_without_authorization(self, wire, status):
        registry, other = wire
        registry.routes["/v2/a/manifests/1"] = redirect(status, f"{other.url}/blobs/m")
        other.routes["/blobs/m"] = (200, {}, MANIFEST)
        client = RegistryClient(RegistryConfig(base_url=registry.url,
                                               username="ann", password="pw"))
        assert [l.layer for l in client.fetch_image_metadata("a", "1").l_meta] == ["sha256:one"]
        assert registry.targets == ["/v2/a/manifests/1"]
        assert registry.requests[0][1]["Authorization"] == "Basic YW5uOnB3"
        assert other.targets == ["/blobs/m"]
        assert "Authorization" not in other.requests[0][1]
        assert other.requests[0][1]["Accept"] == registry_module.ACCEPT_MANIFESTS

    @pytest.mark.parametrize("scheme", ["file", "ftp"])
    def test_redirect_to_another_scheme_opens_nothing(self, wire, tmp_path, scheme):
        registry, _ = wire
        (tmp_path / "catalog").write_text('{"repositories": ["stolen"]}')
        target = (f"file://{tmp_path}/catalog" if scheme == "file"
                  else f"ftp://127.0.0.1:{registry.server_address[1]}/v2/moved")
        registry.routes["/v2/_catalog"] = redirect(302, target)
        registry.routes["/v2/moved"] = CATALOG_A
        client = RegistryClient(RegistryConfig(base_url=registry.url, token="t0k"))
        with pytest.raises(LayerSchedError):
            client.fetch_catalog()
        assert registry.targets == ["/v2/_catalog"]

    @pytest.mark.parametrize("loop", [["/v2/_catalog"], ["/v2/_catalog", "/v2/back"]],
                             ids=["self", "two-urls"])
    def test_redirect_loop_ends_in_an_error(self, wire, loop):
        registry, _ = wire
        for path, target in zip(loop, loop[1:] + loop[:1]):
            registry.routes[path] = redirect(302, target)
        client = RegistryClient(RegistryConfig(base_url=registry.url))
        with pytest.raises(LayerSchedError):
            client.fetch_catalog()
        assert 2 <= len(registry.requests) <= 11

    def test_http_proxy_gets_the_absolute_url(self, wire, monkeypatch):
        registry, proxy = wire
        registry.routes["/v2/_catalog"] = (200, {}, {"repositories": ["direct"]})
        proxy.routes[f"{registry.url}/v2/_catalog"] = CATALOG_A
        monkeypatch.setenv("http_proxy", proxy.url.replace("//", "//u%40x:p%3A@"))
        client = RegistryClient(RegistryConfig(base_url=registry.url, token="t0k"))
        assert client.fetch_catalog() == ["a"]
        assert registry.requests == []
        assert proxy.targets == [f"{registry.url}/v2/_catalog"]
        headers = proxy.requests[0][1]
        assert headers["Proxy-Authorization"] == "Basic dUB4OnA6"  # u@x:p:
        assert headers["Authorization"] == "Bearer t0k"

    @pytest.mark.parametrize("no_proxy", ["127.0.0.1", "localhost,127.0.0.1", "*"])
    def test_no_proxy_host_goes_direct(self, wire, monkeypatch, no_proxy):
        registry, proxy = wire
        registry.routes["/v2/_catalog"] = CATALOG_A
        monkeypatch.setenv("http_proxy", proxy.url)
        monkeypatch.setenv("no_proxy", no_proxy)
        client = RegistryClient(RegistryConfig(base_url=registry.url))
        assert client.fetch_catalog() == ["a"]
        assert registry.targets == ["/v2/_catalog"]
        assert proxy.requests == []


@contextmanager
def raw_server(*replies: bytes):
    """A socket on 127.0.0.1 that sends each of ``replies`` as-is to one
    connection in turn, once its request has arrived, then closes it; yields
    the base URL."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)

    def answer():
        for raw in replies:
            try:
                connection, _ = listener.accept()
                with connection:
                    connection.settimeout(5)
                    request = b""
                    while b"\r\n\r\n" not in request:
                        chunk = connection.recv(65536)
                        if not chunk:
                            break
                        request += chunk
                    connection.sendall(raw)
            except OSError:  # the client hung up on a reply it refused
                pass

    thread = threading.Thread(target=answer)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        thread.join(timeout=30)
        listener.close()


def read_reply(raw: bytes, response_class):
    """``(status, Link, Location, body, framing)`` of ``raw`` read through a
    real ``HTTPConnection`` whose replies are ``response_class``, where
    ``framing`` is what ``begin`` set for ``read``, or the class of the error
    reading it raised."""
    with raw_server(raw) as url:
        connection = http.client.HTTPConnection(url.removeprefix("http://"), timeout=5)
        connection.response_class = response_class
        try:
            connection.request("GET", "/v2/_catalog", headers={"Connection": "close"})
            with connection.getresponse() as reply:
                framing = reply.chunked, reply.length, reply.will_close
                return (reply.status, reply.getheader("Link"), reply.getheader("Location"),
                        reply.read(), framing)
        except (OSError, http.client.HTTPException) as exc:
            return type(exc)
        finally:
            connection.close()


NEXT = b'</v2/_catalog?last=a>; rel="next"'
# name -> (a raw reply, and its status or the error reading it raises)
RAW_REPLIES = {
    "plain": (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n"
              b"Connection: close\r\n\r\n{}", 200),
    "two-link-lines": (b'HTTP/1.0 200 OK\r\nLink: </v2/_catalog>; rel="prev"\r\nlINK: ' + NEXT +
                       b"\r\nContent-Length: 2\r\n\r\n{}", 200),
    "chunked": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: Chunked\r\n\r\n"
                b"1\r\n{\r\n1\r\n}\r\n0\r\n\r\n", 200),
    "http-1.0-no-length": (b'HTTP/1.0 200 OK\r\nServer: x\r\n\r\n{"a": 1}', 200),
    "http-1.1-no-length": (b"HTTP/1.1 200 OK\r\nServer: x\r\n\r\n{}", 200),
    "continue-first": (b"HTTP/1.1 100 Continue\r\nX-Skipped: 1\r\n\r\n"
                       b"HTTP/1.1 200 OK\r\nLink: " + NEXT + b"\r\nContent-Length: 2\r\n\r\n{}",
                       200),
    "redirect": (b"HTTP/1.1 307 Temporary Redirect\r\nLocation: /v2/moved\r\n"
                 b"Content-Length: 0\r\n\r\n", 307),
    "no-content": (b"HTTP/1.1 204 No Content\r\nContent-Length: 5\r\n\r\n", 204),
    "bytes-past-the-length": (b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}[]", 200),
    "negative-length": (b"HTTP/1.0 200 OK\r\nContent-Length: -2\r\n\r\n{}", 200),
    "padded-values": (b"HTTP/1.0 302 Found\r\nLocation:\t /v2/moved \t\r\n"
                      b"Content-Length:  0 \r\n\r\n", 302),
    "keep-alive-with-length": (b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\n"
                               b"Content-Length: 2\r\n\r\n{}", 200),
    "folded-link": (b"HTTP/1.0 200 OK\r\nLink: </v2/_catalog?last=a>;\r\n rel=\"next\"\r\n"
                    b"Content-Length: 2\r\n\r\n{}", 200),
    "no-colon-line": (b"HTTP/1.0 200 OK\r\nLink: " + NEXT + b"\r\nno colon here\r\n"
                      b"Location: /v2/lost\r\nContent-Length: 1\r\n\r\n{}", 200),
    "empty-name": (b"HTTP/1.0 200 OK\r\n: no name\r\n folded onto it\r\nLink: " + NEXT +
                   b"\r\n\r\n{}", 200),
    "short-body": (b"HTTP/1.0 200 OK\r\nContent-Length: 10\r\n\r\n{}",
                   http.client.IncompleteRead),
    "bad-status-line": (b"ICY 200 OK\r\n\r\n{}", http.client.BadStatusLine),
    "unknown-version": (b"HTTP/2 200 OK\r\n\r\n{}", http.client.UnknownProtocol),
    "101-headers": (b"HTTP/1.0 200 OK\r\n" + b"".join(b"X-%d: 1\r\n" % i for i in range(101)) +
                    b"\r\n{}", http.client.HTTPException),
    "70000-byte-line": (b"HTTP/1.0 200 OK\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n{}",
                        http.client.LineTooLong),
    "empty": (b"", http.client.RemoteDisconnected),
}
REFUSED = [name for name, (_, outcome) in RAW_REPLIES.items() if isinstance(outcome, type)]


@pytest.mark.usefixtures("no_proxy_variables")
class TestReplyReader:
    """The client's own response class reads each reply as the stock
    ``HTTPResponse`` does, without the email parser."""

    @pytest.mark.parametrize("name", RAW_REPLIES)
    def test_it_reads_what_the_stock_reader_reads(self, name):
        raw, outcome = RAW_REPLIES[name]
        lean = read_reply(raw, registry_module._response_class())
        assert lean == read_reply(raw, http.client.HTTPResponse)
        assert (lean if name in REFUSED else lean[0]) == outcome

    def test_repeated_and_folded_values(self):
        reader = registry_module._response_class()
        _, link, _, _, _ = read_reply(RAW_REPLIES["two-link-lines"][0], reader)
        assert link == '</v2/_catalog>; rel="prev", ' + NEXT.decode()
        _, link, _, _, _ = read_reply(RAW_REPLIES["folded-link"][0], reader)
        assert link == '</v2/_catalog?last=a>;\r\n rel="next"'
        # No header after a line that is none: neither Location nor
        # Content-Length, so the body runs to the close.
        _, link, location, body, _ = read_reply(RAW_REPLIES["no-colon-line"][0], reader)
        assert (link, location, body) == (NEXT.decode(), None, b"{}")

    @pytest.mark.parametrize("connect", [None, http.client.HTTPConnection],
                             ids=["own-reader", "stock-reader"])
    def test_a_folded_next_link_is_followed(self, connect):
        page = b'HTTP/1.0 200 OK\r\n%s\r\n\r\n{"repositories": ["%s"]}'
        first = page % (b'Link: </v2/_catalog?last=a>;\r\n rel="next"', b"a")
        with raw_server(first, page % (b"Server: x", b"b")) as url:
            client = RegistryClient(RegistryConfig(base_url=url), connect=connect)
            assert client.fetch_catalog() == ["a", "b"]

    @pytest.mark.parametrize("name", REFUSED)
    def test_a_refused_reply_is_unavailable(self, name):
        raw, error = RAW_REPLIES[name]
        with raw_server(raw) as url:
            client = RegistryClient(RegistryConfig(base_url=url))
            with pytest.raises(RegistryUnavailable, match=f"^GET {url}/v2/_catalog: ") as caught:
                client.fetch_catalog()
        assert type(caught.value.__cause__) is error

    def test_a_walk_runs_no_email_parser(self, registry, monkeypatch):
        # Work count: the stock reader hands each reply's headers to
        # http.client.parse_headers, the email feed parser; the client's own
        # reader never calls it. The fake's handler threads parse their
        # requests with it too, so only calls on this thread count.
        calls = []
        parse_headers = http.client.parse_headers

        def counting(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                calls.append(1)
            return parse_headers(*args, **kwargs)

        monkeypatch.setattr(http.client, "parse_headers", counting)
        assert len(walk_registry(client_for(registry)).lists) == 3
        assert calls == []  # 0; 7 with the stock reader, one per GET


class TestCatalogBridge:
    def test_shared_digests_collapse(self, registry, tmp_path):
        config = RegistryConfig(base_url=registry.url,
                                cache_path=str(tmp_path / "cache.json"))
        catalog = catalog_from_cache(refresh_cache(config))
        # three images share one base layer: 4 distinct layers, not 6
        assert len(catalog.layers) == 4
        assert catalog.layers["sha256:base0000"] == 5 * 1024 * 1024
        assert len(catalog.images) == 3

    def test_digest_size_conflict_detected(self):
        a = ImageMetadata(id="c1", name="a", name_without_repo="a", tag="1",
                          total_size=10,
                          l_meta=[LayerMetadata(size=10, layer="sha256:x")])
        b = ImageMetadata(id="c2", name="b", name_without_repo="b", tag="1",
                          total_size=20,
                          l_meta=[LayerMetadata(size=20, layer="sha256:x")])
        lists = ImageMetadataLists(lists={a.key: a, b.key: b})
        with pytest.raises(DigestSizeConflict):
            catalog_from_cache(lists)

    def test_zero_byte_layers_dropped_from_stacks(self):
        image = ImageMetadata(
            id="c", name="a", name_without_repo="a", tag="1", total_size=10,
            l_meta=[LayerMetadata(size=0, layer="sha256:empty"),
                    LayerMetadata(size=10, layer="sha256:data")],
        )
        catalog = catalog_from_cache(ImageMetadataLists(lists={image.key: image}))
        assert catalog.images[ImageRef("a", "1")] == ("sha256:data",)
        assert "sha256:empty" not in catalog.layers

    def test_zero_vs_nonzero_size_still_conflicts(self):
        a = ImageMetadata(id="c1", name="a", name_without_repo="a", tag="1",
                          total_size=0,
                          l_meta=[LayerMetadata(size=0, layer="sha256:x")])
        b = ImageMetadata(id="c2", name="b", name_without_repo="b", tag="1",
                          total_size=5,
                          l_meta=[LayerMetadata(size=5, layer="sha256:x")])
        lists = ImageMetadataLists(lists={a.key: a, b.key: b})
        with pytest.raises(DigestSizeConflict):
            catalog_from_cache(lists)


class TestWatcher:
    @pytest.mark.parametrize("seconds", [threading.TIMEOUT_MAX * 2, 1e300, 10**400],
                             ids=["twice-TIMEOUT_MAX", "1e300", "10**400"])
    def test_poll_interval_beyond_the_longest_wait_is_refused(self, seconds):
        # Event.wait raises OverflowError past TIMEOUT_MAX, after a refresh.
        with pytest.raises(ValueError, match="poll_interval must be at most"):
            RegistryConfig(base_url="http://127.0.0.1:1", poll_interval=seconds)
        config = RegistryConfig(base_url="http://127.0.0.1:1",
                                poll_interval=threading.TIMEOUT_MAX)
        assert config.poll_interval == threading.TIMEOUT_MAX

    def test_refresh_once_updates_snapshot(self, registry, tmp_path):
        config = RegistryConfig(base_url=registry.url,
                                cache_path=str(tmp_path / "cache.json"))
        watcher = RegistryWatcher(config)
        assert watcher.snapshot() is None
        watcher.refresh_once()
        assert sorted(watcher.snapshot().lists) == \
            ["alpine-cache:1.0", "alpine-db:1.0", "alpine-web:1.0"]

    def test_background_loop_refreshes_and_stops(self, registry, tmp_path):
        config = RegistryConfig(base_url=registry.url, poll_interval=0.05,
                                cache_path=str(tmp_path / "cache.json"))
        watcher = RegistryWatcher(config)
        watcher.start()
        try:
            deadline = threading.Event()
            for _ in range(100):
                if watcher.snapshot() is not None:
                    break
                deadline.wait(0.05)
            assert watcher.snapshot() is not None
        finally:
            watcher.stop()

    def test_run_returns_after_stop_from_another_thread(self, monkeypatch):
        # run() is the loop in the calling thread: a stop() from elsewhere
        # ends it after the tick under way, without waiting out the interval.
        monkeypatch.setattr(registry_module, "refresh_cache",
                            lambda config, client: ImageMetadataLists())
        ticked = threading.Semaphore(0)
        watcher = RegistryWatcher(
            RegistryConfig(base_url="http://127.0.0.1:1", poll_interval=60),
            on_refresh=lambda snapshot: ticked.release())
        loop = threading.Thread(target=watcher.run, daemon=True)
        loop.start()
        assert ticked.acquire(timeout=5)
        watcher.stop()
        loop.join(timeout=5)
        assert not loop.is_alive()
        assert watcher.snapshot() == ImageMetadataLists()

    def test_loop_survives_protocol_errors(self, registry, tmp_path):
        config = RegistryConfig(base_url=f"{registry.url}/nope", poll_interval=0.01,
                                cache_path=str(tmp_path / "cache.json"))
        ticks = threading.Semaphore(0)
        errors = []

        def on_error(exc):
            errors.append(exc)
            ticks.release()

        watcher = RegistryWatcher(config, on_error=on_error)
        watcher.start()
        try:
            assert ticks.acquire(timeout=5) and ticks.acquire(timeout=5)
            assert watcher._thread.is_alive()
        finally:
            watcher.stop()
        assert all(isinstance(exc, RegistryProtocolError) for exc in errors)

    @pytest.mark.parametrize("breakage", ["directory-removed", "path-is-a-directory"])
    def test_unwritable_cache_is_an_error_the_loop_survives(self, registry, tmp_path,
                                                            breakage):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        path = cache_dir / "cache.json"
        ticks = threading.Semaphore(0)
        watcher = RegistryWatcher(
            RegistryConfig(base_url=registry.url, poll_interval=0.01, cache_path=str(path)),
            on_error=lambda exc: ticks.release())
        watcher.refresh_once()
        if breakage == "directory-removed":
            shutil.rmtree(cache_dir)
        else:
            path.unlink()
            path.mkdir()
        with pytest.raises(LayerSchedError, match=re.escape(f"cache {path}: ")):
            watcher.refresh_once()
        watcher.start()
        try:
            assert ticks.acquire(timeout=5)
            assert watcher._thread.is_alive()
        finally:
            watcher.stop()
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_restart_after_a_stop_that_gave_up_runs_one_loop(self, registry, tmp_path,
                                                              monkeypatch):
        # stop() waits a bounded time for the loop; a loop inside a slow
        # refresh outlives that wait. Started again, the watcher must still
        # end the old loop after its refresh, not refresh with two threads.
        gate = threading.Event()
        ticked = threading.Semaphore(0)

        def on_refresh(snapshot):
            ticked.release()
            gate.wait(5)

        watcher = RegistryWatcher(
            RegistryConfig(base_url=registry.url, poll_interval=0.01,
                           cache_path=str(tmp_path / "cache.json")),
            on_refresh=on_refresh)
        watcher.start()
        first = watcher._thread
        try:
            assert ticked.acquire(timeout=5)  # the first loop is inside a refresh
            monkeypatch.setattr(first, "join",
                                lambda timeout=None: threading.Thread.join(first, 0.05))
            watcher.stop()
            assert first.is_alive()
            watcher.start()
            second = watcher._thread
            assert second is not first
            gate.set()
            threading.Thread.join(first, 5)
            assert not first.is_alive()
            assert ticked.acquire(timeout=5) and second.is_alive()
        finally:
            gate.set()
            watcher.stop()
        assert not second.is_alive()

    def test_snapshot_survives_outage(self, registry, tmp_path):
        config = RegistryConfig(base_url=registry.url,
                                cache_path=str(tmp_path / "cache.json"))
        watcher = RegistryWatcher(config)
        watcher.refresh_once()
        registry.down = True
        stale = watcher.refresh_once()
        assert stale.stale
        assert sorted(stale.lists) == \
            ["alpine-cache:1.0", "alpine-db:1.0", "alpine-web:1.0"]
