"""Docker-Registry-v2 metadata client and the image/layer metadata cache.

The cache file is JSON keyed by ``name:tag``; per-image records use the
exact field names ``id``, ``name``, ``name_without_repo``, ``tag``,
``total_size`` and ``l_meta`` (with ``size`` and ``layer`` per layer) so the
file interoperates with other tooling that reads the same schema. Only
metadata moves over the wire, by plain ``http.client`` GETs whose replies
are read without the ``email`` header parser; blobs are never downloaded.
The HTTP stack is imported when the first client is made, so offline
callers never load it.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
from collections.abc import Callable
from contextlib import contextmanager, suppress
from functools import cache, partial
from pathlib import Path
from urllib.parse import urlsplit, urlunsplit

from ._jsonout import iter_indented_json
from .errors import (
    CacheCorrupt,
    DigestSizeConflict,
    LayerSchedError,
    RegistryProtocolError,
    RegistryUnavailable,
    UnknownImage,
    UnsupportedManifest,
)
from .model import ImageRef, LayerCatalog, _finite, _Record

MANIFEST_V2 = "application/vnd.docker.distribution.manifest.v2+json"
MANIFEST_LIST_V2 = "application/vnd.docker.distribution.manifest.list.v2+json"
OCI_MANIFEST = "application/vnd.oci.image.manifest.v1+json"
OCI_INDEX = "application/vnd.oci.image.index.v1+json"
ACCEPT_MANIFESTS = ", ".join([MANIFEST_V2, OCI_MANIFEST, MANIFEST_LIST_V2, OCI_INDEX])

_HOST_COMPONENT = re.compile(r"[.:]|^localhost$")
_NEXT_LINK = re.compile(r'<([^>]*)>[^<]*\brel="?next\b')  # in a Link header
_FIELD_NAME = re.compile(r"([!-9;-~]*):")  # a header line's name: visible ASCII but ":"
MAX_PAGES = 10_000  # per listing, so a registry that never ends one cannot hang a walk
MAX_REDIRECTS = 10  # per GET, as urllib allowed
_REDIRECTS = frozenset((301, 302, 303, 307, 308))


def _json_int(value) -> int:
    """``value`` if it is a JSON integer within the float range; a size that
    is a float, a bool or a string is refused, not rounded or parsed."""
    if type(value) is not int:
        raise TypeError(f"size must be a JSON integer, not {value!r}")
    if not _finite(value):
        raise ValueError("size is beyond the float range")
    return value


def _json_str(value, name: str) -> str:
    """``value`` if it is a JSON string; a number, a bool or null in the
    string field ``name`` is refused, not turned into its text."""
    if type(value) is not str:
        raise TypeError(f"{name} must be a JSON string, not {value!r}")
    return value


class LayerMetadata(_Record):
    """One layer of an image: its size in bytes and its digest."""

    def __init__(self, size: int, layer: str):
        if size < 0:
            raise ValueError("layer size must be >= 0")
        if not layer:
            raise ValueError("layer digest must be non-empty")
        self.size = size
        self.layer = layer

    def to_json_dict(self) -> dict:
        return {"size": self.size, "layer": self.layer}

    @classmethod
    def from_json_dict(cls, data: dict) -> "LayerMetadata":
        return cls(size=_json_int(data["size"]), layer=_json_str(data["layer"], "layer"))


class ImageMetadata(_Record):
    """One image's manifest: its layers (``l_meta``, a new empty list if not
    given), whose sizes add up to ``total_size``."""

    def __init__(self, id: str, name: str, name_without_repo: str, tag: str, total_size: int,
                 l_meta: list[LayerMetadata] | None = None):
        self.id = id
        self.name = name
        self.name_without_repo = name_without_repo
        self.tag = tag
        self.total_size = total_size
        self.l_meta = [] if l_meta is None else l_meta
        layer_sum = sum(layer.size for layer in self.l_meta)
        if total_size != layer_sum:
            raise ValueError(
                f"total_size {total_size} != sum of layer sizes {layer_sum}"
            )

    @property
    def key(self) -> str:
        return f"{self.name}:{self.tag}"

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "name_without_repo": self.name_without_repo,
            "tag": self.tag,
            "total_size": self.total_size,
            "l_meta": [layer.to_json_dict() for layer in self.l_meta],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ImageMetadata":
        return cls(
            id=_json_str(data["id"], "id"),
            name=_json_str(data["name"], "name"),
            name_without_repo=_json_str(data["name_without_repo"], "name_without_repo"),
            tag=_json_str(data["tag"], "tag"),
            total_size=_json_int(data["total_size"]),
            l_meta=[LayerMetadata.from_json_dict(entry) for entry in data["l_meta"]],
        )


class ImageMetadataLists(_Record):
    """A snapshot of the whole registry's image metadata, keyed ``name:tag``.

    ``catch_file``, ``stale`` and ``warnings`` are runtime bookkeeping and
    never serialized; equality is over ``lists`` alone. ``lists`` and
    ``warnings`` are new empty containers if not given.
    """

    _uncompared = ("catch_file", "stale", "warnings")

    def __init__(self, catch_file: str = "", lists: dict[str, ImageMetadata] | None = None,
                 stale: bool = False, warnings: list[str] | None = None):
        self.catch_file = catch_file
        self.lists = {} if lists is None else lists
        self.stale = stale
        self.warnings = [] if warnings is None else warnings
        for key, image in self.lists.items():
            if key != image.key:
                raise ValueError(f"cache key {key!r} != image key {image.key!r}")


class RegistryConfig(_Record):
    """Where the registry is, how often a watcher polls it (seconds), where
    the cache file goes, and the credentials; the repr leaves out the token
    and the password."""

    _hidden = ("token", "password")

    def __init__(self, base_url: str, poll_interval: float = 10.0,
                 cache_path: str = "cache.json", token: str | None = None,
                 username: str | None = None, password: str | None = None):
        if not 0 < poll_interval < math.inf:
            raise ValueError("poll_interval must be a positive, finite number of seconds")
        if poll_interval > threading.TIMEOUT_MAX:  # the longest wait a thread takes
            raise ValueError(f"poll_interval must be at most {threading.TIMEOUT_MAX:g} seconds")
        self.base_url = base_url.rstrip("/")
        self.poll_interval = poll_interval
        self.cache_path = cache_path
        self.token = token
        self.username = username
        self.password = password


def strip_repo_host(name: str) -> str:
    """Drop a leading registry-host component (contains ``.``/``:`` or is
    ``localhost``) from an image name; plain repo paths pass through."""
    head, sep, rest = name.partition("/")
    if sep and _HOST_COMPONENT.search(head):
        return rest
    return name


def _basic(pair: bytes) -> str:
    """A Basic credentials header value for ``user:password`` bytes."""
    import base64

    return f"Basic {base64.b64encode(pair).decode('ascii')}"


def _origin(url: str) -> tuple[str, str | None, int | None]:
    """Scheme, host and port of ``url``, the port defaulted by scheme."""
    parts = urlsplit(url)
    port = parts.port or {"http": 80, "https": 443}.get(parts.scheme)
    return parts.scheme, parts.hostname, port


@cache
def _response_class():
    """The client's own connections' response class, built on first use:
    its ``begin`` reads the headers into a dict of lower-cased names to lists
    of values, without the :mod:`email` parser that is most of the Python
    cost of a stock reply; the rest is as in the stock ``begin``."""
    from http.client import CONTINUE, HTTPResponse, UnknownProtocol, _read_headers

    class Response(HTTPResponse):
        def begin(self):
            version, status, reason = self._read_status()
            while status == CONTINUE:
                _read_headers(self.fp)
                version, status, reason = self._read_status()
            self.code = self.status = status
            self.reason = reason.strip()
            if not version.startswith("HTTP/1.") and version != "HTTP/0.9":
                raise UnknownProtocol(version)
            self.version = 10 if version in ("HTTP/1.0", "HTTP/0.9") else 11
            lines = []  # a folded line is joined to the one before
            for line in _read_headers(self.fp)[:-1]:  # less the line that ends them
                line = line.decode("iso-8859-1")
                if line[0] not in " \t":
                    lines.append(line)
                elif lines:
                    lines[-1] += line
            self.headers = self.msg = headers = {}
            for line in lines:
                name = _FIELD_NAME.match(line)
                if not name:  # as in the email parser, no header follows a line that is none
                    break
                value = line[name.end():].lstrip(" \t").rstrip("\r\n")
                headers.setdefault(name[1].lower(), []).append(value)
            first = {name: values[0] for name, values in headers.items()}.get
            self.chunked = first("transfer-encoding", "").lower() == "chunked"
            if self.chunked:
                self.chunk_left = None
            connection = first("connection", "").lower()
            if self.version == 11:
                self.will_close = "close" in connection
            else:  # HTTP/1.0 closes unless a keep-alive header says it stays open
                self.will_close = not (first("keep-alive") or "keep-alive" in connection
                                       or "keep-alive" in first("proxy-connection", "").lower())
            length, self.length = first("content-length"), None
            with suppress(ValueError):  # a length that is no integer, or negative, is none
                if length and not self.chunked and int(length) >= 0:
                    self.length = int(length)
            if status in (204, 304) or 100 <= status < 200 or self._method == "HEAD":
                self.length = 0
            if not self.chunked and self.length is None:  # the body ends with the connection
                self.will_close = True

        def getheader(self, name, default=None):
            values = self.headers.get(name.lower())
            return ", ".join(values) if values else default

    return Response


class RegistryClient:
    """Thin HTTP(S) client for the v2 catalog, tags, and manifest endpoints.

    Each GET goes through :mod:`http.client`, one connection per hop.
    ``connect(host, timeout=)`` opens each hop's connection and returns an
    object with ``HTTPConnection``'s ``request``, ``getresponse``, ``close``
    and ``set_tunnel``; by default ``HTTPConnection`` or ``HTTPSConnection``
    by scheme, whose replies :func:`_response_class` reads. The proxy
    variables (``HTTP_PROXY``, ``HTTPS_PROXY``, ``NO_PROXY``) are read once,
    here, as ``urllib`` reads them."""

    def __init__(self, config: RegistryConfig, connect=None):
        from urllib.request import getproxies

        self.config = config
        self.connect = connect
        self._proxies = getproxies()
        self._authorization = None
        if config.token:
            self._authorization = f"Bearer {config.token}"
        elif config.username is not None:
            pair = f"{config.username}:{config.password or ''}".encode()
            self._authorization = _basic(pair)

    def _get(self, url: str, headers: dict | None = None) -> tuple[int, str, bytes]:
        """Status, ``Link`` header and body, of any status; the only code
        that opens a connection. Every hop must be an http:// or https://
        URL; a 301/302/303/307/308 is followed at most :data:`MAX_REDIRECTS`
        times, without ``Authorization``."""
        from http.client import HTTPConnection, HTTPException, HTTPSConnection
        from urllib.parse import unquote, urljoin
        from urllib.request import proxy_bypass_environment

        sent = {**(headers or {}), "Connection": "close", "User-Agent": "layersched"}
        if self._authorization:  # first hop only: not sent on to where a redirect points
            sent["Authorization"] = self._authorization
        hop = url
        try:
            for redirects in range(MAX_REDIRECTS + 1):
                parts = urlsplit(hop)  # raises ValueError on a malformed host; .port on a bad port
                if parts.scheme not in ("http", "https") or not parts.hostname or parts.port == 0:
                    raise ValueError("not an http:// or https:// URL")
                tls, host, tunnel = parts.scheme == "https", parts.netloc, None
                target = urlunsplit(("", "", parts.path or "/", parts.query, ""))
                hop_headers = sent
                proxy = self._proxies.get(parts.scheme)
                if proxy and not proxy_bypass_environment(host, self._proxies):
                    via = urlsplit(proxy if "://" in proxy else f"//{proxy}")
                    auth = {}
                    if via.username and via.password:
                        pair = f"{unquote(via.username)}:{unquote(via.password)}".encode()
                        auth["Proxy-Authorization"] = _basic(pair)
                    if tls:  # CONNECT through the proxy, then TLS to the registry
                        tunnel = host, None, auth
                    else:  # the proxy is sent the absolute URL
                        tls = via.scheme == "https"
                        target, hop_headers = urlunsplit(parts[:4] + ("",)), {**sent, **auth}
                    host = via.netloc.rpartition("@")[2]
                if self.connect:
                    connection = self.connect(host, timeout=30)
                else:
                    connection = (HTTPSConnection if tls else HTTPConnection)(host, timeout=30)
                    connection.response_class = _response_class()
                try:
                    if tunnel:
                        connection.set_tunnel(*tunnel)
                    connection.request("GET", target, headers=hop_headers)
                    with connection.getresponse() as reply:
                        status, link, body = reply.status, reply.getheader("Link", ""), reply.read()
                        location = reply.getheader("Location")
                finally:
                    connection.close()
                if status not in _REDIRECTS or not location or redirects == MAX_REDIRECTS:
                    return status, link, body
                hop = urljoin(hop, location)
                sent.pop("Authorization", None)
        except (OSError, ValueError, HTTPException) as exc:
            where = url if hop == url else f"{url} (redirected to {hop})"
            raise RegistryUnavailable(f"GET {where}: {exc}") from exc

    @staticmethod
    def _json_object(body: bytes, what: str,
                     malformed: Callable[[str], LayerSchedError]) -> dict:
        """``body``, which must be a JSON object; else ``malformed``."""
        try:
            body = json.loads(body)
        except ValueError:
            raise malformed(f"{what}: reply is not JSON") from None
        if not isinstance(body, dict):
            raise malformed(f"{what}: reply is a JSON {type(body).__name__}, "
                            f"not an object")
        return body

    def _get_paginated(self, path: str, list_key: str) -> list[str]:
        """Every page's ``list_key`` names. A reply of another shape, a
        ``next`` link to another origin than the base URL's (it would be sent
        the credentials), a page already fetched, or more than
        :data:`MAX_PAGES` pages raise :class:`RegistryProtocolError`."""
        items: list[str] = []
        url = f"{self.config.base_url}{path}"
        seen = set()
        for _ in range(MAX_PAGES):
            if url in seen:
                raise RegistryProtocolError(200, f"next link {url} repeats an earlier page")
            seen.add(url)
            status, link, body = self._get(url)
            if status != 200:
                raise RegistryProtocolError(status, f"GET {url}: HTTP {status}")
            body = self._json_object(body, f"GET {url}",
                                     partial(RegistryProtocolError, 200))
            page = body.get(list_key)
            if page is None:  # registries send "tags": null for an empty repository
                page = []
            if not isinstance(page, list) or not all(isinstance(item, str) for item in page):
                raise RegistryProtocolError(
                    200, f"GET {url}: {list_key!r} is not a list of names")
            items.extend(page)
            next_link = _NEXT_LINK.search(link)
            if not next_link:
                return items
            url = next_link[1]
            try:
                if not urlsplit(url).scheme:  # a path on the base URL
                    url = f"{self.config.base_url}{url}"
                foreign = _origin(url) != _origin(self.config.base_url)
            except ValueError:  # a malformed host or port
                foreign = True
            if foreign:
                raise RegistryProtocolError(
                    200, f"next link {url} leaves {self.config.base_url}")
        raise RegistryProtocolError(200, f"{path}: more than {MAX_PAGES} pages")

    def fetch_catalog(self) -> list[str]:
        """All repository names, following pagination Link headers."""
        return self._get_paginated("/v2/_catalog", "repositories")

    def fetch_tags(self, name: str) -> list[str]:
        return self._get_paginated(f"/v2/{name}/tags/list", "tags")

    def fetch_image_metadata(self, name: str, tag: str) -> ImageMetadata:
        """Resolve the image's v2 manifest into layer digests and sizes.

        Manifest lists (multi-arch) resolve through their first platform
        entry. The record id is the manifest's config digest. A reply that is
        not such a manifest raises :class:`UnsupportedManifest`.
        """
        manifest = self._fetch_manifest(name, tag)
        media_type = manifest.get("mediaType", "")
        if media_type in (MANIFEST_LIST_V2, OCI_INDEX):
            entries = manifest.get("manifests") or []
            if not entries:
                raise UnsupportedManifest(f"{name}:{tag}: empty manifest list")
            with _malformed_manifest(name, tag):
                digest = _json_str(entries[0]["digest"], "digest")
            manifest = self._fetch_manifest(name, digest)
            media_type = manifest.get("mediaType", "")
        if manifest.get("schemaVersion") != 2 or media_type not in (MANIFEST_V2, OCI_MANIFEST):
            raise UnsupportedManifest(
                f"{name}:{tag}: schemaVersion={manifest.get('schemaVersion')} "
                f"mediaType={media_type!r}"
            )
        with _malformed_manifest(name, tag):
            layers = [
                LayerMetadata(size=_json_int(entry["size"]),
                              layer=_json_str(entry["digest"], "digest"))
                for entry in manifest.get("layers", [])
            ]
            config_digest = _json_str(manifest.get("config", {}).get("digest", ""), "digest")
        return ImageMetadata(
            id=config_digest,
            name=name,
            name_without_repo=strip_repo_host(name),
            tag=tag,
            total_size=sum(layer.size for layer in layers),
            l_meta=layers,
        )

    def _fetch_manifest(self, name: str, reference: str) -> dict:
        url = f"{self.config.base_url}/v2/{name}/manifests/{reference}"
        status, _, body = self._get(url, headers={"Accept": ACCEPT_MANIFESTS})
        if status == 404:
            raise UnknownImage(f"{name}:{reference} not in registry")
        if status != 200:
            raise RegistryProtocolError(status, f"GET {url}: HTTP {status}")
        return self._json_object(body, f"{name}:{reference}", UnsupportedManifest)


@contextmanager
def _malformed_manifest(name: str, tag: str):
    """Turn a manifest field of the wrong shape (a missing key, a list that
    is not one, a negative size or one that is not a JSON integer, a digest
    that is not a JSON string) into UnsupportedManifest."""
    try:
        yield
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise UnsupportedManifest(
            f"{name}:{tag}: malformed manifest ({type(exc).__name__}: {exc})") from None


def save_cache(lists: ImageMetadataLists, path: str | Path) -> None:
    """Write the cache atomically (temp file synced to disk, then renamed),
    keys sorted, so a crash leaves either the old file or the new one."""
    import tempfile

    path = Path(path)
    payload = {key: lists.lists[key].to_json_dict() for key in sorted(lists.lists)}
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(iter_indented_json(payload))
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def load_cache(path: str | Path) -> ImageMetadataLists:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise CacheCorrupt(f"{path}: top level must be an object")
        lists = {
            key: ImageMetadata.from_json_dict(entry) for key, entry in payload.items()
        }
        for key, image in lists.items():
            if not image.name or not image.tag:
                raise CacheCorrupt(f"{path}: {key!r}: image name and tag must be non-empty")
        return ImageMetadataLists(catch_file=str(path), lists=lists)
    except CacheCorrupt:
        raise
    except (json.JSONDecodeError, ValueError, KeyError, OverflowError, TypeError) as exc:
        raise CacheCorrupt(f"{path}: {exc}") from exc


def lookup(lists: ImageMetadataLists, name: str, tag: str) -> ImageMetadata:
    try:
        return lists.lists[f"{name}:{tag}"]
    except KeyError:
        raise UnknownImage(f"{name}:{tag} not in cache") from None


def _transient(exc: LayerSchedError) -> bool:
    """Whether ``exc`` may pass on its own: a transport error, or a 5xx or
    429 status."""
    return isinstance(exc, RegistryUnavailable) or (
        isinstance(exc, RegistryProtocolError) and (exc.status >= 500 or exc.status == 429))


def walk_registry(client: RegistryClient,
                  missed: set[tuple[str, str | None]] | None = None) -> ImageMetadataLists:
    """Walk catalog -> tags -> manifests into an unsaved snapshot. Images
    that fail to resolve become ``warnings``; only a failure to list the
    catalog itself is raised. Each failure that is :func:`_transient` also
    adds ``(name, tag)`` to ``missed``, or ``(name, None)`` for a tag list."""
    lists: dict[str, ImageMetadata] = {}
    warnings: list[str] = []
    for name in client.fetch_catalog():
        try:
            tags = client.fetch_tags(name)
        except (RegistryUnavailable, RegistryProtocolError, UnknownImage) as exc:
            warnings.append(f"tags for {name}: {exc}")
            if missed is not None and _transient(exc):
                missed.add((name, None))
            continue
        for tag in tags:
            try:
                image = client.fetch_image_metadata(name, tag)
            except (RegistryUnavailable, RegistryProtocolError, UnknownImage, UnsupportedManifest) as exc:
                warnings.append(f"manifest {name}:{tag}: {exc}")
                if missed is not None and _transient(exc):
                    missed.add((name, tag))
                continue
            lists[image.key] = image
    return ImageMetadataLists(lists=lists, warnings=warnings)


def refresh_cache(config: RegistryConfig, client: RegistryClient | None = None) -> ImageMetadataLists:
    """Walk the registry (:func:`walk_registry`) and rewrite the cache file.

    If the registry is unreachable outright, answers the catalog with a
    transient status (5xx or 429), or nothing at all resolves, a prior cache
    is returned flagged stale instead of being destroyed; with no prior
    cache the error is raised. Any other catalog error is raised. An image
    whose tags or manifest failed transiently keeps its prior cache record,
    and the snapshot is flagged stale; one answered 404 or with an
    unsupported manifest is dropped.
    """
    client = client or RegistryClient(config)
    cache_path = Path(config.cache_path)
    missed: set = set()
    try:
        snapshot = walk_registry(client, missed)
    except (RegistryUnavailable, RegistryProtocolError) as exc:
        if not _transient(exc) or not cache_path.exists():
            raise
        reason = (f"registry {config.base_url} unreachable"
                  if isinstance(exc, RegistryUnavailable) else str(exc))
        snapshot = ImageMetadataLists(warnings=[f"{reason}; serving prior cache"])

    if not snapshot.lists and snapshot.warnings and cache_path.exists():
        # Nothing resolved at all: keep the previous snapshot.
        prior = load_cache(cache_path)
        prior.stale = True
        prior.warnings.extend(snapshot.warnings)
        return prior
    if missed and cache_path.exists():
        # Keep the prior record of each image a transient failure left out.
        try:
            prior = load_cache(cache_path).lists
        except CacheCorrupt as exc:
            prior = {}
            snapshot.warnings.append(f"{exc}; no prior records kept")
        kept = sorted(key for key, image in prior.items()
                      if {(image.name, None), (image.name, image.tag)} & missed)
        if kept:
            snapshot.lists.update((key, prior[key]) for key in kept)
            snapshot.stale = True
            snapshot.warnings.append(f"serving {len(kept)} image(s) from the prior cache "
                                     f"after a transient failure: {', '.join(kept)}")

    snapshot.catch_file = str(cache_path)
    try:
        save_cache(snapshot, cache_path)
    except OSError as exc:
        raise LayerSchedError(f"cache {cache_path}: {exc.strerror or exc}") from exc
    return snapshot


def catalog_from_cache(lists: ImageMetadataLists) -> LayerCatalog:
    """Bridge cached metadata into the scheduling model.

    Identical digests across images collapse into a single catalog layer;
    that collapse is exactly what layer sharing exploits. A digest repeated
    within one image's stack keeps its first place only: the layer is
    stored and pulled once. Zero-byte layers are dropped: they add nothing
    to download cost, storage, or sharing.
    """
    sizes_seen: dict[str, int] = {}
    layers: dict[str, int] = {}
    images: dict[ImageRef, tuple[str, ...]] = {}
    for key in sorted(lists.lists):
        image = lists.lists[key]
        stack = []
        for layer in image.l_meta:
            known = sizes_seen.get(layer.layer)
            if known is not None and known != layer.size:
                raise DigestSizeConflict(
                    f"layer {layer.layer} reported as {known} and {layer.size} bytes"
                )
            sizes_seen[layer.layer] = layer.size
            if layer.size == 0 or layer.layer in stack:
                continue
            layers[layer.layer] = layer.size
            stack.append(layer.layer)
        images[ImageRef(image.name, image.tag)] = tuple(stack)
    return LayerCatalog(layers=layers, images=images)


class RegistryWatcher:
    """Refreshes the cache every ``poll_interval`` until stopped; readers
    always see a complete snapshot.

    The snapshot reference is swapped whole after each refresh, so handles
    returned by :meth:`snapshot` are safe to keep and share across threads.
    Each new snapshot goes to ``on_refresh``; a tick that fails with any
    :class:`LayerSchedError` goes to ``on_error`` and is retried next tick.
    """

    def __init__(self, config: RegistryConfig, client: RegistryClient | None = None,
                 on_refresh: Callable[[ImageMetadataLists], None] = lambda snapshot: None,
                 on_error: Callable[[LayerSchedError], None] = lambda exc: None):
        self.config = config
        self.client = client or RegistryClient(config)
        self.on_refresh = on_refresh
        self.on_error = on_error
        self._snapshot: ImageMetadataLists | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def refresh_once(self) -> ImageMetadataLists:
        snapshot = refresh_cache(self.config, self.client)
        self._snapshot = snapshot
        return snapshot

    def snapshot(self) -> ImageMetadataLists | None:
        return self._snapshot

    def run(self) -> None:
        """The refresh loop, in the calling thread; returns after :meth:`stop`."""
        self._loop(self._stop)

    def _loop(self, stop: threading.Event) -> None:
        while not stop.is_set():
            try:
                self.on_refresh(self.refresh_once())
            except LayerSchedError as exc:
                self.on_error(exc)
            stop.wait(self.config.poll_interval)

    def start(self) -> None:
        """Run the loop in a background thread. Each started loop has its
        own stop event, so a loop that :meth:`stop` left inside a slow
        refresh still ends after it, even if the watcher has started again."""
        if self._thread is not None:
            return
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, args=(self._stop,), daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
