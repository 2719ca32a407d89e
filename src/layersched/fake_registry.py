"""An in-process Docker-Registry-v2-compatible HTTP server.

Serves ``/v2/_catalog`` (with pagination), ``/v2/{name}/tags/list`` and
``/v2/{name}/manifests/{ref}`` from an in-memory image table. Used by the
test suite and by simulations that want a live-ish registry without moving
any real bytes. It speaks HTTP/1.1 and keeps each connection open for the
next request, with Nagle's algorithm off so that a kept connection's reply
is not held back for the client's delayed ACK; ``stop()`` ends the
connections a client still holds. Supports fault injection: per-manifest
404s and a whole-registry "down" switch that drops connections.
"""

from __future__ import annotations

import json
import socket
import threading
from contextlib import suppress
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .registry import MANIFEST_LIST_V2, MANIFEST_V2

CONFIG_MEDIA_TYPE = "application/vnd.docker.container.image.v1+json"
LAYER_MEDIA_TYPE = "application/vnd.docker.image.rootfs.diff.tar.gzip"


@dataclass
class FakeImage:
    name: str
    tag: str
    config_digest: str
    layers: list[tuple[str, int]]  # (digest, size) in stack order
    multi_arch: bool = False  # serve a manifest list that points at the manifest

    @property
    def key(self) -> str:
        return f"{self.name}:{self.tag}"


def bundled_images() -> list[FakeImage]:
    """Three small images with one shared base layer; the fixture behind the
    golden cache file."""
    base = ("sha256:base0000", 5 * 1024 * 1024)
    return [
        FakeImage(
            name="alpine-web",
            tag="1.0",
            config_digest="sha256:cfgweb00",
            layers=[base, ("sha256:web00000", 3 * 1024 * 1024)],
        ),
        FakeImage(
            name="alpine-db",
            tag="1.0",
            config_digest="sha256:cfgdb000",
            layers=[base, ("sha256:db000000", 7 * 1024 * 1024)],
        ),
        FakeImage(
            name="alpine-cache",
            tag="1.0",
            config_digest="sha256:cfgcache",
            layers=[base, ("sha256:cache000", 2 * 1024 * 1024)],
        ),
    ]


class _Handler(BaseHTTPRequestHandler):
    server: "FakeRegistry"
    protocol_version = "HTTP/1.1"  # keep-alive: every reply has a Content-Length
    disable_nagle_algorithm = True

    def log_message(self, *args):  # keep test output clean
        pass

    def do_GET(self):
        registry: FakeRegistry = self.server  # type: ignore[assignment]
        if registry.down:
            self.close_connection = True  # else the handler waits on the dropped socket
            self.connection.close()
            return
        registry.request_count += 1
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        try:
            if parts == ["v2"]:
                self._json(200, {})
            elif parts == ["v2", "_catalog"]:
                self._catalog(parse_qs(parsed.query))
            elif len(parts) >= 4 and parts[0] == "v2" and parts[-2] == "tags" and parts[-1] == "list":
                self._tags("/".join(parts[1:-2]))
            elif len(parts) >= 4 and parts[0] == "v2" and parts[-2] == "manifests":
                self._manifest("/".join(parts[1:-2]), parts[-1])
            else:
                self._error(404, "NAME_UNKNOWN", "unknown path")
        except BrokenPipeError:
            pass

    def _catalog(self, query: dict):
        registry: FakeRegistry = self.server  # type: ignore[assignment]
        names = sorted({image.name for image in registry.images})
        page_size = registry.page_size
        if page_size is None and "n" in query:
            page_size = int(query["n"][0])
        last = query.get("last", [None])[0]
        if last is not None:
            names = [n for n in names if n > last]
        headers = {}
        if page_size is not None and len(names) > page_size:
            names = names[:page_size]
            headers["Link"] = (
                f'</v2/_catalog?n={page_size}&last={names[-1]}>; rel="next"'
            )
        self._json(200, {"repositories": names}, headers)

    def _tags(self, name: str):
        registry: FakeRegistry = self.server  # type: ignore[assignment]
        tags = sorted(image.tag for image in registry.images if image.name == name)
        if not tags:
            self._error(404, "NAME_UNKNOWN", f"repository {name} not found")
            return
        self._json(200, {"name": name, "tags": tags})

    def _manifest(self, name: str, reference: str):
        registry: FakeRegistry = self.server  # type: ignore[assignment]
        image = registry.find(name, reference)
        if image is None or image.key in registry.fail_manifests:
            self._error(404, "MANIFEST_UNKNOWN", f"{name}:{reference} not found")
            return
        if image.multi_arch and not reference.startswith("sha256:"):
            # Tag request resolves to an index; the per-arch manifest is
            # addressable by its digest.
            body = {
                "schemaVersion": 2,
                "mediaType": MANIFEST_LIST_V2,
                "manifests": [
                    {
                        "mediaType": MANIFEST_V2,
                        "digest": registry.arch_digest(image),
                        "size": 0,
                        "platform": {"architecture": "amd64", "os": "linux"},
                    }
                ],
            }
        elif registry.serve_schema1.get(image.key):
            body = {"schemaVersion": 1, "name": name, "tag": image.tag}
        else:
            body = {
                "schemaVersion": 2,
                "mediaType": MANIFEST_V2,
                "config": {
                    "mediaType": CONFIG_MEDIA_TYPE,
                    "size": 1024,
                    "digest": image.config_digest,
                },
                "layers": [
                    {"mediaType": LAYER_MEDIA_TYPE, "size": size, "digest": digest}
                    for digest, size in image.layers
                ],
            }
        self._json(200, body)

    def _json(self, status: int, body: dict, headers: dict | None = None):
        raw = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(raw)

    def _error(self, status: int, code: str, message: str):
        self._json(status, {"errors": [{"code": code, "message": message}]})


class FakeRegistry(ThreadingHTTPServer):
    """Start with ``with FakeRegistry(images) as reg: ... reg.url ...``."""

    def __init__(self, images: list[FakeImage] | None = None, page_size: int | None = None):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.images: list[FakeImage] = list(images or [])
        self.page_size = page_size
        self.down = False
        self.fail_manifests: set[str] = set()
        self.serve_schema1: dict[str, bool] = {}
        self.request_count = 0
        self._thread: threading.Thread | None = None
        self._open: set[socket.socket] = set()  # connections a handler serves

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    def find(self, name: str, reference: str) -> FakeImage | None:
        for image in self.images:
            if image.name != name:
                continue
            if reference in (image.tag, self.arch_digest(image)):
                return image
        return None

    def arch_digest(self, image: FakeImage) -> str:
        return f"sha256:arch-{image.name}-{image.tag}"

    def start(self) -> "FakeRegistry":
        # Short poll so stop() returns promptly in test teardowns.
        self._thread = threading.Thread(
            target=lambda: self.serve_forever(poll_interval=0.05), daemon=True
        )
        self._thread.start()
        return self

    def process_request(self, request, client_address):
        self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        self._open.discard(request)
        super().shutdown_request(request)

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        for request in list(self._open):  # a handler waiting on a kept connection reads its end
            with suppress(OSError):
                request.shutdown(socket.SHUT_RDWR)
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "FakeRegistry":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
