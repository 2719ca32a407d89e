"""Docker-Registry-v2 metadata client and the image/layer metadata cache.

The cache file is JSON keyed by ``name:tag``; per-image records use the
exact field names ``id``, ``name``, ``name_without_repo``, ``tag``,
``total_size`` and ``l_meta`` (with ``size`` and ``layer`` per layer), the
fields of :class:`ImageMetadata` and :class:`LayerMetadata`, so the file
interoperates with other tooling that reads the same schema. Only
metadata moves over the wire, by plain HTTP/1.1 GETs on the client's own
socket connections; blobs are never downloaded. No HTTP library is
loaded: ``socket`` loads with the first connection, ``ssl`` with the first
``https`` one, and ``urllib.request`` only when a proxy variable is set,
so offline callers load none of them.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import threading
from collections import deque
from collections.abc import Callable
from contextlib import contextmanager, suppress
from functools import partial
from pathlib import Path
from urllib.parse import unquote, urljoin, urlsplit, urlunsplit

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
MAX_LINE = 65_536  # bytes per status, header or chunk size line, as http.client allows
MAX_HEADERS = 100  # lines per header block, its end included, as http.client allows
MAX_BODY = 16 << 20  # bytes per reply body, far above any page or manifest
PIPELINE = 16  # GETs written at once on a kept connection; a few KiB of request heads
_UNSENDABLE_TARGET = re.compile("[\x00-\x20\x7f]")
_USERINFO = re.compile(r"^([^/?#]*//)[^/?#]*@")  # a URL's "user:password@"
_REDIRECTS = frozenset((301, 302, 303, 307, 308))
_ACCEPT = {"Accept": ACCEPT_MANIFESTS}  # the headers of a manifest's GET


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
        return dict(vars(self))

    @classmethod
    def from_json_dict(cls, data: dict) -> "LayerMetadata":
        return cls(size=_json_int(data["size"]), layer=_json_str(data["layer"], "layer"))


class ImageMetadata(_Record):
    """One image's manifest: its layers (``l_meta``, a new empty list if not
    given), whose sizes add up to ``total_size``. The name and the tag are
    non-empty, as an :class:`~layersched.model.ImageRef`'s are."""

    def __init__(self, id: str, name: str, name_without_repo: str, tag: str, total_size: int,
                 l_meta: list[LayerMetadata] | None = None):
        if not name or not tag:
            raise ValueError("image name and tag must be non-empty")
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
        return {**vars(self), "l_meta": [layer.to_json_dict() for layer in self.l_meta]}

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
    and the password. A base URL with user info is refused: the credentials
    go in ``username`` and ``password``."""

    _hidden = ("token", "password")

    def __init__(self, base_url: str, poll_interval: float = 10.0,
                 cache_path: str = "cache.json", token: str | None = None,
                 username: str | None = None, password: str | None = None):
        if not 0 < poll_interval < math.inf:
            raise ValueError("poll_interval must be a positive, finite number of seconds")
        if poll_interval > threading.TIMEOUT_MAX:  # the longest wait a thread takes
            raise ValueError(f"poll_interval must be at most {threading.TIMEOUT_MAX:g} seconds")
        if _USERINFO.match(base_url):
            raise LayerSchedError(f"registry URL {_shown(base_url)}: user info in a URL is not "
                                  f"sent; set username and password instead")
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


def _shown(url: str) -> str:
    """``url`` without its user info, for a message."""
    return _USERINFO.sub(r"\1", url)


def _unavailable(url: str, hop: str, exc: BaseException) -> RegistryUnavailable:
    """What the GET of ``url`` ends in when its hop ``hop`` fails with ``exc``."""
    where = _shown(url) if hop == url else f"{_shown(url)} (redirected to {_shown(hop)})"
    error = RegistryUnavailable(f"GET {where}: {exc}")
    error.__cause__ = exc
    return error


def _origin(url: str) -> tuple[str, str | None, int | None]:
    """Scheme, host and port of ``url``, the port defaulted by scheme."""
    parts = urlsplit(url)
    port = parts.port or {"http": 80, "https": 443}.get(parts.scheme)
    return parts.scheme, parts.hostname, port


class _BadReply(ValueError):
    """A reply that breaks HTTP/1.1 framing or one of the reader's limits."""


class _NoReply(ConnectionResetError):
    """The connection closed before a status line: a kept connection that the
    server dropped while idle, so its GET may be sent once more."""


def _line(fp, what: str) -> bytes:
    """One line of ``fp``, CRLF and all; ``b""`` at the close."""
    line = fp.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise _BadReply(f"{what} longer than {MAX_LINE} bytes")
    return line


def _status(fp) -> tuple[bytes, int]:
    """The version and the status code of the status line that ``fp`` reads next."""
    line = _line(fp, "status line")
    if not line:
        raise _NoReply("the connection closed before a status line")
    version, status = (line.split(None, 2) + [b"", b""])[:2]
    try:
        code = int(status)
    except ValueError:
        code = 0
    if not (version.startswith(b"HTTP/1.") or version == b"HTTP/0.9") or not 100 <= code <= 999:
        raise _BadReply(f"bad status line {line[:80]!r}")
    return version, code


def _header_lines(fp) -> list[bytes]:
    """The lines of a header block, with the empty line that ends it."""
    lines = []
    while True:
        lines.append(_line(fp, "header line"))
        if len(lines) > MAX_HEADERS:
            raise _BadReply(f"more than {MAX_HEADERS} headers")
        if lines[-1] in (b"\r\n", b"\n", b""):
            return lines


def _cap(size: int) -> None:
    if size > MAX_BODY:
        raise _BadReply(f"body of more than {MAX_BODY} bytes")


class _Reply:
    """One reply of a :class:`_Connection`. The status line and the header
    block are read when it is made, past every 1xx before them (a 101 is
    refused): the headers go into a dict of lower-cased names to lists of
    values, as the ``email`` parser would read them (a folded line is joined
    to the one before, and no header follows a line that is none).
    :meth:`read` reads the body, framed as RFC 9112 section 6 says: chunked
    wins over a length, a 204 or 304 reply has none, and a missing or invalid
    length reads to the close."""

    def __init__(self, fp):
        self._fp = fp
        version, status = _status(fp)
        while status < 200:  # RFC 9110 section 15.2: each 1xx is skipped, a reply follows
            if status == 101:  # no GET asks to switch protocols
                raise _BadReply("101 Switching Protocols to a GET without Upgrade")
            _header_lines(fp)
            version, status = _status(fp)
        self.status = status
        lines = []  # a folded line is joined to the one before
        for line in _header_lines(fp)[:-1]:  # less the line that ends them
            line = line.decode("iso-8859-1")
            if line[0] not in " \t":
                lines.append(line)
            elif lines:
                lines[-1] += line
        self.headers = headers = {}
        for line in lines:
            name = _FIELD_NAME.match(line)
            if not name:  # as in the email parser, no header follows a line that is none
                break
            value = line[name.end():].lstrip(" \t").rstrip("\r\n")
            headers.setdefault(name[1].lower(), []).append(value)
        first = {name: values[0] for name, values in headers.items()}.get
        self.chunked = first("transfer-encoding", "").lower() == "chunked"
        connection = first("connection", "").lower()
        http11 = version not in (b"HTTP/1.0", b"HTTP/0.9")
        if http11:
            self.will_close = "close" in connection
        else:  # HTTP/1.0 closes unless a keep-alive header says it stays open
            self.will_close = not (first("keep-alive") or "keep-alive" in connection
                                   or "keep-alive" in first("proxy-connection", "").lower())
        length, self.length = first("content-length"), None
        with suppress(ValueError):  # a length that is no integer, or negative, is none
            if length and not self.chunked and int(length) >= 0:
                self.length = int(length)
        if status in (204, 304):
            self.length = 0
        if not self.chunked and self.length is None:  # the body ends with the connection
            self.will_close = True
        self.pipelines = http11 and not self.will_close  # the connection may take a pipeline

    def getheader(self, name, default=None):
        values = self.headers.get(name.lower())
        return ", ".join(values) if values else default

    def read(self) -> bytes:
        """The whole body. One cut short, or longer than :data:`MAX_BODY`,
        is refused; a length past the cap before any of it is read."""
        if self.chunked:
            return self._read_chunked()
        if self.length is None:
            body = self._fp.read(MAX_BODY + 1)
            _cap(len(body))
            return body
        _cap(self.length)
        return self._exactly(self.length)

    def _exactly(self, size: int) -> bytes:
        data = self._fp.read(size)
        if len(data) < size:
            raise _BadReply(f"body cut short: {len(data)} of {size} bytes")
        return data

    def _read_chunked(self) -> bytes:
        chunks, total = [], 0
        while True:
            line = _line(self._fp, "chunk size line")
            try:  # an extension after ";" is dropped
                size = int(line.partition(b";")[0], 16)
            except ValueError:
                size = -1
            if size < 0:
                raise _BadReply(f"bad chunk size line {line[:80]!r}")
            if not size:
                break
            total += size
            _cap(total)
            chunks.append(self._exactly(size))
            self._exactly(2)  # the CRLF that ends the chunk
        while _line(self._fp, "trailer line") not in (b"\r\n", b"\n", b""):
            pass  # trailer fields are dropped
        return b"".join(chunks)


def _host_port(netloc: str, default: int) -> tuple[str, int]:
    """Host and port of ``host[:port]``, as ``http.client`` splits them: an
    IPv6 literal loses its brackets, and an empty port is the default."""
    host, colon, port = netloc.rpartition(":")
    if not colon or "]" in port:
        host, port = netloc, ""
    if host[:1] == "[" and host[-1:] == "]":
        host = host[1:-1]
    return host, int(port) if port else default


def _host_header(host: str, port: int, default: int) -> str:
    """The ``Host`` value that ``http.client`` sends for ``host`` and ``port``:
    ASCII, else IDNA; an IPv6 literal bracketed; ``:port`` unless it is the
    default."""
    if not host.isascii():
        host = host.encode("idna").decode("ascii")
    host = f"[{host}]" if ":" in host else host
    return host if port == default else f"{host}:{port}"


class _Connection:
    """One HTTP/1.1 socket to ``host``, TLS for ``https`` (:mod:`ssl` loads
    only then), and through it a ``CONNECT`` tunnel to ``tunnel``'s
    ``(netloc, headers)`` if given; it connects on its first :meth:`send`.
    ``getresponse`` returns the next :class:`_Reply`, read through the
    connection's one buffered reader. A ``connect=`` factory's connections
    keep this contract: ``send``, ``getresponse`` and ``close``."""

    def __init__(self, host: str, timeout: float = 30, tls: bool = False,
                 tunnel: tuple | None = None):
        default = 443 if tls else 80
        self.host, self.port = server = _host_port(host, default)
        self._tunnel = None  # (host, port, CONNECT headers)
        if tunnel:
            server = _host_port(tunnel[0], default)
            self._tunnel = *server, tunnel[1]
        self._host = _host_header(*server, default)
        self.timeout, self.tls = timeout, tls
        self._sock = self._fp = None

    def _connect(self):
        import socket

        sock = socket.create_connection((self.host, self.port), self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            server = self.host
            if self._tunnel:
                server, port, headers = self._tunnel
                sock.sendall(f"CONNECT {server}:{port} HTTP/1.0\r\n".encode("ascii") + "".join(
                    f"{name}: {value}\r\n" for name, value in headers.items()
                ).encode("latin-1") + b"\r\n")
                with sock.makefile("rb") as fp:
                    _, status = _status(fp)
                    _header_lines(fp)
                if status != 200:
                    raise OSError(f"tunnel connection failed: {status}")
            if self.tls:
                import ssl

                context = ssl.create_default_context()
                context.set_alpn_protocols(["http/1.1"])
                sock = context.wrap_socket(sock, server_hostname=server)
        except BaseException:
            sock.close()
            raise
        self._sock, self._fp = sock, sock.makefile("rb")

    def send(self, targets: list[str], headers: dict):
        """Write a GET per target, each with ``headers``, in one ``sendall``:
        the bytes ``http.client.HTTPConnection.request`` writes for each. The
        targets are sendable (:meth:`RegistryClient._hop`); an absolute one,
        for a proxy, is sent alone, with its URL's host."""
        host = urlsplit(targets[0]).netloc if "://" in targets[0] else self._host
        fields = [f"Host: {host}", "Accept-Encoding: identity"]
        fields += [f"{name}: {value}" for name, value in headers.items()]
        for field in fields:  # named, not shown: a value may be a credential
            if "\r" in field or "\n" in field:
                raise ValueError(f"header {field.partition(':')[0]} holds CR or LF")
        tail = (" HTTP/1.1\r\n" + "\r\n".join(fields) + "\r\n\r\n").encode("latin-1")
        heads = b"".join(b"GET " + target.encode("ascii") + tail for target in targets)
        if self._sock is None:
            self._connect()
        self._sock.sendall(heads)

    def getresponse(self) -> _Reply:
        return _Reply(self._fp)

    def close(self):
        if self._sock is not None:
            self._fp.close()
            self._sock.close()
            self._sock = self._fp = None


def _bypassed(host: str, proxies: dict) -> bool:
    """Whether ``NO_PROXY`` (in ``proxies``) covers ``host``, as urllib reads it."""
    from urllib.request import proxy_bypass_environment

    return proxy_bypass_environment(host, proxies)


class RegistryClient:
    """Thin HTTP(S) client for the v2 catalog, tags, and manifest endpoints.

    Each call keeps one connection per scheme, host and proxy tunnel for
    every GET and redirect hop there, pipelined (:meth:`_exchange`), until a
    reply says it closes, and closes them all when it ends; a walk
    (:func:`walk_registry`) keeps them across its calls, and each thread's
    walk keeps its own. ``connect`` opens each connection; it is
    :class:`_Connection`, or a fake with its contract. The
    proxy variables are read once, here, as ``urllib`` reads them;
    ``urllib.request`` loads only if one is set, or on macOS and Windows,
    where it also reads the system settings."""

    def __init__(self, config: RegistryConfig, connect=None):
        self.config = config
        self.connect = connect
        self._walk = threading.local()  # .kept: the table of the outermost _keeping block
        self._proxies = {}
        # Elsewhere getproxies reads only these variables; there, system settings too.
        if sys.platform in ("darwin", "win32") or any(
                name[-6:].lower() == "_proxy" for name in os.environ):
            from urllib.request import getproxies

            self._proxies = getproxies()
        self._authorization = None
        if config.token:
            self._authorization = f"Bearer {config.token}"
        elif config.username is not None:
            pair = f"{config.username}:{config.password or ''}".encode()
            self._authorization = _basic(pair)

    @contextmanager
    def _keeping(self):
        """Yield this thread's table of kept connections: origin ->
        ``(connection, whether its last reply pipelines)``. A block inside
        another uses the outer block's table; the outermost closes every kept
        connection when it ends, on error too."""
        kept = getattr(self._walk, "kept", None)
        if kept is not None:
            yield kept
            return
        self._walk.kept = kept = {}
        try:
            yield kept
        finally:
            self._walk.kept = None
            for connection, _ in kept.values():
                connection.close()

    def _route(self, scheme: str, netloc: str) -> tuple:
        """How a GET reaches ``scheme://netloc``: the origin its connection is
        kept under, the host to connect to, the ``CONNECT`` tunnel's
        ``(netloc, headers)`` if any, and the headers a plain HTTP proxy,
        which is sent absolute URLs, is also sent (``None`` when there is no
        such proxy). A proxy port out of range raises ``ValueError``."""
        tls, host, tunnel, proxied = scheme == "https", netloc, None, None
        proxy = self._proxies.get(scheme)
        if proxy and not _bypassed(netloc, self._proxies):
            via = urlsplit(proxy if "://" in proxy else f"//{proxy}")
            host = via.netloc.rpartition("@")[2]
            try:  # else the socket would wrap the port modulo 65536
                via.port
            except ValueError as exc:
                raise ValueError(f"proxy {host}: {exc}") from None
            auth = {}
            if via.username and via.password:
                pair = f"{unquote(via.username)}:{unquote(via.password)}".encode()
                auth["Proxy-Authorization"] = _basic(pair)
            if tls:  # CONNECT through the proxy, then TLS to the registry
                tunnel = netloc, auth
            else:  # the proxy is sent the absolute URL
                tls, proxied = via.scheme == "https", auth
        return (tls, host, tunnel and netloc), host, tunnel, proxied

    def _hop(self, hop: str, routes: dict) -> tuple:
        """The route (:meth:`_route`, settled once per scheme and host in
        ``routes``) and the request target of ``hop``. It must be an http:// or
        https:// URL with a host and a non-zero port and no user info, whose
        target holds no control character, space or non-ASCII character; else
        ``ValueError``."""
        parts = urlsplit(hop)  # raises ValueError on a malformed host; .port on a bad port
        if parts.scheme not in ("http", "https") or not parts.hostname or parts.port == 0:
            raise ValueError("not an http:// or https:// URL")
        if _USERINFO.match(hop):  # no host name, and a password must not be shown
            raise ValueError("user info in a URL is not sent; set username and password instead")
        route = routes.get(parts[:2])
        if route is None:
            route = routes[parts[:2]] = self._route(parts.scheme, parts.netloc)
        if route[3] is not None:
            target = urlunsplit(parts[:4] + ("",))
        else:
            target = f"{parts.path or '/'}?{parts.query}" if parts.query else parts.path or "/"
        if _UNSENDABLE_TARGET.search(target):  # as http.client refuses
            raise ValueError(f"request target {target!r} holds a control character or a space")
        target.encode("ascii")  # a non-ASCII target fails its own GET, not a pipelined batch
        return route, target

    def _exchange(self, urls: list[str], kept: dict, headers: dict | None = None):
        """Yield ``(i, outcome)`` for each of ``urls``, a batch at a time: the
        ``(status, Link, body)`` of its reply, of any status, or the
        :class:`RegistryUnavailable` its GET ended in. The only code that
        opens a connection; ``kept`` (:meth:`_keeping`) holds each origin's
        between GETs. Each hop passes :meth:`_hop` as it is queued, so a URL
        it refuses yields before any GET is sent. A 301/302/303/307/308 is
        followed after its batch, alone, at most :data:`MAX_REDIRECTS` times,
        without ``Authorization``. A new connection's first GET goes alone;
        once its last reply ``pipelines``, up to :data:`PIPELINE` queued GETs
        to its origin are written at once and their replies read in order
        (RFC 9112 section 9.3.2), except through a plain HTTP proxy. GETs
        that a closing connection left unanswered (a reply that closes or is
        HTTP/1.0, or no status line) are each sent once more, alone; a drop
        on a new connection is not, nor is a body cut short."""
        sent = {**(headers or {}), "User-Agent": "layersched"}
        first = {**sent, "Authorization": self._authorization} if self._authorization else sent
        connect = self.connect or _Connection
        routes, queue = {}, deque()  # (index, hop, redirects so far, alone, route, target)
        for index, url in enumerate(urls):
            try:
                queue.append((index, url, 0, False, *self._hop(url, routes)))
            except ValueError as exc:
                yield index, _unavailable(url, url, exc)
        while queue:
            batch, outcomes, later = [queue.popleft()], [], []
            origin, host, tunnel, proxied = batch[0][4]
            connection, pipelines = kept.pop(origin, (None, False))
            if pipelines and proxied is None and not batch[0][3]:
                while (queue and len(batch) < PIPELINE and not queue[0][3]
                       and queue[0][4][0] == origin):
                    batch.append(queue.popleft())
            fresh, answered, reply = connection is None, 0, None
            hop_headers = {**(sent if batch[0][2] else first), **(proxied or {})}
            try:
                if fresh:
                    connection = connect(host, timeout=30, tls=origin[0], tunnel=tunnel)
                connection.send([item[5] for item in batch], hop_headers)
                for index, hop, redirects, *_ in batch:
                    reply = None
                    reply = connection.getresponse()
                    status, link, body = reply.status, reply.getheader("Link", ""), reply.read()
                    location = reply.getheader("Location")
                    answered += 1
                    try:
                        if status in _REDIRECTS and location and redirects < MAX_REDIRECTS:
                            hop = urljoin(hop, location)
                            later.append((index, hop, redirects + 1, True,
                                          *self._hop(hop, routes)))
                        else:
                            outcomes.append((index, (status, link, body)))
                    except ValueError as exc:  # a Location that cannot be sent ends its GET only
                        outcomes.append((index, _unavailable(urls[index], hop, exc)))
                    if answered < len(batch) and not reply.pipelines:  # it closes, or is HTTP/1.0
                        break
            except BaseException as exc:
                if connection is not None:
                    connection.close()
                if not isinstance(exc, (OSError, ValueError)):
                    raise
                index, hop = batch[answered][:2]
                if fresh or reply is not None or not isinstance(
                        exc, (ConnectionResetError, BrokenPipeError)):
                    outcomes.append((index, _unavailable(urls[index], hop, exc)))
                    answered += 1
                # else dropped while idle: this GET is sent once more
            else:
                if answered == len(batch) and not reply.will_close:
                    kept[origin] = connection, reply.pipelines
                else:
                    connection.close()
            queue.extendleft(reversed(later + [(*item[:3], True, *item[4:])
                                               for item in batch[answered:]]))
            yield from outcomes

    def _run(self, tasks: dict, headers: dict | None = None) -> dict:
        """Run each of ``tasks`` (key -> a generator that yields the URL of
        each GET it needs and is sent its ``(status, Link, body)``, or has the
        GET's error raised in it) to its end, in stages: one :meth:`_exchange`,
        with ``headers``, of the GETs that the unfinished tasks wait on, over
        the connections of one :meth:`_keeping` block. Each reply is parsed
        by its task as it is read. Returns key -> the task's return value, or
        the :class:`LayerSchedError` that ended it."""
        results, waiting = {}, {key: next(task) for key, task in tasks.items()}
        with self._keeping() as kept:
            while waiting:
                keys, urls, waiting = list(waiting), list(waiting.values()), {}
                for index, outcome in self._exchange(urls, kept, headers):
                    key = keys[index]
                    try:
                        if isinstance(outcome, LayerSchedError):
                            waiting[key] = tasks[key].throw(outcome)
                        else:
                            waiting[key] = tasks[key].send(outcome)
                    except StopIteration as stop:
                        results[key] = stop.value
                    except LayerSchedError as exc:
                        results[key] = exc
        return results

    def _one(self, task, headers: dict | None = None):
        """The return value of one task of :meth:`_run`; its error is raised."""
        result = self._run({None: task}, headers)[None]
        if isinstance(result, LayerSchedError):
            raise result
        return result

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

    def _pages(self, path: str, list_key: str):
        """A task (:meth:`_run`) that GETs every page of a listing and returns
        its ``list_key`` names. A reply of another shape, a ``next`` link to
        another origin than the base URL's (it would be sent the credentials),
        a page already fetched, or more than :data:`MAX_PAGES` pages raise
        :class:`RegistryProtocolError`."""
        items: list[str] = []
        url = f"{self.config.base_url}{path}"
        seen = set()
        for _ in range(MAX_PAGES):
            if url in seen:
                raise RegistryProtocolError(200, f"next link {url} repeats an earlier page")
            seen.add(url)
            status, link, body = yield url
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
                    200, f"next link {_shown(url)} leaves {self.config.base_url}")
        raise RegistryProtocolError(200, f"{path}: more than {MAX_PAGES} pages")

    def fetch_catalog(self) -> list[str]:
        """All repository names, following pagination Link headers."""
        return self._one(self._pages("/v2/_catalog", "repositories"))

    def fetch_tags(self, name: str) -> list[str]:
        return self._one(self._pages(f"/v2/{name}/tags/list", "tags"))

    def fetch_image_metadata(self, name: str, tag: str) -> ImageMetadata:
        """Resolve the image's v2 manifest into layer digests and sizes
        (:meth:`_image`)."""
        return self._one(self._image(name, tag), _ACCEPT)

    def _image(self, name: str, tag: str):
        """A task (:meth:`_run`, with :data:`_ACCEPT`) that resolves the
        image's v2 manifest into an :class:`ImageMetadata`.

        Manifest lists (multi-arch) resolve through their first platform
        entry. The record id is the manifest's config digest. A reply that is
        not such a manifest raises :class:`UnsupportedManifest`.
        """
        manifest = yield from self._manifest(name, tag)
        media_type = manifest.get("mediaType", "")
        if media_type in (MANIFEST_LIST_V2, OCI_INDEX):
            entries = manifest.get("manifests") or []
            if not entries:
                raise UnsupportedManifest(f"{name}:{tag}: empty manifest list")
            with _malformed_manifest(name, tag):
                digest = _json_str(entries[0]["digest"], "digest")
            manifest = yield from self._manifest(name, digest)
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

    def _manifest(self, name: str, reference: str):
        url = f"{self.config.base_url}/v2/{name}/manifests/{reference}"
        status, _, body = yield url
        if status == 404:
            raise UnknownImage(f"{name}:{reference} not in registry")
        if status != 200:
            raise RegistryProtocolError(status, f"GET {url}: HTTP {status}")
        return self._json_object(body, f"{name}:{reference}", UnsupportedManifest)


@contextmanager
def _malformed_manifest(name: str, tag: str):
    """Turn a manifest field of the wrong shape (a missing key, a list that
    is not one, a negative size or one that is not a JSON integer, a digest
    that is not a JSON string), or an empty name or tag the registry listed,
    into UnsupportedManifest."""
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
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
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
    """Walk catalog -> tags -> manifests into an unsaved snapshot, in stages
    (:meth:`RegistryClient._run`): the catalog's pages, then every
    repository's tag list and its next pages, then every tag's manifest, then
    each index's platform manifest. Images that fail to resolve become
    ``warnings``, in catalog order and then tag order; only a failure to list
    the catalog itself is raised. Each failure that is :func:`_transient`
    also adds ``(name, tag)`` to ``missed``, or ``(name, None)`` for a tag
    list. A repository name or tag listed empty is one warning, and is never
    fetched. The client keeps one connection per origin for the whole walk."""
    images, notes = {}, {}  # by (catalog place, tag place); -1 for the tag list
    with client._keeping():
        names = client.fetch_catalog()
        listings = {}
        for i, name in enumerate(names):
            if name:
                listings[i] = client._pages(f"/v2/{name}/tags/list", "tags")
            else:  # an empty name or tag makes no record: send no GET for it
                notes[i, -1] = "catalog lists an empty repository name; skipped"
        listed, manifests = client._run(listings), {}
        for i in listings:  # in catalog order, as each stage is sent
            tags = listed[i]
            if isinstance(tags, LayerSchedError):
                notes[i, -1] = f"tags for {names[i]}: {tags}"
                if missed is not None and _transient(tags):
                    missed.add((names[i], None))
                continue
            for j, tag in enumerate(tags):
                if tag:
                    manifests[i, j] = client._image(names[i], tag)
                else:
                    notes[i, j] = f"tags for {names[i]} list an empty tag; skipped"
        for (i, j), image in client._run(manifests, _ACCEPT).items():
            if isinstance(image, LayerSchedError):
                notes[i, j] = f"manifest {names[i]}:{listed[i][j]}: {image}"
                if missed is not None and _transient(image):
                    missed.add((names[i], listed[i][j]))
            else:
                images[i, j] = image
    lists = {images[place].key: images[place] for place in sorted(images)}
    return ImageMetadataLists(lists=lists, warnings=[notes[place] for place in sorted(notes)])


def _load_prior(cache_path: Path) -> ImageMetadataLists:
    """:func:`load_cache`, with a file that cannot be read raised as a
    :class:`LayerSchedError` naming the path, as a failed write is."""
    try:
        return load_cache(cache_path)
    except OSError as exc:
        raise LayerSchedError(f"cache {cache_path}: {exc.strerror or exc}") from exc


def refresh_cache(config: RegistryConfig, client: RegistryClient | None = None) -> ImageMetadataLists:
    """Walk the registry (:func:`walk_registry`) and rewrite the cache file.

    If the registry is unreachable outright, answers the catalog with a
    transient status (5xx or 429), or nothing at all resolves, a prior cache
    is returned flagged stale instead of being destroyed; with no prior
    cache the error is raised, and a prior cache that cannot be read raises
    a :class:`LayerSchedError` naming its path. Any other catalog error is
    raised. An image whose tags or manifest failed transiently keeps its
    prior cache record, and the snapshot is flagged stale; one answered 404
    or with an unsupported manifest is dropped. A prior cache that is
    corrupt or cannot be read keeps no record then, with a warning.
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
        prior = _load_prior(cache_path)
        prior.stale = True
        prior.warnings.extend(snapshot.warnings)
        return prior
    if missed and cache_path.exists():
        # Keep the prior record of each image a transient failure left out.
        try:
            prior = _load_prior(cache_path).lists
        except LayerSchedError as exc:  # corrupt, or unreadable
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
