"""Where the service listens: one URL scheme per address kind.

``--connect URL`` (CLI) and ``ServiceClient(url)`` (library) accept::

    unix:///path/to/owl.sock     HTTP/JSON over a unix-domain socket
    http://host[:port]           HTTP/JSON over TCP (port defaults to 8750)

Both kinds carry the same HTTP/JSON protocol; only the socket differs.
A bare filesystem path (no scheme) reads as a unix socket.  Each URL
resolves to an ``Address`` tuple ``(kind, target)``: ``("unix", path)``
or ``("http", (host, port))``.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ConfigError

#: (kind, target): ("unix", path) or ("http", (host, port)).
Address = Tuple[str, object]

#: Default TCP port of the HTTP front end when a URL omits one.
DEFAULT_HTTP_PORT = 8750


def parse_connect(url: str) -> Address:
    """``unix:///path``, ``http://host[:port]`` or a bare socket path."""
    text = str(url).strip()
    if not text:
        raise ConfigError("empty --connect URL")
    scheme, sep, rest = text.partition("://")
    if not sep:
        return ("unix", text)
    if scheme == "unix":
        if not rest:
            raise ConfigError(
                f"unix URL {url!r} carries no socket path "
                f"(use unix:///absolute/path)")
        return ("unix", rest)
    if scheme == "tcp":
        raise ConfigError(
            f"the service speaks HTTP on TCP: use http://HOST:PORT "
            f"in place of {url!r}")
    if scheme != "http":
        raise ConfigError(
            f"unsupported connection scheme {scheme!r} in {url!r} "
            f"(choose unix:// or http://)")
    rest = rest.rstrip("/")
    host, sep, port_text = rest.rpartition(":")
    if not sep:
        return ("http", (rest or "127.0.0.1", DEFAULT_HTTP_PORT))
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigError(f"http URL {url!r} has a non-numeric port")
    return ("http", (host or "127.0.0.1", port))


def format_address(address: Address) -> str:
    """The canonical ``--connect`` URL of an address tuple."""
    kind, target = address
    if kind == "unix":
        return f"unix://{target}"
    host, port = target  # type: ignore[misc]
    return f"http://{host}:{port}"
