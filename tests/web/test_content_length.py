"""A malformed ``Content-Length`` gets a 400, an oversized one a 413.

The header decides how many body bytes follow, so a value that is not a
plain non-negative decimal cannot be framed, and one over the body cap
is never buffered: either way both live front-ends answer with the JSON
error envelope and close that connection, and the next client is served
as usual.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.serving import make_async_server
from repro.web.api import MAX_BODY, ApiError, parse_content_length
from repro.web.server import make_server

BAD_VALUES = ["abc", "-1", "+5", "1.5", "0x10", "12 34", "²"]
#: well-formed lengths over the cap: the 19-digit maximum, 70 MB, cap + 1
OVERSIZED = ["9" * 19, str(70 * 1000 * 1000), str(MAX_BODY + 1)]


@pytest.fixture(scope="module")
def system(small_corpus):
    system = VideoRetrievalSystem.in_memory(SystemConfig(workers=1))
    system.admin.add_video(small_corpus[0])
    yield system
    system.close()


@pytest.fixture(scope="module")
def blocking_addr(system):
    server, port = make_server(system)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield ("127.0.0.1", port)
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def async_addr(system):
    server = make_async_server(system)
    base = server.start_in_thread()
    host, port = base.split("//", 1)[1].split(":")
    yield (host, int(port))
    server.stop()


def _exchange(addr, head: str) -> bytes:
    """Send one raw request; read until the server closes the connection."""
    with socket.create_connection(addr, timeout=30) as sock:
        sock.sendall(head.encode("utf-8"))
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _parse(raw: bytes):
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(lines[0].split(" ")[1]), headers, body


def _assert_refused_then_healthy(addr, value, status_expected):
    raw = _exchange(
        addr, f"POST /search HTTP/1.1\r\nHost: x\r\nContent-Length: {value}\r\n\r\n"
    )
    status, headers, body = _parse(raw)
    assert status == status_expected
    assert headers["connection"] == "close"
    payload = json.loads(body[: int(headers["content-length"])])
    assert payload["error_type"] == "api_error"
    assert "Content-Length" in payload["error"]
    # the server stays up for the next client
    status, _, body = _parse(
        _exchange(addr, "GET /videos HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
    )
    assert status == 200
    assert len(json.loads(body)["videos"]) == 1


@pytest.mark.parametrize("front", ["blocking_addr", "async_addr"])
@pytest.mark.parametrize("value", BAD_VALUES)
def test_malformed_content_length_is_400_then_healthy(request, front, value):
    _assert_refused_then_healthy(request.getfixturevalue(front), value, 400)


@pytest.mark.parametrize("front", ["blocking_addr", "async_addr"])
@pytest.mark.parametrize("value", OVERSIZED)
def test_oversized_content_length_is_413_then_healthy(request, front, value):
    _assert_refused_then_healthy(request.getfixturevalue(front), value, 413)


@pytest.mark.parametrize("value,expected", [(None, 0), ("", 0), (" 12 ", 12), ("0", 0)])
def test_parse_content_length_accepts_plain_decimals(value, expected):
    assert parse_content_length(value) == expected


@pytest.mark.parametrize("value", BAD_VALUES + ["9" * 20])
def test_parse_content_length_rejects_the_rest(value):
    with pytest.raises(ApiError) as info:
        parse_content_length(value)
    assert info.value.status == 400


def test_parse_content_length_caps_the_body():
    assert parse_content_length(str(MAX_BODY)) == MAX_BODY
    for value in OVERSIZED:
        with pytest.raises(ApiError) as info:
            parse_content_length(value)
        assert info.value.status == 413
