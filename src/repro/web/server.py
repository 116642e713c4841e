"""stdlib HTTP shell around :class:`~repro.web.api.CbvrApi`.

Run the demo server with::

    python -m repro.web.server            # in-memory demo corpus
    python examples/web_demo.py           # scripted end-to-end demo

The server is single-purpose and synchronous (ThreadingHTTPServer), which
is all the paper's interactive demo needs.
"""

from __future__ import annotations

import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple

from repro.core.system import VideoRetrievalSystem
from repro.obs import log
from repro.sharding import maybe_attach_sharded
from repro.web.api import ApiError, CbvrApi, error_response_for, parse_content_length

__all__ = ["CbvrHttpServer", "make_server"]

_log = log.get_logger(__name__)


class _Handler(BaseHTTPRequestHandler):
    api: CbvrApi = None  # injected by make_server

    # http.server's default stderr chatter goes through structured logging
    # instead (quiet unless REPRO_LOG_LEVEL/obs_log_level says DEBUG); the
    # per-request metric is recorded by CbvrApi.handle
    def log_message(self, fmt, *args):  # pragma: no cover - logging
        _log.debug("http.request", client=self.address_string(), line=fmt % args)

    def _dispatch(self, method: str) -> None:
        parsed = urllib.parse.urlsplit(self.path)
        query = dict(urllib.parse.parse_qsl(parsed.query))
        try:
            length = parse_content_length(self.headers.get("Content-Length"))
        except ApiError as exc:
            # the body's framing is unknown: answer, then close
            (status, content_type, payload), _extra = error_response_for(exc)
            self.close_connection = True
            self._reply(status, content_type, payload, {"Connection": "close"})
            return
        body = self.rfile.read(length) if length else b""
        self._reply(
            *self.api.handle_full(
                method, parsed.path, body=body, headers=dict(self.headers), query=query
            )
        )

    def _reply(self, status, content_type, payload, extra_headers) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in extra_headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self):  # noqa: N802
        self._dispatch("DELETE")


class CbvrHttpServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one CbvrApi."""

    daemon_threads = True


def make_server(
    system: VideoRetrievalSystem, host: str = "127.0.0.1", port: int = 0
) -> Tuple[CbvrHttpServer, int]:
    """Build a server for ``system``; returns ``(server, bound_port)``.

    ``port=0`` picks a free port.  Call ``server.serve_forever()`` (or
    ``handle_request()`` in tests) to serve.

    A config asking for sharded serving (``shards > 1`` with
    ``shard_paths``) gets its scatter-gather coordinator attached here,
    so ``repro serve --shards DIR`` and programmatic servers behave the
    same.
    """
    maybe_attach_sharded(system)
    handler = type("BoundHandler", (_Handler,), {"api": CbvrApi(system)})
    server = CbvrHttpServer((host, port), handler)
    return server, server.server_address[1]


def _demo(port: int = 8765) -> None:  # pragma: no cover - manual entry point
    from repro.video.generator import make_corpus

    system = VideoRetrievalSystem.in_memory()
    admin = system.login_admin()
    for video in make_corpus(videos_per_category=2, seed=7, n_shots=2, frames_per_shot=6):
        admin.add_video(video)
    server, bound = make_server(system, port=port)
    log.set_level("INFO")
    _log.info(
        "server.start",
        url=f"http://127.0.0.1:{bound}",
        videos=system.n_videos(),
        key_frames=system.n_key_frames(),
    )
    server.serve_forever()


if __name__ == "__main__":  # pragma: no cover
    _demo()
