"""Open-loop HTTP load generator for the served workload.

Requests follow a schedule fixed before the rung starts: evenly spaced
search arrivals plus timed admin writes.  At most ``connections`` keep-alive
connections take the next due request in schedule order, so when the
server stalls, requests queue here and the stall shows in the latency of
every later request: each one is timed from when it was *due*, not from
when a connection got free.  ``late`` (sent minus due) is the
generator's own lateness; if it grows across a rung, the rung measured
a backlog, not a steady state.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass
class Request:
    due: float  # seconds after the rung starts
    kind: str  # "search" | "upload" | "delete"
    index: int = 0  # catalogue entry (search) or upload number (upload/delete)
    # filled in by the generator
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""


@dataclass
class Rung:
    rate: float
    requests: List[Request] = field(default_factory=list)

    def searches(self) -> List[Request]:
        return [r for r in self.requests if r.kind == "search"]


def schedule(rate: float, seconds: float, n_catalogue: int, zipf_s: float,
             upload: int, rng: np.random.Generator) -> Rung:
    """Searches every ``1 / rate`` seconds, one upload and its delete.

    Even spacing keeps arrival bursts out of the tail, so the tail shows
    the service time and the stalls writes cause.  Catalogue entries are
    drawn Zipf-style (rank ``k`` with weight ``1 / k**zipf_s``).  The
    upload is due at a quarter of the rung and its delete at 0.6, so
    every rung ends with the corpus it started with.
    """
    weights = 1.0 / np.arange(1, n_catalogue + 1, dtype=np.float64) ** zipf_s
    weights /= weights.sum()
    n = int(seconds * rate)
    picks = rng.choice(n_catalogue, size=n, p=weights)
    requests = [Request((i + 0.5) / rate, "search", int(picks[i])) for i in range(n)]
    requests.append(Request(0.25 * seconds, "upload", upload))
    requests.append(Request(0.60 * seconds, "delete", upload))
    requests.sort(key=lambda r: r.due)
    return Rung(rate, requests)


class Generator:
    """Drives one rung against ``host:port`` and fills in each request."""

    def __init__(self, host: str, port: int, connections: int,
                 catalogue: List[bytes], uploads: List[tuple]):
        self.host = host
        self.port = port
        self.connections = connections
        self.catalogue = catalogue
        #: (name, category, rvf bytes) per upload number
        self.uploads = uploads
        self._video_ids: Dict[int, int] = {}
        self._uploaded: Dict[int, threading.Event] = {}

    def _send(self, conn: http.client.HTTPConnection, req: Request) -> None:
        if req.kind == "search":
            conn.request("POST", "/search?top_k=20", body=self.catalogue[req.index])
        elif req.kind == "upload":
            name, category, blob = self.uploads[req.index]
            conn.request("POST", f"/admin/videos?name={name}&category={category}", body=blob)
        else:
            self._uploaded[req.index].wait(timeout=60)
            video_id = self._video_ids.get(req.index)
            conn.request("DELETE", f"/admin/videos/{video_id}")
        response = conn.getresponse()
        req.body = response.read()
        req.status = response.status
        if req.kind == "upload":
            if req.status == 201:
                self._video_ids[req.index] = json.loads(req.body)["v_id"]
            self._uploaded[req.index].set()

    def run(self, rung: Rung) -> None:
        for req in rung.requests:
            if req.kind == "upload":
                self._uploaded[req.index] = threading.Event()
        lock = threading.Lock()
        queue = iter(rung.requests)
        start = time.perf_counter() + 0.05
        errors: List[BaseException] = []

        def worker() -> None:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
            try:
                while True:
                    with lock:
                        req: Optional[Request] = next(queue, None)
                    if req is None:
                        return
                    wait = start + req.due - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    req.sent = time.perf_counter() - start
                    try:
                        self._send(conn, req)
                    except (OSError, http.client.HTTPException) as exc:
                        req.status = -1
                        req.body = repr(exc).encode()
                        conn.close()
                        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
                        if req.kind == "upload":
                            self._uploaded[req.index].set()
                    req.done = time.perf_counter() - start
            except BaseException as exc:  # re-raised on the calling thread
                errors.append(exc)
            finally:
                conn.close()

        threads = [threading.Thread(target=worker) for _ in range(self.connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        if errors:
            raise errors[0]
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("load generator connection did not finish")


def lateness_grows(searches: List[Request], allowance_ms: float) -> bool:
    """Whether median lateness in the rung's last third exceeds its first
    third by more than ``allowance_ms``: a backlog building up."""
    if len(searches) < 6:
        return False
    third = len(searches) // 3
    first = np.median([r.sent - r.due for r in searches[:third]]) * 1000.0
    last = np.median([r.sent - r.due for r in searches[-third:]]) * 1000.0
    return bool(last - first > allowance_ms)
