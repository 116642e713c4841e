"""The served workload's server process.

Opens a durable library with the default configuration, serves it with
the asyncio front-end (default batching and admission knobs) on a free
local port, prints ``ready <port>`` and then obeys one command per stdin
line:

- ``trace``: install the layer wrappers and start counting;
- ``stop``: stop serving, write the report (cache and pool counters, the
  traced layers, the span file) to ``--out`` and exit.

Run by ``perfbench/run.py``; the parent times requests from outside.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import layers  # noqa: E402
from perfbench.ops import counters  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from repro.core.system import VideoRetrievalSystem  # noqa: E402
from repro.serving import make_async_server  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--library", required=True)
    parser.add_argument("--out", required=True, help="report JSON path")
    parser.add_argument("--spans", required=True, help="span JSONL path (traced runs)")
    args = parser.parse_args()

    system = VideoRetrievalSystem.open(args.library)
    server = make_async_server(system)
    server.start_in_thread()
    print(f"ready {server.port}", flush=True)
    tracer = None
    before = counters(system, [])
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace" and tracer is None:
                tracer = Tracer()
                layers.install(tracer)
                before = counters(system, [])
            elif command == "stop":
                break
    finally:
        server.stop()
        if tracer is not None:
            tracer.uninstall()
    after = counters(system, [])
    report = {key: after[key] - before[key] for key in after}
    if tracer is not None:
        report["ledger"] = {k: v for k, (v, _unit) in layers.ledger(tracer, report).items()}
        tracer.dump(args.spans)
    system.close()
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
