"""``repro serve`` with spans around graph build and shm publish.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_daemon.py SPANS.json serve --sizes ...

Wraps ``build_graph_snapshot`` and ``publish_graph`` at the names the
serving code resolves, runs the ordinary CLI entry point, and writes the
spans to ``SPANS.json`` once the daemon has shut down.
"""

from __future__ import annotations

import sys
from pathlib import Path

from common import Tracer


def main() -> int:
    import repro.service.core as service_core
    import repro.service.daemon as daemon
    from repro.cli import main as cli_main

    tracer = Tracer()
    tracer.wrap(service_core, "build_graph_snapshot", "graphs.build")
    tracer.wrap(daemon, "publish_graph", "graphs.shm.publish")
    try:
        return cli_main(sys.argv[2:])
    finally:
        tracer.dump(Path(sys.argv[1]))


if __name__ == "__main__":
    sys.exit(main())
