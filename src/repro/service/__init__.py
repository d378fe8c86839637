"""Search-as-a-service over published FrozenGraph snapshots.

The paper's claim — growth-built power-law networks are not searchable
by local algorithms — is ultimately about *serving lookups to live
peers*, not about offline tables.  This subpackage is that serving
story:

* :mod:`repro.service.core` — graph catalog (family grid or on-disk
  corpus), query validation, and the execution path (in the daemon or
  a worker, on an attached shared-memory snapshot) that answers cells
  through the exact batch seed derivation;
* :mod:`repro.service.daemon` — the long-lived ``repro serve`` HTTP
  daemon (stdlib ``http.server`` over shared-memory graphs: short
  walks answered in the HTTP thread, long ones by a process pool, a
  hot-cell LRU answer cache in front) with graceful shm lifecycle;
* :mod:`repro.service.stats` — the shared latency histogram and the
  daemon's serving counters (``/stats``);
* :mod:`repro.service.client` — a tiny stdlib client and a concurrent
  load generator (closed- or open-loop) measuring latency percentiles
  and sustained qps;
* :mod:`repro.service.loadgen` — the load generator's CLI face.

The determinism contract: a query ``(graph, algorithm, run_index,
start?, target?)`` answers with the byte-identical result dict the
batch path (:func:`repro.core.trials.batched_search_trial`) produces
for the same cell on the same ``(family, size, seed)`` graph — same
``run_substream`` seed derivation, same default start/target
resolution, same budget.
"""

from repro.service.core import (
    GraphEntry,
    QueryError,
    build_grid_entries,
    entry_from_snapshot,
    load_corpus_entries,
    validate_query,
)
from repro.service.daemon import AnswerCache, SearchService
from repro.service.stats import LatencyHistogram, ServiceStats
from repro.service.client import ServiceClient, run_load

__all__ = [
    "AnswerCache",
    "GraphEntry",
    "LatencyHistogram",
    "QueryError",
    "SearchService",
    "ServiceClient",
    "ServiceStats",
    "build_grid_entries",
    "entry_from_snapshot",
    "load_corpus_entries",
    "run_load",
    "validate_query",
]
