"""Analysis as a service: skeleton store + stdlib HTTP serving layer.

The compositional pipeline splits into an expensive, *structure-only* part
(conversion, composition, bisimulation minimisation — seconds to minutes) and
a cheap, rate-dependent part (CSR refill + uniformisation — microseconds per
query).  This package exploits that split for traffic:

* :mod:`repro.service.store` — a content-addressed on-disk cache of aggregated
  skeletons keyed by the canonical structural hash of the fault tree
  (:mod:`repro.dft.hashing`), so every analysis of an already-seen structure
  skips straight to the kernel;
* :mod:`repro.service.app` — the transport-free application object
  (request dict in, response dict out) with per-endpoint metrics and an
  optional worker pool; every process keeps its recently used entries
  decoded, with their compiled models, so a warm hit is answered from memory;
* :mod:`repro.service.server` — a stdlib-only threading HTTP server exposing
  ``POST /analyze``, ``/sweep``, ``/batch`` and ``GET /healthz``, ``/metrics``
  with the existing ``repro.study/1`` / ``repro.sweep/3`` JSON schemas as the
  wire format;
* :mod:`repro.service.client` — a retry/backoff HTTP client mirroring the
  endpoints.
"""

from .app import AnalysisService, ServiceMetrics, query_from_payload
from .client import ServiceClient, ServiceError
from .server import serve
from .store import SkeletonEntry, SkeletonStore, build_entry, cache_key

__all__ = [
    "AnalysisService",
    "ServiceClient",
    "ServiceError",
    "ServiceMetrics",
    "SkeletonEntry",
    "SkeletonStore",
    "build_entry",
    "cache_key",
    "query_from_payload",
    "serve",
]
