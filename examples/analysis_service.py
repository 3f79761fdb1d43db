"""Analysis as a service: skeleton cache, HTTP server, warm-cache sweeps.

Walks the serving layer end to end:

* warm a content-addressed skeleton cache from the CAS fault tree,
* start the HTTP server on an ephemeral port (in a background thread),
* analyze over HTTP — the first request of a structural class pays for the
  full pipeline (conversion, aggregation, minimisation), every later
  request of the same class is served from the cache,
* run a parameter sweep on the warmed skeleton, and
* read the server's request metrics and cache statistics.

Run with::

    python examples/analysis_service.py
"""

from __future__ import annotations

import tempfile
import threading
import time

from repro.dft import galileo
from repro.service import ServiceClient, SkeletonStore, serve
from repro.systems import cardiac_assist_system

PARAM_TREE = """
param lam = 0.5;
toplevel "sys";
"sys" or "pumps" "cpu";
"pumps" and "p1" "p2";
"p1" lambda=lam;
"p2" lambda=lam;
"cpu" lambda=0.2;
"""


def main() -> None:
    tree = cardiac_assist_system()
    with tempfile.TemporaryDirectory(prefix="repro-service-") as cache_dir:
        # 1. Warm the cache before the server takes traffic (the CLI
        #    equivalent is `repro cache warm trees/*.dft --cache-dir DIR`).
        #    Here we pre-warm the sweep tree; the CAS tree stays cold so the
        #    first analyze below shows the miss -> hit transition.
        store = SkeletonStore(cache_dir)
        counters = store.warm([galileo.parse(PARAM_TREE, name="sweep-tree")])
        print(f"warmed cache: {counters}")

        # 2. Start the server (ephemeral port) in a background thread.
        #    From a shell: `repro serve --cache-dir DIR --port 8357`.
        server = serve(cache_dir, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        print(f"serving on {server.url}")

        try:
            client = ServiceClient(server.url)

            # 3. Analyze over HTTP: cold (pipeline) vs warm (cache).
            text = galileo.write(tree)
            start = time.perf_counter()
            cold_response = client.analyze(text, times=[1.0], mttf=True)
            cold = time.perf_counter() - start
            start = time.perf_counter()
            response = client.analyze(text, times=[1.0], mttf=True)
            warm = time.perf_counter() - start
            unreliability = response["measures"][0]["values"][0]
            print(f"Unreliability(t=1) = {unreliability:.6f}  (paper: 0.6579)")
            print(
                f"cold {cold * 1e3:.1f} ms (cache "
                f"{cold_response['service']['cache']}) -> warm "
                f"{warm * 1e3:.1f} ms (cache {response['service']['cache']}, "
                f"{cold / warm:.0f}x)"
            )

            # 4. A sweep over the cached skeleton: one instantiation per
            #    sample, no conversion or aggregation.
            sweep = client.sweep(PARAM_TREE, axes={"lam": [0.1, 0.5, 1.0, 2.0]})
            print(f"sweep over lam (skeleton cache {sweep['service']['cache']}):")
            for row in sweep["rows"]:
                value = row["measures"][0]["values"][0]
                print(f"  lam={row['sample']['lam']:<4} -> U(t=1) = {value:.6f}")

            # 5. Server-side request metrics and cache statistics.
            metrics = client.metrics()
            analyze_stats = metrics["endpoints"]["/analyze"]
            print(
                f"metrics: {analyze_stats['requests']} analyze requests, "
                f"p95 {analyze_stats['p95_ms']:.1f} ms; "
                f"{metrics['store']['entries']} cache entries, "
                f"{metrics['store']['hits']} hits"
            )
        finally:
            server.shutdown()
            server.server_close()


if __name__ == "__main__":
    main()
