"""Retry/backoff HTTP client of the analysis service (stdlib ``urllib`` only).

:class:`ServiceClient` mirrors the server's endpoints one method each and
speaks the same JSON schemas; trees may be passed as Galileo text or as
in-memory :class:`~repro.dft.tree.DynamicFaultTree` objects (serialised with
:func:`repro.dft.galileo.write` — note the writer quantises rates at
``%.10g``, so an exact-comparison harness should parse the written text on
both sides).

Requests are built as :class:`~repro.core.requests.QuerySpec` and
:class:`~repro.core.requests.SweepSpec`, the server's own decoders, so a bad
value fails here before anything is sent.  Transport failures (connection
refused, 502/503/504) are retried with
exponential backoff; 4xx responses and 500 (a request the server failed on,
which a retry would only fail again) raise :class:`ServiceError` immediately
with the server's error message attached.
"""

from __future__ import annotations

import json
import time as _time
import urllib.error
import urllib.request
from typing import Dict, Mapping, Optional, Sequence, Union

from ..core.requests import QuerySpec, SweepSpec
from ..core.results import StudyResult
from ..dft import galileo
from ..dft.tree import DynamicFaultTree
from ..errors import ReproError

TreeLike = Union[str, DynamicFaultTree]


class ServiceError(ReproError):
    """A request the service rejected or a server that stayed unreachable."""

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        payload: Optional[Dict[str, object]] = None,
    ):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


def _tree_text(tree: TreeLike) -> str:
    if isinstance(tree, DynamicFaultTree):
        return galileo.write(tree)
    if not isinstance(tree, str) or not tree.strip():
        raise ServiceError(
            "a tree must be a DynamicFaultTree or a Galileo description string"
        )
    return tree


class ServiceClient:
    """A thin, dependency-free client for one service base URL."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        retries: int = 3,
        backoff: float = 0.1,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)

    # ------------------------------------------------------------- transport
    def _request(
        self, method: str, path: str, payload: Optional[Mapping[str, object]] = None
    ) -> Dict[str, object]:
        url = self.base_url + path
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        last_error: Optional[str] = None
        for attempt in range(self.retries + 1):
            request = urllib.request.Request(
                url,
                data=body,
                method=method,
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    return json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as error:
                detail: Dict[str, object] = {}
                try:
                    detail = json.loads(error.read().decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    pass
                message = str(detail.get("error", f"HTTP {error.code}"))
                if error.code <= 500:
                    raise ServiceError(
                        f"{method} {path} failed: {message}",
                        status=error.code,
                        payload=detail,
                    ) from None
                last_error = f"HTTP {error.code}: {message}"
            except urllib.error.URLError as error:
                last_error = str(error.reason)
            except (TimeoutError, ConnectionError) as error:
                last_error = str(error)
            if attempt < self.retries:
                _time.sleep(self.backoff * (2 ** attempt))
        raise ServiceError(
            f"{method} {url} failed after {self.retries + 1} attempts: {last_error}"
        )

    # ------------------------------------------------------------- endpoints
    # ``**query`` takes the fields of a QuerySpec: times, bounds, mttf and
    # unavailability.
    def analyze(self, tree: TreeLike, **query) -> Dict[str, object]:
        """``POST /analyze``: the raw ``repro.study/1`` response dict."""
        payload = {"tree": _tree_text(tree), "query": QuerySpec(**query).to_payload()}
        return self._request("POST", "/analyze", payload)

    def analyze_result(self, tree: TreeLike, **query) -> StudyResult:
        """Like :meth:`analyze`, parsed back into a :class:`StudyResult`."""
        return StudyResult.from_dict(self.analyze(tree, **query))

    def sweep(
        self,
        tree: TreeLike,
        axes: Optional[Mapping[str, Sequence[float]]] = None,
        samples: Optional[Sequence[Mapping[str, float]]] = None,
        processes: int = SweepSpec.processes,
        **query,
    ) -> Dict[str, object]:
        """``POST /sweep``: the raw ``repro.sweep/3`` response dict."""
        spec = SweepSpec(axes, samples, QuerySpec(**query), processes)
        return self._request("POST", "/sweep", {"tree": _tree_text(tree), **spec.to_payload()})

    def batch(self, trees: Sequence[TreeLike], **query) -> Dict[str, object]:
        """``POST /batch``: the raw ``repro.batch/1`` response dict."""
        payload = {
            "trees": [_tree_text(tree) for tree in trees],
            "query": QuerySpec(**query).to_payload(),
        }
        return self._request("POST", "/batch", payload)

    def healthz(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, object]:
        return self._request("GET", "/metrics")
