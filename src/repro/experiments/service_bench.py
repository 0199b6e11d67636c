"""Load-test harness for the policy service (DESIGN.md §4j).

Boots a :class:`~repro.service.server.ServiceThread` and drives it with
concurrent keep-alive clients over real sockets (stdlib
``http.client``), mixing the four routes with a deliberately *repetitive*
payload pool so the response cache sees hits.  Produces the
``BENCH_service.json`` document, whose gate table
:data:`SERVICE_GATES` holds:

* ``p99_latency_under_bound`` — p99 request latency under
  :data:`P99_LATENCY_BOUND_SECONDS`;
* ``throughput_at_least`` — sustained req/s at or above
  :data:`THROUGHPUT_BOUND_RPS` (skipped on single-core hosts, where
  clients and server fight for the same core);
* ``cache_hit_rate_positive`` — the LRU sees hits on the repeated
  workload;
* ``byte_identical_responses`` — two cosmetically different spellings of
  the same policy canonicalize to the same cache slot and come back
  byte-for-byte identical;
* ``all_responses_ok`` — the load run produces no non-200 response.

``serve``/``service-bench`` in the CLI and
``benchmarks/bench_perf_service.py`` are thin wrappers over this module.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time

from repro.experiments.gates import Gate, evaluate, host_facts
from repro.service.ratelimit import RateLimitConfig
from repro.service.server import PolicyService, ServiceThread

#: Generous single-request p99 bound — the adapters are microsecond-scale,
#: so even a loaded CI container clears this by an order of magnitude.
P99_LATENCY_BOUND_SECONDS = 0.25
#: Sustained throughput floor across all clients (multi-core hosts only).
THROUGHPUT_BOUND_RPS = 150.0
#: Below this many cores the throughput gate is unevaluable: the client
#: threads and the server loop contend for one core.
THROUGHPUT_MIN_CPUS = 2

DEFAULT_CLIENTS = 8
DEFAULT_REQUESTS_PER_CLIENT = 120
#: Distinct /evaluate payloads cycled by every client; smaller pool →
#: more cache hits.
DEFAULT_PAYLOAD_POOL = 12


def _evaluate_payload(index: int) -> dict:
    """The ``index``-th distinct /evaluate request of the pool."""
    return {"requests": [{
        "top_url": f"https://site-{index:04d}.example",
        "header": "camera=(self), microphone=(), "
                  f"geolocation=(self \"https://maps-{index % 3}.example\")",
        "frames": [{
            "url": f"https://widget-{index % 4}.example/embed",
            "allow": "camera; geolocation",
        }],
        "features": ["camera", "microphone", "geolocation"],
    }]}


#: Cosmetic variants of one request: same canonical policy text, different
#: spelling.  Both must come back byte-identical from the cache.
_VARIANT_A = {"requests": [{
    "top_url": "https://byteid.example",
    "header": "camera=(self),   microphone=()",
    "features": ["camera", "microphone"],
}]}
_VARIANT_B = {"requests": [{
    "top_url": "https://byteid.example",
    "header": "camera=(self), microphone=()",
    "features": ["camera", "microphone"],
}]}


class _Client(threading.Thread):
    """One keep-alive load generator."""

    def __init__(self, host: str, port: int, client_id: int,
                 requests: int, pool: int) -> None:
        super().__init__(name=f"svc-bench-{client_id}", daemon=True)
        self._host = host
        self._port = port
        self._client_id = client_id
        self._requests = requests
        self._pool = pool
        self.latencies: list[float] = []
        self.statuses: dict[int, int] = {}
        self.error: "BaseException | None" = None

    def run(self) -> None:
        try:
            connection = http.client.HTTPConnection(
                self._host, self._port, timeout=30.0)
            headers = {"Content-Type": "application/json",
                       "X-Client-Id": f"bench-{self._client_id}"}
            for sequence in range(self._requests):
                kind = sequence % 4
                started = time.perf_counter()
                if kind == 3:
                    connection.request("GET", "/registry", headers=headers)
                else:
                    if kind == 2:
                        body = json.dumps({"preset": "disable-powerful"})
                        path = "/generate-header"
                    else:
                        body = json.dumps(_evaluate_payload(
                            (self._client_id + sequence) % self._pool))
                        path = "/evaluate"
                    connection.request("POST", path, body=body,
                                       headers=headers)
                response = connection.getresponse()
                response.read()
                self.latencies.append(time.perf_counter() - started)
                self.statuses[response.status] = \
                    self.statuses.get(response.status, 0) + 1
            connection.close()
        except BaseException as exc:  # surface in the parent, not stderr
            self.error = exc


def _percentile(samples: "list[float]", fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(len(ordered) * fraction))
    return ordered[index]


def _byte_identity_probe(host: str, port: int) -> dict:
    """Send the two cosmetic variants twice each; compare raw bodies."""
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    headers = {"Content-Type": "application/json",
               "X-Client-Id": "bench-byteid"}
    bodies = []
    for payload in (_VARIANT_A, _VARIANT_B, _VARIANT_A):
        connection.request("POST", "/evaluate", body=json.dumps(payload),
                           headers=headers)
        response = connection.getresponse()
        bodies.append(response.read())
    connection.close()
    return {
        "variant_bodies_identical": bodies[0] == bodies[1] == bodies[2],
        "body_bytes": len(bodies[0]),
    }


def _needs_cores(report: dict) -> "str | None":
    cpus = report["cpu_count"]
    return None if cpus >= THROUGHPUT_MIN_CPUS else (
        f"single-core host (cpu_count={cpus}): client threads and the "
        "server loop share one core, so req/s measures contention, not "
        "the service")


SERVICE_GATES = (
    Gate("p99_latency_under_bound", lambda r: r["load"][
        "p99_latency_seconds"] < P99_LATENCY_BOUND_SECONDS),
    Gate("throughput_at_least", lambda r: r["load"][
        "requests_per_second"] >= THROUGHPUT_BOUND_RPS, _needs_cores),
    Gate("cache_hit_rate_positive", lambda r: r["cache"]["hit_rate"] > 0),
    Gate("byte_identical_responses",
         lambda r: r["byte_identity"]["variant_bodies_identical"]),
    Gate("all_responses_ok", lambda r: r["load"]["non_200_responses"] == 0),
)


def collect_service_bench(*, clients: int = DEFAULT_CLIENTS,
                          requests_per_client: int =
                          DEFAULT_REQUESTS_PER_CLIENT,
                          payload_pool: int = DEFAULT_PAYLOAD_POOL) -> dict:
    """Run the load test and build the full BENCH_service.json document."""
    service = PolicyService(
        rate_limit=RateLimitConfig(requests_per_second=100_000.0,
                                   burst=100_000))
    with ServiceThread(service) as thread:
        host, port = thread.address
        workers = [_Client(host, port, client_id, requests_per_client,
                           payload_pool) for client_id in range(clients)]
        started = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        elapsed = time.perf_counter() - started
        for worker in workers:
            if worker.error is not None:
                raise RuntimeError(
                    f"load client {worker.name} failed") from worker.error
        byte_identity = _byte_identity_probe(host, port)
        cache_stats = service.cache.stats()
        limiter_stats = service.limiter.stats()
        served = service.request_count

    latencies = [sample for worker in workers
                 for sample in worker.latencies]
    statuses: dict[int, int] = {}
    for worker in workers:
        for status, count in worker.statuses.items():
            statuses[status] = statuses.get(status, 0) + count
    total = len(latencies)
    return evaluate({
        "clients": clients,
        "requests_per_client": requests_per_client,
        "payload_pool": payload_pool,
        **host_facts(),
        "load": {
            "requests": total,
            "seconds": round(elapsed, 4),
            "requests_per_second": round(total / elapsed, 2),
            "mean_latency_seconds": round(statistics.fmean(latencies), 6),
            "p50_latency_seconds": round(_percentile(latencies, 0.50), 6),
            "p99_latency_seconds": round(_percentile(latencies, 0.99), 6),
            "max_latency_seconds": round(max(latencies), 6),
            "statuses": {str(k): v for k, v in sorted(statuses.items())},
            "non_200_responses": sum(
                count for status, count in statuses.items()
                if status != 200),
        },
        "cache": cache_stats,
        "limiter": limiter_stats,
        "requests_served": served,
        "byte_identity": byte_identity,
    }, SERVICE_GATES)
