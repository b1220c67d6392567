"""``repro-serve`` / ``repro-router`` / ``repro-loadgen`` entry points.

Usage::

    repro-serve --port 8077 --workers 4          # start one query replica
    REPRO_ACCESS_LOG=access.log repro-serve      # JSON access log to a file
    REPRO_ACCESS_LOG=0 repro-serve               # silence the access log

    repro-router --port 8070 \\
        --replica http://127.0.0.1:8077 \\
        --replica http://127.0.0.1:8078           # shard scenes across replicas

    repro-loadgen --url http://127.0.0.1:8077 \\
        --model head --resolution 32 --pivot 0 -30 5 \\
        -n 64 -c 8 --distinct 4 --grid 16 16 --json loadgen.json

The load generator replays ``-n`` queries from ``-c`` concurrent client
threads, cycling through ``--distinct`` pivot variants — so identical
requests land in flight together (exercising coalescing) and repeat
after completion (exercising the result cache).  ``503`` rejections are
retried honoring the ``Retry-After`` *header* (falling back to the JSON
body's ``retry_after_s``), with jitter, bounded by ``--retries`` and a
total per-request ``--retry-budget-s``; every request ends in exactly
one **disposition** (``ok`` / ``ok_retried`` / ``rejected`` /
``unreachable`` / ``timeout`` / ``http_error``) counted in the report.
It reports throughput, latency percentiles, per-status-code counts (the
first non-200 response body is kept verbatim for diagnosis), and
per-query-class cost percentiles, and ``--json`` writes a standard
:mod:`repro.obs.report` run report, so serving performance is gated by
``repro-bench compare`` and inspected by ``repro-obs diff`` exactly
like bench runs.

Against a ``repro-router``, add ``--cluster``: the run is preceded and
followed by scrapes of the router's ``/v1/ring`` and of every replica's
own metrics, and the report gains a per-replica breakdown (health
state, routed requests/errors, replica-side served tiers) plus the
router's hedge/failover/re-registration counters — one aggregate
report for the whole fleet.

``--prometheus-check`` additionally scrapes
``/v1/metrics?format=prometheus`` after the run, validates the
exposition with :func:`repro.obs.expo.parse_prometheus`, and asserts it
agrees with the JSON snapshot.

Exit codes: ``0`` success, ``1`` the load run saw failed requests (or
the Prometheus parity check failed), ``2`` usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.service.wire import (
    ServiceTimeout,
    TransportError,
    http_json,
    http_text,
    retry_after_from,
)

__all__ = ["main", "main_router", "main_loadgen"]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "loadgen":
        return main_loadgen(argv[1:])
    if argv and argv[0] == "router":
        return main_router(argv[1:])
    if argv and argv[0] == "serve":
        argv = argv[1:]
    return _main_serve(argv)


# ---------------------------------------------------------------------------
# repro-serve
# ---------------------------------------------------------------------------


def _main_serve(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve accessibility-map queries over JSON/HTTP "
        "(scene registry + request coalescing + result cache).",
        epilog="Use 'repro-loadgen' (or 'repro-serve loadgen') to load-test it, "
        "'repro-router' to shard scenes across several instances.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8077, help="0 picks a free port")
    parser.add_argument(
        "--workers", default="1",
        help="worker processes per query (int or 'auto'; default 1 = serial)",
    )
    parser.add_argument(
        "--max-scenes", type=int, default=8,
        help="LRU bound on resident scenes (default 8)",
    )
    parser.add_argument(
        "--cache-entries", type=int, default=256,
        help="result-cache entry bound (default 256)",
    )
    parser.add_argument(
        "--cache-mb", type=float, default=256.0,
        help="result-cache byte bound in MiB (default 256)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=32,
        help="dispatch-queue bound; beyond it requests get 503 (default 32)",
    )
    parser.add_argument(
        "--dispatch-threads", type=int, default=1,
        help="concurrent query computations (default 1: queries serialize, "
        "each parallelizing internally over --workers processes)",
    )
    args = parser.parse_args(argv)

    from repro.engine.pool import resolve_workers
    from repro.service.core import Service
    from repro.service.http import serve

    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    service = Service(
        workers=workers,
        max_scenes=args.max_scenes,
        cache_entries=args.cache_entries,
        cache_bytes=int(args.cache_mb * 1024 * 1024),
        max_queue=args.max_queue,
        dispatch_threads=args.dispatch_threads,
    )
    server = serve(service, args.host, args.port)
    host, port = server.server_address[:2]
    from repro.obs.log import get_access_log

    log = get_access_log()
    log_dest = log.path or "stderr" if log.enabled else "off"
    print(
        f"repro-serve listening on http://{host}:{port} "
        f"(workers={workers}, access log: {log_dest})"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    return 0


# ---------------------------------------------------------------------------
# repro-router
# ---------------------------------------------------------------------------


def main_router(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-router",
        description="Route /v1/scenes and /v1/cd across repro-serve replicas "
        "by consistent-hashed scene digest, with health tracking, 503 "
        "retries, request hedging, and failover re-registration.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8070, help="0 picks a free port")
    parser.add_argument(
        "--replica", action="append", default=[], metavar="URL",
        help="a repro-serve base URL (repeatable)",
    )
    parser.add_argument(
        "--replicas", default=None, metavar="URL,URL,...",
        help="comma-separated replica list (alternative to repeated --replica)",
    )
    parser.add_argument(
        "--vnodes", type=int, default=64,
        help="virtual nodes per replica on the hash ring (default 64)",
    )
    parser.add_argument(
        "--hedge-after-ms", type=float, default=250.0,
        help="hedge a still-unanswered /v1/cd to the next ring replica "
        "after this many ms (default 250)",
    )
    parser.add_argument(
        "--retry-budget-s", type=float, default=5.0,
        help="total time the router may spend retrying 503s per request "
        "(default 5)",
    )
    parser.add_argument(
        "--probe-interval-s", type=float, default=2.0,
        help="health-probe period for live replicas (default 2)",
    )
    parser.add_argument(
        "--down-after", type=int, default=3,
        help="consecutive failures before a replica is DOWN (default 3)",
    )
    parser.add_argument(
        "--up-after", type=int, default=2,
        help="consecutive successes before a DOWN replica is HEALTHY again "
        "(default 2)",
    )
    parser.add_argument("--name", default=None, help="router identity header value")
    parser.add_argument(
        "--trace-export", metavar="PATH", default=None,
        help="on shutdown, write the router's recorded spans as OTLP-JSON "
        "(requires REPRO_TRACE=1)",
    )
    args = parser.parse_args(argv)

    replicas = [r for r in args.replica]
    if args.replicas:
        replicas.extend(r.strip() for r in args.replicas.split(",") if r.strip())
    if not replicas:
        print("give at least one --replica URL", file=sys.stderr)
        return 2

    from repro.cluster.router import ClusterRouter, serve_router

    try:
        router = ClusterRouter(
            replicas,
            vnodes=args.vnodes,
            hedge_after_s=args.hedge_after_ms / 1e3,
            retry_budget_s=args.retry_budget_s,
            probe_interval_s=args.probe_interval_s,
            down_after=args.down_after,
            up_after=args.up_after,
            name=args.name,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    server = serve_router(router, args.host, args.port)
    host, port = server.server_address[:2]
    print(
        f"repro-router listening on http://{host}:{port} "
        f"({len(replicas)} replicas, vnodes={args.vnodes}, "
        f"hedge after {args.hedge_after_ms:g}ms)"
    )
    router.start()

    def _sigterm(signum, frame):  # make `kill` unwind like ^C: flush + export
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown()
        server.server_close()
        router.close()
        if args.trace_export:
            from repro.obs.otlp import otlp_json
            from repro.obs.trace import get_tracer

            tracer = get_tracer()
            if tracer.enabled and tracer.records:
                with open(args.trace_export, "w") as fh:
                    fh.write(otlp_json(tracer, service_name="repro-router"))
                print(
                    f"[{len(tracer.records)} router spans exported "
                    f"to {args.trace_export}]"
                )
            else:
                print(
                    "no spans to export (set REPRO_TRACE=1 to record them)",
                    file=sys.stderr,
                )
    return 0


# ---------------------------------------------------------------------------
# repro-loadgen
# ---------------------------------------------------------------------------


def _prometheus_parity_problems(base: str) -> list[str]:
    """Scrape both encodings of ``/v1/metrics`` and compare them.

    Returns human-readable problems (empty = the exposition parses
    cleanly and agrees with the JSON snapshot; sliding-window gauges are
    checked for presence only, since each scrape recomputes them).
    """
    from repro.obs.expo import parse_prometheus, snapshot_parity_problems

    status, snapshot, _ = http_json(f"{base}/v1/metrics")
    if status != 200:
        return [f"JSON metrics scrape failed ({status})"]
    status, text = http_text(f"{base}/v1/metrics?format=prometheus")
    if status != 200:
        return [f"prometheus scrape failed ({status})"]
    try:
        families = parse_prometheus(text)
    except ValueError as exc:
        return [f"exposition does not parse: {exc}"]
    return snapshot_parity_problems(snapshot, families)


def _percentile(sorted_ms: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (ms)."""
    if not sorted_ms:
        return 0.0
    rank = max(1, int(-(-q * len(sorted_ms) // 1)))  # ceil(q * n)
    return sorted_ms[min(rank, len(sorted_ms)) - 1]


def _counter_value(metrics: dict, name: str) -> float:
    m = metrics.get(name, {})
    return float(m.get("value", 0) or 0) if m.get("type") == "counter" else 0.0


def _counter_delta(before: dict, after: dict, name: str) -> float:
    return _counter_value(after, name) - _counter_value(before, name)


def _scrape_cluster(base: str):
    """The router's ring view plus each replica's own metrics snapshot.

    Returns ``(ring, {replica: metrics or None})``; replica scrape
    failures are tolerated (a dead replica is part of what the report
    should show, not a reason to lose the report).
    """
    status, ring, _ = http_json(f"{base}/v1/ring", timeout=30.0)
    if status != 200:
        raise TransportError(base, f"/v1/ring answered {status} (not a repro-router?)")
    per_replica = {}
    for replica in ring.get("replicas", []):
        try:
            r_status, snapshot, _ = http_json(f"{replica}/v1/metrics", timeout=30.0)
            per_replica[replica] = snapshot if r_status == 200 else None
        except TransportError:
            per_replica[replica] = None
    return ring, per_replica


def main_loadgen(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-loadgen",
        description="Replay concurrent accessibility queries against a "
        "repro-serve instance (or a repro-router with --cluster) and report "
        "throughput/latency percentiles.",
    )
    parser.add_argument("--url", required=True, help="base URL of a running repro-serve")
    scene = parser.add_argument_group("scene (register one, or reuse a digest)")
    scene.add_argument("--scene", default=None, help="existing scene digest to query")
    scene.add_argument(
        "--model", default=None,
        help="register a built-in model (head/candle_holder/turbine/teapot)",
    )
    scene.add_argument("--resolution", type=int, default=32)
    scene.add_argument(
        "--pivot", type=float, nargs=3, default=None, metavar=("X", "Y", "Z"),
        help="base pivot; required to vary pivots across --distinct variants",
    )
    scene.add_argument("--tool", default="paper", help="'paper', 'ball' (default paper)")
    load = parser.add_argument_group("load shape")
    load.add_argument("-n", "--requests", type=int, default=64)
    load.add_argument("-c", "--concurrency", type=int, default=8)
    load.add_argument(
        "--distinct", type=int, default=4,
        help="distinct query variants cycled through (duplicates coalesce/cache)",
    )
    load.add_argument("--grid", type=int, nargs=2, default=(16, 16), metavar=("M", "N"))
    load.add_argument("--method", default="AICA")
    load.add_argument("--workers", type=int, default=0, help="per-query workers (0 = server default)")
    load.add_argument("--retries", type=int, default=8, help="max retries per request on 503")
    load.add_argument(
        "--retry-budget-s", type=float, default=30.0,
        help="cap on total retry backoff per request (default 30)",
    )
    load.add_argument(
        "--timeout-s", type=float, default=300.0,
        help="per-attempt HTTP timeout (default 300)",
    )
    parser.add_argument(
        "--cluster", action="store_true",
        help="the URL is a repro-router: scrape /v1/ring and every replica's "
        "metrics, and add a per-replica breakdown to the report",
    )
    parser.add_argument("--json", metavar="PATH", default=None, help="write a run report")
    parser.add_argument(
        "--prometheus-check", action="store_true",
        help="after the run, scrape /v1/metrics?format=prometheus, validate "
        "the exposition, and assert parity with the JSON snapshot",
    )
    args = parser.parse_args(argv)

    base = args.url.rstrip("/")
    if args.requests < 1 or args.concurrency < 1 or args.distinct < 1:
        print("requests, concurrency and distinct must be >= 1", file=sys.stderr)
        return 2

    # -- resolve the scene ------------------------------------------------
    pivot = list(args.pivot) if args.pivot is not None else None
    if args.scene is not None:
        digest = args.scene
    elif args.model is not None:
        if pivot is None:
            print("--model registration needs --pivot", file=sys.stderr)
            return 2
        try:
            status, payload, _ = http_json(
                f"{base}/v1/scenes",
                {
                    "model": args.model,
                    "resolution": args.resolution,
                    "tool": args.tool,
                    "pivot": pivot,
                },
                timeout=args.timeout_s,
            )
        except TransportError as exc:
            print(f"scene registration failed: {exc}", file=sys.stderr)
            return 2
        if status != 200:
            print(f"scene registration failed ({status}): {payload}", file=sys.stderr)
            return 2
        digest = payload["scene"]
        print(f"registered scene {digest[:16]}… ({payload['nodes']} nodes)")
        if args.cluster and isinstance(payload.get("cluster"), dict):
            print(
                f"  owner {payload['cluster']['owner']} "
                f"(on {len(payload['cluster']['registered_on'])} replica(s))"
            )
    else:
        print("give --scene DIGEST or --model NAME", file=sys.stderr)
        return 2

    # -- build the distinct variants --------------------------------------
    if args.distinct > 1 and pivot is None:
        print("--distinct > 1 needs --pivot to derive variants", file=sys.stderr)
        return 2
    variants = []
    for i in range(args.distinct):
        spec = {
            "scene": digest,
            "grid": list(args.grid),
            "method": args.method,
            "include_map": False,
        }
        if args.workers:
            spec["workers"] = args.workers
        if i > 0:
            # Nudge the pivot along z: same scene, a genuinely distinct query.
            spec["pivot"] = [pivot[0], pivot[1], pivot[2] + 0.25 * i]
        variants.append(spec)

    # -- fire -------------------------------------------------------------
    try:
        status0, metrics0, _ = http_json(f"{base}/v1/metrics", timeout=30.0)
    except TransportError as exc:
        print(f"cannot read metrics: {exc}", file=sys.stderr)
        return 2
    if status0 != 200:
        print(f"cannot read metrics ({status0})", file=sys.stderr)
        return 2
    cluster0 = None
    if args.cluster:
        try:
            cluster0 = _scrape_cluster(base)
        except TransportError as exc:
            print(f"--cluster scrape failed: {exc}", file=sys.stderr)
            return 2

    latencies_ms: list[float] = []
    ok = 0
    errors = 0
    retries_used = 0
    status_counts: dict[int, int] = {}
    dispositions: dict[str, int] = {}
    first_error: dict | None = None  # {"status": int|None, "body": str} of the first failure
    # Per-query-class cost ledgers (class = variant index): each 200
    # response carries the request's attributed cost, the capacity-
    # planning signal a sharding tier sizes replicas by.
    class_costs: dict[int, list[dict]] = {i: [] for i in range(len(variants))}
    lock = threading.Lock()
    rng = random.Random()

    def one(i: int) -> None:
        nonlocal ok, errors, retries_used, first_error
        cls = i % len(variants)
        body = variants[cls]
        t0 = time.perf_counter()
        budget_end = t0 + args.retry_budget_s
        status: int | None = None
        payload: dict = {}
        disposition = "ok"
        attempts = 0
        while True:
            attempts += 1
            try:
                status, payload, headers = http_json(
                    f"{base}/v1/cd", dict(body), timeout=args.timeout_s
                )
            except ServiceTimeout as exc:
                status, payload, disposition = None, {"error": str(exc)}, "timeout"
                break
            except TransportError as exc:
                status, payload, disposition = None, {"error": str(exc)}, "unreachable"
                break
            if status == 503 and attempts <= args.retries:
                # Honor the Retry-After header (body retry_after_s as the
                # fallback), jittered so retries from -c concurrent
                # clients don't re-converge on the same instant.
                delay = retry_after_from(headers, payload)
                delay += rng.uniform(0.0, 0.25 * delay + 0.01)
                if time.perf_counter() + delay > budget_end:
                    disposition = "rejected"
                    break
                with lock:
                    retries_used += 1
                    status_counts[503] = status_counts.get(503, 0) + 1
                time.sleep(delay)
                continue
            break
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        with lock:
            if status is not None:
                status_counts[status] = status_counts.get(status, 0) + 1
            if status == 200:
                ok += 1
                if disposition == "ok" and attempts > 1:
                    disposition = "ok_retried"
                latencies_ms.append(elapsed_ms)
                cost = payload.get("cost")
                if isinstance(cost, dict):
                    class_costs[cls].append(cost)
            else:
                errors += 1
                if disposition == "ok":
                    disposition = "rejected" if status == 503 else "http_error"
                if first_error is None:
                    first_error = {
                        "status": None if status is None else int(status),
                        "body": json.dumps(payload)[:500],
                    }
            dispositions[disposition] = dispositions.get(disposition, 0) + 1

    wall0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=args.concurrency) as pool:
        list(pool.map(one, range(args.requests)))
    wall_s = time.perf_counter() - wall0

    _, metrics1, _ = http_json(f"{base}/v1/metrics", timeout=30.0)
    hits = _counter_delta(metrics0, metrics1, "service.cache.hits")
    misses = _counter_delta(metrics0, metrics1, "service.cache.misses")
    coalesced = _counter_delta(metrics0, metrics1, "service.coalesced")
    hit_rate = hits / (hits + misses) if hits + misses else 0.0

    latencies_ms.sort()
    p50 = _percentile(latencies_ms, 0.50)
    p95 = _percentile(latencies_ms, 0.95)
    p99 = _percentile(latencies_ms, 0.99)
    mean_ms = sum(latencies_ms) / len(latencies_ms) if latencies_ms else 0.0
    rps = ok / wall_s if wall_s > 0 else 0.0

    print(
        f"{ok}/{args.requests} ok ({errors} failed, {retries_used} retries) "
        f"in {wall_s:.2f}s = {rps:.1f} req/s"
    )
    print(f"latency ms: p50 {p50:.1f}  p95 {p95:.1f}  p99 {p99:.1f}  mean {mean_ms:.1f}")
    print(f"cache hit rate {hit_rate:.0%} ({hits:g} hits), {coalesced:g} coalesced")
    print(
        "dispositions: "
        + "  ".join(f"{d}×{n}" for d, n in sorted(dispositions.items()))
    )

    # -- per-class cost percentiles ---------------------------------------
    cost_rows: list[list] = []
    for cls in sorted(class_costs):
        ledgers = class_costs[cls]
        if not ledgers:
            continue
        cpu = sorted(c.get("cpu_ms", 0.0) for c in ledgers)
        queue = sorted(c.get("queue_wait_ms", 0.0) for c in ledgers)
        computed = sum(1 for c in ledgers if c.get("served") == "computed")
        cost_rows.append([
            cls, len(ledgers),
            round(_percentile(cpu, 0.50), 2), round(_percentile(cpu, 0.95), 2),
            round(_percentile(queue, 0.50), 2), round(_percentile(queue, 0.95), 2),
            computed,
        ])
    if cost_rows:
        print("cost per query class (attributed CPU / queue-wait ms):")
        print(
            f"  {'class':>5} {'n':>5} {'cpu p50':>9} {'cpu p95':>9} "
            f"{'queue p50':>10} {'queue p95':>10} {'computed':>9}"
        )
        for row in cost_rows:
            print(
                f"  {row[0]:>5} {row[1]:>5} {row[2]:>9.2f} {row[3]:>9.2f} "
                f"{row[4]:>10.2f} {row[5]:>10.2f} {row[6]:>9}"
            )
    print(
        "status codes: "
        + "  ".join(f"{code}×{n}" for code, n in sorted(status_counts.items()))
    )
    if first_error is not None:
        print(
            f"first error ({first_error['status']}): {first_error['body']}",
            file=sys.stderr,
        )

    # -- per-replica cluster breakdown ------------------------------------
    cluster_rows: list[list] = []
    cluster_meta: dict | None = None
    if args.cluster and cluster0 is not None:
        ring0, replicas0 = cluster0
        try:
            ring1, replicas1 = _scrape_cluster(base)
        except TransportError as exc:
            print(f"--cluster post-run scrape failed: {exc}", file=sys.stderr)
            ring1, replicas1 = ring0, {r: None for r in replicas0}
        from repro.cluster.health import replica_label

        for replica in ring1.get("replicas", []):
            label = replica_label(replica)
            routed = _counter_delta(
                metrics0, metrics1, f"cluster.replica.{label}.requests"
            )
            routed_errors = _counter_delta(
                metrics0, metrics1, f"cluster.replica.{label}.errors"
            )
            before, after = replicas0.get(replica), replicas1.get(replica)
            if before is not None and after is not None:
                served = _counter_delta(before, after, "service.requests")
                computed = _counter_delta(before, after, "service.requests.computed")
                r_hits = _counter_delta(before, after, "service.cache.hits")
            else:
                served = computed = r_hits = -1  # replica unreadable (e.g. killed)
            cluster_rows.append([
                replica,
                ring1.get("health", {}).get(replica, "?"),
                int(routed), int(routed_errors),
                int(served), int(computed), int(r_hits),
            ])
        cluster_meta = {
            "router": ring1.get("router"),
            "replicas": ring1.get("replicas", []),
            "vnodes": ring1.get("vnodes"),
            "health": ring1.get("health", {}),
            "hedge_fired": _counter_delta(metrics0, metrics1, "cluster.hedge.fired"),
            "hedge_wins": _counter_delta(metrics0, metrics1, "cluster.hedge.wins"),
            "failover": _counter_delta(metrics0, metrics1, "cluster.failover"),
            "retry_503": _counter_delta(metrics0, metrics1, "cluster.retry.503"),
            "reregistered": _counter_delta(
                metrics0, metrics1, "cluster.reregistered"
            ),
        }
        print("cluster: per-replica breakdown (routed by router / served by replica):")
        print(
            f"  {'replica':<28} {'state':>9} {'routed':>7} {'errors':>7} "
            f"{'served':>7} {'computed':>9} {'hits':>6}"
        )
        for row in cluster_rows:
            print(
                f"  {row[0]:<28} {row[1]:>9} {row[2]:>7} {row[3]:>7} "
                f"{row[4]:>7} {row[5]:>9} {row[6]:>6}"
            )
        print(
            f"cluster: {cluster_meta['hedge_fired']:g} hedges "
            f"({cluster_meta['hedge_wins']:g} won), "
            f"{cluster_meta['failover']:g} failovers, "
            f"{cluster_meta['retry_503']:g} 503-retries, "
            f"{cluster_meta['reregistered']:g} re-registrations"
        )

    if args.json is not None:
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.report import build_report

        reg = MetricsRegistry()
        reg.counter("loadgen.requests").inc(args.requests)
        reg.counter("loadgen.ok").inc(ok)
        reg.counter("loadgen.errors").inc(errors)
        reg.counter("loadgen.retries").inc(retries_used)
        reg.counter("loadgen.wall_s").inc(wall_s)
        reg.counter("loadgen.p50_ms").inc(p50)
        reg.counter("loadgen.p95_ms").inc(p95)
        reg.counter("loadgen.p99_ms").inc(p99)
        reg.counter("loadgen.mean_ms").inc(mean_ms)
        reg.counter("loadgen.cache_hits").inc(max(0.0, hits))
        reg.counter("loadgen.coalesced").inc(max(0.0, coalesced))
        # Per-status-code response counts (retried 503s included, so the
        # sum over codes is the number of responses seen, not -n).
        for code, count in sorted(status_counts.items()):
            reg.counter(f"loadgen.status.{code}").inc(count)
        # One disposition per request: these sum to exactly -n.
        for disposition, count in sorted(dispositions.items()):
            reg.counter(f"loadgen.disposition.{disposition}").inc(count)
        if cluster_meta is not None:
            for key in ("hedge_fired", "hedge_wins", "failover",
                        "retry_503", "reregistered"):
                reg.counter(f"loadgen.cluster.{key}").inc(
                    max(0.0, cluster_meta[key])
                )
        reg.gauge("loadgen.rps").set(rps)
        reg.gauge("loadgen.cache_hit_rate").set(hit_rate)
        reg.histogram("loadgen.latency_ms").observe_many(latencies_ms or [0.0])
        all_costs = [c for ledgers in class_costs.values() for c in ledgers]
        if all_costs:
            reg.histogram("loadgen.cost.cpu_ms").observe_many(
                [c.get("cpu_ms", 0.0) for c in all_costs]
            )
            reg.histogram("loadgen.cost.queue_wait_ms").observe_many(
                [c.get("queue_wait_ms", 0.0) for c in all_costs]
            )
        report = build_report(
            "loadgen",
            metrics=reg,
            meta={
                "url": base,
                "scene": digest,
                "requests": args.requests,
                "concurrency": args.concurrency,
                "distinct": args.distinct,
                "grid": list(args.grid),
                "method": args.method,
                "workers": args.workers,
                "status_counts": {str(k): v for k, v in sorted(status_counts.items())},
                "dispositions": dict(sorted(dispositions.items())),
                "first_error": first_error,
                "cluster": cluster_meta,
            },
            results=[{
                "exp_id": "loadgen",
                "title": "Serving throughput and latency",
                "headers": [
                    "requests", "ok", "errors", "rps",
                    "p50_ms", "p95_ms", "p99_ms", "cache_hit_rate",
                ],
                "rows": [[
                    args.requests, ok, errors, round(rps, 2),
                    round(p50, 2), round(p95, 2), round(p99, 2), round(hit_rate, 4),
                ]],
            }] + ([{
                "exp_id": "loadgen.cost",
                "title": "Attributed cost percentiles per query class",
                "headers": [
                    "class", "n", "cpu_p50_ms", "cpu_p95_ms",
                    "queue_p50_ms", "queue_p95_ms", "computed",
                ],
                "rows": cost_rows,
            }] if cost_rows else []) + ([{
                "exp_id": "loadgen.cluster",
                "title": "Per-replica breakdown (routed by router, served by replica)",
                "headers": [
                    "replica", "state", "routed", "routed_errors",
                    "served", "computed", "cache_hits",
                ],
                "rows": cluster_rows,
            }] if cluster_rows else []),
        )
        try:
            report.save(args.json)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
        print(f"[report written to {args.json}]")

    parity_failed = False
    if args.prometheus_check:
        problems = _prometheus_parity_problems(base)
        if problems:
            parity_failed = True
            print(f"prometheus parity check FAILED ({len(problems)}):", file=sys.stderr)
            for problem in problems[:20]:
                print(f"  {problem}", file=sys.stderr)
        else:
            print("prometheus parity check OK")

    return 1 if errors or parity_failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
