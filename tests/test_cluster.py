"""The cluster tier: hash ring, health machine, wire client, router e2e.

The ring invariants are asserted *exactly* (every key either keeps its
owner or moves to the newcomer), not statistically — SHA-256 placement
is deterministic, so there is nothing to sample.  The router tests run
real ``ServiceHTTPServer`` replicas plus a real ``RouterHTTPServer`` on
loopback ports and drive them through the same wire client external
callers use.
"""

from __future__ import annotations

import base64
import io
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.health import (
    HealthMonitor,
    ReplicaHealth,
    ReplicaState,
    replica_label,
)
from repro.cluster.ring import HashRing, remapped_fraction
from repro.cluster.router import ClusterRouter, serve_router
from repro.obs.metrics import get_metrics
from repro.service.core import Service
from repro.service.http import serve
from repro.service.wire import (
    ServiceTimeout,
    ServiceUnreachable,
    http_json,
    retry_after_from,
)

REPLICAS3 = ["http://10.0.0.1:8077", "http://10.0.0.2:8077", "http://10.0.0.3:8077"]


def _keys(n: int) -> list[str]:
    return [f"scene-digest-{i:05d}" for i in range(n)]


# ---------------------------------------------------------------------------
# Consistent-hash ring
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_balanced_distribution(self):
        ring = HashRing(REPLICAS3, vnodes=64)
        counts = {r: 0 for r in REPLICAS3}
        keys = _keys(3000)
        for k in keys:
            counts[ring.owner(k)] += 1
        assert sum(counts.values()) == len(keys)
        # A chi-square-style bound: with 64 vnodes each replica's share
        # must sit within ±35% of the uniform 1/3 (the observed spread
        # is ~±10%; the slack keeps the bound meaningful, not flaky —
        # nothing here is random, so a failure means the ring changed).
        mean = len(keys) / len(REPLICAS3)
        for replica, count in counts.items():
            assert 0.65 * mean < count < 1.35 * mean, (replica, count)
        chi2 = sum((c - mean) ** 2 / mean for c in counts.values())
        assert chi2 < 40.0

    def test_join_moves_keys_only_to_the_newcomer(self):
        keys = _keys(2000)
        before = HashRing(REPLICAS3, vnodes=64)
        after = HashRing(REPLICAS3, vnodes=64)
        after.add("http://10.0.0.4:8077")
        moved = 0
        for k in keys:
            o0, o1 = before.owner(k), after.owner(k)
            # The exact invariant: no key ever shuffles between
            # survivors — it keeps its owner or joins the new replica.
            assert o1 == o0 or o1 == "http://10.0.0.4:8077", (k, o0, o1)
            moved += o1 != o0
        # ...and the newcomer takes roughly its 1/(R+1) share.
        assert 0.10 < moved / len(keys) < 0.45
        assert remapped_fraction(before, after, keys) == moved / len(keys)

    def test_leave_moves_only_the_departed_replicas_keys(self):
        keys = _keys(2000)
        extra = "http://10.0.0.4:8077"
        before = HashRing(REPLICAS3 + [extra], vnodes=64)
        after = HashRing(REPLICAS3 + [extra], vnodes=64)
        after.remove(extra)
        for k in keys:
            o0, o1 = before.owner(k), after.owner(k)
            if o0 != extra:
                assert o1 == o0, (k, o0, o1)  # survivors keep their keys
            else:
                assert o1 != extra
        assert remapped_fraction(before, after, keys) < 0.45

    def test_departing_owners_keys_go_to_its_preference_successor(self):
        ring = HashRing(REPLICAS3, vnodes=64)
        without = {
            r: HashRing([x for x in REPLICAS3 if x != r], vnodes=64)
            for r in REPLICAS3
        }
        for k in _keys(300):
            pref = ring.preference(k)
            assert pref[0] == ring.owner(k)
            assert without[pref[0]].owner(k) == pref[1]

    def test_preference_lists_distinct_and_prefix_stable(self):
        ring = HashRing(REPLICAS3, vnodes=64)
        for k in _keys(100):
            pref = ring.preference(k)
            assert len(pref) == len(REPLICAS3)
            assert len(set(pref)) == len(pref)
            assert ring.preference(k, 2) == pref[:2]
            assert ring.preference(k, 99) == pref

    def test_insertion_order_does_not_matter(self):
        a = HashRing(REPLICAS3, vnodes=32)
        b = HashRing(list(reversed(REPLICAS3)), vnodes=32)
        for k in _keys(200):
            assert a.owner(k) == b.owner(k)

    def test_cross_process_determinism(self):
        ring = HashRing(REPLICAS3, vnodes=32)
        keys = _keys(64)
        local = [ring.owner(k) for k in keys]
        code = (
            "import json\n"
            "from repro.cluster.ring import HashRing\n"
            f"ring = HashRing({REPLICAS3!r}, vnodes=32)\n"
            f"print(json.dumps([ring.owner(k) for k in {keys!r}]))\n"
        )
        env = dict(os.environ)
        # A different hash seed must not change placement: the ring
        # hashes with SHA-256, never the process-seeded hash().
        env["PYTHONHASHSEED"] = "271828"
        import repro

        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == local

    def test_membership_is_idempotent(self):
        ring = HashRing(REPLICAS3, vnodes=8)
        ring.add(REPLICAS3[0])
        assert len(ring) == 3
        ring.remove("http://not-there")
        owner = ring.owner("k")
        ring.remove(REPLICAS3[0])
        ring.remove(REPLICAS3[0])
        assert len(ring) == 2 and REPLICAS3[0] not in ring
        ring.add(REPLICAS3[0])
        assert ring.owner("k") == owner  # re-adding restores placement

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)
        with pytest.raises(ValueError):
            HashRing([""])
        empty = HashRing()
        assert empty.preference("k") == []
        with pytest.raises(LookupError):
            empty.owner("k")


# ---------------------------------------------------------------------------
# Health state machine
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self, t: float = 100.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, s: float) -> None:
        self.t += s


class TestReplicaHealth:
    def test_state_machine_transitions(self):
        h = ReplicaHealth(
            "http://r:1", down_after=3, up_after=2, clock=FakeClock()
        )
        assert h.state is ReplicaState.HEALTHY and h.routable
        h.record_failure()
        assert h.state is ReplicaState.DEGRADED and h.routable  # one blip
        h.record_failure()
        assert h.state is ReplicaState.DEGRADED
        h.record_failure()
        assert h.state is ReplicaState.DOWN and not h.routable
        # One success is not enough to re-trust a flapping replica...
        h.record_success()
        assert h.state is ReplicaState.DEGRADED and h.routable
        # ...but up_after consecutive successes are.
        h.record_success()
        assert h.state is ReplicaState.HEALTHY
        # A failure mid-recovery resets the success streak.
        h.record_failure()
        h.record_success()
        assert h.state is ReplicaState.DEGRADED
        h.record_success()
        assert h.state is ReplicaState.HEALTHY

    def test_down_probe_backoff_doubles_and_caps(self):
        clock = FakeClock()
        h = ReplicaHealth(
            "http://r:1", down_after=1, up_after=1,
            probe_interval_s=2.0, backoff_base_s=0.5, backoff_max_s=4.0,
            clock=clock,
        )
        h.record_failure()  # -> DOWN (down_after=1), next probe in 0.5s
        assert h.state is ReplicaState.DOWN
        assert h.snapshot()["backoff_s"] == 0.5
        assert not h.probe_due()
        clock.advance(0.6)
        assert h.probe_due()
        for expect in (1.0, 2.0, 4.0, 4.0):  # doubles, then caps
            h.record_failure()
            assert h.snapshot()["backoff_s"] == expect
        # Recovery resets the backoff to base.
        h.record_success()
        assert h.snapshot()["backoff_s"] == 0.0  # reported only while DOWN
        assert h.state is ReplicaState.DEGRADED

    def test_healthy_probe_schedule(self):
        clock = FakeClock()
        h = ReplicaHealth("http://r:1", probe_interval_s=2.0, clock=clock)
        assert h.probe_due()  # a fresh replica is probed immediately
        h.record_success()
        assert not h.probe_due()
        clock.advance(2.1)
        assert h.probe_due()

    def test_replica_label(self):
        assert replica_label("http://127.0.0.1:8091") == "127_0_0_1_8091"
        assert replica_label("https://replica-3.internal:80/") == "replica_3_internal_80"
        assert replica_label("") == "replica"


class TestHealthMonitor:
    def test_tick_drives_the_state_machine(self):
        clock = FakeClock()
        answers = {"ok": False}
        mon = HealthMonitor(
            ["http://a:1"], lambda r: answers["ok"],
            probe_interval_s=2.0, down_after=2, up_after=1,
            backoff_base_s=0.5, clock=clock,
        )
        assert mon.tick() == 1  # due immediately
        assert mon.state("http://a:1") is ReplicaState.DEGRADED
        assert mon.tick() == 0  # not due again yet
        clock.advance(2.1)
        assert mon.tick() == 1
        assert mon.state("http://a:1") is ReplicaState.DOWN
        assert not mon.routable("http://a:1")
        # The replica restarts; the backoff re-probe notices.
        answers["ok"] = True
        clock.advance(0.6)
        assert mon.tick() == 1
        assert mon.state("http://a:1") is ReplicaState.DEGRADED
        clock.advance(2.1)
        mon.tick()
        assert mon.state("http://a:1") is ReplicaState.HEALTHY
        snap = mon.snapshot()
        assert snap["http://a:1"]["state"] == "healthy"

    def test_probe_exception_counts_as_failure(self):
        clock = FakeClock()

        def explode(replica):
            raise OSError("boom")

        mon = HealthMonitor(
            ["http://a:1"], explode, down_after=1, clock=clock
        )
        mon.tick()
        assert mon.state("http://a:1") is ReplicaState.DOWN


# ---------------------------------------------------------------------------
# Wire client: typed transport failures, Retry-After parsing
# ---------------------------------------------------------------------------


class TestWireClient:
    def test_connection_refused_is_service_unreachable(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nobody listens here now
        with pytest.raises(ServiceUnreachable) as exc:
            http_json(f"http://127.0.0.1:{port}/v1/healthz", timeout=5.0)
        assert "unreachable" in str(exc.value)
        assert exc.value.url.endswith("/v1/healthz")

    def test_silent_server_is_service_timeout(self):
        mute = socket.socket()
        mute.bind(("127.0.0.1", 0))
        mute.listen(1)  # accepts the connection, never answers
        port = mute.getsockname()[1]
        try:
            with pytest.raises(ServiceTimeout) as exc:
                http_json(f"http://127.0.0.1:{port}/v1/cd", {}, timeout=0.3)
            assert "timed out" in str(exc.value)
        finally:
            mute.close()

    def test_typed_errors_are_transport_errors_not_http(self):
        assert issubclass(ServiceUnreachable, Exception)
        assert issubclass(ServiceTimeout, Exception)
        from repro.service.wire import TransportError

        assert issubclass(ServiceUnreachable, TransportError)
        assert issubclass(ServiceTimeout, TransportError)

    def test_retry_after_precedence(self):
        # Header beats body beats default.
        assert retry_after_from({"Retry-After": "3"}, {"retry_after_s": 9}) == 3.0
        assert retry_after_from({"retry-after": " 1.5 "}, {}) == 1.5
        assert retry_after_from({}, {"retry_after_s": 0.7}) == 0.7
        assert retry_after_from({}, {}) == 0.2
        assert retry_after_from({}, None, default=1.0) == 1.0
        # Garbage header (e.g. an HTTP-date) falls through to the body.
        assert retry_after_from(
            {"Retry-After": "Fri, 08 Aug 2026 00:00:00 GMT"},
            {"retry_after_s": 0.4},
        ) == 0.4
        # Negative values clamp to zero — never sleep backwards.
        assert retry_after_from({"Retry-After": "-5"}, {}) == 0.0
        assert retry_after_from({}, {"retry_after_s": -1}) == 0.0


# ---------------------------------------------------------------------------
# Router end-to-end (real replicas + real router on loopback)
# ---------------------------------------------------------------------------


def _start_replica(**kwargs):
    svc = Service(workers=1, max_queue=kwargs.pop("max_queue", 8), **kwargs)
    httpd = serve(svc, port=0)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    return svc, httpd, f"http://127.0.0.1:{httpd.server_address[1]}"


def _stop_replica(svc, httpd):
    httpd.shutdown()
    httpd.server_close()
    svc.close()


@pytest.fixture(scope="module")
def scene_body(sphere_scene):
    from repro.octree.io import save_octree

    buf = io.BytesIO()
    save_octree(sphere_scene.tree, buf)
    return {
        "npz_b64": base64.b64encode(buf.getvalue()).decode(),
        "tool": "paper",
        "pivot": sphere_scene.pivot.tolist(),
    }


@pytest.fixture(scope="module")
def cluster(scene_body):
    """Two live replicas behind a live router; the scene registered
    through the router (hedging effectively off for determinism)."""
    replicas = [_start_replica() for _ in range(2)]
    urls = [u for _, _, u in replicas]
    router = ClusterRouter(urls, hedge_after_s=30.0, probe_interval_s=0.5)
    httpd = serve_router(router, port=0)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    router.start(0.1)
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    status, payload, _ = http_json(f"{base}/v1/scenes", scene_body, timeout=120.0)
    assert status == 200, payload
    yield base, payload["scene"], router, urls
    httpd.shutdown()
    httpd.server_close()
    router.close()
    for svc, rep_httpd, _ in replicas:
        _stop_replica(svc, rep_httpd)


def _counter(name: str) -> float:
    m = get_metrics().as_dict().get(name, {})
    return float(m.get("value", 0) or 0)


def _window_count_at_least(router, n: int, timeout_s: float = 10.0) -> int:
    """Poll the router's 60 s window until it holds ``n`` entries.

    The handler records a request into the window after the response is
    written, so a client can read the window before its own entry lands.
    """
    deadline = time.monotonic() + timeout_s
    count = router.window.stats(60)["count"]
    while count < n and time.monotonic() < deadline:
        time.sleep(0.005)
        count = router.window.stats(60)["count"]
    return count


class TestRouterEndToEnd:
    def test_registration_reports_cluster_placement(self, cluster, sphere_scene):
        base, digest, router, urls = cluster
        # Content addressing survives the extra hop.
        assert digest == sphere_scene.content_digest()
        scenes = router.scenes()
        assert digest in scenes
        assert scenes[digest]["owner"] in urls
        assert set(scenes[digest]["registered_on"]) <= set(urls)

    def test_byte_identity_through_router_all_methods(self, cluster, sphere_scene):
        from repro.cd.methods import METHODS, method_by_name
        from repro.cd.traversal import run_cd
        from repro.geometry.orientation import OrientationGrid

        base, digest, _, _ = cluster
        assert len(METHODS) == 5
        for cls in METHODS:
            status, body, headers = http_json(f"{base}/v1/cd", {
                "scene": digest, "grid": [6, 6], "method": cls.name,
            }, timeout=120.0)
            assert status == 200, (cls.name, body)
            direct = run_cd(
                sphere_scene, OrientationGrid(6, 6), method_by_name(cls.name)
            )
            assert np.array_equal(
                np.asarray(body["map"], dtype=bool), direct.accessibility_map
            ), cls.name
            assert body["n_accessible"] == direct.n_accessible

    def test_identity_headers_and_request_id_echo(self, cluster):
        base, digest, router, urls = cluster
        status, body, headers = http_json(
            f"{base}/v1/cd",
            {"scene": digest, "grid": [6, 6], "method": "AICA"},
            timeout=120.0,
            headers={"X-Request-Id": "cluster-test-0001"},
        )
        assert status == 200
        assert headers.get("X-Request-Id") == "cluster-test-0001"
        assert headers.get("X-Repro-Router") == router.name
        assert headers.get("X-Repro-Replica") in urls

    def test_ring_endpoint_reports_placement(self, cluster):
        base, digest, _, urls = cluster
        status, ring, _ = http_json(f"{base}/v1/ring", timeout=30.0)
        assert status == 200
        assert sorted(ring["replicas"]) == sorted(urls)
        assert ring["vnodes"] == 64
        assert set(ring["health"].values()) <= {"healthy", "degraded", "down"}
        assert digest in ring["scenes"]
        status, keyed, _ = http_json(f"{base}/v1/ring?key={digest}", timeout=30.0)
        assert status == 200
        assert keyed["preference"][0] == ring["scenes"][digest]["owner"]
        assert sorted(keyed["candidates"]) == sorted(urls)

    def test_healthz_shows_router_role_and_replicas(self, cluster):
        base, _, _, urls = cluster
        status, body, _ = http_json(f"{base}/v1/healthz", timeout=30.0)
        assert status == 200
        assert body["role"] == "router"
        assert sorted(body["replicas"]) == sorted(urls)
        assert "60s" in body["window"]

    def test_router_metrics_exports_cluster_counters_and_window(self, cluster):
        base, digest, _, urls = cluster
        http_json(f"{base}/v1/cd", {
            "scene": digest, "grid": [6, 6], "method": "AICA",
        }, timeout=120.0)
        status, metrics, _ = http_json(f"{base}/v1/metrics", timeout=30.0)
        assert status == 200
        assert metrics["cluster.requests"]["value"] >= 1
        for url in urls:
            label = replica_label(url)
            assert f"cluster.replica.{label}.state" in metrics
        # The rolling window rides the standard gauge prefix.
        assert "service.window.60s.count" in metrics

    def test_unknown_scene_404_passes_through(self, cluster):
        base, _, _, _ = cluster
        status, body, _ = http_json(f"{base}/v1/cd", {
            "scene": "0" * 64, "grid": [4, 4], "method": "AICA",
        }, timeout=120.0)
        assert status == 404
        assert "unknown scene" in body["error"]

    def test_loadgen_cluster_report(self, cluster, tmp_path):
        from repro.obs.report import compare, load_report
        from repro.service.cli import main_loadgen

        base, digest, _, urls = cluster
        out = tmp_path / "cluster_loadgen.json"
        code = main_loadgen([
            "--url", base, "--scene", digest, "--pivot", "0", "0", "21",
            "-n", "10", "-c", "4", "--distinct", "2",
            "--grid", "6", "6", "--cluster", "--json", str(out),
        ])
        assert code == 0
        report = load_report(out)
        assert report.schema == "repro.obs.report/v1"
        # One disposition per request, summing to exactly -n.
        assert sum(report.meta["dispositions"].values()) == 10
        assert report.meta["dispositions"].get("ok", 0) >= 1
        # The aggregate report carries the whole fleet.
        assert sorted(report.meta["cluster"]["replicas"]) == sorted(urls)
        by_id = {r["exp_id"]: r for r in report.results}
        assert "loadgen.cluster" in by_id
        rows = by_id["loadgen.cluster"]["rows"]
        assert sorted(row[0] for row in rows) == sorted(urls)
        assert sum(row[2] for row in rows) >= 10  # routed requests
        # ...and still flows through the standard regression gate.
        assert not compare(report, report).regressions

    def test_loadgen_unreachable_target_exits_2(self):
        from repro.service.cli import main_loadgen

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main_loadgen([
            "--url", f"http://127.0.0.1:{port}", "--scene", "0" * 64,
            "--pivot", "0", "0", "21", "-n", "1",
        ])
        assert code == 2


class TestRouterFailover:
    def test_owner_death_fails_over_without_client_errors(
        self, scene_body, sphere_scene
    ):
        from repro.cd.methods import method_by_name
        from repro.cd.traversal import run_cd
        from repro.geometry.orientation import OrientationGrid

        replicas = [_start_replica() for _ in range(2)]
        urls = [u for _, _, u in replicas]
        router = ClusterRouter(urls, hedge_after_s=30.0, probe_interval_s=30.0)
        httpd = serve_router(router, port=0)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            status, payload, _ = http_json(
                f"{base}/v1/scenes", scene_body, timeout=120.0
            )
            assert status == 200
            digest = payload["scene"]
            owner = payload["cluster"]["owner"]
            survivor = next(u for u in urls if u != owner)

            failovers0 = _counter("cluster.failover")
            for svc, rep_httpd, url in replicas:
                if url == owner:
                    _stop_replica(svc, rep_httpd)

            # The owner is dead and not yet probed out: the request must
            # still come back 200, transparently failing over (and
            # re-registering the scene if the survivor never saw it).
            status, body, headers = http_json(f"{base}/v1/cd", {
                "scene": digest, "grid": [5, 5], "method": "AICA",
            }, timeout=120.0)
            assert status == 200, body
            assert headers.get("X-Repro-Replica") == survivor
            assert _counter("cluster.failover") == failovers0 + 1
            direct = run_cd(
                sphere_scene, OrientationGrid(5, 5), method_by_name("AICA")
            )
            assert np.array_equal(
                np.asarray(body["map"], dtype=bool), direct.accessibility_map
            )
            # The router noticed the death passively (no probe needed).
            assert router.health.state(owner) is not ReplicaState.HEALTHY

            # Subsequent requests keep working against the survivor.
            status, body, _ = http_json(f"{base}/v1/cd", {
                "scene": digest, "grid": [5, 5], "method": "AICA",
            }, timeout=120.0)
            assert status == 200
        finally:
            httpd.shutdown()
            httpd.server_close()
            router.close()
            for svc, rep_httpd, url in replicas:
                if url != owner:
                    _stop_replica(svc, rep_httpd)


class TestRouterHedging:
    def test_hedge_fires_and_window_counts_once(self, scene_body):
        replicas = [_start_replica() for _ in range(2)]
        urls = [u for _, _, u in replicas]
        # hedge_after_s=0: every /v1/cd hedges immediately — the loser
        # must be discarded and the client must see exactly one answer.
        router = ClusterRouter(urls, hedge_after_s=0.0, probe_interval_s=30.0)
        httpd = serve_router(router, port=0)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            status, payload, _ = http_json(
                f"{base}/v1/scenes", scene_body, timeout=120.0
            )
            assert status == 200
            digest = payload["scene"]

            fired0 = _counter("cluster.hedge.fired")
            requests0 = _counter("cluster.requests")
            # Wait for the upload's own window entry before the baseline.
            window0 = _window_count_at_least(router, 1)
            assert window0 >= 1
            status, body, headers = http_json(f"{base}/v1/cd", {
                "scene": digest, "grid": [5, 5], "method": "AICA",
            }, timeout=120.0)
            assert status == 200, body
            assert headers.get("X-Repro-Hedged") == "1"
            assert _counter("cluster.hedge.fired") == fired0 + 1
            assert _counter("cluster.requests") == requests0 + 1
            wins = (
                _counter("cluster.hedge.wins")
                + _counter("cluster.hedge.primary_wins")
            )
            assert wins >= 1
            # The acceptance invariant: one inbound request, one window
            # entry — the hedged duplicate never double-counts.
            _window_count_at_least(router, window0 + 1)
            assert router.window.stats(60)["count"] == window0 + 1
            # The cost ledger is the winner's alone: exactly one ledger.
            assert isinstance(body.get("cost"), dict)
        finally:
            httpd.shutdown()
            httpd.server_close()
            router.close()
            for svc, rep_httpd, _ in replicas:
                _stop_replica(svc, rep_httpd)


class TestRouterTracing:
    def test_router_and_replica_spans_land_on_one_trace(self, cluster):
        from repro.obs.context import new_span_id, new_trace_id, parse_traceparent
        from repro.obs.otlp import otlp_spans, to_otlp, validate_otlp
        from repro.obs.trace import Tracer, use_tracer

        base, digest, _, _ = cluster
        tid, caller_span = new_trace_id(), new_span_id()
        tracer = Tracer()
        with use_tracer(tracer):
            status, body, headers = http_json(
                f"{base}/v1/cd",
                {"scene": digest, "grid": [7, 7], "method": "AICA"},
                timeout=120.0,
                headers={"traceparent": f"00-{tid}-{caller_span}-01"},
            )
        assert status == 200

        # The response traceparent stays on the caller's trace and names
        # the router's own span.
        echo = parse_traceparent(headers["traceparent"])
        assert echo is not None and echo.trace_id == tid and echo.sampled

        spans = tracer.to_dicts()
        names = {s["name"] for s in spans}
        assert {"cluster.route", "cluster.upstream"} <= names
        assert all(s["trace_id"] == tid for s in spans)
        (route,) = [s for s in spans if s["name"] == "cluster.route"]
        assert route["span_id"] == echo.span_id
        assert route["parent_span_id"] == caller_span
        # Upstream hops hang under the route span; replica-side request
        # spans hang under the upstream hop — one connected trace.
        upstream = [s for s in spans if s["name"] == "cluster.upstream"]
        assert upstream and all(
            s["parent_span_id"] == route["span_id"] for s in upstream
        )
        served = [s for s in spans if s["name"] == "service.request"]
        assert served and all(
            s["parent_span_id"] in {u["span_id"] for u in upstream}
            for s in served
        )

        # The export passes the strict OTLP validator; the only
        # unresolved parent is the caller's remote span.
        doc = to_otlp(tracer, service_name="repro-router", label="cluster-e2e")
        assert validate_otlp(doc, allow_unresolved_parents={caller_span}) == []
        assert all(s["traceId"] == tid for s in otlp_spans(doc))
