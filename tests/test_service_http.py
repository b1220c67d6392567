"""JSON/HTTP front end and the repro-loadgen report pipeline.

A real :class:`ServiceHTTPServer` runs on a loopback port (0 = ephemeral)
for the whole module; tests talk to it with urllib only — the same
stdlib surface external clients use.
"""

from __future__ import annotations

import base64
import io
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cd.methods import method_by_name
from repro.cd.traversal import run_cd
from repro.geometry.orientation import OrientationGrid
from repro.octree.io import save_octree
from repro.service import Service, serve
from repro.service.http import scene_from_request, tool_from_spec


@pytest.fixture(scope="module")
def server(sphere_scene):
    svc = Service(workers=1, max_queue=8)
    digest = svc.register_scene(sphere_scene)
    httpd = serve(svc, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    yield base, digest
    httpd.shutdown()
    httpd.server_close()
    svc.close()


def _post(url: str, body: dict):
    req = urllib.request.Request(
        url, data=json.dumps(body).encode(), headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get(url: str):
    with urllib.request.urlopen(url, timeout=60) as resp:
        return resp.status, json.loads(resp.read())


class TestEndpoints:
    def test_healthz(self, server):
        base, _ = server
        status, body = _get(f"{base}/v1/healthz")
        assert status == 200 and body["status"] == "ok"
        assert body["scenes"] >= 1

    def test_metrics(self, server):
        base, _ = server
        status, body = _get(f"{base}/v1/metrics")
        assert status == 200
        assert body["service.registry.scenes"]["type"] == "gauge"

    def test_unknown_route(self, server):
        base, _ = server
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(f"{base}/v1/nope")
        assert exc.value.code == 404

    def test_register_roundtrip_digest(self, server, sphere_scene):
        base, digest = server
        buf = io.BytesIO()
        save_octree(sphere_scene.tree, buf)
        status, body = _post(f"{base}/v1/scenes", {
            "npz_b64": base64.b64encode(buf.getvalue()).decode(),
            "tool": "paper",
            "pivot": sphere_scene.pivot.tolist(),
        })
        assert status == 200
        # Content addressing: the uploaded copy is the registered scene.
        assert body["scene"] == digest
        assert body["depth"] == sphere_scene.tree.depth

    def test_register_validation(self, server):
        base, _ = server
        status, body = _post(f"{base}/v1/scenes", {"pivot": [0, 0, 1]})
        assert status == 400 and "npz_b64" in body["error"]
        status, body = _post(f"{base}/v1/scenes", {"model": "head"})
        assert status == 400 and "pivot" in body["error"]
        status, body = _post(
            f"{base}/v1/scenes",
            {"model": "not_a_model", "pivot": [0, 0, 1]},
        )
        assert status == 400 and "unknown model" in body["error"]

    def test_query_served_map_matches_direct(self, server, sphere_scene):
        base, digest = server
        status, body = _post(f"{base}/v1/cd", {
            "scene": digest, "grid": [10, 10], "method": "AICA",
        })
        assert status == 200
        direct = run_cd(sphere_scene, OrientationGrid(10, 10), method_by_name("AICA"))
        assert np.array_equal(
            np.asarray(body["map"], dtype=bool), direct.accessibility_map
        )
        assert body["n_accessible"] == direct.n_accessible
        # Same query again: a cache hit, same payload.
        status, again = _post(f"{base}/v1/cd", {
            "scene": digest, "grid": [10, 10], "method": "AICA",
        })
        assert status == 200 and again["cached"] is True
        assert again["map"] == body["map"]

    def test_query_include_map_false(self, server):
        base, digest = server
        status, body = _post(f"{base}/v1/cd", {
            "scene": digest, "grid": [10, 10], "method": "AICA",
            "include_map": False,
        })
        assert status == 200 and "map" not in body
        assert "n_accessible" in body

    def test_query_unknown_scene_404(self, server):
        base, _ = server
        status, body = _post(f"{base}/v1/cd", {"scene": "f" * 64, "grid": [4, 4]})
        assert status == 404 and "unknown scene" in body["error"]

    def test_query_bad_spec_400(self, server):
        base, digest = server
        status, body = _post(f"{base}/v1/cd", {"scene": digest, "gird": [4, 4]})
        assert status == 400 and "unknown query field" in body["error"]
        status, body = _post(f"{base}/v1/cd", {"scene": digest, "method": "NOPE"})
        assert status == 400 and "unknown method" in body["error"]
        # The array-backend field is gone; old clients get told so.
        status, body = _post(f"{base}/v1/cd", {"scene": digest, "backend": "numpy"})
        assert status == 400
        assert "unknown query field(s): backend" in body["error"]
        # Numeric fields must be integers: no 500, no silently truncated
        # grid, no bool-as-int, no string that splits the result cache.
        for field, value in [
            ("thread_block", 2048.5), ("thread_block", "64"), ("start_level", 4.5),
            ("grid", [4.5, 4]), ("max_pairs", True), ("memo_levels", "8"),
            ("workers", 1.5),
        ]:
            status, body = _post(f"{base}/v1/cd", {"scene": digest, field: value})
            assert status == 400, (field, value, status, body)
            assert "integer" in body["error"], (field, value, body)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_pivot_400(self, server, sphere_scene, bad):
        # Python's json module accepts the bare NaN/Infinity tokens, so
        # the rejection has to come from the scene and query validation.
        base, digest = server
        buf = io.BytesIO()
        save_octree(sphere_scene.tree, buf)
        npz = base64.b64encode(buf.getvalue()).decode()
        bodies = [
            ("/v1/scenes", f'{{"npz_b64": "{npz}", "pivot": [{bad}, 0, 21]}}'),
            ("/v1/cd", f'{{"scene": "{digest}", "grid": [8, 8], "pivot": [{bad}, 0, 0]}}'),
            ("/v1/cd", f'{{"scene": "{digest}", "pivots": [[0, 0, 21], [0, {bad}, 0]]}}'),
        ]
        for route, raw in bodies:
            req = urllib.request.Request(
                f"{base}{route}", data=raw.encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(req, timeout=60)
            assert exc.value.code == 400, route
            assert "finite" in json.loads(exc.value.read())["error"], route

    def test_non_json_body_400(self, server):
        base, _ = server
        req = urllib.request.Request(
            f"{base}/v1/cd", data=b"not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=60)
        assert exc.value.code == 400


class TestKeepAlive:
    def test_keepalive_requests_are_not_stalled(self, server):
        # A response is written as headers then body; with Nagle's
        # algorithm on, every request after the first on a keep-alive
        # connection waits for the client's delayed ACK (>= 40 ms on
        # Linux) before the body leaves the server.
        import http.client
        import statistics

        base, _ = server
        host, port = base.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=60)
        times = []
        try:
            for i in range(11):
                t0 = time.perf_counter()
                conn.request("GET", "/v1/healthz")
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 200
                if i:  # the first request opens the connection
                    times.append(time.perf_counter() - t0)
        finally:
            conn.close()
        assert statistics.median(times) * 1e3 < 20, times


class TestSceneParsing:
    def test_tool_specs(self):
        assert tool_from_spec(None).name == tool_from_spec("paper").name
        assert tool_from_spec("ball").name.startswith("endmill")
        custom = tool_from_spec({"segments": [[1.0, 5.0], [2.0, 10.0]], "name": "t"})
        assert custom.n_cylinders == 2
        with pytest.raises(ValueError, match="tool"):
            tool_from_spec("chainsaw")

    def test_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            scene_from_request({"pivot": [0, 0, 1]})
        with pytest.raises(ValueError, match="exactly one"):
            scene_from_request({
                "model": "head", "path": "x.npz", "pivot": [0, 0, 1],
            })

    def test_model_source_builds_scene(self):
        scene = scene_from_request({
            "model": "head", "resolution": 16, "pivot": [0, -30, 5],
        })
        assert scene.tree.depth == 4
        assert scene.pivot.tolist() == [0.0, -30.0, 5.0]


class TestLoadgenReport:
    def test_loadgen_emits_gateable_run_report(self, server, tmp_path):
        from repro.obs.report import compare, load_report
        from repro.service.cli import main_loadgen

        base, digest = server
        out = tmp_path / "loadgen.json"
        code = main_loadgen([
            "--url", base, "--scene", digest, "--pivot", "0", "0", "21",
            "-n", "12", "-c", "4", "--distinct", "2",
            "--grid", "6", "6", "--json", str(out),
        ])
        assert code == 0

        report = load_report(out)
        assert report.schema == "repro.obs.report/v1"
        assert report.label == "loadgen"
        assert report.metrics["loadgen.ok"]["value"] == 12
        assert report.metrics["loadgen.p95_ms"]["type"] == "counter"
        assert report.metrics["loadgen.rps"]["value"] > 0
        assert 0.0 <= report.metrics["loadgen.cache_hit_rate"]["value"] <= 1.0
        (row,) = report.results[0]["rows"]
        assert row[0] == 12 and row[1] == 12

        # The report must flow through the standard regression gate.
        comparison = compare(report, report)
        assert not comparison.regressions


def _post_raw(url: str, body: dict, *, headers: dict | None = None):
    """POST returning ``(status, response_headers, parsed_body)``."""
    hdrs = {"Content-Type": "application/json"}
    hdrs.update(headers or {})
    req = urllib.request.Request(url, data=json.dumps(body).encode(), headers=hdrs)
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


class TestRequestIds:
    def test_inbound_request_id_honored(self, server):
        base, digest = server
        status, headers, body = _post_raw(
            f"{base}/v1/cd",
            {"scene": digest, "grid": [10, 10], "method": "AICA"},
            headers={"X-Request-Id": "caller-supplied-id-42"},
        )
        assert status == 200
        assert headers["X-Request-Id"] == "caller-supplied-id-42"
        assert body["request_id"] == "caller-supplied-id-42"

    def test_generated_request_id_is_hex(self, server):
        base, _ = server
        status, headers, _ = _post_raw(
            f"{base}/v1/cd", {"scene": "f" * 64, "grid": [4, 4]}
        )
        assert status == 404
        rid = headers["X-Request-Id"]
        assert len(rid) == 32 and set(rid) <= set("0123456789abcdef")

    def test_error_responses_carry_the_id_too(self, server):
        base, _ = server
        with urllib.request.urlopen(f"{base}/v1/healthz", timeout=60) as resp:
            assert resp.headers["X-Request-Id"]

    @pytest.mark.parametrize(
        "hostile",
        [
            "id with spaces",
            "semi;colons",
            "x" * 65,  # over the length bound
            "curl/7.88 injected",
            "../../etc/passwd",
        ],
    )
    def test_hostile_request_id_replaced(self, server, hostile):
        # Header/log injection fence: anything outside [A-Za-z0-9_-]{1,64}
        # is dropped and a fresh ID minted instead of echoed verbatim.
        base, digest = server
        status, headers, body = _post_raw(
            f"{base}/v1/cd",
            {"scene": digest, "grid": [10, 10], "method": "AICA"},
            headers={"X-Request-Id": hostile},
        )
        assert status == 200
        echoed = headers["X-Request-Id"]
        assert echoed != hostile
        assert len(echoed) == 32 and set(echoed) <= set("0123456789abcdef")


class TestErrorFence:
    def test_unhandled_exception_becomes_json_500(self, server, monkeypatch):
        from repro.obs.metrics import get_metrics

        base, digest = server

        def explode(self, spec, *, timeout=None, request_id=None, trace_ctx=None):
            raise RuntimeError("synthetic handler crash")

        monkeypatch.setattr(Service, "query", explode)
        errors_before = get_metrics().counter("service.errors").value
        status, headers, body = _post_raw(
            f"{base}/v1/cd",
            {"scene": digest, "grid": [10, 10], "method": "AICA"},
            headers={"X-Request-Id": "crash-probe"},
        )
        assert status == 500
        assert "synthetic handler crash" in body["error"]
        assert body["request_id"] == "crash-probe"
        assert headers["X-Request-Id"] == "crash-probe"
        assert get_metrics().counter("service.errors").value == errors_before + 1
        assert get_metrics().counter("service.errors.v1.cd.500").value >= 1
        # The fence is per-request: the server keeps serving afterwards.
        monkeypatch.undo()
        status, body = _get(f"{base}/v1/healthz")
        assert status == 200 and body["status"] == "ok"


class TestAccessLogE2E:
    def test_one_line_per_request_matching_header(self, server, tmp_path):
        from repro.obs.log import AccessLog, use_access_log

        base, digest = server
        path = tmp_path / "access.log"
        log = AccessLog(path=str(path))
        with use_access_log(log):
            _, headers, _ = _post_raw(
                f"{base}/v1/cd", {"scene": digest, "grid": [10, 10], "method": "AICA"}
            )
            _get(f"{base}/v1/healthz")
            # The handler logs *after* the response is on the wire, so the
            # client can outrun the line hitting the file; wait it out.
            deadline = time.monotonic() + 5.0
            while (
                path.read_text().count("\n") < 2 and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        log.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 2
        cd, hz = lines
        assert cd["route"] == "/v1/cd" and cd["method"] == "POST"
        assert cd["id"] == headers["X-Request-Id"]
        assert cd["status"] == 200 and cd["ms"] > 0
        assert cd["served"] in {"cache", "coalesced", "computed"}
        assert cd["scene"] == digest[:12]
        # Triage fields: the trace the request belongs to and how long it
        # sat in the dispatch queue, joinable against exported traces.
        assert len(cd["trace_id"]) == 32 and set(cd["trace_id"]) <= set(
            "0123456789abcdef"
        )
        assert cd["queue_wait_ms"] >= 0
        assert hz["route"] == "/v1/healthz" and hz["method"] == "GET"
        assert len(hz["trace_id"]) == 32


class TestWindowAndPrometheus:
    def test_healthz_reports_window(self, server):
        base, digest = server
        _post(f"{base}/v1/cd", {"scene": digest, "grid": [10, 10], "method": "AICA"})
        status, body = _get(f"{base}/v1/healthz")
        assert status == 200
        window = body["window"]
        assert set(window) == {"1s", "10s", "60s"}
        assert window["60s"]["count"] >= 1
        assert window["60s"]["p95_ms"] > 0

    def test_metrics_probes_stay_out_of_the_window(self, server):
        base, _ = server
        _, before = _get(f"{base}/v1/healthz")
        for _ in range(3):
            _get(f"{base}/v1/metrics")
            _get(f"{base}/v1/healthz")
        _, after = _get(f"{base}/v1/healthz")
        assert after["window"]["60s"]["count"] == before["window"]["60s"]["count"]

    def test_prometheus_exposition_parses_and_agrees(self, server):
        from repro.obs.expo import parse_prometheus, snapshot_parity_problems

        base, digest = server
        _post(f"{base}/v1/cd", {"scene": digest, "grid": [10, 10], "method": "AICA"})
        _, snapshot = _get(f"{base}/v1/metrics")
        with urllib.request.urlopen(
            f"{base}/v1/metrics?format=prometheus", timeout=60
        ) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode("utf-8")
        families = parse_prometheus(text)
        assert "service_registry_scenes" in families
        assert "service_window_60s_rps" in families
        assert snapshot_parity_problems(snapshot, families) == []

    def test_unknown_format_is_400(self, server):
        base, _ = server
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{base}/v1/metrics?format=xml", timeout=60)
        assert exc.value.code == 400


class TestWatch:
    def test_watch_once_renders_live_frame(self, server, capsys):
        from repro.obs.cli import main as obs_main

        base, digest = server
        _post(f"{base}/v1/cd", {"scene": digest, "grid": [10, 10], "method": "AICA"})
        assert obs_main(["watch", base, "--once"]) == 0
        out = capsys.readouterr().out
        assert f"repro-serve @ {base}" in out
        assert "rps" in out and "p95ms" in out
        assert "cache hit rate" in out
        assert "(first poll)" in out

    def test_watch_frames_shows_deltas(self, server, capsys):
        from repro.obs.cli import main as obs_main

        base, digest = server
        code = obs_main(["watch", base, "--frames", "2", "--interval", "0.05"])
        assert code == 0
        assert "top deltas" in capsys.readouterr().out

    def test_watch_unreachable_url_exits_2(self, capsys):
        from repro.obs.cli import main as obs_main

        assert obs_main(["watch", "http://127.0.0.1:1", "--once"]) == 2
        assert "cannot reach" in capsys.readouterr().err


class TestDistributedTracing:
    """e2e: inbound traceparent through a workers=2 server and back out."""

    @pytest.fixture(scope="class")
    def traced_server(self, sphere_scene):
        svc = Service(workers=2, max_queue=8)
        digest = svc.register_scene(sphere_scene)
        httpd = serve(svc, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        yield base, digest
        httpd.shutdown()
        httpd.server_close()
        svc.close()

    def test_sampled_request_traces_end_to_end(self, traced_server, sphere_scene):
        from repro.obs.context import new_span_id, new_trace_id, parse_traceparent
        from repro.obs.otlp import otlp_spans, to_otlp, validate_otlp
        from repro.obs.trace import Tracer, use_tracer

        base, digest = traced_server
        tid, caller_span = new_trace_id(), new_span_id()
        tracer = Tracer()
        with use_tracer(tracer):
            status, headers, body = _post_raw(
                f"{base}/v1/cd",
                {"scene": digest, "grid": [7, 7], "method": "AICA"},
                headers={"traceparent": f"00-{tid}-{caller_span}-01"},
            )
        assert status == 200

        # The response echoes a valid traceparent on the caller's trace.
        echo = parse_traceparent(headers["traceparent"])
        assert echo is not None and echo.trace_id == tid and echo.sampled

        # Cost attribution rides in the response body.
        cost = body["cost"]
        assert cost["served"] == "computed"
        assert cost["cpu_ms"] > 0 and cost["workspace_bytes"] > 0
        assert cost["queue_wait_ms"] >= 0

        # Every recorded span — including the absorbed pool-worker spans —
        # carries the propagated trace ID.
        spans = tracer.to_dicts()
        assert spans and all(s["trace_id"] == tid for s in spans)
        assert any("pool_worker" in s["attrs"] for s in spans)

        # The request span is the one the echo names, hangs under the
        # caller's span, and carries all three cost attributes.
        (req,) = [s for s in spans if s["name"] == "service.request"]
        assert req["span_id"] == echo.span_id
        assert req["parent_span_id"] == caller_span
        for key in ("cost.cpu_ms", "cost.workspace_bytes", "cost.queue_wait_ms"):
            assert key in req["attrs"]

        # The exported OTLP payload passes the strict validator; the only
        # unresolved parent is the caller's remote span.
        doc = to_otlp(tracer, service_name="repro-serve", label="e2e")
        assert validate_otlp(doc, allow_unresolved_parents={caller_span}) == []
        assert all(s["traceId"] == tid for s in otlp_spans(doc))

        # Tracing sampled-in does not perturb the served map.
        direct = run_cd(sphere_scene, OrientationGrid(7, 7), method_by_name("AICA"))
        assert np.array_equal(
            np.asarray(body["map"], dtype=bool), direct.accessibility_map
        )

    def test_unsampled_request_same_map_no_spans(self, traced_server, sphere_scene):
        from repro.obs.context import new_span_id, new_trace_id, parse_traceparent
        from repro.obs.trace import Tracer, use_tracer

        base, digest = traced_server
        tid, caller_span = new_trace_id(), new_span_id()
        tracer = Tracer()
        with use_tracer(tracer):
            status, headers, body = _post_raw(
                f"{base}/v1/cd",
                {"scene": digest, "grid": [8, 8], "method": "AICA"},
                headers={"traceparent": f"00-{tid}-{caller_span}-00"},
            )
        assert status == 200
        echo = parse_traceparent(headers["traceparent"])
        assert echo is not None
        assert echo.trace_id == tid and not echo.sampled
        # Sampled-out: the decision propagates downstream, nothing recorded.
        assert all(s["trace_id"] != tid for s in tracer.to_dicts())
        # ... and the answer is still byte-identical to the direct run.
        direct = run_cd(sphere_scene, OrientationGrid(8, 8), method_by_name("AICA"))
        assert np.array_equal(
            np.asarray(body["map"], dtype=bool), direct.accessibility_map
        )

    def test_sampling_counters_account_for_requests(self, traced_server):
        from repro.obs.context import new_span_id, new_trace_id
        from repro.obs.metrics import get_metrics

        base, digest = traced_server
        metrics = get_metrics()
        sampled0 = metrics.counter("service.trace.sampled").value
        dropped0 = metrics.counter("service.trace.dropped").value
        for flags in ("01", "00"):
            tid, sid = new_trace_id(), new_span_id()
            status, _, _ = _post_raw(
                f"{base}/v1/cd",
                {"scene": digest, "grid": [6, 6], "method": "AICA"},
                headers={"traceparent": f"00-{tid}-{sid}-{flags}"},
            )
            assert status == 200
        assert metrics.counter("service.trace.sampled").value == sampled0 + 1
        assert metrics.counter("service.trace.dropped").value == dropped0 + 1


class TestLoadgenStatusCounts:
    def test_report_carries_status_counts_and_prometheus_check(
        self, server, tmp_path, capsys
    ):
        from repro.obs.report import load_report
        from repro.service.cli import main_loadgen

        base, digest = server
        out = tmp_path / "loadgen.json"
        code = main_loadgen([
            "--url", base, "--scene", digest, "--pivot", "0", "0", "21",
            "-n", "8", "-c", "2", "--distinct", "2",
            "--grid", "6", "6", "--json", str(out),
            "--prometheus-check",
        ])
        assert code == 0
        report = load_report(out)
        assert report.metrics["loadgen.status.200"]["value"] == 8
        assert report.meta["status_counts"] == {"200": 8}
        assert report.meta["first_error"] is None
        printed = capsys.readouterr().out
        assert "status codes: 200×8" in printed
        assert "prometheus parity check OK" in printed
