"""repro.service: registry, cache, broker, and end-to-end equivalence.

The load-bearing guarantee is that the service is *transparent*: a map
served through any reuse tier (fresh compute, coalesced join, result
cache, registry artifacts, long-lived pools) is byte-identical to a
direct ``run_cd`` / ``run_along_path`` call — for all five methods, at
any worker count.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.cd.ammaps import merge_accessible
from repro.cd.methods import METHODS, method_by_name
from repro.cd.pathrun import run_along_path
from repro.cd.scene import Scene
from repro.cd.traversal import run_cd
from repro.geometry.orientation import OrientationGrid
from repro.obs.metrics import MetricsRegistry, get_metrics, use_metrics
from repro.service import (
    Backpressure,
    QueryBroker,
    QuerySpec,
    ResultCache,
    SceneRegistry,
    Service,
    UnknownSceneError,
)

GRID = OrientationGrid(12, 12)
METHOD_NAMES = [cls.name for cls in METHODS]


# ---------------------------------------------------------------------------
# Scene content digests
# ---------------------------------------------------------------------------


class TestContentDigest:
    def test_stable_across_io_roundtrip(self, sphere_scene, tmp_path):
        from repro.octree.io import load_octree, save_octree

        path = tmp_path / "tree.npz"
        save_octree(sphere_scene.tree, path)
        reloaded = Scene(load_octree(path), sphere_scene.tool, sphere_scene.pivot)
        assert reloaded.content_digest() == sphere_scene.content_digest()

    def test_pivot_changes_digest(self, sphere_scene):
        moved = sphere_scene.with_pivot((0.0, 0.0, 25.0))
        assert moved.content_digest() != sphere_scene.content_digest()

    def test_with_pivot_normalizes_once(self, sphere_scene):
        # __post_init__ owns normalization; with_pivot must not pre-convert.
        moved = sphere_scene.with_pivot([0, 0, 25])
        assert moved.pivot.dtype == np.float64
        assert moved.pivot.shape == (3,)
        direct = Scene(sphere_scene.tree, sphere_scene.tool, np.array([0.0, 0.0, 25.0]))
        assert moved.content_digest() == direct.content_digest()


# ---------------------------------------------------------------------------
# Scene registry
# ---------------------------------------------------------------------------


class TestSceneRegistry:
    def test_register_is_idempotent(self, sphere_scene):
        reg = SceneRegistry(max_scenes=4)
        d1 = reg.register(sphere_scene)
        d2 = reg.register(sphere_scene)
        assert d1 == d2 and len(reg) == 1
        assert reg.get(d1) is sphere_scene

    def test_unknown_scene(self):
        reg = SceneRegistry()
        with pytest.raises(UnknownSceneError):
            reg.get("deadbeef")

    def test_lru_eviction_destroys_arenas(self, sphere_scene):
        with use_metrics(MetricsRegistry()) as metrics:
            reg = SceneRegistry(max_scenes=2)
            d1 = reg.register(sphere_scene)
            arena = reg.get_arena(d1)  # tree-only arena for the victim
            reg.register(sphere_scene.with_pivot((0, 0, 25.0)))
            reg.register(sphere_scene.with_pivot((0, 0, 30.0)))
            assert len(reg) == 2 and d1 not in reg
            with pytest.raises(UnknownSceneError):
                reg.get(d1)
            assert metrics.counter("service.registry.evictions").value == 1
            # The evicted scene's shared-memory arena is gone: re-attaching
            # by manifest must fail.
            from repro.engine.pool import SharedScene

            with pytest.raises(Exception):
                SharedScene.attach(arena.manifest)
            reg.close()

    def test_table_built_once(self, sphere_scene):
        with use_metrics(MetricsRegistry()) as metrics:
            reg = SceneRegistry()
            digest = reg.register(sphere_scene)
            t1 = reg.get_table(digest, 8)
            t2 = reg.get_table(digest, 8)
            assert t1 is t2
            assert metrics.counter("service.registry.table_builds").value == 1
            # A different S is a different table.
            t3 = reg.get_table(digest, 3)
            assert t3 is not t1 and t3.levels == 3
            reg.close()

    def test_arena_built_once_and_embeds_table(self, sphere_scene):
        # One tree arena per scene, shared by cd and path queries; the
        # ICA table is not in it (each pool worker fills its own).
        with use_metrics(MetricsRegistry()) as metrics:
            reg = SceneRegistry()
            digest = reg.register(sphere_scene)
            a1 = reg.get_arena(digest)
            assert reg.get_arena(digest) is a1
            assert metrics.counter("service.registry.arena_builds").value == 1
            keys = {spec["key"] for spec in a1.manifest["arrays"]}
            assert keys == {
                f"L{l}.{name}"
                for l in range(sphere_scene.tree.depth + 1)
                for name in ("codes", "status", "child_start", "child_count")
            }
            reg.close()


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_hit_miss_counters(self):
        with use_metrics(MetricsRegistry()) as metrics:
            cache = ResultCache(max_entries=4)
            assert cache.get("a") is None
            cache.put("a", {"x": 1}, nbytes=10)
            assert cache.get("a") == {"x": 1}
            assert metrics.counter("service.cache.misses").value == 1
            assert metrics.counter("service.cache.hits").value == 1

    def test_entry_bound_evicts_lru(self):
        with use_metrics(MetricsRegistry()) as metrics:
            cache = ResultCache(max_entries=2)
            cache.put("a", 1, nbytes=1)
            cache.put("b", 2, nbytes=1)
            cache.get("a")  # refresh: b is now LRU
            cache.put("c", 3, nbytes=1)
            assert cache.get("b") is None and cache.get("a") == 1
            assert metrics.counter("service.cache.evictions").value == 1

    def test_byte_bound(self):
        cache = ResultCache(max_entries=100, max_bytes=100)
        cache.put("a", 1, nbytes=60)
        cache.put("b", 2, nbytes=60)  # 120 > 100: a evicted
        assert cache.get("a") is None and cache.get("b") == 2
        assert cache.nbytes == 60

    def test_oversize_payload_not_cached(self):
        cache = ResultCache(max_entries=4, max_bytes=100)
        cache.put("big", 1, nbytes=1000)
        assert len(cache) == 0 and cache.get("big") is None


# ---------------------------------------------------------------------------
# Query broker
# ---------------------------------------------------------------------------


class TestQueryBroker:
    def test_coalesces_inflight_key(self):
        with use_metrics(MetricsRegistry()) as metrics:
            broker = QueryBroker(dispatch_threads=1, max_queue=4)
            release = threading.Event()
            f1, c1 = broker.submit("k", lambda: release.wait(10) and 41 + 1)
            f2, c2 = broker.submit("k", lambda: pytest.fail("must not run"))
            assert (c1, c2) == (False, True) and f1 is f2
            assert metrics.counter("service.coalesced").value == 1
            release.set()
            assert f1.result(timeout=10) == 42
            broker.shutdown()

    def test_backpressure_when_full(self):
        with use_metrics(MetricsRegistry()) as metrics:
            broker = QueryBroker(dispatch_threads=1, max_queue=1)
            release = threading.Event()
            broker.submit("a", lambda: release.wait(10))
            with pytest.raises(Backpressure) as exc:
                broker.submit("b", lambda: None)
            assert exc.value.retry_after_s > 0
            assert metrics.counter("service.rejected").value == 1
            release.set()
            broker.shutdown()
            assert broker.depth == 0

    def test_distinct_keys_do_not_coalesce(self):
        broker = QueryBroker(dispatch_threads=2, max_queue=8)
        f1, c1 = broker.submit("a", lambda: 1)
        f2, c2 = broker.submit("b", lambda: 2)
        assert not c1 and not c2
        assert f1.result(10) == 1 and f2.result(10) == 2
        broker.shutdown()


# ---------------------------------------------------------------------------
# Query specs
# ---------------------------------------------------------------------------


class TestQuerySpec:
    def test_digest_ignores_workers_and_method_case(self):
        a = QuerySpec(scene="d", grid=(8, 8), method="AICA", workers=1)
        b = QuerySpec(scene="d", grid=(8, 8), method="aica", workers=4)
        assert a.digest() == b.digest()

    def test_digest_sensitive_to_inputs(self):
        base = QuerySpec(scene="d", grid=(8, 8), method="AICA")
        assert base.digest() != QuerySpec(scene="e", grid=(8, 8)).digest()
        assert base.digest() != QuerySpec(scene="d", grid=(8, 9)).digest()
        assert base.digest() != QuerySpec(scene="d", grid=(8, 8), method="MICA").digest()
        assert (
            base.digest()
            != QuerySpec(scene="d", grid=(8, 8), pivot=(0, 0, 1)).digest()
        )
        assert (
            base.digest()
            != QuerySpec(scene="d", grid=(8, 8), memo_levels=3).digest()
        )

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown query field"):
            QuerySpec.from_dict({"scene": "d", "gird": [8, 8]})

    def test_validation(self):
        with pytest.raises(ValueError, match="method"):
            QuerySpec(scene="d", method="NOPE")
        with pytest.raises(ValueError, match="merge"):
            QuerySpec(scene="d", merge="xor")
        with pytest.raises(ValueError, match="not both"):
            QuerySpec(scene="d", pivot=(0, 0, 1), pivots=((0, 0, 1),))
        with pytest.raises(ValueError, match="grid"):
            QuerySpec(scene="d", grid=(0, 8))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_pivots_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            QuerySpec(scene="d", pivot=(bad, 0, 0))
        with pytest.raises(ValueError, match="finite"):
            QuerySpec(scene="d", pivots=((0, 0, 1), (0, bad, 1)))
        with pytest.raises(ValueError, match="finite"):
            QuerySpec.from_dict({"scene": "d", "pivot": [0, 0, bad]})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("thread_block", 2048.5), ("thread_block", "64"), ("start_level", 4.5),
            ("grid", (4.5, 4)), ("grid", "44"), ("max_pairs", True),
            ("memo_levels", "8"), ("workers", 1.0), ("workers", False),
        ],
    )
    def test_non_integer_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match="integer"):
            QuerySpec(scene="d", **{field: value})

    def test_integer_fields_stored_as_int(self):
        spec = QuerySpec(
            scene="d", grid=(np.int64(4), 6), workers=np.int32(2),
            start_level=np.int64(4), memo_levels=np.uint8(8),
            thread_block=np.int64(64), max_pairs=np.int64(100),
        )
        for v in (*spec.grid, spec.workers, spec.start_level, spec.memo_levels,
                  spec.thread_block, spec.max_pairs):
            assert type(v) is int
        assert spec.digest() == QuerySpec(
            scene="d", grid=(4, 6), start_level=4, thread_block=64, max_pairs=100,
        ).digest()
        with pytest.raises(ValueError, match="grid"):
            QuerySpec(scene="d", grid=4)

    def test_roundtrip(self):
        spec = QuerySpec(scene="d", grid=(4, 6), method="MICA", pivot=(1, 2, 3))
        again = QuerySpec.from_dict(spec.to_dict())
        assert again.digest() == spec.digest()


# ---------------------------------------------------------------------------
# End-to-end service behavior
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def serial_service(sphere_scene):
    with Service(workers=1) as svc:
        yield svc, svc.register_scene(sphere_scene)


@pytest.fixture(scope="module")
def parallel_service(sphere_scene):
    with Service(workers=2) as svc:
        yield svc, svc.register_scene(sphere_scene)


class TestServiceEquivalence:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_serial_matches_direct_run_cd(self, serial_service, sphere_scene, method):
        svc, digest = serial_service
        result = svc.query(QuerySpec(scene=digest, grid=GRID.shape, method=method))
        direct = run_cd(sphere_scene, GRID, method_by_name(method))
        assert np.array_equal(result.accessible, direct.accessibility_map)
        assert result.payload["n_accessible"] == direct.n_accessible

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_parallel_matches_direct_run_cd(self, parallel_service, sphere_scene, method):
        svc, digest = parallel_service
        result = svc.query(QuerySpec(scene=digest, grid=GRID.shape, method=method))
        direct = run_cd(sphere_scene, GRID, method_by_name(method))
        assert np.array_equal(result.accessible, direct.accessibility_map)
        assert result.payload["n_accessible"] == direct.n_accessible

    @pytest.mark.parametrize("merge", ["intersection", "union"])
    def test_path_query_matches_direct(self, serial_service, sphere_scene, merge):
        svc, digest = serial_service
        pivots = ((0.0, 0.0, 21.0), (0.0, 0.0, 24.0), (0.0, 2.0, 22.0))
        result = svc.query(
            QuerySpec(scene=digest, grid=GRID.shape, method="AICA",
                      pivots=pivots, merge=merge)
        )
        pr = run_along_path(
            sphere_scene.tree, sphere_scene.tool, np.asarray(pivots),
            GRID, method_by_name("AICA"),
        )
        merged = merge_accessible([r.accessibility_map for r in pr.results], merge)
        assert np.array_equal(result.accessible, merged)
        assert result.payload["per_pivot_accessible"] == [
            r.n_accessible for r in pr.results
        ]

    def test_pivot_override_matches_direct(self, serial_service, sphere_scene):
        svc, digest = serial_service
        result = svc.query(
            QuerySpec(scene=digest, grid=GRID.shape, method="PBoxOpt",
                      pivot=(0.0, 0.0, 26.0))
        )
        direct = run_cd(
            sphere_scene.with_pivot((0.0, 0.0, 26.0)), GRID, method_by_name("PBoxOpt")
        )
        assert np.array_equal(result.accessible, direct.accessibility_map)


class TestServiceReuse:
    def test_repeat_query_hits_cache_with_zero_traversals(self, sphere_scene):
        with use_metrics(MetricsRegistry()) as metrics, Service(workers=1) as svc:
            digest = svc.register_scene(sphere_scene)
            spec = QuerySpec(scene=digest, grid=(6, 6), method="AICA")
            first = svc.query(spec)
            assert not first.cached
            runs_after_first = metrics.counter("cd.runs").value
            assert runs_after_first == 1
            second = svc.query(spec)
            assert second.cached and not second.coalesced
            assert metrics.counter("cd.runs").value == runs_after_first
            assert second.payload is first.payload  # served from memory
            assert metrics.counter("service.requests.cache").value == 1

    def test_concurrent_identical_queries_traverse_once(self, sphere_scene):
        with use_metrics(MetricsRegistry()) as metrics, Service(workers=1) as svc:
            digest = svc.register_scene(sphere_scene)
            spec = QuerySpec(scene=digest, grid=(6, 6), method="MICA")

            # Park the single dispatch thread so both queries are
            # submitted while the computation is provably still pending.
            release = threading.Event()
            svc.broker.submit("__blocker__", lambda: release.wait(10))

            results = []

            def ask():
                results.append(svc.query(spec, timeout=30))

            t1 = threading.Thread(target=ask)
            t2 = threading.Thread(target=ask)
            t1.start()
            t2.start()
            deadline = time.time() + 10
            while (
                metrics.counter("service.coalesced").value < 1
                and time.time() < deadline
            ):
                time.sleep(0.01)
            assert metrics.counter("service.coalesced").value == 1
            release.set()
            t1.join(30)
            t2.join(30)

            assert len(results) == 2
            assert metrics.counter("cd.runs").value == 1  # exactly one traversal
            assert {r.coalesced for r in results} == {False, True}
            assert np.array_equal(results[0].accessible, results[1].accessible)

    def test_full_queue_returns_backpressure(self, sphere_scene):
        with Service(workers=1, max_queue=1) as svc:
            digest = svc.register_scene(sphere_scene)
            release = threading.Event()
            svc.broker.submit("__blocker__", lambda: release.wait(10))
            with pytest.raises(Backpressure):
                svc.query(QuerySpec(scene=digest, grid=(6, 6), method="PBox"))
            release.set()

    def test_unknown_scene_fails_fast(self):
        with Service(workers=1) as svc:
            with pytest.raises(UnknownSceneError):
                svc.query(QuerySpec(scene="0" * 64, grid=(6, 6)))

    def test_closed_service_rejects_queries(self, sphere_scene):
        svc = Service(workers=1)
        digest = svc.register_scene(sphere_scene)
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.query(QuerySpec(scene=digest, grid=(6, 6)))
