"""The v2 frontier engine: workspaces, dedup/panels, and the v1 contract.

The optimization contract under test is strict: for every method, any
worker count, and any chunking, the v2 engine must produce accessibility
maps AND per-thread counters byte-identical to the v1 reference — the
counters are the simulated-GPU cost model, so a host-side optimization
that changes them is changing the paper's numbers, not speeding them up.
"""

import numpy as np
import pytest

from repro.cd.methods import METHODS, PICA, method_by_name
from repro.cd.traversal import ENGINES, TraversalConfig, resolve_engine, run_cd
from repro.engine.counters import ThreadCounters
from repro.engine.workspace import (
    Workspace,
    get_ambient_workspace,
    use_workspace,
)
from repro.geometry.orientation import OrientationGrid
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.trace import Tracer, use_tracer
from repro.service.core import QuerySpec, Service

GRID = OrientationGrid.square(6)
METHOD_NAMES = [cls.name for cls in METHODS]


def _assert_identical(a, b, label: str) -> None:
    np.testing.assert_array_equal(
        a.collides, b.collides, err_msg=f"{label}: maps differ"
    )
    assert a.counters.n_threads == b.counters.n_threads
    for f in ThreadCounters.COUNTER_FIELDS:
        np.testing.assert_array_equal(
            getattr(a.counters, f),
            getattr(b.counters, f),
            err_msg=f"{label}: counter {f} differs",
        )


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------


class TestResolveEngine:
    def test_default_is_v2(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine() == "v2"
        assert resolve_engine(None) == "v2"
        assert resolve_engine("") == "v2"

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "v2")
        assert resolve_engine("v1") == "v1"

    def test_env_escape_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "v1")
        assert resolve_engine() == "v1"
        assert resolve_engine(TraversalConfig().engine) == "v1"

    def test_normalization_and_validation(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine(" V1 ") == "v1"
        with pytest.raises(ValueError, match="engine"):
            resolve_engine("v3")
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        with pytest.raises(ValueError, match="engine"):
            resolve_engine()

    def test_whitespace_defers_to_env(self, monkeypatch):
        # Regression: a whitespace-only config value used to skip the
        # env fallback and then fail validation on the stripped string.
        monkeypatch.setenv("REPRO_ENGINE", "v1")
        assert resolve_engine("   ") == "v1"
        monkeypatch.delenv("REPRO_ENGINE")
        assert resolve_engine("   ") == "v2"

    def test_engines_tuple(self):
        assert ENGINES == ("v1", "v2")


# ---------------------------------------------------------------------------
# Workspace arena
# ---------------------------------------------------------------------------


class TestWorkspace:
    def test_take_shape_and_dtype(self):
        ws = Workspace()
        a = ws.take("x", 10)
        assert a.shape == (10,) and a.dtype == np.float64
        b = ws.take("y", (3, 4), np.intp)
        assert b.shape == (3, 4) and b.dtype == np.intp

    def test_reuse_same_storage(self):
        ws = Workspace()
        a = ws.take("x", 100)
        a[:] = 7.0
        b = ws.take("x", 50)
        assert np.shares_memory(a, b)
        assert (b == 7.0).all()
        assert ws.reuse_hits == 1 and ws.grow_events == 1

    def test_geometric_growth(self):
        ws = Workspace()
        ws.take("x", 100)
        ws.take("x", 101)  # within the 1.5x growth headroom next time
        assert ws.grow_events == 2
        ws.take("x", 120)  # capacity is now >= 151: a reuse, not a grow
        assert ws.grow_events == 2 and ws.reuse_hits == 1

    def test_dtype_change_discards(self):
        ws = Workspace()
        ws.take("x", 8, np.float64)
        ws.take("x", 8, np.int64)
        assert ws.grow_events == 2

    def test_nbytes_and_stats(self):
        ws = Workspace()
        ws.take("x", 10, np.float64)
        ws.take("y", 4, np.uint8)
        assert ws.nbytes == 10 * 8 + 4
        before = ws.stats()
        ws.take("x", 5)
        delta = ws.stats_since(before)
        assert delta["reuse_hits"] == 1 and delta["grow_events"] == 0

    def test_clear_keeps_counters(self):
        ws = Workspace()
        ws.take("x", 10)
        ws.clear()
        assert ws.nbytes == 0 and ws.grow_events == 1

    def test_ambient_scoping(self):
        outer = Workspace()
        inner = Workspace()
        assert get_ambient_workspace() is None
        with use_workspace(outer):
            assert get_ambient_workspace() is outer
            with use_workspace(inner):
                assert get_ambient_workspace() is inner
            assert get_ambient_workspace() is outer
        assert get_ambient_workspace() is None


# ---------------------------------------------------------------------------
# v1/v2 equivalence: every method, serial + pooled, chunked + unchunked
# ---------------------------------------------------------------------------


class TestEngineEquivalence:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_maps_and_counters_identical(self, sphere_scene, method, workers):
        r1 = run_cd(
            sphere_scene, GRID, method_by_name(method),
            config=TraversalConfig(engine="v1"), workers=workers,
        )
        r2 = run_cd(
            sphere_scene, GRID, method_by_name(method),
            config=TraversalConfig(engine="v2"), workers=workers,
        )
        _assert_identical(r1, r2, f"{method} workers={workers}")

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_chunked_identical_across_engines(self, sphere_scene, method):
        # max_pairs=7 forces many tiny chunks through every level —
        # the regression test for the counter-purity invariant that
        # chunked and unchunked runs (and both engines) charge the same.
        ref = run_cd(
            sphere_scene, GRID, method_by_name(method),
            config=TraversalConfig(engine="v1"),
        )
        for engine in ENGINES:
            chunked = run_cd(
                sphere_scene, GRID, method_by_name(method),
                config=TraversalConfig(engine=engine, max_pairs=7),
            )
            _assert_identical(ref, chunked, f"{method} {engine} max_pairs=7")

    @pytest.mark.parametrize("cells", [5, 100])
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_tiny_row_blocks_identical(self, sphere_scene, monkeypatch, method, cells):
        # A few cells per row block: the product level's float temporaries
        # run one or two rows at a time and must still equal v1.
        import repro.cd.traversal as trav

        ref = run_cd(
            sphere_scene, GRID, method_by_name(method),
            config=TraversalConfig(engine="v1"), workers=1,
        )
        monkeypatch.setattr(trav, "_ROW_BLOCK_CELLS", cells)
        for engine in ENGINES:
            got = run_cd(
                sphere_scene, GRID, method_by_name(method),
                config=TraversalConfig(engine=engine), workers=1,
            )
            _assert_identical(ref, got, f"{method} {engine} row block {cells}")

    def test_env_engine_respected_end_to_end(self, sphere_scene, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "v1")
        r1 = run_cd(sphere_scene, GRID, method_by_name("AICA"))
        monkeypatch.setenv("REPRO_ENGINE", "v2")
        r2 = run_cd(sphere_scene, GRID, method_by_name("AICA"))
        _assert_identical(r1, r2, "REPRO_ENGINE env switch")

    def test_workspace_metrics_exported(self, sphere_scene):
        # workers=1 pins the serial path even under REPRO_WORKERS: the
        # serial exporter owns the engine.workspace.* namespace (pooled
        # runs export engine.pool.workspace.* instead).
        with use_metrics(MetricsRegistry()) as reg:
            run_cd(
                sphere_scene, GRID, method_by_name("AICA"),
                config=TraversalConfig(engine="v2"), workers=1,
            )
        m = reg.as_dict()
        assert m["engine.workspace.grow_events"]["value"] > 0
        assert m["engine.workspace.bytes_held"]["value"] > 0

    def test_ambient_workspace_reused_across_runs(self, sphere_scene):
        # The amortization contract: a long-lived host installs one
        # arena and back-to-back runs stop growing — the second run's
        # takes are (almost) all reuse hits against the first's buffers.
        ws = Workspace()
        cfg = TraversalConfig(engine="v2")
        with use_workspace(ws), use_metrics(MetricsRegistry()) as reg:
            run_cd(
                sphere_scene, GRID, method_by_name("AICA"),
                config=cfg, workers=1,
            )
            grows_first = ws.grow_events
            run_cd(
                sphere_scene, GRID, method_by_name("AICA"),
                config=cfg, workers=1,
            )
        assert ws.grow_events == grows_first  # second run grew nothing
        assert ws.reuse_hits > 0
        m = reg.as_dict()
        assert m["engine.workspace.reuse_hits"]["value"] == ws.reuse_hits
        assert m["engine.workspace.grow_events"]["value"] == ws.grow_events

    def test_pool_workspace_metrics_exported(self, sphere_scene):
        # Small thread blocks give each pool worker several tasks, so
        # the per-process arenas record reuse across tasks of one run.
        with use_metrics(MetricsRegistry()) as reg:
            run_cd(
                sphere_scene, GRID, method_by_name("AICA"),
                config=TraversalConfig(engine="v2", thread_block=8), workers=2,
            )
        m = reg.as_dict()
        assert m["engine.pool.workspace.grow_events"]["value"] > 0
        assert m["engine.pool.workspace.reuse_hits"]["value"] > 0

    def test_v1_exports_no_workspace_metrics(self, sphere_scene):
        with use_metrics(MetricsRegistry()) as reg:
            run_cd(
                sphere_scene, GRID, method_by_name("AICA"),
                config=TraversalConfig(engine="v1"),
            )
        assert "engine.workspace.reuse_hits" not in reg.as_dict()


# ---------------------------------------------------------------------------
# CHECKBOX screen routing: dense panel pass vs gathered per-pair pass
# ---------------------------------------------------------------------------


class TestScreenPanelRouting:
    """Both ``want_screen_panel`` branches must be byte-identical.

    The dense branch screens the whole (node x thread) panel once and
    slices verdicts; the sparse branch gathers the masked cells and
    screens them per pair.  The heuristic picks between them on mask
    density, so each branch is forced explicitly here and checked
    against the v1 reference.
    """

    def test_heuristic(self):
        import types

        import repro.cd.traversal as trav

        fake = types.SimpleNamespace(
            _screen=None,
            codes=np.zeros(10, dtype=np.uint64),
            t0=0,
            t1=4,  # cells = 10 * 4 = 40
        )
        want = trav.LevelContext.want_screen_panel
        assert want(fake, 20) is True  # 2*20 >= 40: dense pays off
        assert want(fake, 19) is False  # sparse mask: per-pair gather
        fake._screen = object()  # matrix already built: slicing is free
        assert want(fake, 0) is True

    # AICA expands its base-level corners, so its product level never
    # reaches CHECKBOX; MICA takes the box fallback there.
    @pytest.mark.parametrize("dense", [True, False])
    @pytest.mark.parametrize("method", ["PBox", "PBoxOpt", "MICA"])
    def test_forced_branches_identical(self, sphere_scene, monkeypatch, method, dense):
        import repro.cd.traversal as trav

        ref = run_cd(
            sphere_scene, GRID, method_by_name(method),
            config=TraversalConfig(engine="v1", start_level=2),
        )
        # The product base level's masks span tiny corner masks up to the
        # whole panel; pin the branch.
        monkeypatch.setattr(
            trav.LevelContext, "want_screen_panel", lambda self, n: dense
        )
        forced = run_cd(
            sphere_scene, GRID, method_by_name(method),
            config=TraversalConfig(engine="v2", start_level=2),
        )
        _assert_identical(ref, forced, f"{method} dense={dense}")


# ---------------------------------------------------------------------------
# Level routing: a product base level, v1 kernels below it
# ---------------------------------------------------------------------------


class _CtxSpy:
    """Wraps a method; records ``(level, wave.ctx is not None)`` per decide
    and the pair arrays of every pair wave."""

    def __init__(self, inner):
        self._inner = inner
        self.seen: list[tuple[int, bool]] = []
        self.waves: dict[int, list] = {}

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def decide(self, rt, wave):
        self.seen.append((wave.level, wave.ctx is not None))
        if wave.ctx is None:
            self.waves.setdefault(wave.level, []).append(
                [a.copy() for a in (wave.threads, wave.codes, wave.idx, wave.status)]
            )
        return self._inner.decide(rt, wave)


class TestLevelRouting:
    """Under v2 a block's base level is a product level, whatever
    ``start_level`` is, and every deeper level runs the v1 kernels.

    On ``sphere_scene`` with a 6x6 grid the default ``start_level=5``
    decides one 78,336-pair level; from ``start_level=2`` levels 2-5 are
    visited.  ``workers=1`` keeps the spy in this process (pool workers
    rebuild methods by name).
    """

    def _spy(self, scene, start_level, method="AICA", engine="v2"):
        spy = _CtxSpy(method_by_name(method))
        run_cd(
            scene, GRID, spy,
            config=TraversalConfig(engine=engine, start_level=start_level),
            workers=1,
        )
        return spy

    def test_dense_default_level_runs_panels(self, sphere_scene):
        assert self._spy(sphere_scene, 5).seen == [(5, True)]

    def test_gate_misses_run_reference_kernels(self, sphere_scene):
        # The one routing gate left is the level: only the base level is
        # a product; levels below it run the reference kernels.
        assert self._spy(sphere_scene, 2).seen == [
            (2, True), (3, False), (4, False), (5, False)
        ]

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_next_level_frontier_identical_to_v1(self, sphere_scene, method):
        # The product level's advance must hand level L0+1 exactly v1's
        # frontier: same pairs, same order, same dtypes.
        v1 = self._spy(sphere_scene, 2, method, "v1").waves[3]
        v2 = self._spy(sphere_scene, 2, method, "v2").waves[3]
        assert len(v1) == len(v2) == 1
        for a, b in zip(v1[0], v2[0]):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_forced_panels_pooled_identical_to_v1(self, sphere_scene, method):
        # Each pool worker decides its blocks' base level as a product and
        # the levels below on the v1 kernels; the traced cd.level spans of
        # the pooled run show both routes.
        ref = run_cd(
            sphere_scene, GRID, method_by_name(method),
            config=TraversalConfig(engine="v1", start_level=2), workers=1,
        )
        with use_tracer(Tracer()) as tr:
            pooled = run_cd(
                sphere_scene, GRID, method_by_name(method),
                config=TraversalConfig(engine="v2", start_level=2), workers=2,
            )
        _assert_identical(ref, pooled, f"{method} pooled workers=2")
        panel = {r["attrs"]["panel"] for r in tr.to_dicts() if r["name"] == "cd.level"}
        assert panel == {True, False}


# ---------------------------------------------------------------------------
# Counter purity under chunking
# ---------------------------------------------------------------------------


class _OverchargingPICA(PICA):
    """A deliberately broken method: charges threads outside its wave."""

    name = "OverchargingPICA"

    def decide(self, rt, wave):
        out = super().decide(rt, wave)
        # Charge one box check to *every* thread of the run — exactly the
        # level-global accounting the purity invariant forbids.
        rt.counters.add_threads(
            "box_checks",
            np.arange(rt.counters.n_threads),
            rt.counters.n_threads,
        )
        return out


class TestCounterPurity:
    def test_overcharging_method_is_caught_when_chunked(self, sphere_scene):
        # workers=1: the pool ships methods by registry name, so an ad
        # hoc method class only exists on the serial path — which is
        # where the purity assert lives anyway.
        with pytest.raises(AssertionError, match="outside its sub-wave"):
            run_cd(
                sphere_scene, GRID, _OverchargingPICA(),
                config=TraversalConfig(max_pairs=7), workers=1,
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_honest_methods_pass_the_assert(self, sphere_scene, engine):
        # Runs with chunking active and __debug__ on: completing at all
        # means every per-chunk purity assert held.
        run_cd(
            sphere_scene, GRID, method_by_name("AICA"),
            config=TraversalConfig(engine=engine, max_pairs=7),
        )


# ---------------------------------------------------------------------------
# Served-query path
# ---------------------------------------------------------------------------


class TestServedQueries:
    def test_service_engines_agree_and_reuse_workspace(self, sphere_scene):
        with use_metrics(MetricsRegistry()) as reg, Service(workers=1) as svc:
            digest = svc.register_scene(sphere_scene)
            spec = QuerySpec(scene=digest, grid=GRID.shape, method="AICA")
            served = svc.query(spec)
            # Second, distinct query on the same dispatch thread: the
            # service's per-thread arena must serve it from reused
            # buffers (the grow events happened on the first query).
            before = reg.as_dict()["engine.workspace.grow_events"]["value"]
            svc.query(QuerySpec(scene=digest, grid=GRID.shape, method="MICA"))
            after = reg.as_dict()["engine.workspace.grow_events"]["value"]
        direct = run_cd(
            sphere_scene, GRID, method_by_name("AICA"),
            config=TraversalConfig(engine="v1"),
        )
        np.testing.assert_array_equal(served.accessible, direct.accessibility_map)
        m = reg.as_dict()
        assert m["engine.workspace.reuse_hits"]["value"] > 0
        # The second query grows at most a handful of method-specific
        # buffers; the bulk of the arena is reused across requests.
        assert after - before < before
