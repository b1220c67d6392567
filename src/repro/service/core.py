"""The query service: validated specs, tiered reuse, one compute path.

:class:`Service` turns the repo's one-shot pipeline (``run_cd`` /
``run_along_path``) into a long-lived query server.  A query arrives as
a :class:`QuerySpec` (validated, canonically digested) and is answered
through three reuse tiers, cheapest first:

1. **result cache** (:mod:`repro.service.cache`) — the exact query
   already ran: zero traversals;
2. **coalescing** (:mod:`repro.service.batching`) — the exact query is
   in flight right now: join it, one traversal total;
3. **registry artifacts** (:mod:`repro.service.registry`) — a fresh
   computation, but against a registered scene whose ICA table and
   shared-memory arena already exist — and on a worker-process pool
   that outlives the request (:func:`repro.engine.pool.use_pool`)
   instead of per-call process spin-up.

Every tier preserves the repo's core guarantee: the served map is
byte-identical to a direct ``run_cd``/``run_along_path`` call with the
same inputs, at any worker count and for all five methods.
"""

from __future__ import annotations

import math
import numbers
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.cd.ammaps import merge_accessible
from repro.cd.methods import METHODS, method_by_name
from repro.cd.pathrun import run_along_path
from repro.cd.scene import Scene
from repro.cd.traversal import TraversalConfig, run_cd
from repro.engine.workspace import Workspace, use_workspace
from repro.obs.context import TraceContext, current_trace_context
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.obs.window import RequestWindow
from repro.service.batching import QueryBroker, current_queue_wait_s
from repro.service.cache import ResultCache
from repro.service.registry import SceneRegistry, UnknownSceneError

__all__ = ["QuerySpec", "QueryResult", "Service"]

_METHOD_NAMES = tuple(cls.name for cls in METHODS)
_DEFAULT_CONFIG = TraversalConfig()


def _as_int(name: str, value) -> int:
    """``value`` as an ``int``; floats, strings and bools are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _digest_of(parts: tuple) -> str:
    import hashlib

    h = hashlib.sha256()
    h.update(repr(parts).encode("utf-8"))
    return h.hexdigest()


@dataclass(frozen=True)
class QuerySpec:
    """One validated accessibility-map query.

    ``pivot`` overrides the registered scene's pivot (a single-point
    re-query); ``pivots`` switches to a path query whose per-pivot maps
    are combined with ``merge`` (see
    :func:`repro.cd.ammaps.merge_accessible`).  ``workers = 0`` defers
    to the service's default worker count.
    """

    scene: str
    grid: tuple[int, int] = (32, 32)
    method: str = "AICA"
    pivot: tuple[float, float, float] | None = None
    pivots: tuple[tuple[float, float, float], ...] | None = None
    merge: str = "intersection"
    workers: int = 0
    start_level: int = _DEFAULT_CONFIG.start_level
    memo_levels: int = _DEFAULT_CONFIG.memo_levels
    thread_block: int = _DEFAULT_CONFIG.thread_block
    max_pairs: int = _DEFAULT_CONFIG.max_pairs

    _FIELDS = (
        "scene", "grid", "method", "pivot", "pivots", "merge", "workers",
        "start_level", "memo_levels", "thread_block", "max_pairs",
    )

    def __post_init__(self) -> None:
        if not self.scene or not isinstance(self.scene, str):
            raise ValueError("spec needs a scene digest string")
        try:
            grid = tuple(_as_int("grid", x) for x in self.grid)
        except TypeError:
            grid = ()
        if len(grid) != 2 or grid[0] < 1 or grid[1] < 1:
            raise ValueError(f"grid must be two positive ints, got {self.grid!r}")
        object.__setattr__(self, "grid", grid)
        # Normalize the method to its canonical capitalization so specs
        # differing only in case share one digest (and one cache entry).
        try:
            object.__setattr__(self, "method", method_by_name(self.method).name)
        except KeyError:
            raise ValueError(
                f"unknown method {self.method!r}; choose from {_METHOD_NAMES}"
            ) from None
        if self.pivot is not None:
            p = tuple(float(x) for x in self.pivot)
            if len(p) != 3:
                raise ValueError("pivot must have 3 coordinates")
            if not all(math.isfinite(x) for x in p):
                raise ValueError(f"pivot must be finite, got {list(p)}")
            object.__setattr__(self, "pivot", p)
        if self.pivots is not None:
            pts = tuple(tuple(float(x) for x in p) for p in self.pivots)
            if not pts or any(len(p) != 3 for p in pts):
                raise ValueError("pivots must be a non-empty list of 3D points")
            if not all(math.isfinite(x) for p in pts for x in p):
                raise ValueError("pivots must be finite")
            object.__setattr__(self, "pivots", pts)
            if self.pivot is not None:
                raise ValueError("give either pivot or pivots, not both")
        if self.merge not in ("intersection", "union"):
            raise ValueError("merge must be 'intersection' or 'union'")
        object.__setattr__(self, "workers", _as_int("workers", self.workers))
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = service default)")
        for name in ("start_level", "memo_levels", "thread_block", "max_pairs"):
            value = _as_int(name, getattr(self, name))
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, d: dict) -> "QuerySpec":
        """Build from a JSON request body; unknown keys are an error."""
        if not isinstance(d, dict):
            raise ValueError("query must be a JSON object")
        unknown = set(d) - set(cls._FIELDS)
        if unknown:
            raise ValueError(
                f"unknown query field(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(cls._FIELDS)})"
            )
        return cls(**{k: d[k] for k in cls._FIELDS if k in d})

    def config(self) -> TraversalConfig:
        return TraversalConfig(
            start_level=self.start_level,
            memo_levels=self.memo_levels,
            thread_block=self.thread_block,
            max_pairs=self.max_pairs,
            workers=1,  # the service resolves workers itself
        )

    def digest(self) -> str:
        """Canonical identity of this query (folds in the scene digest).

        ``workers`` is deliberately excluded: results are byte-identical
        at any worker count, so queries differing only in parallelism
        must share one cache entry and coalesce together.
        """
        return _digest_of((
            "repro.service.query/v3",
            self.scene, self.grid, self.method, self.pivot, self.pivots,
            self.merge, self.start_level, self.memo_levels,
            self.thread_block, self.max_pairs,
        ))

    def to_dict(self) -> dict:
        return {
            "scene": self.scene,
            "grid": list(self.grid),
            "method": self.method,
            "pivot": list(self.pivot) if self.pivot is not None else None,
            "pivots": [list(p) for p in self.pivots] if self.pivots else None,
            "merge": self.merge,
            "workers": self.workers,
            "start_level": self.start_level,
            "memo_levels": self.memo_levels,
            "thread_block": self.thread_block,
            "max_pairs": self.max_pairs,
        }


@dataclass
class QueryResult:
    """One answered query: the payload plus how it was served.

    ``trace_ctx`` — when the caller propagated one into :meth:`Service.query`
    — is the *request span's* context: its ``span_id`` names the
    ``service.request`` span recorded for this request, so the front end
    echoes it as the response ``traceparent``.  ``cost`` is the
    per-request cost ledger (attributed CPU-ms, workspace bytes,
    queue-wait ms, disposition) — per *request*, never cached with the
    payload.
    """

    payload: dict  # the computed (and cached) result data
    cached: bool  # served from the result cache, zero traversals
    coalesced: bool  # joined an identical in-flight computation
    request_id: str | None = None  # identity of the request this answered
    trace_ctx: TraceContext | None = None  # this request's span identity
    cost: dict | None = None  # per-request cost ledger

    @property
    def accessible(self) -> np.ndarray:
        """The merged/queried accessibility map, ``(m, n)`` bool."""
        return self.payload["map"]

    @property
    def served(self) -> str:
        """Which tier answered: ``"cache"``/``"coalesced"``/``"computed"``."""
        return "cache" if self.cached else "coalesced" if self.coalesced else "computed"

    def to_dict(self, *, include_map: bool = True) -> dict:
        out = {k: v for k, v in self.payload.items() if k != "map"}
        if include_map:
            out["map"] = self.payload["map"].astype(int).tolist()
        out["cached"] = self.cached
        out["coalesced"] = self.coalesced
        if self.request_id is not None:
            out["request_id"] = self.request_id
        if self.cost is not None:
            out["cost"] = dict(self.cost)
        return out


class Service:
    """Long-lived accessibility-map query service (front-end agnostic).

    Thread-safe: :meth:`query` may be called from many request-handler
    threads; computations funnel through the broker's dispatch threads.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        max_scenes: int = 8,
        cache_entries: int = 256,
        cache_bytes: int = 256 * 1024 * 1024,
        max_queue: int = 32,
        dispatch_threads: int = 1,
        retry_after_s: float = 1.0,
    ) -> None:
        from repro.engine.pool import resolve_workers

        self.workers = resolve_workers(workers)
        self.registry = SceneRegistry(max_scenes=max_scenes)
        self.cache = ResultCache(max_entries=cache_entries, max_bytes=cache_bytes)
        self.broker = QueryBroker(
            dispatch_threads=dispatch_threads,
            max_queue=max_queue,
            retry_after_s=retry_after_s,
        )
        # Rolling request statistics (RPS / error rate / latency
        # quantiles).  The service owns the window; front ends feed it
        # per finished request, so every transport shares one view.
        self.window = RequestWindow()
        self._pools: dict[int, object] = {}
        self._pool_lock = threading.Lock()
        # One reusable frontier-engine arena per dispatch thread: serial
        # computations reuse buffers across requests instead of growing a
        # fresh workspace per query (parallel runs use per-worker arenas).
        self._ws_tls = threading.local()
        self._started = time.perf_counter()
        self._closed = False

    # -- scenes -----------------------------------------------------------

    def register_scene(self, scene: Scene) -> str:
        return self.registry.register(scene)

    # -- queries ----------------------------------------------------------

    def query(
        self,
        spec: QuerySpec,
        *,
        timeout: float | None = None,
        request_id: str | None = None,
        trace_ctx: TraceContext | None = None,
    ) -> QueryResult:
        """Answer one query through cache -> coalescing -> computation.

        ``request_id`` is the caller's request identity (the HTTP front
        end passes the ``X-Request-Id`` it honored or minted); it is
        threaded into the broker's queue-wait span, the computation's
        ``service.request`` span, and the returned result, so one ID
        correlates the access-log line, the trace, and the response.

        ``trace_ctx`` is the *caller's* trace context (the inbound
        ``traceparent``, or one the front end minted).  This method
        mints the next hop — a fresh span ID that becomes the request's
        ``service.request`` span, parented on the caller's span — and
        returns it on :attr:`QueryResult.trace_ctx` for the response
        echo.  An unsampled context short-circuits all span recording
        (the no-op tracer path) while leaving the served bytes and the
        metrics identical.

        Raises :class:`~repro.service.batching.Backpressure` when the
        dispatch queue is full, :class:`UnknownSceneError` for an
        unregistered scene digest.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        # Fail unknown scenes fast, before burning a queue slot.
        self.registry.get(spec.scene)
        child = trace_ctx.child() if trace_ctx is not None else None
        key = spec.digest()
        t_start = time.perf_counter()
        payload = self.cache.get(key)
        if payload is not None:
            self._count_request(served="cache")
            cost = {
                "served": "cache",
                "cpu_ms": 0.0,
                "workspace_bytes": 0,
                "queue_wait_ms": 0.0,
            }
            self._export_cost(cost)
            self._record_request_span(
                child,
                served="cache",
                wall_s=time.perf_counter() - t_start,
                cost=cost,
                request_id=request_id,
                scene=spec.scene,
            )
            return QueryResult(
                payload=payload, cached=True, coalesced=False,
                request_id=request_id, trace_ctx=child, cost=cost,
            )
        cost_out: dict = {}
        future, coalesced = self.broker.submit(
            key,
            lambda: self._compute(spec, key, request_id, cost_out),
            request_id=request_id,
            trace_ctx=child,
        )
        payload = future.result(timeout=timeout)
        self._count_request(served="coalesced" if coalesced else "computed")
        if coalesced:
            # The joiner's cost is pure waiting: the computation (and its
            # cost ledger in ``cost_out``'s twin) belongs to the admitting
            # request; this request burned no CPU and took no workspace.
            waited = time.perf_counter() - t_start
            cost = {
                "served": "coalesced",
                "cpu_ms": 0.0,
                "workspace_bytes": 0,
                "queue_wait_ms": waited * 1e3,
            }
            self._export_cost(cost)
            self._record_request_span(
                child,
                served="coalesced",
                wall_s=waited,
                cost=cost,
                request_id=request_id,
                scene=spec.scene,
            )
        else:
            # _compute filled the ledger (and recorded the span under the
            # propagated context) on the dispatch thread.
            cost = dict(cost_out) if cost_out else {
                "served": "computed",
                "cpu_ms": 0.0,
                "workspace_bytes": 0,
                "queue_wait_ms": 0.0,
            }
        return QueryResult(
            payload=payload, cached=False, coalesced=coalesced,
            request_id=request_id, trace_ctx=child, cost=cost,
        )

    def _count_request(self, served: str) -> None:
        metrics = get_metrics()
        metrics.counter("service.requests").inc()
        metrics.counter(f"service.requests.{served}").inc()

    @staticmethod
    def _export_cost(cost: dict) -> None:
        """Aggregate one request's cost ledger into ``service.cost.*``."""
        metrics = get_metrics()
        metrics.histogram("service.cost.cpu_ms").observe(cost["cpu_ms"])
        metrics.histogram("service.cost.queue_wait_ms").observe(cost["queue_wait_ms"])
        metrics.histogram("service.cost.workspace_bytes").observe(
            cost["workspace_bytes"]
        )

    @staticmethod
    def _cost_attrs(cost: dict) -> dict:
        return {
            "cost.served": cost["served"],
            "cost.cpu_ms": cost["cpu_ms"],
            "cost.workspace_bytes": cost["workspace_bytes"],
            "cost.queue_wait_ms": cost["queue_wait_ms"],
        }

    def _record_request_span(
        self,
        ctx: TraceContext | None,
        *,
        served: str,
        wall_s: float,
        cost: dict,
        request_id: str | None,
        scene: str,
    ) -> None:
        """A ``service.request`` span for a request that ran no compute.

        Cache hits and coalesced joiners still deserve a span — their
        ``trace_ctx`` was already promised to the caller as the response
        ``traceparent``, so the span it names must exist in the export.
        Only recorded under a propagated *sampled* context: direct
        library callers (no context) keep the pre-propagation behavior
        of one span per computation.
        """
        if ctx is None or not ctx.sampled:
            return
        tracer = get_tracer()
        if not tracer.enabled:
            return
        attrs = {"served": served, "scene": scene[:12], **self._cost_attrs(cost)}
        if request_id is not None:
            attrs["request_id"] = request_id
        tracer.record_span(
            "service.request",
            t0=tracer.now() - wall_s,
            wall_s=wall_s,
            attrs=attrs,
            trace_id=ctx.trace_id,
            span_id=ctx.span_id,
            parent_span_id=ctx.parent_id,
        )

    def _thread_workspace(self) -> Workspace:
        ws = getattr(self._ws_tls, "workspace", None)
        if ws is None:
            ws = self._ws_tls.workspace = Workspace()
        return ws

    def _get_pool(self, workers: int):
        from repro.engine.pool import WorkerPool

        with self._pool_lock:
            pool = self._pools.get(workers)
            if pool is None:
                pool = self._pools[workers] = WorkerPool(workers)
            return pool

    @staticmethod
    def _counter_snapshot() -> dict[str, float]:
        return {
            name: m["value"]
            for name, m in get_metrics().as_dict().items()
            if m.get("type") == "counter"
        }

    def _compute(
        self,
        spec: QuerySpec,
        key: str,
        request_id: str | None = None,
        cost_out: dict | None = None,
    ) -> dict:
        """Run the actual CD work for one admitted query (broker thread).

        Writes the result cache *before returning* — the broker retires
        the in-flight key right after, and the cache must already hold
        the result by then (no coalesce-nor-cache window).

        ``cost_out`` — when given — receives the request's cost ledger:
        CPU thread-time actually burned on this dispatch thread,
        workspace/arena bytes held, queue-wait, and disposition.  It
        travels out-of-band because the payload is shared (cached,
        coalesced) while cost belongs to one request.
        """
        from repro.engine.pool import use_pool
        from repro.geometry.orientation import OrientationGrid

        tracer = get_tracer()
        ctx = current_trace_context()
        t0 = time.perf_counter()
        cpu_t0 = time.thread_time()
        counters_before = self._counter_snapshot() if tracer.enabled else None
        scene = self.registry.get(spec.scene)
        if spec.pivot is not None:
            # A pivot override is a different problem instance; register
            # the derived scene (same tree/tool objects, so this is
            # cheap) to give its ICA table and arena a cached home.
            scene = scene.with_pivot(spec.pivot)
            digest = self.registry.register(scene)
        else:
            digest = spec.scene

        grid = OrientationGrid(*spec.grid)
        method = method_by_name(spec.method)
        config = spec.config()
        workers = spec.workers or self.workers
        parallel = workers > 1

        if spec.pivots is not None:
            arena = self.registry.get_arena(digest) if parallel else None
            with use_pool(self._get_pool(workers) if parallel else None), \
                    use_workspace(self._thread_workspace()):
                pr = run_along_path(
                    scene.tree, scene.tool, np.asarray(spec.pivots), grid, method,
                    config=config, workers=workers, shared=arena,
                )
            merged = merge_accessible(
                [r.accessibility_map for r in pr.results], spec.merge
            )
            payload = {
                "map": merged,
                "kind": "path",
                "scene": digest,
                "method": method.name,
                "shape": list(grid.shape),
                "merge": spec.merge,
                "n_accessible": int(merged.sum()),
                "n_colliding": int(merged.size - merged.sum()),
                "mean_overlap": pr.mean_overlap,
                "per_pivot_accessible": [r.n_accessible for r in pr.results],
            }
        else:
            table = (
                self.registry.get_table(digest, config.memo_levels)
                if getattr(method, "needs_table", False)
                else None
            )
            arena = self.registry.get_arena(digest) if parallel else None
            with use_pool(self._get_pool(workers) if parallel else None), \
                    use_workspace(self._thread_workspace()):
                r = run_cd(
                    scene, grid, method,
                    config=config, workers=workers, table=table, shared=arena,
                )
            payload = {
                "map": r.accessibility_map,
                "kind": "cd",
                "scene": digest,
                "method": method.name,
                "shape": list(grid.shape),
                "n_accessible": r.n_accessible,
                "n_colliding": r.n_colliding,
                "summary": r.summary(),
            }

        elapsed = time.perf_counter() - t0
        payload["elapsed_s"] = elapsed
        get_metrics().histogram("service.request.ms").observe(elapsed * 1e3)
        # The cost ledger: what this request actually consumed.  CPU is
        # this dispatch thread's thread-time (the serial path and the
        # parent side of a parallel run); workspace bytes are the arena
        # bytes held for the request (thread workspace + shared scene
        # arena when sharded); queue-wait comes from the broker's
        # thread-local stamp for this very computation.
        ws_held = self._thread_workspace().stats()["bytes_held"]
        cost = {
            "served": "computed",
            "cpu_ms": (time.thread_time() - cpu_t0) * 1e3,
            "workspace_bytes": int(ws_held + (arena.nbytes if arena is not None else 0)),
            "queue_wait_ms": current_queue_wait_s() * 1e3,
        }
        self._export_cost(cost)
        if cost_out is not None:
            cost_out.update(cost)
        if tracer.enabled:
            # record_span, not span(): broker threads must not touch the
            # tracer's nesting stack, which belongs to whoever owns it.
            attrs = {
                "method": method.name,
                "kind": payload["kind"],
                "scene": digest[:12],
                "orientations": grid.size,
                "workers": workers,
                **self._cost_attrs(cost),
            }
            if request_id is not None:
                # The ID of the request that *initiated* the computation;
                # coalesced joiners share this span (and this ID ties it
                # back to that request's access-log line).
                attrs["request_id"] = request_id
            if counters_before is not None:
                # The counters this computation moved, largest first —
                # bounded so span attributes stay small.
                after = self._counter_snapshot()
                deltas = {
                    name: value - counters_before.get(name, 0)
                    for name, value in after.items()
                    if value != counters_before.get(name, 0)
                }
                top = dict(
                    sorted(deltas.items(), key=lambda kv: abs(kv[1]), reverse=True)[:8]
                )
                if top:
                    attrs["cost.counters"] = top
            identity = {}
            if ctx is not None:
                # The span ID was pre-minted by query() and already
                # promised to the caller in the response traceparent;
                # its parent is the caller's (possibly remote) span.
                identity = {
                    "trace_id": ctx.trace_id,
                    "span_id": ctx.span_id,
                    "parent_span_id": ctx.parent_id,
                }
            tracer.record_span(
                "service.request",
                t0=tracer.now() - elapsed,
                wall_s=elapsed,
                cpu_s=cost["cpu_ms"] / 1e3,
                attrs=attrs,
                **identity,
            )
        self.cache.put(key, payload, nbytes=payload["map"].nbytes + 512)
        return payload

    # -- lifecycle --------------------------------------------------------

    @property
    def uptime_s(self) -> float:
        return time.perf_counter() - self._started

    def close(self) -> None:
        """Drain dispatch, shut worker pools, destroy arenas; idempotent."""
        if self._closed:
            return
        self._closed = True
        self.broker.shutdown()
        with self._pool_lock:
            for pool in self._pools.values():
                pool.shutdown()
            self._pools.clear()
        self.registry.close()

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
