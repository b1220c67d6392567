"""Scene registry: content-addressed scenes with shared setup artifacts.

A CAM service voxelizes a model once and answers many accessibility
queries against it.  The registry is where that "once" lives: a
:class:`~repro.cd.scene.Scene` is registered under its
:meth:`~repro.cd.scene.Scene.content_digest` and its per-scene
artifacts — the stage-1 memoized ICA table per ``S`` and the
shared-memory tree arena the worker pool reads — are created once and
reused by all subsequent queries.  A table is demand-filled: creating
it allocates its rows, and serial queries fill (and then reuse) only
the rows they read.  Pooled queries read the arena; each worker fills
its own table.

Residency is bounded: an LRU policy caps the number of registered
scenes, and evicting a scene destroys its shared-memory arena (the
only artifact that outlives the process's heap if leaked).

All methods are thread-safe; the HTTP front end calls them from
concurrent request handlers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.cd.scene import Scene
from repro.ica.table import IcaTable, build_ica_table
from repro.obs.metrics import get_metrics

__all__ = ["UnknownSceneError", "SceneRegistry"]


class UnknownSceneError(KeyError):
    """Lookup of a digest that is not (or no longer) registered."""


class _Entry:
    """One resident scene plus its derived artifacts."""

    __slots__ = ("scene", "tables", "arena")

    def __init__(self, scene: Scene) -> None:
        self.scene = scene
        self.tables: dict[int, IcaTable] = {}  # effective S -> table
        self.arena = None  # the tree's SharedScene, once a pooled query asks

    def destroy_arena(self) -> None:
        if self.arena is not None:
            self.arena.destroy()
            self.arena = None


class SceneRegistry:
    """Content-addressed LRU registry of scenes and their setup artifacts."""

    def __init__(self, max_scenes: int = 8) -> None:
        if max_scenes < 1:
            raise ValueError(f"max_scenes must be >= 1, got {max_scenes}")
        self.max_scenes = int(max_scenes)
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._lock = threading.RLock()

    # -- registration -----------------------------------------------------

    def register(self, scene: Scene) -> str:
        """Register ``scene`` (idempotent); returns its content digest.

        Re-registering an already-resident digest just refreshes its LRU
        position — the existing entry and its artifacts are kept.
        """
        digest = scene.content_digest()
        with self._lock:
            if digest in self._entries:
                self._entries.move_to_end(digest)
                return digest
            self._entries[digest] = _Entry(scene)
            while len(self._entries) > self.max_scenes:
                _, stale = self._entries.popitem(last=False)
                stale.destroy_arena()
                get_metrics().counter("service.registry.evictions").inc()
            get_metrics().gauge("service.registry.scenes").set(len(self._entries))
        return digest

    # -- lookup -----------------------------------------------------------

    def get(self, digest: str) -> Scene:
        """The registered scene (refreshes LRU); :class:`UnknownSceneError`
        when the digest is unknown or has been evicted."""
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                raise UnknownSceneError(digest)
            self._entries.move_to_end(digest)
            return entry.scene

    def digests(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    # -- derived artifacts ------------------------------------------------

    def get_table(self, digest: str, memo_levels: int) -> IcaTable:
        """The memoized ICA table for (scene, S) — created at most once.

        Creating a table is cheap (its rows fill on first read), and the
        table is shared by every later query for the same (scene, S), so
        rows one query filled are free for the next.
        """
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                raise UnknownSceneError(digest)
            scene = entry.scene
            levels = int(min(memo_levels, scene.tree.depth + 1))
            table = entry.tables.get(levels)
            if table is None:
                table = entry.tables[levels] = build_ica_table(
                    scene.tree, scene.tool, scene.pivot, levels=levels
                )
                get_metrics().counter("service.registry.table_builds").inc()
            return table

    def get_arena(self, digest: str):
        """The shared-memory arena of the scene's tree — created at most once.

        Ready for ``run_cd(..., shared=...)`` and path runs at any worker
        count.  The registry owns the arena: it is destroyed on eviction
        or :meth:`close`, never by the run that borrows it.
        """
        from repro.engine.pool import SharedScene

        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                raise UnknownSceneError(digest)
            if entry.arena is None:
                entry.arena = SharedScene.create(entry.scene.tree)
                get_metrics().counter("service.registry.arena_builds").inc()
            return entry.arena

    # -- teardown ---------------------------------------------------------

    def evict(self, digest: str) -> bool:
        """Drop one scene (destroying its arena); False when absent."""
        with self._lock:
            entry = self._entries.pop(digest, None)
            if entry is None:
                return False
            entry.destroy_arena()
            get_metrics().counter("service.registry.evictions").inc()
            get_metrics().gauge("service.registry.scenes").set(len(self._entries))
            return True

    def close(self) -> None:
        """Destroy every arena and forget every scene; idempotent."""
        with self._lock:
            for entry in self._entries.values():
                entry.destroy_arena()
            self._entries.clear()
