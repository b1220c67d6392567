"""Kernel selection: ``REPRO_ENGINE`` is the one process-wide switch.

There is no separate array-backend setting; numpy runs every kernel, and
the engine switch picks between the v1 reference kernels and the v2
workspace-frontier + panel kernels.
"""

import pytest


class TestResolveBackend:
    def test_engine_whitespace_defers_to_env(self, monkeypatch):
        # A whitespace-only engine used to bypass the env fallback and
        # then fail validation.
        from repro.cd.traversal import resolve_engine

        monkeypatch.setenv("REPRO_ENGINE", "v1")
        assert resolve_engine("   ") == "v1"
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine("   ") == "v2"
        with pytest.raises(ValueError, match="REPRO_ENGINE"):
            resolve_engine("v3")
