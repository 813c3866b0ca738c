"""Result-cache behaviour: hit/miss, invalidation, maintenance."""

import json

from repro.runtime import Job, ResultCache, code_fingerprint
from repro.runtime.cache import CACHE_DIR_ENV, default_cache_root

ECHO = "tests.runtime.helper_jobs:echo_job"


def job(**params):
    return Job.create(ECHO, **params)


class TestHitMiss:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        assert cache.get(job(value=1)) is None
        cache.put(job(value=1), {"value": 1}, duration=0.25)
        assert cache.get(job(value=1)) == {"value": 1}
        assert job(value=1) in cache

    def test_param_change_misses(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put(job(value=1, scale=0.5), {"value": 1})
        assert cache.get(job(value=1, scale=0.25)) is None
        assert cache.get(job(value=2, scale=0.5)) is None

    def test_code_version_change_invalidates(self, tmp_path):
        old = ResultCache(root=tmp_path, code_version="aaaa")
        old.put(job(value=1), {"value": 1})
        new = ResultCache(root=tmp_path, code_version="bbbb")
        assert new.get(job(value=1)) is None  # stale generation ignored
        assert old.get(job(value=1)) == {"value": 1}

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        path = cache.put(job(value=1), {"value": 1})
        path.write_text("{ truncated", encoding="utf-8")
        assert cache.get(job(value=1)) is None


class TestLayout:
    def test_artifacts_are_json_keyed_by_hash(self, tmp_path):
        cache = ResultCache(root=tmp_path, code_version="cafe")
        target = job(value=3)
        path = cache.put(target, {"value": 3})
        assert path == tmp_path / "cafe" / f"{target.hash}.json"
        artifact = json.loads(path.read_text(encoding="utf-8"))
        assert artifact["fn"] == ECHO
        assert artifact["params"] == {"value": 3}
        assert artifact["code_version"] == "cafe"
        assert artifact["payload"] == {"value": 3}

    def test_env_var_sets_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "shared"))
        assert default_cache_root() == tmp_path / "shared"
        assert ResultCache().root == tmp_path / "shared"

    def test_code_fingerprint_is_stable_here(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16


class TestMaintenance:
    def test_status_counts_current_and_stale(self, tmp_path):
        old = ResultCache(root=tmp_path, code_version="aaaa")
        old.put(job(value=1), {"value": 1})
        new = ResultCache(root=tmp_path, code_version="bbbb")
        new.put(job(value=1), {"value": 1})
        new.put(job(value=2), {"value": 2})
        status = new.status()
        assert status.current_entries == 2
        assert status.stale_entries == 1
        assert status.by_function == {ECHO: 2}
        assert status.current_bytes > 0

    def test_clear_stale_only(self, tmp_path):
        old = ResultCache(root=tmp_path, code_version="aaaa")
        old.put(job(value=1), {"value": 1})
        new = ResultCache(root=tmp_path, code_version="bbbb")
        new.put(job(value=1), {"value": 1})
        assert new.clear(stale_only=True) == 1
        assert new.get(job(value=1)) == {"value": 1}
        assert new.clear() == 1
        assert new.get(job(value=1)) is None

    def test_clear_missing_root_is_noop(self, tmp_path):
        assert ResultCache(root=tmp_path / "nope").clear() == 0


def _age(path, days):
    import os
    import time

    past = time.time() - days * 86400.0
    os.utime(path, (past, past))


class TestPrune:
    def test_prune_by_age_keeps_fresh_artifacts(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        old_path = cache.put(job(value=1), {"value": 1})
        cache.put(job(value=2), {"value": 2})
        _age(old_path, days=10)
        assert cache.prune(older_than_days=7) == 1
        assert cache.get(job(value=1)) is None
        assert cache.get(job(value=2)) == {"value": 2}

    def test_prune_spans_generations_and_drops_empty_dirs(self, tmp_path):
        current = ResultCache(root=tmp_path, code_version="bbbb")
        stale = ResultCache(root=tmp_path, code_version="aaaa")
        _age(stale.put(job(value=1), {"value": 1}), days=30)
        current.put(job(value=1), {"value": 1})
        assert current.prune(older_than_days=7) == 1
        assert not (tmp_path / "aaaa").exists()  # emptied, removed
        assert current.get(job(value=1)) == {"value": 1}

    def test_prune_sweeps_stale_staging_files_uncounted(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put(job(value=1), {"value": 1})
        crashed = cache.generation_dir / ".tmp-crashed-writer.json"
        crashed.write_text("{ partial", encoding="utf-8")
        _age(crashed, days=1)
        fresh = cache.generation_dir / ".tmp-live-writer.json"
        fresh.write_text("{ partial", encoding="utf-8")
        # Leftovers are swept but not counted as artifacts; a staging
        # file younger than an hour may belong to a live writer.
        assert cache.prune(older_than_days=7) == 0
        assert not crashed.exists()
        assert fresh.exists()
        assert cache.get(job(value=1)) == {"value": 1}

    def test_prune_zero_days_clears_everything_published(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        _age(cache.put(job(value=1), {"value": 1}), days=0.001)
        assert cache.prune(older_than_days=0) == 1
        assert cache.get(job(value=1)) is None

    def test_prune_rejects_negative_age(self, tmp_path):
        import pytest

        with pytest.raises(ValueError):
            ResultCache(root=tmp_path).prune(older_than_days=-1)

    def test_prune_missing_root_is_noop(self, tmp_path):
        assert ResultCache(root=tmp_path / "nope").prune(older_than_days=0) == 0

    def test_prune_bounds_sidecars_memos_and_staging(self, tmp_path, monkeypatch):
        # A run leaves more than payloads under its generation: the
        # L1-filter sidecar, the Olden trace memo in traces/, and (after
        # a crash) staging files.  All of them age out by the payloads'
        # rule, and status() counts their bytes.
        from repro.kernels.l1filter import ensure_l1_filter

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        cache = ResultCache(root=tmp_path)
        generation = cache.generation_dir
        ensure_l1_filter("mst", scale=0.02, cache=cache)
        staging = generation / ".tmp-crashed-sidecar.npz"
        staging.write_bytes(b"partial")
        aged = [path for path in generation.rglob("*") if path.is_file()]
        assert list(generation.glob("*.l1f.npz"))
        assert list(generation.glob("traces/*.npz"))
        ensure_l1_filter("mst", scale=0.03, cache=cache)
        fresh = [
            path
            for path in generation.rglob("*")
            if path.is_file() and path not in aged
        ]
        status = cache.status()
        assert status.current_entries == 2
        assert status.current_bytes == sum(
            path.stat().st_size for path in aged + fresh
        )

        for path in aged:
            _age(path, days=40)
        assert cache.prune(older_than_days=30) == 1
        assert not any(path.exists() for path in aged)
        assert all(path.exists() for path in fresh)
        status = cache.status()
        assert status.current_entries == 1
        assert status.current_bytes == sum(path.stat().st_size for path in fresh)

        for path in fresh:
            _age(path, days=40)
        assert cache.prune(older_than_days=30) == 1
        assert not generation.exists()  # traces/ emptied, then the rest
        assert cache.status().current_bytes == 0
