"""On-disk result cache: hits, misses, invalidation, engine integration."""

import json

from repro.engine import Engine, ResultCache, RunSpec, code_version
from repro.engine.cache import default_cache_dir


def _spec():
    return RunSpec(app="sieve", model="switch-on-load", processors=2, level=2,
                   scale="tiny")


def test_put_get_roundtrip(tmp_path):
    cache = ResultCache(tmp_path, version="v1")
    assert cache.get("k") is None
    cache.put("k", {"value": 42})
    assert cache.get("k") == {"value": 42}
    assert "k" in cache
    assert len(cache) == 1
    assert cache.hits == 1 and cache.misses == 1


def test_code_version_change_invalidates(tmp_path):
    old = ResultCache(tmp_path, version="aaaa")
    old.put("k", {"value": 1})
    new = ResultCache(tmp_path, version="bbbb")
    assert new.get("k") is None  # mutated code version => miss
    assert old.get("k") == {"value": 1}  # old bucket untouched


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path, version="v1")
    cache.put("k", {"value": 1})
    (tmp_path / "v1" / "k.json").write_text("{not json", encoding="utf-8")
    assert cache.get("k") is None


def test_clear(tmp_path):
    cache = ResultCache(tmp_path, version="v1")
    cache.put("a", {})
    cache.put("b", {})
    assert cache.clear() == 2
    assert len(cache) == 0


def test_real_code_version_is_stable():
    assert code_version() == code_version()
    assert len(code_version()) == 16


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro"


def test_engine_serves_second_run_from_cache(tmp_path):
    spec = _spec()
    with Engine(cache=ResultCache(tmp_path, version="v1")) as first:
        live = first.run(spec)
        assert first.counters()["executed"] == 1
    # A brand-new engine (fresh memo) on the same cache directory: the
    # run is restored from disk, nothing is simulated.
    with Engine(cache=ResultCache(tmp_path, version="v1")) as second:
        restored = second.run(spec)
        report = second.counters()
    assert report["executed"] == 0 and report["cached"] == 1
    assert report["cache_fraction"] == 1.0
    assert restored.wall_cycles == live.wall_cycles
    assert restored.stats.to_dict() == live.stats.to_dict()


def test_engine_cache_entry_is_json(tmp_path):
    spec = _spec()
    with Engine(cache=ResultCache(tmp_path, version="v1")) as engine:
        engine.run(spec)
    entries = list((tmp_path / "v1").glob("*.json"))
    assert entries == [tmp_path / "v1" / f"{spec.key()}.json"]
    payload = json.loads(entries[0].read_text(encoding="utf-8"))
    assert payload["spec"]["app"] == "sieve"
    assert payload["result"]["wall_cycles"] > 0


def test_engine_memoises_within_process(tmp_path):
    spec = _spec()
    with Engine(cache=ResultCache(tmp_path, version="v1")) as engine:
        first = engine.run(spec)
        second = engine.run(spec)
        assert first is second
        assert engine.counters()["memo_hits"] == 1
