"""Tests for the content-addressed result cache (repro.serve.cache)."""

import json
import os
import pathlib

import pytest

from repro.obs import MetricsRegistry
from repro.serve import (
    BatchRunner,
    ResultCache,
    cache_key,
    canonical_options,
    engine_version,
    normalize_source,
)

SOURCE = "let id = fn[id] x => x in id (fn[g] y => y)"
EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def envelope_for(source=SOURCE, **options):
    """A real repro.result/1 envelope, via the sequential runner."""
    batch = BatchRunner(jobs=1, options=options).run_sources([source])
    assert batch.results[0].envelope is not None
    return batch.results[0].envelope


class TestNormalizeSource:
    def test_line_ending_and_whitespace_noise_folds(self):
        assert normalize_source("a\r\nb\r") == normalize_source(
            "a  \nb\n\n\n"
        )

    def test_meaningful_text_preserved(self):
        assert normalize_source("  fn[f] x => x") == "  fn[f] x => x\n"


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key(SOURCE) == cache_key(SOURCE)

    def test_is_sha256_hex(self):
        key = cache_key(SOURCE)
        assert len(key) == 64
        int(key, 16)

    def test_editor_noise_shares_a_key(self):
        assert cache_key(SOURCE) == cache_key(
            SOURCE.replace("\n", "\r\n") + "  \n\n"
        )

    def test_source_changes_key(self):
        assert cache_key(SOURCE) != cache_key("fn[f] x => x")

    def test_options_change_key(self):
        base = cache_key(SOURCE)
        assert cache_key(SOURCE, {"algorithm": "standard"}) != base
        assert cache_key(SOURCE, {"lint": True}) != base
        assert cache_key(SOURCE, {"sanitize": True}) != base

    def test_default_options_are_explicit(self):
        # Passing the defaults spelled out must alias the bare key.
        assert cache_key(SOURCE, canonical_options()) == cache_key(
            SOURCE
        )

    def test_version_changes_key(self):
        assert cache_key(SOURCE, version="0.0.0-test") != cache_key(
            SOURCE, version=engine_version()
        )

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown analysis option"):
            cache_key(SOURCE, {"algorithmn": "hybrid"})

    def test_retired_backend_option_is_rejected(self):
        # There is one graph representation; a client still sending
        # the old backend selector gets a typed rejection naming it,
        # never a silent alias onto the default key.
        with pytest.raises(ValueError, match="graph_backend"):
            canonical_options({"graph_backend": "csr"})

    @pytest.mark.parametrize(
        "options, digest",
        [
            (
                {},
                "b3dfdc95e8ee3e8358e97b4c02e4487b"
                "682b90f302dbeb4a02c9a63e4d1a3c1e",
            ),
            (
                {"algorithm": "subtransitive", "sanitize": True,
                 "audit": True},
                "4bedcb24493967ee0d4191e35924e9e2"
                "a8d329df894a6d842517c2d7737afddd",
            ),
        ],
        ids=["defaults", "subtransitive-sanitize-audit"],
    )
    def test_pinned_keys(self, options, digest):
        # Digests recorded (engine version 1.1.0) while the key recipe
        # still popped a result-neutral backend option: retiring that
        # option must not move any key, so disk caches written before
        # keep hitting.
        path = EXAMPLES_DIR / "worked_example.lam"
        assert cache_key(path.read_text(), options) == digest

    def test_lint_key_folds_in_the_rule_fingerprint(self):
        # A lint envelope depends on the shipped rule programs; the
        # key must change when they do, and only for lint requests.
        from unittest import mock

        base_lint = cache_key(SOURCE, {"lint": True})
        base_plain = cache_key(SOURCE, {"lint": False})
        with mock.patch(
            "repro.rules.programs.shipped_fingerprint",
            return_value="f" * 64,
        ):
            assert cache_key(SOURCE, {"lint": True}) != base_lint
            assert cache_key(SOURCE, {"lint": False}) == base_plain


class TestMemoryTier:
    def test_hit_deep_equals_stored(self):
        cache = ResultCache(capacity=4)
        envelope = envelope_for()
        cache.put("k" * 64, envelope)
        hit = cache.get("k" * 64)
        assert hit is not None
        got, tier = hit
        assert tier == "memory"
        assert got == envelope

    def test_returned_copy_cannot_corrupt_cache(self):
        cache = ResultCache(capacity=4)
        cache.put("k" * 64, envelope_for())
        got, _ = cache.get("k" * 64)
        got["program"]["size"] = -1
        again, _ = cache.get("k" * 64)
        assert again["program"]["size"] != -1

    def test_miss_counted(self):
        registry = MetricsRegistry()
        cache = ResultCache(capacity=4, registry=registry)
        assert cache.get("absent" + "0" * 58) is None
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 0

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        envelope = envelope_for()
        cache.put("a" * 64, envelope)
        cache.put("b" * 64, envelope)
        cache.get("a" * 64)  # refresh a: b is now least-recent
        cache.put("c" * 64, envelope)
        assert "a" * 64 in cache
        assert "b" * 64 not in cache
        assert cache.stats()["evictions"] == 1


class TestDiskTier:
    def test_roundtrip_and_promotion(self, tmp_path):
        key = cache_key(SOURCE)
        envelope = envelope_for()
        writer = ResultCache(capacity=4, cache_dir=str(tmp_path))
        writer.put(key, envelope)
        # A fresh cache (cold memory) must hit via disk...
        reader = ResultCache(capacity=4, cache_dir=str(tmp_path))
        got, tier = reader.get(key)
        assert tier == "disk"
        assert got == envelope
        # ...and the hit promotes the entry into memory.
        _, tier = reader.get(key)
        assert tier == "memory"

    def test_corrupted_entry_is_a_miss_not_an_error(self, tmp_path):
        key = cache_key(SOURCE)
        writer = ResultCache(capacity=4, cache_dir=str(tmp_path))
        writer.put(key, envelope_for())
        path = os.path.join(str(tmp_path), f"{key}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"schema": "repro.resu')  # truncated write
        reader = ResultCache(capacity=4, cache_dir=str(tmp_path))
        assert reader.get(key) is None
        assert reader.stats()["corrupt"] == 1
        assert reader.stats()["misses"] == 1
        # The damaged file is removed so the next store heals it.
        assert not os.path.exists(path)

    def test_foreign_json_is_a_miss(self, tmp_path):
        key = cache_key(SOURCE)
        path = os.path.join(str(tmp_path), f"{key}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"schema": "something/else"}, handle)
        reader = ResultCache(capacity=4, cache_dir=str(tmp_path))
        assert reader.get(key) is None
        assert reader.stats()["corrupt"] == 1


class TestEndToEnd:
    def test_warm_hit_deep_equals_cold_miss(self):
        runner = BatchRunner(jobs=1)
        cold = runner.run_sources([SOURCE]).results[0]
        warm = runner.run_sources([SOURCE]).results[0]
        assert cold.cache == "miss"
        assert warm.cache == "memory"
        assert warm.envelope == cold.envelope
        assert warm.fingerprint == cold.fingerprint
        assert warm.status == cold.status == "ok"

    def test_failed_jobs_are_never_cached(self):
        runner = BatchRunner(jobs=1)
        bad = "let let"  # parse error
        first = runner.run_sources([bad]).results[0]
        second = runner.run_sources([bad]).results[0]
        assert first.status == "error"
        assert second.cache == "miss"  # re-analysed, not served stale
