"""Content-addressed result cache for the batch analysis service.

The whole point of LC' is that per-program analysis is cheap; the
point of a *service* is never paying even that cost twice. A result is
addressed by the SHA-256 of everything that determines it:

* the **normalised source** (line endings and trailing whitespace
  folded away, so editor noise does not defeat the cache);
* the **analysis options** (algorithm, lint, sanitize) in canonical
  form;
* the **engine version** (:data:`repro.__version__`) plus a cache
  namespace tag, so upgrading the analyser or changing the key recipe
  invalidates every stale entry by construction.

Two tiers:

* an in-memory LRU (:class:`ResultCache` holds an ``OrderedDict`` of
  at most ``capacity`` entries, least-recently-used evicted first);
* an optional on-disk tier (``cache_dir``), one file per key holding
  the ``repro.result/1`` JSON envelope. Disk hits are promoted into
  memory. A corrupted or mis-tagged file is treated as a **miss**
  (and deleted), never as an error — cache damage must not take the
  service down.

Hit/miss/eviction traffic lands on a :class:`~repro.obs.metrics.
MetricsRegistry` under ``serve.cache.*`` (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.export import RESULT_SCHEMA
from repro.obs import MetricsRegistry

#: Namespace folded into every key. Bump when the key recipe or the
#: cached envelope layout changes incompatibly: every old entry then
#: misses, which is exactly the safe behaviour.
KEY_NAMESPACE = "repro.serve/1"

#: Canonical option set folded into cache keys. ``algorithm`` selects
#: the analysis engine; ``lint``/``sanitize``/``audit`` change what
#: the envelope carries, so they are part of the result's identity.
DEFAULT_OPTIONS: Dict[str, object] = {
    "algorithm": "hybrid",
    "lint": False,
    "sanitize": False,
    "audit": False,
}


def engine_version() -> str:
    """The analyser version folded into every cache key."""
    import repro

    return repro.__version__


def normalize_source(source: str) -> str:
    """Fold away byte-level noise that cannot change the analysis.

    Normalises line endings to ``\\n``, strips trailing whitespace per
    line and leading/trailing blank lines, and terminates with exactly
    one newline. Anything semantically meaningful (including comments,
    which the parser sees) is preserved verbatim.
    """
    text = source.replace("\r\n", "\n").replace("\r", "\n")
    lines = [line.rstrip() for line in text.split("\n")]
    return "\n".join(lines).strip("\n") + "\n"


def canonical_options(
    options: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Merge ``options`` over :data:`DEFAULT_OPTIONS`, rejecting
    unknown keys (an unknown key silently ignored would alias two
    different requests onto one cache entry)."""
    merged = dict(DEFAULT_OPTIONS)
    if options:
        unknown = sorted(set(options) - set(DEFAULT_OPTIONS))
        if unknown:
            raise ValueError(
                f"unknown analysis option(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(DEFAULT_OPTIONS))})"
            )
        merged.update(options)
    return merged


def cache_key(
    source: str,
    options: Optional[Dict[str, object]] = None,
    version: Optional[str] = None,
) -> str:
    """The content address of one analysis request (SHA-256 hex)."""
    keyed_options = canonical_options(options)
    payload = {
        "namespace": KEY_NAMESPACE,
        "engine_version": version if version is not None else engine_version(),
        "options": keyed_options,
        "source": normalize_source(source),
    }
    if keyed_options.get("lint"):
        # Lint envelopes depend on the shipped rule programs too (the
        # L002/L004 twins are held byte-identical, so the *identity*
        # of the rules is part of the result's identity): editing a
        # rule invalidates cached lint results by construction.
        from repro.rules.programs import shipped_fingerprint

        payload["rules"] = shipped_fingerprint()
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Two-tier (memory LRU + optional disk) result cache.

    Entries are ``repro.result/1`` envelope dicts; :meth:`get` and
    :meth:`put` deep-copy at the boundary so callers can never mutate
    a cached document in place.
    """

    def __init__(
        self,
        capacity: int = 512,
        cache_dir: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.cache_dir = cache_dir
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._memory: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._hits = self.registry.counter("serve.cache.hits")
        self._hits_memory = self.registry.counter("serve.cache.hits.memory")
        self._hits_disk = self.registry.counter("serve.cache.hits.disk")
        self._misses = self.registry.counter("serve.cache.misses")
        self._evictions = self.registry.counter("serve.cache.evictions")
        self._stores = self.registry.counter("serve.cache.stores")
        self._corrupt = self.registry.counter("serve.cache.corrupt")
        self.registry.gauge("serve.cache.capacity").set(capacity)
        self._entries_gauge = self.registry.gauge("serve.cache.entries")

    # -- lookup ------------------------------------------------------------

    def get(
        self, key: str
    ) -> Optional[Tuple[Dict[str, object], str]]:
        """``(envelope, tier)`` for a hit (tier ``"memory"`` or
        ``"disk"``), ``None`` for a miss."""
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            self._hits.inc()
            self._hits_memory.inc()
            return copy.deepcopy(entry), "memory"
        entry = self._disk_get(key)
        if entry is not None:
            self._memory_put(key, entry)
            self._hits.inc()
            self._hits_disk.inc()
            return copy.deepcopy(entry), "disk"
        self._misses.inc()
        return None

    def put(self, key: str, envelope: Dict[str, object]) -> None:
        """Store an envelope under ``key`` in both tiers."""
        self._memory_put(key, copy.deepcopy(envelope))
        self._disk_put(key, envelope)
        self._stores.inc()

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        return key in self._memory or (
            self._disk_path(key) is not None
            and os.path.exists(self._disk_path(key))
        )

    def stats(self) -> Dict[str, int]:
        """The ``serve.cache.*`` counter values as a plain dict."""
        return {
            "hits": self._hits.value,
            "hits_memory": self._hits_memory.value,
            "hits_disk": self._hits_disk.value,
            "misses": self._misses.value,
            "evictions": self._evictions.value,
            "stores": self._stores.value,
            "corrupt": self._corrupt.value,
            "entries": len(self._memory),
        }

    # -- memory tier -------------------------------------------------------

    def _memory_put(self, key: str, envelope: Dict[str, object]) -> None:
        self._memory[key] = envelope
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self._evictions.inc()
        self._entries_gauge.set(len(self._memory))

    # -- disk tier ---------------------------------------------------------

    def _disk_path(self, key: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"{key}.json")

    def _disk_get(self, key: str) -> Optional[Dict[str, object]]:
        path = self._disk_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            entry = None
        if not isinstance(entry, dict) or entry.get("schema") != RESULT_SCHEMA:
            # Corrupt, truncated, or foreign file: a miss, never an
            # error. Remove it so the next store rewrites it cleanly.
            self._corrupt.inc()
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        return entry

    def _disk_put(self, key: str, envelope: Dict[str, object]) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        # Atomic publish: a reader (or a concurrent worker) never sees
        # a half-written entry, only the old file or the new one.
        fd, tmp = tempfile.mkstemp(
            dir=self.cache_dir, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle, sort_keys=True, indent=2)
                handle.write("\n")
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResultCache entries={len(self._memory)}/{self.capacity} "
            f"disk={self.cache_dir!r}>"
        )
