"""repro.serve — the parallel batch analysis service.

Turns the single-shot analyser into a multi-program, multi-core
workload with result reuse:

* :mod:`repro.serve.cache` — content-addressed result cache (SHA-256
  of normalised source + options + engine version; memory LRU tier +
  optional disk tier holding ``repro.result/1`` envelopes);
* :mod:`repro.serve.pool` — :class:`BatchRunner`, the
  ``ProcessPoolExecutor``-backed fan-out with per-job timeouts,
  bounded retry on worker death, and graceful degradation to the
  standard algorithm;
* :mod:`repro.serve.jobs` — :class:`Job`/:class:`JobResult`, the
  ``ok``/``degraded``/``error``/``timeout`` status taxonomy, and
  corpus expansion;
* :mod:`repro.serve.protocol` — the versioned ``repro.batch/1`` JSONL
  record stream and its validator.

See docs/SERVICE.md for the full protocol and failure taxonomy, and
``repro batch --help`` for the CLI entry point.
"""

from repro._util import lazy_exports

_EXPORTS = {
    "BatchResult": "repro.serve.pool",
    "BatchRunner": "repro.serve.pool",
    "DEFAULT_OPTIONS": "repro.serve.cache",
    "FAILED_STATUSES": "repro.serve.jobs",
    "Job": "repro.serve.jobs",
    "JobResult": "repro.serve.jobs",
    "ResultCache": "repro.serve.cache",
    "SCHEMA": "repro.serve.protocol",
    "STATUSES": "repro.serve.jobs",
    "batch_header": "repro.serve.protocol",
    "batch_summary": "repro.serve.protocol",
    "cache_key": "repro.serve.cache",
    "canonical_options": "repro.serve.cache",
    "engine_version": "repro.serve.cache",
    "expand_inputs": "repro._util",
    "job_record": "repro.serve.protocol",
    "jobs_from_paths": "repro.serve.jobs",
    "jobs_from_sources": "repro.serve.jobs",
    "normalize_source": "repro.serve.cache",
    "read_jsonl": "repro.serve.protocol",
    "run_job": "repro.serve.worker",
    "to_jsonl": "repro.serve.protocol",
    "validate_batch_record": "repro.serve.protocol",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
