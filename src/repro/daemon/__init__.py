"""The always-on incremental analysis daemon (``repro.daemon/1``).

A long-lived server process holds one warm subtransitive graph per
*project* and answers define/undefine/query/lint requests over a
Unix-domain (or TCP) socket without re-analysing from scratch: a
redefinition retracts exactly the edges the old definition justified
(semi-naive, DRed-style over-delete + rederive) and re-runs the LC'
close phase from the delta worklist. Results are byte-identical to a
cold ``repro analyze`` of the equivalent program — the delta engine
falls back to a full replay whenever retraction support is ambiguous,
tagging the reason (see :mod:`repro.daemon.delta`).

Modules:

- :mod:`repro.daemon.protocol` — the versioned JSONL wire format;
- :mod:`repro.daemon.delta` — the semi-naive delta closure engine;
- :mod:`repro.daemon.state` — the project registry (locks + LRU);
- :mod:`repro.daemon.server` — the asyncio front-end;
- :mod:`repro.daemon.client` — a blocking client.
"""

from repro._util import lazy_exports

_EXPORTS = {
    "SCHEMA": "repro.daemon.protocol",
    "VERBS": "repro.daemon.protocol",
    "FALLBACK_REASONS": "repro.daemon.delta",
    "ProjectAnalysis": "repro.daemon.delta",
    "ProjectRegistry": "repro.daemon.state",
    "DaemonClient": "repro.daemon.client",
    "DaemonError": "repro.daemon.client",
    "DaemonServer": "repro.daemon.server",
    "request_record": "repro.daemon.protocol",
    "ok_response": "repro.daemon.protocol",
    "error_response": "repro.daemon.protocol",
    "validate_daemon_record": "repro.daemon.protocol",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
