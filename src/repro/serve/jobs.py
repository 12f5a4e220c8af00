"""Batch jobs, their results, and corpus expansion.

A :class:`Job` is one program to analyse (source text plus canonical
options); a :class:`JobResult` is the service's answer for it, carrying
the four-way status taxonomy:

``ok``
    The requested engine produced the result.
``degraded``
    The batch completed the job, but not the way it was asked to: the
    LC' attempt tripped its budget (``fallback_reason`` ``"budget"`` /
    ``"inference"``, exactly as in :mod:`repro.core.hybrid`) or the
    job timed out and was re-run once via the always-terminating
    standard algorithm (``fallback_reason`` ``"timeout"``).
``error``
    The job itself failed (parse error, worker died repeatedly,
    sanitizer violation). Only this job is affected; the batch runs on.
``timeout``
    The job exceeded its wall-clock budget and the degraded re-run
    (if enabled) did too.

:func:`expand_inputs` (defined in :mod:`repro._util`, re-exported
here) turns a mix of files and directories into the flat, sorted
corpus the CLI subcommands share (directories contribute their
``*.lam`` files).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro._util import expand_inputs  # noqa: F401 - re-export

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"

#: Every status a job record may carry, in severity order.
STATUSES = (STATUS_OK, STATUS_DEGRADED, STATUS_ERROR, STATUS_TIMEOUT)

#: Statuses that fail a batch (and flip the CLI exit code to 1).
FAILED_STATUSES = (STATUS_ERROR, STATUS_TIMEOUT)


@dataclass
class Job:
    """One analysis request within a batch."""

    jid: int
    source: str
    path: Optional[str] = None
    options: Dict[str, object] = field(default_factory=dict)
    timeout: Optional[float] = None
    #: Test-only fault injection understood by the worker (keys:
    #: ``sleep``, ``sleep_once_flag``, ``raise``, ``die``,
    #: ``die_once_flag``). Never part of the cache key.
    fault: Optional[Dict[str, object]] = None


@dataclass
class JobResult:
    """The service's answer for one job."""

    jid: int
    path: Optional[str]
    status: str
    key: str
    #: Cache provenance: ``"memory"``, ``"disk"``, or ``"miss"``.
    cache: str = "miss"
    envelope: Optional[Dict[str, object]] = None
    fingerprint: Optional[str] = None
    fallback_reason: Optional[str] = None
    error: Optional[str] = None
    seconds: float = 0.0
    attempts: int = 1
    #: Folded-stack span-profile lines (``repro.obs.profile``), present
    #: only when the batch ran with profiling on and this job was
    #: actually executed (cache hits have no profile to report).
    profile: Optional[List[str]] = None

    @property
    def ok(self) -> bool:
        """Did the batch produce a usable result for this job?"""
        return self.status not in FAILED_STATUSES


def jobs_from_paths(
    paths: Sequence[str],
    options: Optional[Dict[str, object]] = None,
    timeout: Optional[float] = None,
) -> List[Job]:
    """Read each path and wrap it as a :class:`Job` (jids follow
    input order)."""
    jobs = []
    for jid, path in enumerate(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        jobs.append(
            Job(
                jid=jid,
                source=source,
                path=path,
                options=dict(options or {}),
                timeout=timeout,
            )
        )
    return jobs


def jobs_from_sources(
    sources: Sequence[Union[str, Tuple[str, str]]],
    options: Optional[Dict[str, object]] = None,
    timeout: Optional[float] = None,
) -> List[Job]:
    """Wrap in-memory sources as jobs; items are either bare source
    strings or ``(name, source)`` pairs (the name lands in
    ``Job.path`` for reporting)."""
    jobs = []
    for jid, item in enumerate(sources):
        name: Optional[str] = None
        if isinstance(item, tuple):
            name, source = item
        else:
            source = item
        jobs.append(
            Job(
                jid=jid,
                source=source,
                path=name,
                options=dict(options or {}),
                timeout=timeout,
            )
        )
    return jobs
