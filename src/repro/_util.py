"""Small internal utilities shared across the library."""

from __future__ import annotations

import glob
import importlib
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Glob pattern a directory input expands to.
INPUT_PATTERN = "*.lam"


def lazy_exports(
    namespace: Dict[str, object], exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__``/``__dir__`` serving a package's exports.

    ``exports`` maps each public name to the module that defines it.
    The first access to a name imports that module and caches the
    value in ``namespace`` (the package's ``globals()``), so later
    lookups never reach the hook and importing a package costs only
    the layers a caller actually touches. A module that defines no
    attribute of that name exports itself (``repro.daemon``).

    A name equal to one of the package's own submodules (say
    ``repro.apps.called_once``) must be bound eagerly by the package:
    importing that submodule binds the module object under the same
    name on the package, and the hook would never run.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        try:
            source = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(source)
        value = getattr(module, name, module)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


def expand_inputs(
    paths: Sequence[str],
    pattern: str = INPUT_PATTERN,
    allow_missing: bool = False,
    stdin_token: Optional[str] = None,
) -> List[str]:
    """Flatten files and directories into an ordered corpus.

    This is the single discovery routine every entry point shares (the
    ``analyze``/``lint``/``batch`` CLI subcommands and the batch
    service), so all of them agree on ordering, deduplication, and
    symlink handling:

    * files are kept as given (input order preserved); each directory
      contributes its ``pattern`` matches in sorted order;
    * duplicates are dropped by *identity*, not spelling — two paths
      (or a symlink and its target) naming the same file via
      ``os.path.realpath`` count once, under the first spelling seen;
    * ``stdin_token`` (e.g. ``"-"``) passes through verbatim, exempt
      from existence checks and dedup-by-realpath;
    * a missing path raises :class:`FileNotFoundError` up front — a
      batch should fail loudly on a typo, not run a truncated corpus —
      unless ``allow_missing`` is set, in which case it passes through
      for the caller to report per-file.

    It lives here rather than in :mod:`repro.serve.jobs` (which
    re-exports it) so single-file CLI runs never import the batch
    service.
    """
    out: List[str] = []
    seen = set()

    def add(path: str) -> None:
        identity = os.path.realpath(path)
        if identity not in seen:
            seen.add(identity)
            out.append(path)

    for path in paths:
        if stdin_token is not None and path == stdin_token:
            if path not in out:
                out.append(path)
        elif os.path.isdir(path):
            for match in sorted(glob.glob(os.path.join(path, pattern))):
                add(match)
        elif os.path.isfile(path):
            add(path)
        elif allow_missing:
            add(path)
        else:
            raise FileNotFoundError(
                f"no such file or directory: {path!r}"
            )
    return out


def ensure_recursion_limit(limit: int = 100_000) -> None:
    """Raise CPython's recursion limit to at least ``limit``.

    The language front end recurses over the AST; realistic benchmark
    programs (e.g. the ~1200-line lexgen stand-in) nest ``let`` chains
    deeply enough to exceed the default limit of 1000.
    """
    if sys.getrecursionlimit() < limit:
        sys.setrecursionlimit(limit)


class Stopwatch:
    """A tiny perf_counter-based stopwatch used by the bench harness."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start
