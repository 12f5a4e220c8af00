"""Benchmark harness: timing, scaling fits, paper-style tables.

Used by the scripts in ``benchmarks/`` to regenerate the paper's
Tables 1-2 and the Section 2 complexity table. Absolute timings are
machine-dependent; the harness therefore also reports *work counters*
(token propagations, node/edge counts) and log-log scaling exponents,
which are the reproducible quantities.
"""

from repro._util import lazy_exports

_EXPORTS = {
    "Table": "repro.bench.harness",
    "fit_exponent": "repro.bench.harness",
    "geometric_sizes": "repro.bench.harness",
    "lc_row": "repro.bench.harness",
    "linear_fit": "repro.bench.harness",
    "time_call": "repro.bench.harness",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
