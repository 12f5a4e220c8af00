"""Benchmark workloads.

* :mod:`repro.workloads.cubic` — the paper's Section 10 parameterised
  benchmark family "that illustrates the cubic behavior of the
  standard CFA algorithm" (Table 1);
* :mod:`repro.workloads.synthetic` — deterministic mini-ML programs
  standing in for the paper's SML benchmarks ``life`` (~150 lines) and
  ``lexgen`` (~1180 lines), with comparable size and higher-order
  structure (Table 2);
* :mod:`repro.workloads.generators` — the introduction's join-point
  stressor and a seeded random well-typed program generator used by
  the property-based tests.
"""

from repro._util import lazy_exports

_EXPORTS = {
    "church_numeral": "repro.workloads.church",
    "make_church_program": "repro.workloads.church",
    "make_cubic_program": "repro.workloads.cubic",
    "make_cubic_source": "repro.workloads.cubic",
    "make_joinpoint_program": "repro.workloads.generators",
    "make_lexgen_like": "repro.workloads.synthetic",
    "make_life_like": "repro.workloads.synthetic",
    "make_synthetic_program": "repro.workloads.synthetic",
    "random_typed_program": "repro.workloads.generators",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
