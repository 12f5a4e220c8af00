"""Baseline control-flow analyses.

Three reference points the paper measures its contribution against:

* :mod:`repro.cfa.standard` — the standard cubic-time inclusion-based
  monovariant CFA (Section 2), which also stands in for set-based
  analysis run in monovariant mode (the comparator in Section 10);
* :mod:`repro.cfa.dtc` — the paper's Section-3 reformulation of
  standard CFA as a dynamic-transitive-closure transition system
  (rules ABS / APP-1 / APP-2 / TRANS);
* :mod:`repro.cfa.equality` — the equality-based (unification) CFA in
  the style of Bondorf & Jorgensen, almost-linear but strictly less
  accurate; the paper's conclusion contrasts it with the subtransitive
  approach.
"""

from repro._util import lazy_exports

_EXPORTS = {
    "CFAResult": "repro.cfa.base",
    "DTCResult": "repro.cfa.dtc",
    "EqualityCFAResult": "repro.cfa.equality",
    "FlowKey": "repro.cfa.base",
    "StandardCFAResult": "repro.cfa.standard",
    "analyze_dtc": "repro.cfa.dtc",
    "analyze_equality": "repro.cfa.equality",
    "analyze_standard": "repro.cfa.standard",
    "key_of": "repro.cfa.base",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
