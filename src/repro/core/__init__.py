"""The paper's contribution: linear-time subtransitive CFA.

* :mod:`repro.core.nodes` — the enriched node grammar
  (``e | dom(n) | ran(n) | proj_j(n) | c~j(n) | cell(n)``), hash-consed;
* :mod:`repro.core.lc` — the LC' engine: linear build phase plus
  demand-driven closure phase, with the paper's build/close accounting;
* :mod:`repro.core.queries` — Algorithms 1-2 and the O(n^2)
  all-label-sets computation, as graph reachability;
* :mod:`repro.core.datatypes` — the Section 6 node congruences
  (``≈1``, ``≈2``) for recursive datatypes;
* :mod:`repro.core.polyvariant` — Section 7 graph-fragment
  instantiation and summarisation;
* :mod:`repro.core.hybrid` — the conclusion's hybrid driver (budgeted
  LC' with cubic fallback), total on arbitrary programs.
"""

from repro._util import lazy_exports

_EXPORTS = {
    "BaseTypeCongruence": "repro.core.datatypes",
    "Congruence": "repro.core.datatypes",
    "ExactCongruence": "repro.core.datatypes",
    "FragmentSummary": "repro.core.polyvariant",
    "HybridResult": "repro.core.hybrid",
    "LCEngine": "repro.core.lc",
    "LCStatistics": "repro.core.lc",
    "Node": "repro.core.nodes",
    "NodeFactory": "repro.core.nodes",
    "SubtransitiveCFA": "repro.core.queries",
    "SubtransitiveGraph": "repro.core.lc",
    "TypeCongruence": "repro.core.datatypes",
    "analyze_hybrid": "repro.core.hybrid",
    "analyze_polyvariant": "repro.core.polyvariant",
    "analyze_subtransitive": "repro.core.queries",
    "build_subtransitive_graph": "repro.core.lc",
    "choose_polyvariant_binders": "repro.core.polyvariant",
    "make_congruence": "repro.core.datatypes",
    "summarize_fragment": "repro.core.polyvariant",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
