"""Linear-time CFA-consuming applications (paper Sections 8-9).

The paper's thesis is that the "all calls from all call-sites" view of
CFA is the wrong interface: that representation is quadratic, but many
consumers only need linear-size answers that can be computed *directly
on the subtransitive graph*:

* :mod:`repro.apps.effects` — find the side-effecting expressions
  (Section 8): a linear colouring of the graph, versus the naive
  consumer that materialises the call graph first (quadratic);
* :mod:`repro.apps.klimited` — k-limited CFA (Section 9): per call
  site, the callee set if it has at most k elements, else "many";
* :mod:`repro.apps.called_once` — abstractions invoked from exactly
  one call site (listed in the paper's abstract), via the same
  bounded-lattice propagation run in the reverse direction;
* :mod:`repro.apps.propagation` — the shared worklist engine: each
  node carries a set of at most k tokens or the absorbing value MANY,
  so every node changes at most k+2 times and the fixpoint is linear.
"""

from repro._util import lazy_exports

# Bound eagerly: the submodule of the same name would shadow a lazy
# export the moment anything imports it (see lazy_exports).
from repro.apps.called_once import called_once

_EXPORTS = {
    "CalledOnceResult": "repro.apps.called_once",
    "EffectsResult": "repro.apps.effects",
    "KLimitedResult": "repro.apps.klimited",
    "MANY": "repro.apps.klimited",
    "called_once": "repro.apps.called_once",
    "effects_analysis": "repro.apps.effects",
    "effects_analysis_baseline": "repro.apps.effects",
    "k_limited_cfa": "repro.apps.klimited",
    "propagate_bounded_sets": "repro.apps.propagation",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
