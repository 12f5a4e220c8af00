"""Type system for the mini-ML language.

The subtransitive algorithm never *looks at* types — the paper is
explicit that types are "used only to establish termination (and the
linear-time complexity bounds in the bounded-type case)" — but the
reproduction needs them anyway:

* to classify programs into the bounded-type classes ``P_k``
  (Section 4) that the complexity theorem quantifies over;
* to measure the paper's empirical constant (average type-tree size,
  reported as "typically around 2 or 3");
* to type datatype constructor signatures and drive the node
  congruences of Section 6.

:mod:`repro.types.infer` implements let-polymorphic Hindley-Milner
inference (algorithm W with generalisation levels);
:mod:`repro.types.measure` implements tree size / order / arity and
the ``P_k`` classification.
"""

from repro._util import lazy_exports

# Bound eagerly: the submodule of the same name would shadow a lazy
# export the moment anything imports it (see lazy_exports).
from repro.types.unify import unify

_EXPORTS = {
    "BOOL": "repro.types.types",
    "INT": "repro.types.types",
    "STRING": "repro.types.types",
    "InferenceResult": "repro.types.infer",
    "TCon": "repro.types.types",
    "TData": "repro.types.types",
    "TFun": "repro.types.types",
    "TRecord": "repro.types.types",
    "TRef": "repro.types.types",
    "TScheme": "repro.types.types",
    "TVar": "repro.types.types",
    "Type": "repro.types.types",
    "UNIT": "repro.types.types",
    "arity_of": "repro.types.measure",
    "bounded_type_report": "repro.types.measure",
    "free_type_vars": "repro.types.types",
    "infer_types": "repro.types.infer",
    "is_bounded_type": "repro.types.measure",
    "occurs_in": "repro.types.types",
    "order_of": "repro.types.measure",
    "prune": "repro.types.types",
    "type_size": "repro.types.measure",
    "unify": "repro.types.unify",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
