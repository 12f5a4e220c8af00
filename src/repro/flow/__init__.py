"""repro.flow — the monotone dataflow framework (Sections 5, 8, 9).

A single worklist engine over the subtransitive graph, client analyses
declared as lattice + downstream relation, a fused scheduler running
several passes in one sweep, and the linearity auditor that checks the
Proposition 3/4 bounded-type preconditions before the LC' engine runs.
"""

from repro._util import lazy_exports

_EXPORTS = {
    "MANY": "repro.flow.lattice",
    "Annotation": "repro.flow.lattice",
    "bounded_seed": "repro.flow.lattice",
    "bounded_join": "repro.flow.lattice",
    "FlowAnalysis": "repro.flow.framework",
    "FlowContext": "repro.flow.framework",
    "MarkAnalysis": "repro.flow.framework",
    "run_flow": "repro.flow.framework",
    "run_fused": "repro.flow.framework",
    "DEFAULT_FUEL_FACTOR": "repro.flow.framework",
    "BoundedSetAnalysis": "repro.flow.analyses",
    "ReachabilityAnalysis": "repro.flow.analyses",
    "EffectsAnalysis": "repro.flow.analyses",
    "TaintAnalysis": "repro.flow.analyses",
    "EscapeAnalysis": "repro.flow.analyses",
    "NeednessAnalysis": "repro.flow.analyses",
    "ConstructorAnalysis": "repro.flow.analyses",
    "ESCAPE_VALUE_TYPES": "repro.flow.analyses",
    "base_red": "repro.flow.analyses",
    "structural_parent_rule": "repro.flow.analyses",
    "LinearityAudit": "repro.flow.audit",
    "audit_linearity": "repro.flow.audit",
    "audit_section": "repro.flow.audit",
    "DEFAULT_SIZE_THRESHOLD": "repro.flow.audit",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
