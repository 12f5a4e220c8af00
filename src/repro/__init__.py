"""repro — Linear-time Subtransitive Control Flow Analysis.

A faithful, production-quality reproduction of:

    Nevin Heintze and David McAllester.
    *Linear-time Subtransitive Control Flow Analysis.*
    PLDI 1997. DOI 10.1145/258915.258939.

Quickstart::

    import repro

    prog = repro.parse("let id = fn[id] x => x in id id")
    cfa = repro.analyze(prog)                     # LC' + reachability
    site = prog.applications[0]
    print(cfa.may_call(site))                     # frozenset({'id'})

    effects = repro.effects_analysis(prog)        # Section 8
    klim = repro.k_limited_cfa(prog, k=2)         # Section 9
    once = repro.called_once(prog)                # abstract, item 3

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduced tables and figures.
"""

from __future__ import annotations

import importlib

from repro._util import lazy_exports

__version__ = "1.1.0"

#: Algorithm registry for :func:`analyze`: each name's module defines
#: its ``analyze_<name>`` runner, imported on first use.
_ALGORITHMS = {
    "subtransitive": "repro.core.queries",
    "standard": "repro.cfa.standard",
    "dtc": "repro.cfa.dtc",
    "equality": "repro.cfa.equality",
    "hybrid": "repro.core.hybrid",
    "polyvariant": "repro.core.polyvariant",
}


def analyze(program: Program, algorithm: str = "subtransitive", **kwargs):
    """Run a control-flow analysis on ``program``.

    ``algorithm`` is one of ``subtransitive`` (the paper's linear-time
    contribution, the default), ``standard`` (the cubic baseline),
    ``dtc`` (the Section 3 reformulation), ``equality`` (unification
    CFA), ``hybrid`` (budgeted LC' with cubic fallback — total on
    untypeable programs), or ``polyvariant`` (Section 7).

    All return objects satisfy the query interface of
    :class:`repro.cfa.base.CFAResult` (``labels_of``, ``may_call``,
    ``is_label_in``, ``expressions_with_label``, ``all_label_sets``).
    """
    try:
        module = _ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of "
            + ", ".join(sorted(_ALGORITHMS))
        ) from None
    runner = getattr(importlib.import_module(module), f"analyze_{algorithm}")
    return runner(program, **kwargs)


_EXPORTS = {
    "AnalysisBudgetExceeded": "repro.errors",
    "AnalysisError": "repro.errors",
    "AnalysisSession": "repro.session",
    "BatchResult": "repro.serve.pool",
    "BatchRunner": "repro.serve.pool",
    "ResultCache": "repro.serve.cache",
    "EvaluationError": "repro.errors",
    "FuelExhausted": "repro.errors",
    "LexError": "repro.errors",
    "ParseError": "repro.errors",
    "Program": "repro.lang.ast",
    "ReproError": "repro.errors",
    "ScopeError": "repro.errors",
    "TypeInferenceError": "repro.errors",
    "analyze_dtc": "repro.cfa.dtc",
    "analyze_equality": "repro.cfa.equality",
    "analyze_hybrid": "repro.core.hybrid",
    "analyze_polyvariant": "repro.core.polyvariant",
    "analyze_standard": "repro.cfa.standard",
    "analyze_subtransitive": "repro.core.queries",
    "bounded_type_report": "repro.types.measure",
    "build_subtransitive_graph": "repro.core.lc",
    "called_once": "repro.apps.called_once",
    # The incremental-analysis daemon (docs/DAEMON.md), as a module.
    "daemon": "repro.daemon",
    "effects_analysis": "repro.apps.effects",
    "effects_analysis_baseline": "repro.apps.effects",
    "evaluate": "repro.lang.eval",
    "infer_types": "repro.types.infer",
    "k_limited_cfa": "repro.apps.klimited",
    "make_congruence": "repro.core.datatypes",
    "parse": "repro.lang.parser",
    "pretty": "repro.lang.printer",
    "run_lints": "repro.lint.engine",
    "sanitize": "repro.lint.sanitize",
}

__all__ = [*_EXPORTS, "analyze"]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
