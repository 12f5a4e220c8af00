"""Mini-ML object language for the reproduction.

The paper defines its analysis on a labelled lambda calculus
(Section 2) and then extends it to ``letrec``, records, datatypes and
``let``-polymorphism (Sections 5-6). This package implements that
language end to end:

* :mod:`repro.lang.ast` — expression nodes with per-occurrence identity,
  labelled abstractions and datatype declarations;
* :mod:`repro.lang.lexer` / :mod:`repro.lang.parser` — a concrete
  mini-ML syntax;
* :mod:`repro.lang.printer` — pretty-printing (round-trips with the
  parser);
* :mod:`repro.lang.rename` — alpha-renaming so bound variables are
  distinct (a precondition of the analysis) and label assignment;
* :mod:`repro.lang.builders` — a concise programmatic construction DSL
  used heavily by the test suite and workload generators;
* :mod:`repro.lang.eval` — a call-by-value reference evaluator that
  traces which abstraction labels each expression occurrence evaluates
  to (the soundness oracle for every analysis in this repository);
* :mod:`repro.lang.letexpand` — explicit ``let``-expansion, used to
  validate the polyvariant analysis (Section 7).
"""

from repro._util import lazy_exports

_EXPORTS = {
    "App": "repro.lang.ast",
    "Assign": "repro.lang.ast",
    "Case": "repro.lang.ast",
    "Con": "repro.lang.ast",
    "DatatypeDecl": "repro.lang.ast",
    "Deref": "repro.lang.ast",
    "EvalResult": "repro.lang.eval",
    "Expr": "repro.lang.ast",
    "If": "repro.lang.ast",
    "LabelTrace": "repro.lang.eval",
    "Lam": "repro.lang.ast",
    "Let": "repro.lang.ast",
    "Letrec": "repro.lang.ast",
    "Lit": "repro.lang.ast",
    "Prim": "repro.lang.ast",
    "Program": "repro.lang.ast",
    "Proj": "repro.lang.ast",
    "Record": "repro.lang.ast",
    "Ref": "repro.lang.ast",
    "Var": "repro.lang.ast",
    "alpha_rename": "repro.lang.rename",
    "app": "repro.lang.builders",
    "assign": "repro.lang.builders",
    "case": "repro.lang.builders",
    "check_scopes": "repro.lang.rename",
    "con": "repro.lang.builders",
    "deref": "repro.lang.builders",
    "evaluate": "repro.lang.eval",
    "ife": "repro.lang.builders",
    "lam": "repro.lang.builders",
    "let": "repro.lang.builders",
    "let_expand": "repro.lang.letexpand",
    "letrec": "repro.lang.builders",
    "lit": "repro.lang.builders",
    "parse": "repro.lang.parser",
    "parse_expr": "repro.lang.parser",
    "pretty": "repro.lang.printer",
    "prim": "repro.lang.builders",
    "program": "repro.lang.builders",
    "proj": "repro.lang.builders",
    "record": "repro.lang.builders",
    "ref": "repro.lang.builders",
    "var": "repro.lang.builders",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
