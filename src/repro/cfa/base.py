"""Shared vocabulary for all control-flow analyses.

**Flow keys.** Every analysis associates information with (a) each
expression *occurrence* and (b) each variable. After alpha-renaming,
variables are globally distinct, so a flow key is either an ``int``
(the occurrence's ``nid``) or a ``str`` (the variable's name) — the
two domains are disjoint and hash cheaply.

**Abstract values.** The analyses track four kinds of values by their
creation site: abstractions (``Lam``), records (``Record``),
datatype values (``Con``) and reference cells (``Ref``). The AST
occurrence object itself is the token — identity-hashed, unique, and
carrying the label when it is an abstraction.

**Result interface.** :class:`CFAResult` is the common query surface
(label sets per occurrence, callees per call site) that lets the test
suite compare any two analyses and lets the CFA-consuming applications
accept any analysis.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Union

from repro.errors import QueryError
from repro.lang.ast import App, Con, Expr, Lam, Program, Record, Ref, Var

#: A flow key: an occurrence ``nid`` or a variable name.
FlowKey = Union[int, str]

#: A value token: the AST occurrence that creates the value.
ValueToken = Union[Lam, Record, Con, Ref]


def key_of(expr: Expr) -> FlowKey:
    """The flow key of an expression occurrence."""
    return expr.nid


def var_key(name: str) -> FlowKey:
    """The flow key of a variable."""
    return name


def cell_key(ref: Ref) -> FlowKey:
    """The flow key holding the contents of the cell allocated at
    ``ref`` (distinct from the key of the ``ref`` expression itself)."""
    return f"~cell:{ref.nid}"


def labels_of_tokens(tokens: Set[ValueToken]) -> FrozenSet[str]:
    """Extract abstraction labels from a token set."""
    return frozenset(t.label for t in tokens if isinstance(t, Lam))


class CFAResult:
    """Common query interface over a completed analysis.

    Subclasses must implement :meth:`tokens_at`; everything else is
    derived. ``program`` is the analysed program.
    """

    def __init__(self, program: Program):
        self.program = program

    # -- required ---------------------------------------------------------

    def tokens_at(self, key: FlowKey) -> Set[ValueToken]:
        """The abstract values that may flow to ``key``."""
        raise NotImplementedError

    # -- derived queries ----------------------------------------------------

    def _check(self, expr: Expr) -> None:
        if expr.nid < 0 or expr.nid >= self.program.size:
            raise QueryError(
                f"expression #{expr.nid} is not part of the analysed program"
            )
        if self.program.node(expr.nid) is not expr:
            raise QueryError(
                f"expression #{expr.nid} belongs to a different program"
            )

    def labels_of(self, expr: Expr) -> FrozenSet[str]:
        """The label set L(e): labels of abstractions that may reach
        occurrence ``expr``."""
        self._check(expr)
        return labels_of_tokens(self.tokens_at(key_of(expr)))

    def labels_of_var(self, name: str) -> FrozenSet[str]:
        """The label set of variable ``name``."""
        return labels_of_tokens(self.tokens_at(var_key(name)))

    def is_label_in(self, label: str, expr: Expr) -> bool:
        """The membership query "is l in L(e)?"."""
        return label in self.labels_of(expr)

    def may_call(self, site: App) -> FrozenSet[str]:
        """Labels of the functions callable from application ``site``."""
        self._check(site)
        return self.labels_of(site.fn)

    def expressions_with_label(self, label: str) -> List[Expr]:
        """All occurrences ``e`` with ``label in L(e)`` (the paper's
        third query)."""
        self.program.abstraction(label)  # validate the label
        return [
            node
            for node in self.program.nodes
            if label in self.labels_of(node)
        ]

    def all_label_sets(self) -> Dict[int, FrozenSet[str]]:
        """L(e) for every occurrence, keyed by ``nid`` (the paper's
        "all label sets" output, inherently quadratic in size)."""
        return {
            node.nid: self.labels_of(node) for node in self.program.nodes
        }

    def call_graph(self) -> Dict[int, FrozenSet[str]]:
        """Callable labels per application site ("all functions called
        from all call sites"), keyed by the application's ``nid``."""
        return {
            site.nid: self.may_call(site)
            for site in self.program.applications
        }
