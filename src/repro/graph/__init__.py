"""Directed-graph substrate.

The paper's central move is reducing control-flow analysis to *graph
reachability* ("what we establish in this paper is a connection
between control-flow analysis and graph reachability"). This package
provides the graph machinery every analysis builds on: the flat-array
:class:`CSRDigraph` every LC' graph is, an adjacency-set
:class:`Digraph` for the cubic baselines' derived graphs (DTC,
transitive closure, condensation), BFS/DFS reachability, Tarjan's SCC
algorithm, and a union-find (used by the equality-based CFA baseline).
"""

from repro._util import lazy_exports

_EXPORTS = {
    "CSRDigraph": "repro.graph.csr",
    "Digraph": "repro.graph.digraph",
    "Interner": "repro.graph.csr",
    "UnionFind": "repro.graph.unionfind",
    "condensation": "repro.graph.tarjan",
    "reachable_from": "repro.graph.reachability",
    "reachable_to": "repro.graph.reachability",
    "reaches": "repro.graph.reachability",
    "strongly_connected_components": "repro.graph.tarjan",
    "transitive_closure": "repro.graph.closure",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
