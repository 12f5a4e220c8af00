"""A compact directed graph over hashable nodes.

Every LC' graph is a :class:`~repro.graph.csr.CSRDigraph`; this
adjacency-set graph backs the graphs the cubic baselines derive (the
DTC closure, :func:`~repro.graph.closure.transitive_closure`,
:func:`~repro.graph.tarjan.condensation`) and serves as the simple
reference the CSR reachability properties are tested against.
Successor and predecessor sets are both maintained so sweeps against
edge direction cost O(degree).
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import Dict, Hashable, Iterable, Iterator, Set, Tuple

Node = Hashable


class _SetView(AbstractSet):
    """Immutable set-like view over a live internal adjacency set.

    Handing out the internal set itself lets any caller mutation
    silently desynchronise ``edge_count`` and the reverse adjacency;
    the view supports the whole read-side ``set`` protocol (iteration,
    membership, ``==`` against real sets, binary operators) while
    mutation is an ``AttributeError`` by construction.
    """

    __slots__ = ("_members",)

    def __init__(self, members: Set[Node]) -> None:
        self._members = members

    def __iter__(self) -> Iterator[Node]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, value: object) -> bool:
        return value in self._members

    @classmethod
    def _from_iterable(cls, iterable):
        # Binary set operations produce plain sets, not views.
        return set(iterable)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{{view: {set(self._members)!r}}}"


class Digraph:
    """A directed graph with O(1) amortised edge insertion and dedup."""

    def __init__(self) -> None:
        self._succ: Dict[Node, Set[Node]] = {}
        self._pred: Dict[Node, Set[Node]] = {}
        self._edge_count = 0

    # -- construction -----------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Ensure ``node`` exists (possibly with no edges)."""
        if node not in self._succ:
            self._succ[node] = set()
            self._pred[node] = set()

    def add_edge(self, src: Node, dst: Node) -> bool:
        """Insert edge ``src -> dst``; returns True if it was new."""
        self.add_node(src)
        self.add_node(dst)
        if dst in self._succ[src]:
            return False
        self._succ[src].add(dst)
        self._pred[dst].add(src)
        self._edge_count += 1
        return True

    def add_edges(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        for src, dst in edges:
            self.add_edge(src, dst)

    def remove_edge(self, src: Node, dst: Node) -> bool:
        """Remove edge ``src -> dst``; returns True if it was present.

        Endpoints stay in the graph even when isolated (node identity
        is owned by the :class:`~repro.core.nodes.NodeFactory`, and an
        isolated node cannot change any reachability answer).
        """
        members = self._succ.get(src)
        if members is None or dst not in members:
            return False
        members.discard(dst)
        self._pred[dst].discard(src)
        self._edge_count -= 1
        return True

    # -- inspection --------------------------------------------------------

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    @property
    def node_count(self) -> int:
        return len(self._succ)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def nodes(self) -> Iterator[Node]:
        return iter(self._succ)

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        for src, dsts in self._succ.items():
            for dst in dsts:
                yield src, dst

    def successors(self, node: Node) -> AbstractSet:
        """Successor set of ``node`` (empty for unknown nodes), as an
        immutable view of the live internal set."""
        members = self._succ.get(node)
        return _EMPTY if members is None else _SetView(members)

    def predecessors(self, node: Node) -> AbstractSet:
        """Predecessor set of ``node`` (empty for unknown nodes)."""
        members = self._pred.get(node)
        return _EMPTY if members is None else _SetView(members)

    def has_edge(self, src: Node, dst: Node) -> bool:
        return dst in self._succ.get(src, _EMPTY)

    def out_degree(self, node: Node) -> int:
        return len(self._succ.get(node, _EMPTY))

    def in_degree(self, node: Node) -> int:
        return len(self._pred.get(node, _EMPTY))

    def reverse(self) -> "Digraph":
        """A new graph with every edge flipped."""
        reversed_graph = Digraph()
        for node in self.nodes():
            reversed_graph.add_node(node)
        for src, dst in self.edges():
            reversed_graph.add_edge(dst, src)
        return reversed_graph

    def copy(self) -> "Digraph":
        duplicate = Digraph()
        for node in self.nodes():
            duplicate.add_node(node)
        for src, dst in self.edges():
            duplicate.add_edge(src, dst)
        return duplicate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Digraph nodes={self.node_count} edges={self.edge_count}>"


_EMPTY: Set[Node] = frozenset()  # type: ignore[assignment]
