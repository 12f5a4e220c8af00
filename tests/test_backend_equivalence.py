"""Golden envelopes: every LC' graph is a CSR graph, and it must keep
reproducing what the retired adjacency-set backend produced.

Until the engine kept one graph representation, a twin suite held the
object and CSR backends' ``repro.result/1`` envelopes byte-identical.
The table below is the object backend's answer, recorded before the
cut: the ``result_fingerprint`` of every shipped example under every
engine that builds a subtransitive graph (``"budget"`` where the
analysis aborts on its node budget). The CSR-only engine must
reproduce it byte for byte.

On random programs the envelope must be stable across runs (the
result cache addresses envelopes by content), and the CSR query fast
paths must agree with plain adjacency-set reachability over the same
edges. LC' = DTC = standard agreement lives in
``test_equivalence_properties``.
"""

import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.errors import AnalysisBudgetExceeded
from repro.export import result_fingerprint, result_to_dict
from repro.graph import Digraph, reachable_from
from repro.lang.ast import Lam
from repro.workloads.generators import random_typed_program

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_SOURCES = sorted(EXAMPLES_DIR.glob("*.lam"))

#: Engines that build an LC' graph.
GRAPH_ALGORITHMS = ("subtransitive", "hybrid", "polyvariant")

#: ``(example, algorithm) -> result_fingerprint`` of the object
#: backend's envelope, recorded before the backend was retired.
GOLDEN_FINGERPRINTS = {
    ("datatype_map.lam", "subtransitive"):
        "4b177e30930ac2b48ec1fdc29b4024243df046479df56ef0647ff15d28fa2544",
    ("datatype_map.lam", "hybrid"):
        "40bb4318623790abd8864fc739a7286e814f1cc0ff571e6d746c1738a8f68b1c",
    ("datatype_map.lam", "polyvariant"): "budget",
    ("effects_demo.lam", "subtransitive"):
        "104aff04a351f2ccdc2e9997974c00fef5ffa73cc6b8ddc5ea8d8f8078d5643a",
    ("effects_demo.lam", "hybrid"):
        "23563764105f42c4ed0ae4fa670a34c2640034224f44b9c5fb76186a254fe2b5",
    ("effects_demo.lam", "polyvariant"):
        "104aff04a351f2ccdc2e9997974c00fef5ffa73cc6b8ddc5ea8d8f8078d5643a",
    ("joinpoint.lam", "subtransitive"):
        "f7a951f55ca6abfb597a55b25b24435c7f4ea138ae2c8a0899e6ddc54013a980",
    ("joinpoint.lam", "hybrid"):
        "2a17a47a689322c42bf83905fbe0f467d1c1747db2a83a6a9723c356f3a63e22",
    ("joinpoint.lam", "polyvariant"):
        "9420c4c23eb017c2a1d93ee2cd1b5feed238df25c35239563db9c0be75ca78e4",
    ("letrec_lints.lam", "subtransitive"):
        "77188073bb0b4f4bfbaefcb288074d4bcea66b7fc5fa09a8193590c8919754b6",
    ("letrec_lints.lam", "hybrid"):
        "a0cd4ce5ac40daa3a09aa1b0aff46e25c822479ad71c40e41a14e1ca0b7dc86f",
    ("letrec_lints.lam", "polyvariant"): "budget",
    ("lint_showcase.lam", "subtransitive"):
        "41b452106680aab755b2950c2a0fff8eb6c17df38266fbbc24ff7c69cd86bae1",
    ("lint_showcase.lam", "hybrid"):
        "a9113e5c3a5e6bd9c3c74264034017f2aa569183a789bd1ff511676fbe3c5356",
    ("lint_showcase.lam", "polyvariant"):
        "41b452106680aab755b2950c2a0fff8eb6c17df38266fbbc24ff7c69cd86bae1",
    ("record_lints.lam", "subtransitive"):
        "c60dfa3fcf72076a0481c0166c038cc3fe00eac3d134212f1ff388d616482981",
    ("record_lints.lam", "hybrid"):
        "209d8e7c9c4742f6855839461de0ea11d1decaaf0f4623d22aaea3ca23d9130e",
    ("record_lints.lam", "polyvariant"):
        "c60dfa3fcf72076a0481c0166c038cc3fe00eac3d134212f1ff388d616482981",
    ("worked_example.lam", "subtransitive"):
        "8a4bb7e6bbf7f7f4b384548c189d7f911551b57ddaf2ef1b257d1a7b9e2a6518",
    ("worked_example.lam", "hybrid"):
        "5fc00c57c44119e0b21bd0e0bd8b793c4a6682d2b3481802b827ddfab16a3fba",
    ("worked_example.lam", "polyvariant"):
        "8a4bb7e6bbf7f7f4b384548c189d7f911551b57ddaf2ef1b257d1a7b9e2a6518",
}

seeds = st.integers(min_value=0, max_value=1_000_000)


def fingerprint(program, algorithm):
    """The envelope fingerprint, or ``"budget"`` on a budget abort
    (polyvariant on unbounded-type programs)."""
    try:
        result = repro.analyze(program, algorithm=algorithm)
    except AnalysisBudgetExceeded:
        return "budget"
    return result_fingerprint(result_to_dict(result))


def labels_in(nodes):
    """Abstraction labels carried by graph nodes (a congruence class
    node carries those of the occurrences it absorbed)."""
    labels = set()
    for node in nodes:
        if node.kind != "expr":
            continue
        exprs = (node.expr,) if node.expr is not None else node.absorbed
        labels.update(e.label for e in exprs if isinstance(e, Lam))
    return labels


class TestExampleEnvelopes:
    @pytest.mark.parametrize(
        "path", EXAMPLE_SOURCES, ids=lambda p: p.name
    )
    @pytest.mark.parametrize("algorithm", GRAPH_ALGORITHMS)
    def test_examples_byte_identical(self, path, algorithm):
        expected = GOLDEN_FINGERPRINTS.get((path.name, algorithm))
        assert expected is not None, (
            f"no golden fingerprint for {path.name} x {algorithm}"
        )
        program = repro.parse(path.read_text())
        assert fingerprint(program, algorithm) == expected

    def test_examples_present(self):
        # The glob above going empty would silently skip the suite.
        assert EXAMPLE_SOURCES
        assert {p.name for p in EXAMPLE_SOURCES} == {
            name for name, _ in GOLDEN_FINGERPRINTS
        }


class TestGeneratedEnvelopes:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_random_programs_byte_identical(self, seed):
        """Two independent runs (fresh parse, fresh graph, fresh
        interner) serialise to the same envelope."""
        for algorithm in GRAPH_ALGORITHMS:
            first, second = (
                fingerprint(
                    random_typed_program(seed, fuel=20, use_datatypes=True),
                    algorithm,
                )
                for _ in range(2)
            )
            assert first == second, (seed, algorithm)

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_query_surface_agrees(self, seed):
        """Pointwise agreement of the CSR query paths (byte-mark
        ``labels_of``, early-exit ``is_label_in``) with adjacency-set
        reachability over a copy of the same edges."""
        program = random_typed_program(seed, fuel=20, use_datatypes=False)
        cfa = repro.analyze(program)
        reference = Digraph()
        for node in cfa.graph.nodes():
            reference.add_node(node)
        reference.add_edges(cfa.graph.edges())
        for node in program.nodes:
            starts = cfa._start_nodes(node.nid)
            expected = labels_in(reachable_from(reference, starts))
            assert cfa.labels_of(node) == expected, (seed, node.nid)
        root = program.nodes[0]
        root_labels = labels_in(
            reachable_from(reference, cfa._start_nodes(root.nid))
        )
        for lam in program.abstractions:
            assert cfa.is_label_in(lam.label, root) == (
                lam.label in root_labels
            ), (seed, lam.label)
