"""Theorem 4.4: the 3-round ``(2t−1)``-approximation via ``D₂``.

For a graph without true twins let ``γ(v)`` be the minimum number of
vertices *different from v* needed to dominate ``N[v]``, and

    D₂(G) = { v : γ(v) ≥ 2 }
          = { v : there is no u ≠ v with N[v] ⊆ N[u] }.

Lemma 5.19 shows ``D₂`` dominates every twin-free graph, and
Corollary 5.20 bounds ``|D₂| ≤ (2t−1)·MDS(G)`` on ``K_{2,t}``-minor-free
graphs.  The LOCAL cost is 3 rounds: one to learn neighbor identifiers,
one to learn the neighbors' closed neighborhoods (which also runs the
twin election), one to settle ``γ(v) ≥ 2`` — note ``N[v] ⊆ N[u]``
forces ``u ∈ N[v]``, so the test is radius-2 information.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx
import numpy as np

from repro.core.results import AlgorithmResult
from repro.graphs.kernel import KernelView, kernel_for
from repro.graphs.twins import remove_true_twins

Vertex = Hashable

D2_ROUNDS = 3


def gamma(graph: nx.Graph, v: Vertex) -> int:
    """``γ(v)``: 1 when a single other vertex dominates ``N[v]``, else ≥ 2.

    Only the 1-versus-more distinction matters to the algorithm, so the
    return value is capped at 2.  ``N[v] ⊆ N[u]`` is one bitset subset
    test per neighbor on the graph's kernel (or a batched sorted-row
    scan on the packed backend).
    """
    kernel = kernel_for(graph)
    if kernel.backend == "packed":
        from repro.graphs.packed import gamma_packed

        return gamma_packed(kernel, kernel.index(v))
    closed = kernel.closed_bits
    i = kernel.index(v)
    n_v = closed[i]
    for j in kernel.neighbor_row(i):
        if not (n_v & ~closed[j]):
            return 1
    return 2


def d2_set(graph: nx.Graph) -> set[Vertex]:
    """``D₂(G)``: vertices whose closed neighborhood needs ≥ 2 dominators."""
    kernel = kernel_for(graph)
    if kernel.backend == "packed":
        from repro.graphs.packed import d2_members_packed

        return kernel.labels_of(d2_members_packed(kernel))
    closed = kernel.closed_bits
    members = 0
    for i in range(kernel.n):
        n_v = closed[i]
        if all(n_v & ~closed[j] for j in kernel.neighbor_row(i)):
            members |= 1 << i
    return kernel.labels_of(members)


def packed_pipeline_kernel(graph):
    """The packed kernel D₂'s array pipelines run on, or ``None``.

    ``None`` means the int path: an ``nx.Graph`` below the packed
    threshold.  A small :class:`~repro.graphs.kernel.KernelView`
    resolves to the int backend but has no ``nx.Graph`` to take twin
    subgraphs of, so its int kernel's CSR is lifted into a packed one.
    """
    kernel = kernel_for(graph)
    if kernel.backend == "packed":
        return kernel
    if isinstance(graph, KernelView):
        from repro.graphs.packed import PackedGraphKernel

        return PackedGraphKernel(kernel.labels, kernel.indptr, kernel.indices)
    return None


def twin_free_d2_packed(kernel):
    """Twin reduction then ``D₂``, on CSR arrays: ``(reduced, members, representative)``.

    ``reduced`` is the twin-free sub-kernel (original labels, kernel
    order), ``members`` its ``D₂`` as a packed mask, and
    ``representative[i]`` the surviving kernel index that stands for
    ``i`` in the input kernel — twins are the indices not their own
    representative.  No ``nx`` subgraph is built.
    """
    from repro.graphs.packed import d2_members_packed, twin_survivor_indices

    survivors, representative = twin_survivor_indices(kernel)
    reduced = kernel.induced(survivors)
    return reduced, d2_members_packed(reduced), representative


def _d2_dominating_packed(kernel) -> AlgorithmResult:
    """The same twin-reduce → D₂ → per-component fix-up, on CSR arrays.

    ``induced`` keeps original labels in kernel (repr) order, so the
    reduced kernel's lowest index in a component *is* the repr-least
    vertex — the exact deterministic fix-up the int path applies.  The
    fix-up reads one component labelling directly: a component with no
    ``D₂`` member gets its lowest index.
    """
    from repro.graphs.packed import PackedMask

    reduced, members, _ = twin_free_d2_packed(kernel)
    vertices, labels, count = reduced.component_labels(reduced.full_mask)
    covered = np.zeros(count, dtype=bool)
    covered[labels[members.to_bool()[vertices]]] = True
    lowest = vertices[np.unique(labels, return_index=True)[1]]
    fix = PackedMask.from_indices(reduced.n, lowest[~covered])
    solution = reduced.labels_of(members | fix)
    return AlgorithmResult(
        name="d2",
        solution=solution,
        rounds=D2_ROUNDS,
        phases={"d2": set(solution)},
        round_breakdown={"total": D2_ROUNDS},
        metadata={"twin_free_size": reduced.n},
    )


def d2_dominating_set(graph: nx.Graph) -> AlgorithmResult:
    """Theorem 4.4's algorithm: twin reduction, then output ``D₂``.

    Valid on every graph; the ``(2t−1)`` guarantee holds when the input
    is ``K_{2,t}``-minor-free.  Packed kernels and
    :class:`~repro.graphs.kernel.KernelView` instances run the whole
    pipeline on CSR arrays (no ``nx`` subgraphs, no mask table) with
    bit-identical output.
    """
    if graph.number_of_nodes() == 0:
        return AlgorithmResult(name="d2", solution=set(), rounds=0)
    kernel = packed_pipeline_kernel(graph)
    if kernel is not None:
        return _d2_dominating_packed(kernel)
    reduced, _ = remove_true_twins(graph)
    solution = d2_set(reduced)
    # A single vertex (after twin reduction a K_n collapses to one) has
    # gamma undefined; it must dominate itself.
    for component in nx.connected_components(reduced):
        if not (solution & component):
            solution.add(min(component, key=repr))
    return AlgorithmResult(
        name="d2",
        solution=solution,
        rounds=D2_ROUNDS,
        phases={"d2": set(solution)},
        round_breakdown={"total": D2_ROUNDS},
        metadata={"twin_free_size": reduced.number_of_nodes()},
    )
