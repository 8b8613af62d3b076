"""True-twin detection and removal (Section 2 of the paper).

Two distinct vertices ``u`` and ``v`` are *true twins* when
``N[u] = N[v]`` (in particular they are adjacent).  The *true-twin-less
graph* ``G⁻`` associated to ``G`` keeps exactly one representative of
every true-twin class; the paper notes that ``MDS(G⁻) = MDS(G)`` and that
``G⁻`` is computable in a constant number of LOCAL rounds (each vertex
learns its neighbors' closed neighborhoods in 2 rounds and the
lowest-identifier twin survives).

We mirror that determinism: the representative of each class is the
minimum vertex under sorted-repr order, so distributed and centralized
computations agree.

Detection groups vertices by their precomputed closed-neighborhood
*bitsets* (one dict insert per vertex, keyed by a Python int) instead of
hashing a ``frozenset`` per vertex, and the iterated removal runs as a
pure bitset fixpoint on a shrinking survivor mask — the reduced graph is
materialized once at the end, not mutated per round.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.graphs.kernel import iter_bits, kernel_for

Vertex = Hashable


def true_twin_classes(graph: nx.Graph) -> list[set[Vertex]]:
    """Group the vertices of ``graph`` into true-twin equivalence classes.

    Vertices with a unique closed neighborhood form singleton classes.
    The result is deterministic: classes are sorted by their representative
    (dict insertion order already walks kernel indices ascending, and the
    kernel index of a class's first member *is* its repr-least vertex).
    """
    kernel = kernel_for(graph)
    labels = kernel.labels
    buckets: dict = {}
    for i, key in enumerate(_closed_keys(kernel)):
        buckets.setdefault(key, []).append(i)
    return [{labels[i] for i in members} for members in buckets.values()]


def _closed_keys(kernel):
    """Hashable per-vertex closed-neighborhood keys, kernel order.

    Int backend: the precomputed bitsets themselves.  Packed backend:
    the sorted closed CSR rows as bytes — no mask table is ever built.
    """
    if kernel.backend == "packed":
        cind, ccols = kernel._closed_csr()
        return (ccols[cind[i] : cind[i + 1]].tobytes() for i in range(kernel.n))
    return iter(kernel.closed_bits)


def has_true_twins(graph: nx.Graph) -> bool:
    """Return whether ``graph`` contains at least one true-twin pair."""
    kernel = kernel_for(graph)
    seen: set = set()
    for key in _closed_keys(kernel):
        if key in seen:
            return True
        seen.add(key)
    return False


def twin_representative(cls: set[Vertex]) -> Vertex:
    """Deterministic representative of a twin class (min by repr order)."""
    return min(cls, key=repr)


def remove_true_twins(graph: nx.Graph) -> tuple[nx.Graph, dict[Vertex, Vertex]]:
    """Return ``(G⁻, representative_map)``.

    ``G⁻`` is the induced subgraph of ``graph`` on one representative per
    true-twin class, iterated until no true twins remain (removing twins
    can create new ones, e.g. in a clique).  ``representative_map`` sends
    every original vertex to the vertex of ``G⁻`` that represents it.

    ``MDS(G⁻) = MDS(G)``: a dominating set of ``G⁻`` dominates ``G``
    because a removed twin has the same closed neighborhood as its
    representative.

    On a packed kernel the per-round fixpoint runs as prefix-sum
    bucketing over the closed CSR (same rounds, same representatives);
    the reduced graph is still materialized as an ``nx`` subgraph, so
    callers needing a graph-free reduction should use
    :func:`repro.graphs.packed.twin_survivor_indices` directly — as
    the D₂ and D₂-VC pipelines do, through
    :func:`repro.core.d2.twin_free_d2_packed`.
    """
    kernel = kernel_for(graph)
    labels = kernel.labels
    if kernel.backend == "packed":
        from repro.graphs.packed import twin_survivor_indices

        survivor_idx, representative = twin_survivor_indices(kernel)
        mapping = {
            labels[i]: labels[int(rep)] for i, rep in enumerate(representative.tolist())
        }
        reduced = graph.subgraph({labels[int(i)] for i in survivor_idx}).copy()
        return reduced, mapping
    closed = kernel.closed_bits
    mapping = {v: v for v in graph.nodes}
    survivors = kernel.full_mask
    while True:
        # One pass = group the current survivors by their closed
        # neighborhood *within the survivor-induced subgraph* and drop
        # every non-representative, all against the same snapshot
        # (matching the historical per-round class computation).
        buckets: dict[int, int] = {}
        removed = 0
        for i in iter_bits(survivors):
            key = closed[i] & survivors
            rep = buckets.get(key)
            if rep is None:
                buckets[key] = i  # ascending scan: first member is min-repr
            else:
                removed |= 1 << i
                mapping[labels[i]] = labels[rep]
        if not removed:
            break
        survivors &= ~removed
    # Path-compress: map original vertices through chains of removals.
    for v in list(mapping):
        rep = mapping[v]
        while mapping[rep] != rep:
            rep = mapping[rep]
        mapping[v] = rep
    reduced = graph.subgraph({labels[i] for i in iter_bits(survivors)}).copy()
    return reduced, mapping


def lift_dominating_set(dominating_set: set[Vertex], graph: nx.Graph) -> set[Vertex]:
    """Interpret a dominating set of ``G⁻`` as a dominating set of ``G``.

    Because every removed vertex is a true twin of its representative, the
    set itself already dominates ``G``; this helper exists for symmetry and
    validates the claim (callers may assert with
    :func:`repro.analysis.domination.is_dominating_set`).
    """
    return set(dominating_set)
