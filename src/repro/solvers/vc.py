"""Vertex-cover solvers (the paper's results extend to MVC).

Provides the exact optimum (MILP), the classical maximal-matching
2-approximation, and the 0-round regular-graph observation from the
paper's introduction (take all vertices: 2-approximation on k-regular
graphs).
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from repro.graphs.kernel import kernel_for

Vertex = Hashable


def is_vertex_cover(graph: nx.Graph, cover: set[Vertex]) -> bool:
    """Return whether ``cover`` touches every edge of ``graph``.

    Runs on the graph's kernel CSR: the cover fails iff some CSR slot
    joins two uncovered vertices (a self-loop is one slot, covered iff
    its vertex is).  Labels in ``cover`` that are not vertices of
    ``graph`` are ignored.
    """
    kernel = kernel_for(graph)
    index_of = kernel.index_of
    bare = np.ones(kernel.n, dtype=bool)
    bare[[index_of[v] for v in cover if v in index_of]] = False
    indptr = np.frombuffer(kernel.indptr, dtype=np.int64)
    indices = np.frombuffer(kernel.indices, dtype=np.int64)
    rows = np.repeat(bare, np.diff(indptr))
    return not (rows & bare[indices]).any()


def minimum_vertex_cover(graph: nx.Graph) -> set[Vertex]:
    """Exact minimum vertex cover via MILP (one constraint per edge)."""
    if graph.number_of_edges() == 0:
        return set()
    nodes = sorted(graph.nodes, key=repr)
    index = {v: i for i, v in enumerate(nodes)}
    # Canonical edge order: the MILP input must not depend on insertion
    # order, so that independent observers (simulate mode) agree.
    edges = sorted(tuple(sorted(e, key=repr)) for e in graph.edges)
    rows, cols = [], []
    for row, (u, v) in enumerate(edges):
        rows.extend([row, row])
        cols.extend([index[u], index[v]])
    matrix = csr_matrix(
        (np.ones(len(rows)), (rows, cols)),
        shape=(len(edges), len(nodes)),
    )
    result = milp(
        c=np.ones(len(nodes)),
        constraints=[LinearConstraint(matrix, lb=1, ub=np.inf)],
        integrality=np.ones(len(nodes)),
        bounds=Bounds(0, 1),
    )
    if not result.success:
        raise RuntimeError(f"MILP solver failed: {result.message}")
    cover = {nodes[i] for i in np.flatnonzero(np.round(result.x) > 0.5)}
    # Canonicalise: drop redundancies if any rounding slack crept in.
    for v in sorted(cover, key=repr):
        if is_vertex_cover(graph, cover - {v}):
            cover = cover - {v}
    return cover


def vertex_cover_number(graph: nx.Graph) -> int:
    """``MVC(G)`` as a number."""
    return len(minimum_vertex_cover(graph))


def matching_vertex_cover(graph: nx.Graph) -> set[Vertex]:
    """2-approximate vertex cover: both endpoints of a maximal matching.

    Deterministic: each edge is oriented repr-least endpoint first and
    the edges are scanned in sorted order, so the cover does not depend
    on the order (or orientation) in which the edges were inserted.
    """
    cover: set[Vertex] = set()
    edges = (sorted(edge, key=repr) for edge in graph.edges)
    for u, v in sorted(edges, key=lambda e: (repr(e[0]), repr(e[1]))):
        if u not in cover and v not in cover:
            cover.add(u)
            cover.add(v)
    return cover


def all_vertices_cover(graph: nx.Graph) -> set[Vertex]:
    """The 0-round cover from the introduction: take every vertex.

    On k-regular graphs this is a 2-approximation (the graph has
    ``kn/2`` edges while ``p`` vertices cover at most ``pk``).
    """
    return set(graph.nodes)
