"""Local cuts (Definition 2.1) and interesting vertices (Sections 3–4).

A set ``C`` is an *r-local k-cut* of ``G`` when

* the vertices of ``C`` are pairwise at distance at most ``r`` in ``G``, and
* ``C`` is a k-cut of ``H = G[∪_{v∈C} N^r[v]]``.

All cuts considered by the paper's algorithms are *minimal* (no proper
subset of the cut is also a cut of ``H``); for a 2-cut ``{u, v}`` this
means neither ``u`` nor ``v`` alone disconnects ``H``.

A vertex ``v`` is *r-interesting* (``r ≥ 2``) when there is an r-local
2-cut ``c = {u, v}`` with

* ``N[v] ⊄ N[u]``, and
* at least two connected components of ``G[N^r[c]] − c`` each contain a
  vertex non-adjacent to ``u``.

These predicates are all decidable from radius-``r + 1`` views, which is
what makes the paper's Algorithm 1 a LOCAL algorithm.

Implementation
--------------

Arenas are **int bitsets** on the graph's
:class:`~repro.graphs.kernel.GraphKernel`: ``H`` is ``ball_u | ball_v``,
a cut test is a masked flood fill on the arena mask, and no
``nx.Graph.subgraph`` object is ever materialized.  Each vertex's
radius-``r`` ball mask is computed **once per (kernel, r)** and reused
across every pair the vertex participates in (the ball-mask arena
cache).

Most candidate pairs are not cuts, and a cheap local certificate says
so before any arena fill.  **Lemma.** Let ``ρ = min(r, 2)`` and let
``{u, v}`` (``v ∈ N^r[u]``) be a minimal 2-cut of its arena ``H``.  Then
``N(u) − v`` meets at least two components of ``G[N^ρ[u]] − {u, v}``,
and symmetrically for ``v``.  *Proof sketch.*  ``H`` is connected (two
overlapping balls).  A component ``C`` of ``H − {u, v}`` with no
neighbor of ``u`` has ``v`` as its only attachment, so ``v`` alone
separates ``C`` from ``u`` and the cut is not minimal; hence every
component touches ``u``, and ``N(u) − v`` meets all of them — at least
two.  ``G[N^ρ[u]] − {u, v}`` is a subgraph of ``H − {u, v}``, so vertices
it links are linked in ``H − {u, v}`` too.  With ``v = u`` the same
argument is the 1-cut certificate: every component of ``H − u`` holds a
neighbor of ``u``, so ``{u}`` is an r-local 1-cut only if ``N(u)`` is
unlinked in ``G[N^ρ[u]] − u`` (and exactly then when ``r ≤ 2``).

The per-vertex **partner mask** holds the ``v`` that pass ``u``'s side
of the certificate (bit ``u`` itself: the 1-cut side).  It is computed
once per (kernel, ρ) from ``u``'s link.  When ``G[N(u) − v]`` is still
connected the pair is rejected with no region fill at all, which keeps
hub vertices cheap; and only an inner vertex of a BFS spanning tree
(of the link, or of the region) can unlink the link, so tree leaves
are rejected without a fill too.  Minimal 2-cut and 1-cut enumeration,
the point tests and interesting-vertex detection run their arena fills
only on pairs that pass both partner masks; ``minimal=False`` is
outside the lemma and tests every pair.  The same argument, run the
other way, decides a passing pair in one pass over the components of
``H − {u, v}``: ``{u, v}`` is a minimal cut exactly when there are two
or more and each touches both ``u`` and ``v``.  Both tables are
registered kernel derived caches: ``invalidate_kernel(graph)`` clears
them, and a kernel rebuild (node-count change) orphans them
automatically.

Everything here is int-mask arithmetic on ``closed_bits``; on the
packed backend every entry point raises the packed kernel's
``closed_bits`` error, which names the int backend, before any mask
work.
"""

from __future__ import annotations

import weakref
from typing import Hashable

import networkx as nx

from repro.graphs.kernel import (
    GraphKernel,
    iter_bits,
    kernel_for,
    register_derived_cache,
)
from repro.graphs.util import ball_of_set

Vertex = Hashable

# Per-kernel lookup tables, graph -> {"kernel": GraphKernel, key: [value|None]*n}.
# Entries fill lazily per vertex; the whole entry is dropped when the
# graph's kernel object changes or invalidate_kernel is called.
# Ball masks are keyed by radius r, partner masks by the certificate
# radius ρ (so the 1-cut and 2-cut radii of a policy share one table).
_BALL_CACHE: "weakref.WeakKeyDictionary[nx.Graph, dict]" = weakref.WeakKeyDictionary()
register_derived_cache(_BALL_CACHE)
_PARTNER_CACHE: "weakref.WeakKeyDictionary[nx.Graph, dict]" = weakref.WeakKeyDictionary()
register_derived_cache(_PARTNER_CACHE)


def _kernel_table(
    cache: weakref.WeakKeyDictionary, graph: nx.Graph, kernel: GraphKernel, key: int
) -> list:
    """The (lazily filled) per-vertex table ``cache[graph][key]`` of ``kernel``."""
    try:
        entry = cache.get(graph)
    except TypeError:  # graph type that cannot be weak-referenced
        return [None] * kernel.n
    if entry is None or entry["kernel"] is not kernel:
        entry = {"kernel": kernel}
        try:
            cache[graph] = entry
        except TypeError:
            return [None] * kernel.n
    table = entry.get(key)
    if table is None:
        table = entry[key] = [None] * kernel.n
    return table


def _spanning_fill(kernel: GraphKernel, root: int, within: int) -> tuple[int, int]:
    """Component of ``G[within]`` holding vertex ``root``, and the inner
    (non-leaf) vertices of a BFS tree of it.

    Removing a leaf of a spanning tree leaves the rest of the component
    connected, so only inner vertices can separate it.
    """
    closed = kernel.closed_bits
    seen = 1 << root
    inner = 0
    frontier = [root]
    while frontier:
        grown = []
        for x in frontier:
            children = closed[x] & within & ~seen
            if children:
                inner |= 1 << x
                seen |= children
                grown.extend(iter_bits(children))
        frontier = grown
    return seen, inner


def _link_partners(kernel: GraphKernel, u: int, rho: int) -> int:
    """The partner mask of ``u``: every ``v`` passing ``u``'s certificate side.

    ``v`` passes when ``N(u) − v`` meets two or more components of
    ``G[N^ρ[u]] − {u, v}``.  For ``v = u`` (bit ``u``) and for every
    ``v`` outside ``N^ρ[u]`` that is the same question about ``N(u)`` in
    ``G[N^ρ[u]] − u``.
    """
    closed = kernel.closed_bits
    u_bit = 1 << u
    link = closed[u] & ~u_bit
    if not link:
        return 0
    root = (link & -link).bit_length() - 1
    region = (link if rho == 1 else kernel.closed_neighborhood_bits(link)) & ~u_bit
    link_part, candidates = _spanning_fill(kernel, root, link)
    if link_part != link:
        component, candidates = _spanning_fill(kernel, root, region)
        if link & ~component:
            return _unlinked_partners(kernel, link, region, component)
    # N(u) is linked, and only an inner vertex of the spanning tree (of
    # G[N(u)] when that is connected, else of G[N^ρ[u]] − u) can unlink it.
    partners = 0
    for v in iter_bits(candidates):
        v_bit = 1 << v
        rest = link & ~v_bit
        if v_bit & link and kernel.is_mask_connected(rest):
            continue
        if rest & ~kernel.component_bits(rest & -rest, region & ~v_bit):
            partners |= v_bit
    return partners


def _unlinked_partners(kernel: GraphKernel, link: int, region: int, component: int) -> int:
    """Partner mask of a vertex whose link meets several components of its
    region (``component`` is one of them).

    Removing a vertex off the link only splits components further, so
    it passes.  So does every link vertex, unless the link meets exactly
    two components and it is the only link vertex in its component.
    """
    parts = [link & component]
    rest = link & ~component
    while rest:
        component = kernel.component_bits(rest & -rest, region)
        parts.append(link & component)
        rest &= ~component
    partners = kernel.full_mask & ~link
    for part in parts:
        if len(parts) > 2 or part & (part - 1):
            partners |= part
    return partners


class _Arenas:
    """Radius-``r`` local-cut state of one graph: its ball and partner tables.

    Construction reads ``kernel.closed_bits`` first, so the packed
    backend (which keeps no such table) fails with its own error, naming
    the int backend, instead of a ``TypeError`` deep in the mask work.
    """

    __slots__ = ("kernel", "closed", "r", "rho", "balls", "partners")

    def __init__(self, graph: nx.Graph, r: int):
        kernel = kernel_for(graph)
        self.closed = kernel.closed_bits
        self.kernel = kernel
        self.r = r
        # ρ = min(r, 2), kept ≥ 1 so the link lies in the region; for
        # r < 1 there are no local cuts, so any filter is sound there.
        self.rho = max(1, min(r, 2))
        self.balls = _kernel_table(_BALL_CACHE, graph, kernel, r)
        self.partners = _kernel_table(_PARTNER_CACHE, graph, kernel, self.rho)

    def ball(self, i: int) -> int:
        """``N^r[i]`` as a mask, computed on first use."""
        mask = self.balls[i]
        if mask is None:
            mask = self.balls[i] = self.kernel.ball_bits(self.kernel.labels[i], self.r)
        return mask

    def partner_mask(self, i: int) -> int:
        """``i``'s partner mask (see :func:`_link_partners`), computed on first use."""
        mask = self.partners[i]
        if mask is None:
            mask = self.partners[i] = _link_partners(self.kernel, i, self.rho)
        return mask

    def one_cut(self, i: int) -> bool:
        """Whether ``{i}`` separates its (connected) ball."""
        if not self.partner_mask(i) >> i & 1:
            return False
        return not self.kernel.is_mask_connected(self.ball(i) & ~(1 << i))

    def two_cut(self, u: int, v: int, minimal: bool) -> bool:
        """Pair test; assumes ``u != v`` and ``v`` in ``ball(u)``.

        The arena ``H`` is connected, so ``{u, v}`` is a minimal cut of
        it exactly when ``H − {u, v}`` has two or more components and
        each holds a neighbor of ``u`` and one of ``v`` (a component
        missing ``u`` is cut off by ``v`` alone, and vice versa): one
        pass over the components instead of three flood fills.
        """
        if minimal and not (
            self.partner_mask(u) >> v & 1 and self.partner_mask(v) >> u & 1
        ):
            return False
        rest = (self.ball(u) | self.ball(v)) & ~((1 << u) | (1 << v))
        if not minimal:
            return not self.kernel.is_mask_connected(rest)
        n_u, n_v = self.closed[u], self.closed[v]
        count = 0
        for comp in self.kernel.components_of_mask(rest):
            if not (comp & n_u and comp & n_v):
                return False
            count += 1
        return count >= 2

    def certifies_interesting(self, u: int, v: int) -> bool:
        """Interesting-ness conditions for ``v`` with cut partner ``u``."""
        n_u = self.closed[u]
        if not self.closed[v] & ~n_u:  # first condition: N[v] ⊄ N[u]
            return False
        arena = self.ball(u) | self.ball(v)
        rest = arena & ~((1 << u) | (1 << v))
        witnesses = 0
        for comp in self.kernel.components_of_mask(rest):
            if comp & ~n_u:
                witnesses += 1
                if witnesses >= 2:
                    return True
        return False


def local_cut_subgraph(graph: nx.Graph, cut: set[Vertex], r: int) -> nx.Graph:
    """Return ``H = G[∪_{v∈C} N^r[v]]``, the arena of the local-cut test."""
    return graph.subgraph(ball_of_set(graph, cut, r))


def is_local_one_cut(graph: nx.Graph, v: Vertex, r: int) -> bool:
    """Return whether ``{v}`` is an r-local (minimal) 1-cut of ``graph``."""
    arenas = _Arenas(graph, r)
    return arenas.one_cut(arenas.kernel.index_of[v])


def local_one_cuts(graph: nx.Graph, r: int) -> set[Vertex]:
    """Return all vertices that form r-local minimal 1-cuts of ``graph``."""
    arenas = _Arenas(graph, r)
    labels = arenas.kernel.labels
    return {labels[i] for i in range(arenas.kernel.n) if arenas.one_cut(i)}


def is_local_two_cut(graph: nx.Graph, u: Vertex, v: Vertex, r: int, *, minimal: bool = True) -> bool:
    """Return whether ``{u, v}`` is an r-local 2-cut of ``graph``.

    With ``minimal=True`` (the algorithm's setting) the pair must be a
    minimal cut of the local arena: neither endpoint alone may disconnect
    it.
    """
    if u == v:
        return False
    arenas = _Arenas(graph, r)
    i, j = arenas.kernel.index_of[u], arenas.kernel.index_of[v]
    if not arenas.ball(i) >> j & 1:
        return False
    return arenas.two_cut(i, j, minimal)


def local_two_cuts(graph: nx.Graph, r: int, *, minimal: bool = True) -> list[frozenset[Vertex]]:
    """Enumerate all r-local (minimal) 2-cuts of ``graph``.

    One kernel-index-ordered scan: candidate partners of ``u`` are read
    straight off ``u``'s ball mask and only pairs with ``u_idx < v_idx``
    are tested, so every pair is visited exactly once.  With
    ``minimal=True`` the candidates are first narrowed to ``u``'s partner
    mask, and a pair pays its arena flood fills only once ``v``'s partner
    mask admits it too.  Kernel index order is sorted-repr order, so the
    output order matches the historical enumeration.
    """
    arenas = _Arenas(graph, r)
    labels = arenas.kernel.labels
    result: list[frozenset[Vertex]] = []
    for u in range(arenas.kernel.n):
        candidates = arenas.ball(u)
        if minimal:
            candidates &= arenas.partner_mask(u)
        for dv in iter_bits(candidates >> (u + 1)):
            v = u + 1 + dv
            if arenas.two_cut(u, v, minimal):
                result.append(frozenset({labels[u], labels[v]}))
    return result


def is_locally_k_connected(graph: nx.Graph, r: int, k: int) -> bool:
    """Return whether ``graph`` has no r-local k-cuts (Definition 2.1)."""
    if k == 1:
        return not any(is_local_one_cut(graph, v, r) for v in graph.nodes)
    if k == 2:
        return not local_two_cuts(graph, r, minimal=False)
    raise ValueError("local connectivity implemented for k in {1, 2} only")


def is_interesting_vertex(graph: nx.Graph, v: Vertex, r: int) -> bool:
    """Return whether ``v`` is r-interesting (Section 4 definition).

    Scans the partners ``u ∈ N^r[v]`` that ``v``'s partner mask admits
    for a certifying minimal r-local 2-cut ``{u, v}``.
    """
    arenas = _Arenas(graph, r)
    j = arenas.kernel.index_of[v]
    for i in iter_bits(arenas.ball(j) & arenas.partner_mask(j) & ~(1 << j)):
        if arenas.two_cut(i, j, True) and arenas.certifies_interesting(i, j):
            return True
    return False


def interesting_vertices(graph: nx.Graph, r: int) -> set[Vertex]:
    """Return all r-interesting vertices of ``graph``."""
    return {v for v in graph.nodes if is_interesting_vertex(graph, v, r)}


def interesting_vertices_of_cuts(
    graph: nx.Graph, cuts: list[frozenset[Vertex]], r: int
) -> set[Vertex]:
    """Restrict interesting-vertex detection to a precomputed cut list.

    Faster than :func:`interesting_vertices` when the local 2-cuts are
    already known (the algorithm computes them anyway).
    """
    arenas = _Arenas(graph, r)
    index_of = arenas.kernel.index_of
    result_bits = 0
    for cut in cuts:
        a, b = sorted(index_of[w] for w in cut)
        if not result_bits >> b & 1 and arenas.certifies_interesting(a, b):
            result_bits |= 1 << b
        if not result_bits >> a & 1 and arenas.certifies_interesting(b, a):
            result_bits |= 1 << a
    return arenas.kernel.labels_of(result_bits)
