"""Exact minor containment for small graphs.

The descent contracts one edge per level, one per orbit of the host's twin
swaps, and matches h as a subgraph of each host on the bitset rows
(``is_minor`` proves that this decides h <= g).  The match places the members
of each twin class of h (``graphs._twin_roots``) on increasing host vertices
only (``_spans`` proves that no embedding is lost).  Above |h| vertices,
results are memoized on the labelled rows of the host, for one query only:
``is_minor`` empties the memo on entry, so every entry is about the same h.
A child whose edge count or cycle rank (m - n + c), derived from its
parent's, falls below h's is refuted before it is built, and for h of
minimum degree >= 2 each host is cut to its 2-core.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

from .graphs import (
    Graph,
    _contraction_rows,
    _edge_count,
    _induced,
    _strip,
    _twin_roots,
    bits,
    cyclomatic,
    popcount,
)

# rows of the host relabelled by ``graphs._induced`` -> bool, for the hosts
# of the last query (``minor --json`` prints its size)
_memo: dict[tuple[int, ...], bool] = {}
# partial placements the match has tried since import (``minor --json``)
_placements = 0


def clear_minor_cache() -> None:
    _memo.clear()


def is_minor(h: Graph, g: Graph) -> bool:
    """True iff h is a minor of g (up to isomorphism of h).

    h <= g iff edge contractions alone turn g into a graph with h as a
    subgraph (contract a spanning tree of each branch set of a minor model
    and leave every other vertex unused).  So h <= g iff h is a subgraph of
    g or h <= g/e for an edge e; neither step raises the edge count or the
    cycle rank, so a host below h in either is refuted with all beneath it.

    When every vertex of h has degree >= 2, g is first cut to its 2-core: a
    vertex of g of degree <= 1 is then no whole branch set, and as a leaf of a
    larger one it can be dropped, since its only edge stays inside that set.
    """
    _memo.clear()
    m = h.num_edges()
    if m == 0:
        # edgeless graphs (K0 included) embed iff there is room for their vertices
        return h.n <= g.n
    if h.n > g.n or m > (gm := g.num_edges()):  # refuted before h's other invariants
        return False
    p, rank = _Pattern(h, m), cyclomatic(g)
    return p.rank <= rank and _descend(p, g.adj, (1 << g.n) - 1, gm, rank)


class _Pattern:
    """The graph h of one query with the invariants the descent tests."""

    def __init__(self, h: Graph, m: int):
        self.graph = h
        self.n, self.m, self.rank = h.n, m, cyclomatic(h)
        self.min_degree_two = min(map(popcount, h.adj)) >= 2

    @cached_property
    def order(self) -> list[tuple[int, int, list[int], int]]:
        """h's vertices in match order as (vertex, degree, neighbours placed
        before it, the member of its twin class (``_twin_roots``) placed
        last before it or n), each next one with the most placed
        neighbours, then the highest degree, then the lowest label."""
        adj, n = self.graph.adj, self.n
        degree = list(map(popcount, adj))
        roots = _twin_roots(adj)
        last = [n] * n  # last[r]: the last placed member of root r's class
        score = degree[:]  # placed neighbours << 5 | degree (below 32); -1 once placed
        order, placed = [], 0
        for _ in range(n):
            v = score.index(max(score))
            score[v] = -1
            for w in bits(adj[v] & ~placed):
                score[w] += 32
            order.append((v, degree[v], list(bits(adj[v] & placed)), last[roots[v]]))
            last[roots[v]] = v
            placed |= 1 << v
        return order


def _descend(p: _Pattern, rows: tuple[int, ...], alive: int, m: int, rank: int) -> bool:
    """Is p's graph a minor of the graph the rows induce on ``alive``, which
    has m edges and cycle rank ``rank``, none of them below p's?  A memo miss
    runs the match, which stands for every deletion below, then contracts."""
    if p.min_degree_two and (core := _strip(rows, alive)[0]) != alive:
        alive, m = core, _edge_count(rows, core)
        if p.n > popcount(core) or p.m > m:
            return False
    if popcount(alive) == p.n:
        return _spans(p, rows, alive)
    g = _induced(rows, alive)
    cached = _memo.get(g.adj)
    if cached is None:
        cached = _memo[g.adj] = _spans(p, rows, alive) or any(
            p.m <= cm and p.rank <= crank and _descend(p, crows, calive, cm, crank)
            for crows, calive, cm, crank in _children(g, m, rank)
        )
    return cached


def _children(g: Graph, m: int, rank: int) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """(rows, alive, edge count, cycle rank) in g's labels of each edge uv
    of ``g.edges()`` contracted into u, for the first edge of each orbit of
    g's twin swaps only: u and v are the first vertices of their twin
    classes, or v is the second of u's.  A twin swap is an automorphism of
    g, so it maps a skipped contraction onto an isomorphic kept one, and the
    edges between two classes, or inside one, form one orbit.  A contraction
    loses the common neighbours of u and v from the rank, and one more edge."""
    adj, full = g.adj, (1 << g.n) - 1
    roots = _twin_roots(adj)
    for u, v in g.edges():
        if roots[u] == u and (roots[v] == v or roots[v] == u and roots.index(u, u + 1) == v):
            common = popcount(adj[u] & adj[v])
            yield _contraction_rows(adj, u, v), full & ~(1 << v), m - 1 - common, rank - common


def _spans(p: _Pattern, rows: tuple[int, ...], alive: int) -> bool:
    """Is p's graph h a subgraph of the graph the rows induce on ``alive``
    (p.n vertices or more, the rest left unused)?  Each vertex of h, in
    match order, goes on an unused vertex of at least its degree adjacent to
    its neighbours' images, and above the image of its twin placed last
    before it.

    The twin rule loses no embedding.  A permutation inside a twin class of
    h is an automorphism of h (``_twin_roots``), so with an embedding phi of
    h, phi composed with any product of such permutations is an embedding
    too.  Take the one that sorts the images of each class along the match
    order: each vertex then lies above the image of its twin placed last
    before it, which are the lex-leader constraints of the transpositions of
    consecutive class members.  The degree and adjacency constraints hold
    for every embedding, so the match reaches the sorted one.
    """
    global _placements
    order, n = p.order, p.n
    top = order[0][1]  # the first vertex has h's highest degree
    fits = [0] * (top + 1)  # fits[d]: the vertices of degree >= d
    for v in bits(alive):
        fits[min(popcount(rows[v] & alive), top)] |= 1 << v
    for d in range(top, 0, -1):
        fits[d - 1] |= fits[d]
    image = [0] * n  # image[x]: the row of the vertex h's vertex x went on
    above = [-1] * (n + 1)  # above[x]: the vertices above x's image; -1 at n
    calls = 0

    def place(i: int, free: int) -> bool:
        nonlocal calls
        calls += 1
        if i == n:
            return True
        x, need, back, twin = order[i]
        cand = fits[need] & free & above[twin]
        for y in back:
            cand &= image[y]
        while cand:
            b = cand & -cand
            cand ^= b
            image[x] = rows[b.bit_length() - 1]
            above[x] = -(b << 1)
            if place(i + 1, free ^ b):
                return True
        return False

    found = place(0, alive)
    _placements += calls
    return found
