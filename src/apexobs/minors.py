"""Exact minor containment for small graphs.

The descent drops one vertex per level, by an edge contraction or a vertex
deletion, and at |h| vertices matches h as a spanning subgraph on the bitset
rows (``is_minor`` proves that this decides h <= g).  Above that level,
results are memoized on canonical-form pairs.  A child whose edge count or
cycle rank (m - n + c), derived from its parent's, falls below h's is
refuted before it is built, and for h of minimum degree >= 2 each host is
cut to its 2-core.  So the cost grows with the vertex gap, not the edge gap.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

from .canonical import canonical_form
from .graphs import (
    Graph,
    _blocks_and_cuts,
    _components_meeting,
    _contraction_rows,
    _edge_count,
    _induced,
    _strip,
    bits,
    cyclomatic,
    popcount,
)

# (canonical_form(h), canonical_form(g)) -> bool.
_memo: dict[tuple[bytes, bytes], bool] = {}


def clear_minor_cache() -> None:
    _memo.clear()


def is_minor(h: Graph, g: Graph) -> bool:
    """True iff h is a minor of g (up to isomorphism of h).

    h <= g iff vertex deletions and edge contractions alone turn g into a
    graph on |h| vertices with h as a spanning subgraph.  Proof: contract each
    branch set of a minor model of h and delete every vertex outside it; the
    converse holds as h is that graph less some edges.

    When every vertex of h has degree >= 2, g is first cut to its 2-core: a
    vertex of g of degree <= 1 is then no whole branch set, and as a leaf of a
    larger one it can be dropped, since its only edge stays inside that set.
    """
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
    def order(self) -> list[tuple[int, int, list[int]]]:
        """h's vertices as (vertex, degree, neighbours placed before it), each
        next one with the most placed neighbours, then the highest degree."""
        adj, order, placed = self.graph.adj, [], 0
        for _ in range(self.n):
            v = max(
                bits(~placed & (1 << self.n) - 1),
                key=lambda v: (popcount(adj[v] & placed), popcount(adj[v])),
            )
            order.append((v, popcount(adj[v]), list(bits(adj[v] & placed))))
            placed |= 1 << v
        return order


def _descend(p: _Pattern, rows: tuple[int, ...], alive: int, m: int, rank: int) -> bool:
    """Is p's graph a minor of the graph the rows induce on ``alive``, which
    has m edges and cycle rank ``rank``, none of them below p's?"""
    if p.min_degree_two and (core := _strip(rows, alive)[0]) != alive:
        alive, m = core, _edge_count(rows, core)
        if p.n > popcount(core) or p.m > m:
            return False
    if popcount(alive) == p.n:
        return _spans(p, rows, alive)
    g = _induced(rows, alive)
    key = (canonical_form(p.graph), canonical_form(g))
    cached = _memo.get(key)
    if cached is None:
        cached = _memo[key] = any(
            p.m <= cm and p.rank <= crank and _descend(p, crows, calive, cm, crank)
            for crows, calive, cm, crank in _children(g, m, rank)
        )
    return cached


def _children(g: Graph, m: int, rank: int) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """(rows, alive, edge count, cycle rank) in g's labels of each edge uv
    of ``g.edges()`` contracted into u, then of each vertex deleted.  A
    contraction loses the common neighbours of u and v from the rank, and one
    more edge; deleting a vertex of degree d that touches p components of the
    rest loses d edges and d - p from the rank (p = 0 if d = 0)."""
    adj, full = g.adj, (1 << g.n) - 1
    for u, v in g.edges():
        common = popcount(adj[u] & adj[v])
        yield _contraction_rows(adj, u, v), full & ~(1 << v), m - 1 - common, rank - common
    for v in range(g.n):
        rest = full & ~(1 << v)
        pieces = _components_meeting(adj, adj[v], rest)
        yield adj, rest, m - popcount(adj[v]), rank - popcount(adj[v]) + pieces


def _spans(p: _Pattern, rows: tuple[int, ...], alive: int) -> bool:
    """Is p's graph a spanning subgraph of the graph the rows induce on
    ``alive`` (p.n vertices)?  Each vertex of h, in match order, goes on an
    unused vertex of at least its degree adjacent to its neighbours' images."""
    order = p.order
    degree = {v: popcount(rows[v] & alive) for v in bits(alive)}
    fits = {need: sum(1 << v for v, d in degree.items() if d >= need) for _, need, _ in order}
    image = [0] * p.n  # image[x]: the row of the vertex h's vertex x went on

    def place(i: int, free: int) -> bool:
        if i == p.n:
            return True
        x, need, back = order[i]
        cand = fits[need] & free
        for y in back:
            cand &= image[y]
        while cand:
            b = cand & -cand
            cand ^= b
            image[x] = rows[b.bit_length() - 1]
            if place(i + 1, free ^ b):
                return True
        return False

    return place(0, alive)


def max_triangle_packing_in_cactus(g: Graph) -> int:
    """Largest r with r disjoint triangles as a minor, for cactus graphs.

    In a cactus every cycle is a block, so rK3 <= g iff r cycle blocks can be
    chosen pairwise vertex-disjoint; disjointness only fails through shared
    cut-vertices.  Solved as maximum independent set on the cycle-block
    conflict graph (tiny for the graphs handled here).
    """
    blocks = _blocks_and_cuts(g.adj, (1 << g.n) - 1)[0]
    cycles = [b for b in blocks if popcount(b) >= 3]

    def best(i: int, used: int) -> int:
        if i == len(cycles):
            return 0
        skip = best(i + 1, used)
        if cycles[i] & used:
            return skip
        return max(skip, 1 + best(i + 1, used | cycles[i]))

    return best(0, 0)
