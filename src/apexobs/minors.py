"""Exact minor containment for small graphs.

The test is recursive descent over the proper-minor order: h is a minor of g
iff h is isomorphic to g or h is a minor of some one-step minor of g (single
edge deletion, single edge contraction, single isolated-vertex deletion).
Results are memoized on canonical-form pairs, so repeated queries against the
same family of graphs stay cheap.

h's vertex count, edge count, cycle rank (m - n + c: edges - vertices +
components) and minimum degree are computed once per query, and its
canonical form at the first memo lookup.  The descent walks each host's
one-step children as bitset rows (``graphs._child_rows``) and derives every
child's counts from its parent's, its cycle rank by ``graphs._rank_drop``
(see ``_counted_children``), so a child is refuted before it is built:

- counts: none of the three rises under edge deletion, edge contraction or
  isolated-vertex deletion, so h is no minor of a child that falls below h
  in any of them;
- 2-core host: when h has minimum degree >= 2, a child is cut to its 2-core
  on the rows, because a vertex of degree <= 1 of g is either unused by a
  model of h or a leaf of a branch set of >= 2 vertices, whose only edge
  stays inside that set (see ``is_minor``); the cut keeps the cycle rank.
  A pattern with a vertex of degree <= 1, an isolated one included, takes
  the same descent without the cut: the one-step minors include
  isolated-vertex deletion, so the descent alone reaches every minor.

A child that survives is built as a graph once, to key the memo by its
canonical form.  So the cost depends on the 2-core of g and on the gap
between the counts of h and g, not on the vertex count alone: pendant trees
and forests cost nothing, and the descent stops at every one-step minor
whose counts fall below h's.
"""

from __future__ import annotations

from typing import Iterator

from .canonical import canonical_form
from .graphs import (
    Graph,
    _block_masks,
    _child_rows,
    _edge_count,
    _induced,
    _rank_drop,
    _strip,
    cyclomatic,
    popcount,
)

# (canonical_form(h), canonical_form(g)) -> bool.
_memo: dict[tuple[bytes, bytes], bool] = {}


def clear_minor_cache() -> None:
    _memo.clear()


def is_minor(h: Graph, g: Graph) -> bool:
    """True iff h is a minor of g (up to isomorphism of h).

    When every vertex of h has degree >= 2, g is first cut down to its
    2-core.  Take a model of h in g (disjoint connected branch sets, an edge
    of g between the sets of adjacent h-vertices) and a vertex x of g of
    degree <= 1.  If x is a whole branch set, its h-vertex has degree <= 1,
    which contradicts the condition.  Otherwise x is a leaf of a larger
    branch set and can be dropped: its only edge stays inside that branch
    set, so no model edge is lost.  Repeating this reaches the 2-core.

    Each child's counts are derived from its parent's, the cycle rank by
    ``graphs._rank_drop``, and a child whose counts fall below h's is
    refuted before it is built.
    """
    if h.n == 0:
        return True
    m = h.num_edges()
    if m == 0:
        # edgeless graphs embed iff there is room for their vertices
        return h.n <= g.n
    if h.n > g.n or m > (gm := g.num_edges()):  # refuted before h's other invariants
        return False
    p, rank = _Pattern(h, m), cyclomatic(g)
    return p.rank <= rank and _descend(p, g.adj, (1 << g.n) - 1, gm, rank)


class _Pattern:
    """The graph h of one query with the invariants the descent tests."""

    __slots__ = ("graph", "n", "m", "rank", "min_degree_two", "_form")

    def __init__(self, h: Graph, m: int):
        self.graph = h
        self.n, self.m, self.rank = h.n, m, cyclomatic(h)
        self.min_degree_two = min(map(popcount, h.adj)) >= 2
        self._form: bytes | None = None

    @property
    def form(self) -> bytes:
        if self._form is None:
            self._form = canonical_form(self.graph)
        return self._form


def _descend(p: _Pattern, rows: tuple[int, ...], alive: int, m: int, rank: int) -> bool:
    """Is p's graph a minor of the graph the rows induce on ``alive``?

    That graph has m edges and cycle rank ``rank``, and p does not exceed
    any of its counts.
    """
    if p.min_degree_two:
        core = _strip(rows, alive)[0]
        if core != alive:
            alive = core
            m = _edge_count(rows, core)
            if p.n > popcount(core) or p.m > m:
                return False
    g = _induced(rows, alive)
    key = (p.form, canonical_form(g))
    cached = _memo.get(key)
    if cached is None:
        cached = _memo[key] = key[0] == key[1] or any(
            p.n <= cn and p.m <= cm and p.rank <= crank and _descend(p, crows, calive, cm, crank)
            for crows, calive, cn, cm, crank in _counted_children(g, m, rank)
        )
    return cached


def _counted_children(
    g: Graph, m: int, rank: int
) -> Iterator[tuple[tuple[int, ...], int, int, int, int]]:
    """``_child_rows(g)`` with each child's vertex count, edge count and cycle
    rank, derived from g's m edges and cycle rank ``rank``.

    The rank falls by ``graphs._rank_drop`` with no deletion set.  Deleting
    an edge loses that edge, and deleting an isolated vertex no edge.  A
    contraction loses a vertex and keeps the components, so by m - n + c
    its edge count falls by one more than its rank.
    """
    adj, n = g.adj, g.n
    for rows, alive, edge in _child_rows(g):
        drop = _rank_drop(adj, rows, alive, edge, 0)
        if edge is None:
            yield rows, alive, n - 1, m, rank - drop
        elif alive >> edge[1] & 1:  # uv deleted
            yield rows, alive, n, m - 1, rank - drop
        else:
            yield rows, alive, n - 1, m - 1 - drop, rank - drop


def max_triangle_packing_in_cactus(g: Graph) -> int:
    """Largest r with r disjoint triangles as a minor, for cactus graphs.

    In a cactus every cycle is a block, so rK3 <= g iff r cycle blocks can be
    chosen pairwise vertex-disjoint; disjointness only fails through shared
    cut-vertices.  Solved as maximum independent set on the cycle-block
    conflict graph (tiny for the graphs handled here).
    """
    cycles = [b for b in _block_masks(g) if popcount(b) >= 3]

    def best(i: int, used: int) -> int:
        if i == len(cycles):
            return 0
        skip = best(i + 1, used)
        if cycles[i] & used:
            return skip
        return max(skip, 1 + best(i + 1, used | cycles[i]))

    return best(0, 0)
