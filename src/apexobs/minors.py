"""Exact minor containment for small graphs.

The test is recursive descent over the proper-minor order: h is a minor of g
iff h is isomorphic to g or h is a minor of some one-step minor of g (single
edge deletion, single edge contraction, single isolated-vertex deletion).
The children of g are built and tested one at a time, repeats included.
Results are memoized on canonical-form pairs, so repeated queries against the
same family of graphs stay cheap.

Two exact prunes run before any canonical form is taken:

- cycle rank: m - n + c (edges - vertices + components) never rises under
  edge deletion, edge contraction or isolated-vertex deletion, so h is no
  minor of g when its cycle rank is larger;
- 2-core host: when h has minimum degree >= 2, g may be replaced by its
  2-core, because a vertex of degree <= 1 of g is either unused by a model
  of h or a leaf of a branch set of >= 2 vertices, whose only edge stays
  inside that set (see ``is_minor``).

So the cost depends on the 2-core of g and on the gap between the cycle
ranks of h and g, not on the vertex count alone: pendant trees and forests
cost nothing, and the descent stops at every one-step minor whose cycle
rank falls below h's.
"""

from __future__ import annotations

from .canonical import canonical_form
from .graphs import Graph, _block_masks, _one_step_children, _strip, cyclomatic, popcount

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
    """
    if h.n == 0:
        return True
    if h.num_edges() == 0:
        # edgeless graphs embed iff there is room for their vertices
        return h.n <= g.n
    if h.n > g.n or h.num_edges() > g.num_edges():
        return False
    if cyclomatic(h) > cyclomatic(g):
        return False
    if min(map(popcount, h.adj)) >= 2:
        full = (1 << g.n) - 1
        core, _ = _strip(g.adj, full)
        if core != full:
            return is_minor(h, g.subgraph(core))
    key = (canonical_form(h), canonical_form(g))
    cached = _memo.get(key)
    if cached is not None:
        return cached
    result = _is_minor_uncached(h, g, key)
    _memo[key] = result
    return result


def _is_minor_uncached(h: Graph, g: Graph, key: tuple[bytes, bytes]) -> bool:
    if key[0] == key[1]:
        return True
    iso = next((v for v in range(h.n) if h.adj[v] == 0), None)
    if iso is not None:
        # an isolated vertex of h occupies one vertex of g; try each host
        hh = h.delete_vertices([iso])
        seen: set[bytes] = set()
        for u in range(g.n):
            gg = g.delete_vertices([u])
            c = canonical_form(gg)
            if c not in seen:
                seen.add(c)
                if is_minor(hh, gg):
                    return True
        return False
    return any(is_minor(h, child) for child in _one_step_children(g))


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
