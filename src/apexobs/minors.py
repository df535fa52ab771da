"""Exact minor containment for small graphs.

The test is recursive descent over the proper-minor order: h is a minor of g
iff h is isomorphic to g or h is a minor of some one-step minor of g (single
edge deletion, single edge contraction, single isolated-vertex deletion).
Results are memoized on canonical-form pairs, so repeated queries against the
same family of graphs stay cheap.  Intended for graphs up to roughly 12
vertices when h is close to g in size.
"""

from __future__ import annotations

from .canonical import canonical_form
from .graphs import Graph, one_step_minors

# (canonical_form(h), canonical_form(g)) -> bool.
_memo: dict[tuple[bytes, bytes], bool] = {}


def clear_minor_cache() -> None:
    _memo.clear()


def is_minor(h: Graph, g: Graph) -> bool:
    """True iff h is a minor of g (up to isomorphism of h)."""
    if h.n == 0:
        return True
    if h.num_edges() == 0:
        # edgeless graphs embed iff there is room for their vertices
        return h.n <= g.n
    if h.n > g.n or h.num_edges() > g.num_edges():
        return False
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
    return any(is_minor(h, child) for child in one_step_minors(g))


def max_triangle_packing_in_cactus(g: Graph) -> int:
    """Largest r with r disjoint triangles as a minor, for cactus graphs.

    In a cactus every cycle is a block, so rK3 <= g iff r cycle blocks can be
    chosen pairwise vertex-disjoint; disjointness only fails through shared
    cut-vertices.  Solved as maximum independent set on the cycle-block
    conflict graph (tiny for the graphs handled here).
    """
    from .graphs import _block_masks, popcount

    cycles = [b for b in _block_masks(g) if popcount(b) >= 3]

    def best(i: int, used: int) -> int:
        if i == len(cycles):
            return 0
        skip = best(i + 1, used)
        if cycles[i] & used:
            return skip
        return max(skip, 1 + best(i + 1, used | cycles[i]))

    return best(0, 0)
