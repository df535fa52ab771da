"""Butterfly-cacti: the connected cactus obstructions, and their disconnected kin.

A butterfly is two triangles sharing one vertex (the central vertex, degree
4).  The k-butterfly-cacti are built recursively: start from the butterfly,
then repeatedly identify an extremal vertex of a fresh butterfly with a
non-central vertex of the current graph.  These are exactly the connected
cactus obstructions at apex level k-1; the disconnected ones are disjoint
unions of butterfly-cacti (levels summing to k+1) plus the exceptional
(k+2) disjoint triangles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from .canonical import _distinct, _iso_classes
from .graphs import (
    MAX_VERTICES,
    ClassId,
    Graph,
    butterfly_graph,
    _blocks_and_cuts,
    _count_forest_sets,
    _strip,
    bits,
    complete_graph,
    cycle_graph,
    disjoint_union,
    has_apex_set_within,
    is_in_class,
    popcount,
)
from .obstructions import _check_budget, is_obstruction, same_graph_sets
from .series import _CheckFailed

MAX_LEVEL = (MAX_VERTICES - 1) // 4  # Z_k has 4k + 1 vertices: 29 for k = 7


@dataclass(frozen=True)
class ButterflyCactus:
    """A k-butterfly-cactus with its set of central vertices."""

    graph: Graph
    central_vertices: frozenset[int]
    k: int

    def __post_init__(self) -> None:
        if len(self.central_vertices) != self.k:
            raise ValueError("central vertex count must equal the butterfly count")


def _glue_cycle(g: Graph, v: int, length: int) -> Graph:
    """g with a cycle of ``length`` glued at v: its ``length - 1`` new vertices
    are appended in ring order, the first and the last joined to v."""
    prev = v
    for _ in range(length - 2):
        g = g.add_vertex(1 << prev)
        prev = g.n - 1
    return g.add_vertex(1 << prev | 1 << v)


def _attached_rows(rows: tuple[int, ...], v: int) -> tuple[int, ...]:
    """``rows`` with a new butterfly whose extremal vertex is identified with
    v: two triangles glued in turn as ``_glue_cycle`` glues them, at v and then
    at the new central vertex, so the four fresh vertices are n (joined to v
    and n + 1), the central n + 1, and n + 2, n + 3 of the far triangle."""
    n = len(rows)
    return rows[:v] + (rows[v] | 3 << n,) + rows[v + 1:] + (
        1 << v | 2 << n,
        1 << v | 13 << n,
        10 << n,
        6 << n,
    )


# -- incidence trees --------------------------------------------------------------
#
# Every block of a butterfly-cactus is a triangle, so a member is fixed up to
# isomorphism by its vertex-triangle incidence tree.  Every leaf of the tree
# is a vertex node (a triangle node has degree 3), so a tree isomorphism,
# which maps leaves to leaves, maps vertex nodes to vertex nodes, and two
# such cacti are isomorphic iff their trees are.  Any two leaves lie an even
# distance apart, so the diameter is even and the centre is one node, which
# every automorphism fixes.  Rooted there, the tree gets the AHU code (Aho, Hopcroft and Ullman,
# 1974, 3.2): a node's id is the interned sorted tuple of its children's ids,
# and the centre's id is the code of the tree.


def _peel_tree(
    rows: tuple[int, ...], ids: dict[tuple[int, ...], int]
) -> list[tuple[int, int, int]]:
    """The incidence tree of the triangle cactus on ``rows``, peeled from its
    leaves to its centre: (node, parent, id) for every node, in peel order,
    the centre last with parent -1.  Vertex v is node v and the triangles
    follow.  ``ids`` interns the sorted tuples of child ids, so two trees
    peeled against one ``ids`` have equal centre ids iff they are isomorphic.

    A node's ``link`` is the sum of its neighbours not yet peeled: when the
    node itself is peeled it has one left, its parent.  No two nodes of one
    layer are adjacent, as the centre is one node, so a layer peels in any
    order.  The centre has two or more neighbours left until the last layer
    peels them all, so its degree passes 1 there and it alone makes the
    next layer."""
    n = len(rows)
    deg = [row.bit_count() >> 1 for row in rows]  # each triangle at v takes two neighbours
    link = [0] * n
    for v, row in enumerate(rows):
        higher = row >> v + 1 << v + 1
        while higher:
            low = higher & -higher
            u = low.bit_length() - 1
            third = rows[u] & higher  # the triangle's third vertex, if above v
            higher ^= low | third
            if third:
                w = third.bit_length() - 1
                t = len(deg)
                deg.append(3)
                link.append(v + u + w)
                link[v] += t
                link[u] += t
                link[w] += t
    children: list[list[int]] = [[] for _ in deg]
    peeled = []
    layer = [v for v in range(n) if deg[v] == 1]
    left = len(deg)
    while left > 1:
        left -= len(layer)
        nxt = []
        for x in layer:
            i = ids.setdefault(tuple(sorted(children[x])), len(ids))
            p = link[x]
            peeled.append((x, p, i))
            children[p].append(i)
            link[p] -= x
            deg[p] -= 1
            if deg[p] == 1:
                nxt.append(p)
        layer = nxt
    (centre,) = layer
    peeled.append((centre, -1, ids.setdefault(tuple(sorted(children[centre])), len(ids))))
    return peeled


def _tree_orbits(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The smallest vertex in the automorphism orbit of each vertex, as
    ``automorphism_orbits`` gives it, from the incidence tree: every
    automorphism fixes the centre, so two nodes share an orbit iff the ids
    along their paths from the centre are equal."""
    path: dict[int, int] = {}
    keys: dict[tuple[int, int], int] = {}
    for x, p, i in reversed(_peel_tree(rows, {})):
        path[x] = keys.setdefault((path.get(p, -1), i), len(keys))
    first: dict[int, int] = {}
    return tuple(first.setdefault(path[v], v) for v in range(len(rows)))


def _row_levels(k: int) -> list[list[tuple[tuple[int, ...], int]]]:
    """The first k butterfly-cactus levels as bare (rows, central mask)
    members, each level in the order its members were first met.

    A butterfly is attached at the smallest vertex of each automorphism orbit
    (``_tree_orbits``) but the central ones: a vertex in the same orbit gives
    an isomorphic child.  Of the children, parents in the order they entered
    the level and vertices ascending, the first of each incidence-tree code
    is kept.  No level is bounded by the vertex limit, and no ``Graph`` is
    built."""
    ids: dict[tuple[int, ...], int] = {}
    level = [(butterfly_graph().adj, 1)]
    levels = [level]
    for _ in range(k - 1):
        children: dict[int, tuple[tuple[int, ...], int]] = {}
        for rows, central in level:
            fresh = 2 << len(rows)  # the new butterfly's central vertex
            for v, orbit in enumerate(_tree_orbits(rows)):
                if v == orbit and not central >> v & 1:
                    child = _attached_rows(rows, v)
                    children.setdefault(_peel_tree(child, ids)[-1][2], (child, central | fresh))
        level = list(children.values())
        levels.append(level)
    return levels


def _members(level: list[tuple[tuple[int, ...], int]], k: int) -> tuple[ButterflyCactus, ...]:
    """One level of ``_row_levels`` as ``ButterflyCactus`` objects, in the
    order ``_row_levels`` met them."""
    return tuple(ButterflyCactus(Graph._from_rows(rows), frozenset(bits(central)), k)
                 for rows, central in level)


def _check_level(k: int) -> None:
    if not 1 <= k <= MAX_LEVEL:
        raise ValueError(f"k must be in 1..{MAX_LEVEL}, got {k}")


def generate_Z(k: int) -> tuple[ButterflyCactus, ...]:
    """All k-butterfly-cacti up to isomorphism, with central vertices tracked,
    in build order.

    The levels are built on bitset rows and deduplicated by incidence-tree
    code (``_row_levels``), and level k is listed in the order it was built,
    which depends on k alone: no canonical search is made.
    Counts for k = 1..7: 1, 1, 3, 7, 25, 88, 366.
    """
    _check_level(k)
    return _members(_row_levels(k)[-1], k)


def _z_levels(k: int) -> list[tuple[ButterflyCactus, ...]]:
    """The members of generate_Z(1), ..., generate_Z(k) from one pass of
    ``_row_levels``, each level in build order: ``_row_levels(k)`` builds
    levels 1..k as ``_row_levels(j)`` builds them for every j <= k."""
    _check_level(k)
    return [_members(level, j) for j, level in enumerate(_row_levels(k), 1)]


def butterfly_levels(k: int) -> tuple[tuple[ButterflyCactus, ...], ...]:
    """``(generate_Z(1), ..., generate_Z(k))`` from one ``_row_levels`` pass,
    member by member in build order."""
    return tuple(_z_levels(k))


def central_set(b: ButterflyCactus, verify: str = "forest") -> frozenset[int]:
    """The central vertices K(G), the unique k-set whose removal leaves a forest.

    verify="forest" re-checks that removing the set leaves a forest;
    verify="unique" additionally counts the k-subsets that leave a forest
    and demands exactly one.  Any other value raises ValueError.
    """
    if verify not in ("forest", "unique"):
        raise ValueError(f"verify must be 'forest' or 'unique', got {verify!r}")
    g, k = b.graph, b.k
    if not is_in_class(g.delete_vertices(b.central_vertices), ClassId.FOREST):
        raise _CheckFailed("construction bug: central set is not an apex-forest set")
    if verify == "unique" and count_forest_apex_sets(g, k) != 1:
        raise _CheckFailed("construction bug: apex-forest set not unique")
    return b.central_vertices


def count_forest_apex_sets(g: Graph, k: int) -> int:
    """Number of k-subsets of vertices whose removal leaves a forest."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    full = (1 << g.n) - 1
    return _count_forest_sets(g.adj, *_strip(g.adj, full), full, k)


# -- disconnected obstructions --------------------------------------------------


def _check_union_level(k: int) -> None:
    top = MAX_VERTICES // 5 - 1
    if not 1 <= k <= top:
        raise ValueError(f"k must be in 1..{top} (largest member has 5(k+1) vertices), got {k}")


def disconnected_obstructions(k: int) -> tuple[Graph, ...]:
    """Disconnected cactus obstructions at level k, up to isomorphism: the
    disjoint unions over multisets {G_1..G_r}, r >= 2, of k_i-butterfly-cacti
    with sum k_i = k+1, and (k+2)K3, in build order (``cactus_unions``)."""
    _check_union_level(k)  # before any level is built
    return cactus_unions(_z_levels(k))


def cactus_unions(levels: Sequence[tuple[ButterflyCactus, ...]]) -> tuple[Graph, ...]:
    """``disconnected_obstructions(k)``, k = len(levels), from the members of
    ``generate_Z(1), ..., generate_Z(k)`` in build order: (k+2)K3 first, then
    the unions of ``_cacti_unions`` by vertex count, ties in walk order.  A
    union of r members has 4k + 4 + r vertices.  Levels in another order
    give the same classes, listed and labelled by that order."""
    k = len(levels)
    _check_union_level(k)
    return (exceptional_obstruction(k), *sorted(_cacti_unions(levels), key=lambda g: g.n))


def _cacti_unions(levels: Sequence[tuple[ButterflyCactus, ...]]) -> Iterator[Graph]:
    """The disjoint unions of butterfly-cacti with levels summing to k + 1
    (``levels[j - 1]`` holds the members of ``generate_Z(j)``, k =
    len(levels)), one per multiset of members: a walk over the members in
    (level, index) order, each pick at or after the last (no level exceeds
    k, so >= 2 picks).  No two walks give isomorphic unions (a union's
    components are its members, one level's members are pairwise
    non-isomorphic, level j has 4j + 1 vertices), so no canonical search is
    needed to drop any."""
    members = [(j, b.graph) for j, level in enumerate(levels, 1) for b in level]

    def walk(start: int, rest: int, picked: tuple[Graph, ...]) -> Iterator[Graph]:
        if rest == 0:
            yield disjoint_union(*picked)
        for i in range(start, len(members)):
            j, g = members[i]
            if j > rest:
                break
            yield from walk(i, rest - j, picked + (g,))

    return walk(0, len(levels) + 1, ())


def exceptional_obstruction(k: int) -> Graph:
    """(k+2) disjoint triangles."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return disjoint_union(*([complete_graph(3)] * (k + 2)))


@dataclass(frozen=True)
class CactusObstructionFamily:
    """All cactus obstructions at one level: connected members (the
    (k+1)-butterfly-cacti), the disconnected unions, and the exceptional
    (k+2) disjoint triangles."""

    k: int
    connected: tuple[ButterflyCactus, ...]
    disconnected: tuple[Graph, ...]
    exceptional: Graph

    def __post_init__(self) -> None:
        members = self.all_graphs()
        if len(_distinct((g, None) for g in members)) != len(members):
            raise ValueError("family members must be pairwise non-isomorphic")
        for g in members:
            if not is_in_class(g, ClassId.CACTUS):
                raise ValueError("every family member must be a cactus")

    def all_graphs(self) -> tuple[Graph, ...]:
        return (
            tuple(b.graph for b in self.connected)
            + self.disconnected
            + (self.exceptional,)
        )

    def __len__(self) -> int:
        return len(self.connected) + len(self.disconnected) + 1


def cactus_obstruction_family(k: int) -> CactusObstructionFamily:
    """The full cactus-obstruction family at level k (1 <= k <= 5), from
    one pass over the butterfly-cactus levels 1..k+1."""
    _check_union_level(k)
    levels = _z_levels(k + 1)
    exceptional, *unions = cactus_unions(levels[:k])
    return CactusObstructionFamily(
        k=k,
        connected=levels[k],
        disconnected=tuple(unions),
        exceptional=exceptional,
    )


# -- cross-verification -----------------------------------------------------------


def connected_cacti_up_to(max_n: int) -> list[Graph]:
    """All connected bridgeless cacti with <= max_n vertices, up to isomorphism.

    Built by gluing cycles at single vertices (every bridgeless cactus arises
    this way), one block more each round, so no class recurs across rounds;
    the candidate pool of ``verify_holiness``.
    """
    level = _iso_classes(cycle_graph(r) for r in range(3, max_n + 1))
    all_out = dict(level)
    while level:
        level = _iso_classes(
            _glue_cycle(g, v, length)
            for g in level.values()
            for length in range(3, max_n - g.n + 2)
            for v in range(g.n)
        )
        all_out.update(level)
    return [all_out[key] for key in sorted(all_out)]


@dataclass
class HolinessReport:
    """Cross-check of 'connected cactus obstructions = butterfly-cacti'."""

    k: int
    members: int
    all_members_verified: bool  # every member checked, and each an obstruction
    search_space: int | None
    search_matches: bool | None
    runtime_seconds: float
    complete: bool = True


def verify_holiness(k: int, budget_seconds: float | None = None) -> HolinessReport:
    """(a) every (k+1)-butterfly-cactus is a level-k obstruction;
    (b) for k <= 2, a search of every connected bridgeless cactus on at most
    6 + 4k vertices finds no other connected obstruction.
    """
    if not 0 <= k < MAX_LEVEL:
        raise ValueError(f"k must be in 0..{MAX_LEVEL - 1}, got {k}")
    _check_budget(budget_seconds)
    t0 = time.perf_counter()
    members = generate_Z(k + 1)
    ok = True
    complete = True
    for b in members:
        if budget_seconds is not None and time.perf_counter() - t0 > budget_seconds:
            complete = False
            break
        if not is_obstruction(b.graph, k):
            ok = False
    space = matches = None
    if k <= 2 and complete:
        # one vertex past the Z_{k+1} members; bridgeless cacti suffice, as
        # at k = 0 contracting a bridge or deleting a vertex of degree <= 1
        # keeps the cycle rank, and at k >= 1 every obstruction has minimum
        # degree 2 and no bridge (``structural_filters``)
        pool = connected_cacti_up_to(6 + 4 * k)
        space = len(pool)
        found = [g for g in pool if is_obstruction(g, k)]
        matches = same_graph_sets(found, [b.graph for b in members])
    return HolinessReport(
        k=k,
        members=len(members),
        all_members_verified=ok and complete,
        search_space=space,
        search_matches=matches,
        runtime_seconds=time.perf_counter() - t0,
        complete=complete,
    )


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


def apex_forest_bound_check(g: Graph) -> bool:
    """Cactus bound: with r = max disjoint triangles embeddable as a minor,
    at most r deletions always suffice to reach a forest.

    Restates 'no (k+2) disjoint triangles as a minor implies a (k+1)-apex
    forest set' at the binding level k = r-1.  Raises for non-cacti.
    """
    if not is_in_class(g, ClassId.CACTUS):
        raise ValueError("apex_forest_bound_check expects a cactus")
    r = max_triangle_packing_in_cactus(g)
    return has_apex_set_within(g, ClassId.FOREST, r)
