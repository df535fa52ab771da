"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: minor
containment is decided by enumerating partition models (branch sets are
bitmasks, connected by their own BFS), class membership and connectivity go
through networkx, isomorphism through networkx VF2, the tree census through
an AHU certificate, partition refinement counts neighbors into every cell on
every pass, the canonical search keeps its cells as vertex lists and
branches down to discrete partitions, automorphism orbits come from VF2 matches with one vertex marked
on each side, enumeration extends every graph by every subset and keeps
one per canonical form, the butterfly-cacti attach at every non-central
vertex, power series are Fraction-valued with exp and MSET taken by the
exp-log formulas, the obstruction check runs a fresh apex test on every
child (a subset loop on graphs small enough for one), the obstruction
search takes its candidates from every graph up to isomorphism, and the minor test's match
order picks each next vertex by a keyed max over the vertices left.  Slow is fine; these run on
small graphs and orders only.

Four helpers here are no oracles but live here because only tests call
them: ``attach_butterfly``, the one-step butterfly attachment the cactus
and canonical tests build members with, ``in_form_order``, which lists
butterfly-cacti by canonical form for the tests that pick or pin members
by position, and ``eval_series`` and ``z1_identity_residual``,
double-precision evaluations the asymptotics tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

import networkx as nx

from apexobs.asymptotics import SaddlePoint, _log_terms, _moments, _z1_residual, eval_F
from apexobs.cacti import ButterflyCactus, _attached_rows
from apexobs.canonical import (
    _FIELD,
    _certificate,
    _form_graph,
    _iso_classes,
    canonical_form,
    graphs_up_to,
)
from apexobs.graphs import (
    ClassId,
    Graph,
    _one_step_children,
    butterfly_graph,
    complete_graph,
    disjoint_union,
    _twin_roots,
    has_apex_set_within,
    is_connected,
    popcount,
)
from apexobs.obstructions import _core_extensions, is_obstruction, structural_filters
from apexobs.series import PowerSeries, SeriesSystemSolution


def to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def nx_isomorphic(g: Graph, h: Graph) -> bool:
    return nx.is_isomorphic(to_nx(g), to_nx(h))


def reference_refine(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Refine an ordered partition until it is equitable, counting into all cells.

    Each pass splits every cell by the vector of neighbor counts into every
    current cell, sub-cells ordered by that vector, until a pass splits
    nothing.  The library's refinement counts only into the cells the
    previous pass created and must give the same ordered partition.
    """
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        new_cells: list[list[int]] = []
        for cell in cells:
            sig: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                key = tuple(bin(adj[v] & m).count("1") for m in masks)
                sig.setdefault(key, []).append(v)
            new_cells.extend(sig[key] for key in sorted(sig))
        if len(new_cells) == len(cells):
            return cells
        cells = new_cells


# -- the canonical search on list cells ------------------------------------------


def _list_refine(
    adj: tuple[int, ...], cells: list[list[int]], fresh: list[int]
) -> list[list[int]]:
    """Refine an ordered partition until it is equitable.

    Each pass splits every cell by the vector of its neighbor counts into the
    fresh cells (``fresh`` holds their indices into ``cells``, ascending).
    Splitting is deterministic (sub-cells ordered by their count vector) so
    the refined partition is isomorphism-invariant.  The sub-cells a pass
    creates, but the last of each split cell, are the fresh cells of the
    next pass; ``cells`` itself is not changed.

    Precondition: the first cell (in partition order) into which two vertices
    of one cell have different neighbor counts, if there is one, is fresh.
    Then the fresh counts decide the splits and the sub-cell order of
    counting against every cell.  It holds for the unit partition with
    ``fresh=[0]``, and for an equitable partition with one cell split into
    ``[v]`` and the rest, with ``fresh`` the index of ``[v]``: a count into
    the rest is the count into the old cell minus adjacency to v.  Each pass
    keeps it.  Two vertices left in one cell have equal counts into the fresh
    cells of the pass, so by the precondition into all of its cells.  They
    can first differ only at a sub-cell the pass created, and not at the
    last one of its cell: its count is the old cell's minus the counts into
    the sub-cells before it.

    A vertex's count vector is *packed* into one int key, each count in a
    field of ``MAX_VERTICES.bit_length()`` bits (a count is at most
    ``MAX_VERTICES``, so no field overflows into the next), the first fresh
    cell's count most significant.  Comparing two such ints compares the
    vectors lexicographically, so sorting the keys orders the sub-cells as
    sorting the tuples would.  A cell whose keys are all equal stays whole.
    """
    while fresh:
        new_cells: list[list[int]] = []
        masks = []
        for i in fresh:
            m = 0
            for v in cells[i]:
                m |= 1 << v
            masks.append(m)
        fresh = []
        for cell in cells:
            if len(cell) > 1:
                keys = []
                for v in cell:
                    a = adj[v]
                    key = 0
                    for m in masks:
                        key = key << _FIELD | popcount(a & m)
                    keys.append(key)
                if keys.count(keys[0]) != len(keys):
                    sig: dict[int, list[int]] = {}
                    for v, key in zip(cell, keys):
                        sig.setdefault(key, []).append(v)
                    for key in sorted(sig):
                        fresh.append(len(new_cells))
                        new_cells.append(sig[key])
                    fresh.pop()
                    continue
            new_cells.append(cell)
        cells = new_cells
    return cells


def reference_canonical_search(g: Graph) -> tuple[bytes, list[int], tuple[int, ...]]:
    """Form, labeling and orbits by the search on list cells.

    Cells are ascending lists, refined by ``_list_refine``, and every node
    refines and branches until its partition is discrete, with the same
    twin, orbit and backjump prunes as the library's search.  The library's
    search stops where only twin classes stay open, on bitmask cells, and
    must return the same form, labeling and orbits.
    """
    n, adj = g.n, g.adj
    if n == 0:
        return b"", [], ()
    best = -1
    best_order: list[int] = []
    best_fixed: tuple[int, ...] = ()
    gens: list[tuple[int, ...]] = []
    roots = _twin_roots(adj)

    def find(parent: list[int], x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def descend(cells: list[list[int]], fresh: list[int], fixed: tuple[int, ...]) -> int:
        """Search the subtree; return the depth to resume at (len(fixed) if none)."""
        nonlocal best, best_order, best_fixed
        cells = _list_refine(adj, cells, fresh)
        depth = len(fixed)
        if len(cells) == n:
            order = [c[0] for c in cells]
            s = _certificate(adj, order)
            if best < 0 or s < best:
                best, best_order, best_fixed = s, order, fixed
            elif s == best:
                sigma = [0] * n
                for i in range(n):
                    sigma[best_order[i]] = order[i]
                gens.append(tuple(sigma))
                # sigma maps best_fixed onto fixed, so both are equally long;
                # they differ, since equal prefixes reach the same leaf
                for level in range(depth):
                    if fixed[level] != best_fixed[level]:
                        # sigma fixes the common prefix, so what is left of the
                        # subtree at `level` is the image of an explored one
                        return level
            return depth
        target = 0
        while len(cells[target]) == 1:
            target += 1
        cell = cells[target]
        before, after = cells[:target], cells[target + 1:]
        explored: list[int] = []
        explored_roots: set[int] = set()
        # union-find over the automorphisms fixing `fixed`, built at the
        # first one: until then no sibling is the image of an explored one
        parent: list[int] | None = None
        folded = 0
        for v in cell:
            # skip a twin of an explored sibling: swapping them fixes `fixed`
            if roots[v] in explored_roots:
                continue
            if explored:
                # fold in automorphisms (old and newly found) fixing `fixed`;
                # skip v if one maps an explored sibling onto it
                while folded < len(gens):
                    s = gens[folded]
                    folded += 1
                    if all(s[p] == p for p in fixed):
                        if parent is None:
                            parent = list(range(n))
                        for w, x in enumerate(s):
                            if w != x:
                                a, b = find(parent, w), find(parent, x)
                                if a != b:
                                    parent[a] = b
                if parent is not None:
                    rv = find(parent, v)
                    if any(find(parent, u) == rv for u in explored):
                        continue
            explored.append(v)
            explored_roots.add(roots[v])
            rest = [u for u in cell if u != v]
            resume = descend(before + [[v], rest] + after, [target], fixed + (v,))
            if resume < depth:
                return resume
        return depth

    descend([list(range(n))], [0], ())
    parent = roots  # the twin classes, each linked to its smallest vertex
    for x, y in ((w, x) for s in gens for w, x in enumerate(s) if w != x):
        a, b = find(parent, x), find(parent, y)
        if a != b:
            parent[max(a, b)] = min(a, b)
    # every link points to a smaller vertex, so in ascending order each
    # vertex's parent already points at its root
    for w in range(n):
        parent[w] = parent[parent[w]]
    return best.to_bytes(4 * n, "big"), best_order, tuple(parent)


def nx_automorphism_orbits(g: Graph) -> tuple[int, ...]:
    """The smallest vertex of each vertex's automorphism orbit.

    v joins the orbit of a smaller orbit minimum u iff VF2 finds an
    isomorphism of g with u marked onto g with v marked.
    """
    G = to_nx(g)
    orbits = list(range(g.n))
    for v in range(g.n):
        for u in sorted(set(orbits[:v])):
            if G.degree[u] != G.degree[v]:
                continue
            marked_u, marked_v = G.copy(), G.copy()
            marked_u.nodes[u]["mark"] = marked_v.nodes[v]["mark"] = True
            matcher = nx.algorithms.isomorphism.GraphMatcher(
                marked_u, marked_v, node_match=lambda a, b: a.get("mark") == b.get("mark")
            )
            if next(matcher.isomorphisms_iter(), None) is not None:
                orbits[v] = u
                break
    return tuple(orbits)


# -- butterfly-cacti without automorphism pruning -------------------------------


def attach_butterfly(b: ButterflyCactus, v: int) -> ButterflyCactus:
    """Identify one extremal vertex of a new butterfly with vertex v.

    The surviving vertex id is v (the one from the old graph); the new
    butterfly contributes four fresh vertices, the central one n + 1.
    """
    n = b.graph.n
    g = Graph._from_rows(_attached_rows(b.graph.adj, v))
    return ButterflyCactus(g, b.central_vertices | {n + 1}, b.k + 1)


def in_form_order(members: Iterable[ButterflyCactus]) -> list[ButterflyCactus]:
    """``members`` sorted by the canonical forms of their graphs: an order
    that does not depend on how the library builds a level."""
    return sorted(members, key=lambda b: canonical_form(b.graph))


def reference_generate_Z(k: int) -> tuple[ButterflyCactus, ...]:
    """The k-butterfly-cacti, attaching a butterfly at every non-central vertex.

    Each level keeps the first child of every isomorphism class, parents in
    the order they entered the level and vertices ascending, and the result
    is sorted by canonical form.  The library attaches only at the smallest
    vertex of each automorphism orbit and must give the same members.
    """
    first = ButterflyCactus(butterfly_graph(), frozenset({0}), 1)
    level = {canonical_form(first.graph): first}
    for _ in range(k - 1):
        nxt: dict[bytes, ButterflyCactus] = {}
        for b in level.values():
            for v in range(b.graph.n):
                if v not in b.central_vertices:
                    child = attach_butterfly(b, v)
                    nxt.setdefault(canonical_form(child.graph), child)
        level = nxt
    return tuple(level[key] for key in sorted(level))


def reference_disconnected_obstructions(
    levels: Sequence[Sequence[ButterflyCactus]],
) -> tuple[Graph, ...]:
    """(k+2)K3 and the disjoint unions of >= 2 butterfly-cacti with levels
    summing to k+1, sorted by canonical form, where k = len(levels) and
    ``levels[j - 1]`` lists the j-butterfly-cacti.

    A multiset of members is one non-decreasing sequence of (level, index)
    pairs, and its union takes the members in that order.
    """
    k = len(levels)
    zs = dict(enumerate(levels, 1))
    out = {}

    def extend(rest: int, seq: list[tuple[int, int]]) -> None:
        if rest == 0:
            if len(seq) >= 2:
                g = disjoint_union(*[zs[j][i].graph for j, i in seq])
                key = canonical_form(g)
                assert key not in out, "two multisets gave isomorphic unions"
                out[key] = g
            return
        for j in range(seq[-1][0] if seq else 1, min(rest, k) + 1):
            start = seq[-1][1] if seq and seq[-1][0] == j else 0
            for i in range(start, len(zs[j])):
                extend(rest - j, seq + [(j, i)])

    extend(k + 1, [])
    triangles = disjoint_union(*([complete_graph(3)] * (k + 2)))
    out[canonical_form(triangles)] = triangles
    return tuple(out[key] for key in sorted(out))


# -- class membership ----------------------------------------------------------


def nx_cyclomatic(g: Graph) -> int:
    G = to_nx(g)
    return G.number_of_edges() - G.number_of_nodes() + nx.number_connected_components(G)


def oracle_in_class(g: Graph, cls: str) -> bool:
    if g.n == 0:
        return True
    G = to_nx(g)
    if cls == "subunicyclic":
        return nx_cyclomatic(g) <= 1
    if cls == "forest":
        return nx.is_forest(G)
    if cls == "pseudoforest":
        return all(
            G.subgraph(c).number_of_edges() <= len(c)
            for c in nx.connected_components(G)
        )
    if cls == "cactus":
        # every edge in at most one cycle <=> every block an edge or a cycle
        for block in nx.biconnected_components(G):
            H = G.subgraph(block)
            if H.number_of_edges() > len(block) and len(block) > 2:
                return False
            if len(block) > 2 and H.number_of_edges() != len(block):
                return False
        return True
    raise ValueError(cls)


def oracle_min_apex(g: Graph, cls: str) -> int:
    """Exhaustive minimum over all vertex subsets (all 2^n of them)."""
    best = g.n
    for size in range(g.n + 1):
        for drop in combinations(range(g.n), size):
            if size >= best:
                break
            h = g.delete_vertices(drop)
            if oracle_in_class(h, cls):
                best = size
                break
        if best <= size:
            break
    return best


# -- the obstruction check, one search per child -----------------------------------


SUBSET_REACH = 70  # the most deletion sets the subset loop tries on one graph


def oracle_apex_within(g: Graph, cls: str, k: int) -> bool:
    """Some set of at most k vertices leaves g in the class: every such set
    deleted in turn, each result tested by ``oracle_in_class``."""
    return any(
        oracle_in_class(g.delete_vertices(drop), cls)
        for size in range(k + 1)
        for drop in combinations(range(g.n), size)
    )


def reference_check_obstruction(
    g: Graph, k: int, cls: ClassId
) -> tuple[bool, str | None, Graph | None]:
    """(is_obstruction, failed_step, witness) with a fresh apex test per child.

    The apex test on g, then on every child of ``_one_step_children`` in
    order; the first child that fails is the witness.  The library's check
    settles most children by a deletion set found for a sibling and must
    give the same triple, the same witness bytes included.

    The apex test is the subset loop ``oracle_apex_within`` while a graph
    has at most ``SUBSET_REACH`` sets of <= k vertices: every graph at
    k <= 1, and graphs of <= 11 vertices at k = 2, <= 7 at k = 3 and <= 6 at
    k >= 4.  Above that reach it is the library's own ``has_apex_set_within``.
    """

    def apex_within(x: Graph) -> bool:
        if sum(comb(x.n, size) for size in range(k + 1)) <= SUBSET_REACH:
            return oracle_apex_within(x, cls.value, k)
        return has_apex_set_within(x, cls, k)

    if apex_within(g):
        return False, "membership", None
    for child in _one_step_children(g):
        if not apex_within(child):
            return False, "minimality", child
    return True, None, None


# -- enumeration by extending everything ------------------------------------------


def reference_enumerate(n: int) -> tuple[Graph, ...]:
    """``enumerate_graphs(n)`` built with no canonical augmentation: every
    graph on m - 1 vertices is extended by every subset, the extensions are
    deduplicated by canonical form (``_iso_classes``), and each class is
    read off its form, in form order, for m = 1..n."""
    level: tuple[Graph, ...] = (Graph(0),)
    for m in range(1, n + 1):
        extended = (g.add_vertex(nb) for g in level for nb in range(1 << (m - 1)))
        level = tuple(map(_form_graph, sorted(_iso_classes(extended))))
    return level


# -- obstruction search over every graph ----------------------------------------


def reference_search(k: int, max_n: int, connected_only: bool = False) -> list[Graph]:
    """The k-obstructions on <= max_n vertices, in the order of the search's records.

    Candidates are every graph of ``graphs_up_to(max_n)`` (canonical
    representatives) that passes the structural filters, each tested by
    ``is_obstruction``; the result is sorted by canonical form.  The
    library's search draws its candidates from cores of cyclomatic number
    2 plus k apex vertices instead, and must give the same graphs.
    """
    found = [
        g
        for g in graphs_up_to(max_n)
        if (not connected_only or is_connected(g))
        and structural_filters(g).passed
        and is_obstruction(g, k)
    ]
    return sorted(found, key=canonical_form)


def reference_core_levels(k: int, max_n: int) -> list[list[Graph]]:
    """The core levels of ``_candidates(k, max_n)``, m = 1 up to the top,
    built as the search built them before canonical augmentation: the
    ``_core_extensions`` of every graph of the level below, one per class by
    ``_iso_classes``.  At k = 0 the levels stop at 6 vertices, above which
    no candidate lies (see ``_candidates``)."""
    top = max_n - k if k else min(max_n, 6)
    levels = []
    level = [Graph(0)]
    for m in range(1, top + 1):
        raw = (ext for core in level for ext in _core_extensions(core, top - m + k))
        level = list(_iso_classes(raw).values())
        levels.append(level)
    return levels


# -- minors by partition models ---------------------------------------------------


def oracle_is_minor(h: Graph, g: Graph) -> bool:
    """h <= g iff g has disjoint connected branch sets, one per h-vertex,
    with an edge between every pair that is adjacent in h.

    A branch set is a bitmask over g's vertices: it is connected if a BFS
    along g.adj from its lowest vertex, kept inside the set, reaches all of
    it, and two sets touch if one meets the other's neighbourhood.  The
    h-vertices are placed in BFS order, so each one after the first of its
    component must touch a placed branch set, and a refutation fails early.
    """
    if h.n == 0:
        return True
    if h.n > g.n or h.num_edges() > g.num_edges():
        return False
    adj = g.adj

    def neighbourhood(vs: Iterable[int]) -> int:
        out = 0
        for v in vs:
            out |= adj[v]
        return out

    def connected(mask: int) -> bool:
        seen = frontier = mask & -mask
        while frontier:
            reach = neighbourhood(v for v in range(g.n) if frontier >> v & 1)
            frontier = reach & mask & ~seen
            seen |= frontier
        return seen == mask

    order: list[int] = []
    for root in range(h.n):
        if root in order:
            continue
        head = len(order)
        order.append(root)
        while head < len(order):
            v = order[head]
            head += 1
            order.extend(u for u in range(h.n) if h.has_edge(v, u) and u not in order)
    # earlier[i]: positions before i of the h-neighbours of order[i]
    earlier = [[j for j in range(i) if h.has_edge(order[j], order[i])] for i in range(h.n)]

    def place(i: int, used: int, touched: list[int]) -> bool:
        # touched[j]: neighbourhood of the branch set of h-vertex order[j]
        if i == h.n:
            return True
        free = [v for v in range(g.n) if not used >> v & 1]
        # branch sets of size 1..(remaining room)
        room = len(free) - (h.n - i - 1)
        for size in range(1, room + 1):
            for cand in combinations(free, size):
                mask = sum(1 << v for v in cand)
                if not connected(mask):
                    continue
                if all(touched[j] & mask for j in earlier[i]):
                    if place(i + 1, used | mask, touched + [neighbourhood(cand)]):
                        return True
        return False

    return place(0, 0, [])


def reference_match_order(h: Graph) -> list[tuple[int, int, list[int], int]]:
    """``minors._Pattern.order`` by its rule: each next vertex of h is the
    first of the rest with the most placed neighbours, then the highest
    degree, as (vertex, degree, placed neighbours, the member of its twin
    class placed last before it or n)."""
    adj, n = h.adj, h.n
    degree = [row.bit_count() for row in adj]
    roots = _twin_roots(adj)
    last = [n] * n
    order, placed, rest = [], 0, list(range(n))
    for _ in range(n):
        v = max(rest, key=lambda v: ((adj[v] & placed).bit_count(), degree[v]))
        rest.remove(v)
        back = [u for u in range(n) if (adj[v] & placed) >> u & 1]
        order.append((v, degree[v], back, last[roots[v]]))
        last[roots[v]] = v
        placed |= 1 << v
    return order


# -- brute-force cycle census -------------------------------------------------------


def count_cycles(g: Graph) -> int:
    """Number of distinct cycles (as vertex sets along a closed walk)."""
    G = to_nx(g)
    return sum(1 for _ in nx.simple_cycles(G))


# -- bc-tree via networkx -----------------------------------------------------------


def oracle_bc_tree_distances(g: Graph):
    """(blocks as frozensets, cut vertices, pairwise leaf-block distances)."""
    G = to_nx(g)
    blocks = [frozenset(b) for b in nx.biconnected_components(G)]
    cuts = set(nx.articulation_points(G))
    T = nx.Graph()
    for i, b in enumerate(blocks):
        T.add_node(("b", i))
        for v in b & cuts:
            T.add_edge(("b", i), ("c", v))
    dist = dict(nx.all_pairs_shortest_path_length(T))
    return blocks, cuts, dist


def oracle_peripheral_blocks(g: Graph) -> set[frozenset[int]]:
    blocks, cuts, dist = oracle_bc_tree_distances(g)
    if not cuts:
        return set()
    nodes = list(dist)
    diameter = max(dist[a][b] for a in nodes for b in nodes)
    out = set()
    for a in nodes:
        for b in nodes:
            if dist[a][b] == diameter:
                for e in (a, b):
                    if e[0] == "b":
                        out.add(blocks[e[1]])
    return out


# -- unlabeled trees by leaf attachment + AHU certificates ----------------------------


def _ahu(tree: nx.Graph, root: int) -> str:
    def enc(v: int, parent: int | None) -> str:
        kids = sorted(
            enc(u, v) for u in tree.neighbors(v) if u != parent
        )
        return "(" + "".join(kids) + ")"

    return enc(root, None)


def tree_certificate(tree: nx.Graph) -> str:
    """Isomorphism-complete certificate: AHU code rooted at the center(s)."""
    centers = nx.center(tree)
    return min(_ahu(tree, c) for c in centers)


def unlabeled_trees(n: int) -> list[nx.Graph]:
    """All unlabeled trees on n vertices (1, 1, 1, 2, 3, 6, 11, 23 for n=1..8)."""
    if n == 1:
        t = nx.Graph()
        t.add_node(0)
        return [t]
    out: dict[str, nx.Graph] = {}
    for t in unlabeled_trees(n - 1):
        for v in list(t.nodes):
            t2 = t.copy()
            t2.add_edge(v, n - 1)
            out.setdefault(tree_certificate(t2), t2)
    return list(out.values())


# -- multiset enumeration -----------------------------------------------------------


def count_multisets(sizes: list[int], total: int) -> int:
    """Number of multisets over objects of the given sizes with total size.

    `sizes` lists one entry per distinct object (repeats = distinct objects
    of equal size).  Plain bounded-knapsack enumeration.
    """
    counts = [0] * (total + 1)
    counts[0] = 1
    for s in sizes:
        new = counts[:]
        for used in range(s, total + 1, s):
            for base in range(0, total + 1 - used):
                new[base + used] += counts[base]
        counts = new
    return counts[total]


# -- butterfly buckets on bc-trees ----------------------------------------------------


def find_butterfly_buckets(g: Graph) -> list[tuple[int, list[frozenset[int]]]]:
    """Maximal groups of leaf-butterflies sharing an attachment vertex.

    A leaf-butterfly is an induced butterfly subgraph whose vertices, except
    one extremal attachment, have all their neighbors inside it, and whose
    far triangle is a peripheral block.  Returns (attachment, member blocks).
    """
    from apexobs.graphs import decompose, peripheral_blocks

    dec = decompose(g)
    peripheral = set(peripheral_blocks(g, dec))
    buckets: dict[int, list[frozenset[int]]] = {}
    for far in peripheral:
        # the far triangle hangs off a central vertex c of degree 4 whose
        # other triangle holds the attachment w
        cands = [v for v in far if g.degree(v) == 4]
        if len(cands) != 1 or len(far) != 3:
            continue
        c = cands[0]
        near = next(
            (b for b in dec.blocks if c in b and b != far and len(b) == 3), None
        )
        if near is None:
            continue
        wing = [v for v in near if v != c]
        attach = [v for v in wing if g.degree(v) > 2]
        inside = [v for v in wing if g.degree(v) == 2]
        if len(attach) == 1 and len(inside) == 1:
            w = attach[0]
        elif len(inside) == 2 and g.n == 5:
            continue  # the bare butterfly: no attachment
        else:
            continue
        mids = [v for v in far if v != c] + inside
        if all(g.degree(v) == 2 for v in mids):
            buckets.setdefault(w, []).append(far | near)
    return [(w, bs) for w, bs in buckets.items()]


# -- Fraction power series: the reference for the integer series -----------------


@dataclass(frozen=True)
class FracSeries:
    """A power series truncated at x^truncation, on exact Fraction coefficients.

    The reference algebra for `apexobs.series`: products and scales are
    written out term by term, exp and MSET go through the exp-log formulas
    with rational division, and nothing is checked integral on the way.
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(values: Iterable[int | Fraction], truncation: int) -> FracSeries:
        """The series with the given leading coefficients, zero-padded or cut."""
        cs = [Fraction(v) for v in values][: truncation + 1]
        return FracSeries(tuple(cs + [Fraction(0)] * (truncation + 1 - len(cs))))

    @staticmethod
    def zero(truncation: int) -> FracSeries:
        return FracSeries.of([], truncation)

    @staticmethod
    def one(truncation: int) -> FracSeries:
        return FracSeries.of([1], truncation)

    @staticmethod
    def x(truncation: int) -> FracSeries:
        return FracSeries.of([0, 1], truncation)

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def _check(self, other: FracSeries) -> None:
        if self.truncation != other.truncation:
            raise ValueError(f"truncation mismatch: {self.truncation} vs {other.truncation}")

    def __add__(self, other: FracSeries) -> FracSeries:
        self._check(other)
        return FracSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: FracSeries) -> FracSeries:
        self._check(other)
        return FracSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: FracSeries) -> FracSeries:
        self._check(other)
        n = self.truncation
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            for j in range(n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return FracSeries(tuple(out))

    def scale(self, factor: int | Fraction) -> FracSeries:
        return FracSeries(tuple(factor * a for a in self.coeffs))

    def shift(self) -> FracSeries:
        """Multiply by x (truncated)."""
        return FracSeries((Fraction(0),) + self.coeffs[:-1])

    def integer_coeffs(self) -> tuple[int, ...]:
        assert all(c.denominator == 1 for c in self.coeffs), self.coeffs
        return tuple(int(c) for c in self.coeffs)


def substitute_power(a: FracSeries, k: int) -> FracSeries:
    """A(x^k): coefficient j of the input lands at exponent j*k."""
    if k < 1:
        raise ValueError("substitution power must be >= 1")
    out = [Fraction(0)] * (a.truncation + 1)
    out[::k] = a.coeffs[: a.truncation // k + 1]
    return FracSeries(tuple(out))


def series_exp(a: FracSeries) -> FracSeries:
    """exp of a series with zero constant term, by the B' = A'B recurrence."""
    if a[0]:
        raise ValueError("series_exp needs zero constant term")
    n = a.truncation
    out = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, n + 1):
        out[m] = sum(j * a[j] * out[m - j] for j in range(1, m + 1)) / m
    return FracSeries(tuple(out))


def exp_log_mset(a: FracSeries) -> FracSeries:
    """Multiset construction as exp(sum_{k>=1} A(x^k)/k)."""
    if a[0]:
        raise ValueError("mset needs zero constant term")
    n = a.truncation
    log = FracSeries.zero(n)
    for k in range(1, n + 1):
        log += substitute_power(a, k).scale(Fraction(1, k))
    return series_exp(log)


def mset2(a: FracSeries) -> FracSeries:
    """Unordered pairs: (A(x)^2 + A(x^2))/2."""
    return (a * a + substitute_power(a, 2)).scale(Fraction(1, 2))


def fraction_system(n: int) -> dict[str, FracSeries]:
    """The counting system on Fraction series, keyed by the field names of
    `apexobs.series.SeriesSystemSolution`.

    T_diamond comes from plain fixed-point iteration of its equation from 0
    (one more exact order per round), and every rooted piece and the
    dissymmetry sum are written out term by term with rational scales.
    """
    d = FracSeries.zero(n)
    for _ in range(n + 1):
        a = exp_log_mset(d)
        d = ((a * a * a) + (a * substitute_power(a, 2))).scale(Fraction(1, 2)).shift()
    a = exp_log_mset(d)
    c = substitute_power(a, 2)
    q = substitute_power(a, 4)
    a2 = a * a
    a4 = a2 * a2
    a2c = a2 * c
    c2 = c * c
    t_circ = a - FracSeries.one(n)
    t_square = (
        a4.scale(Fraction(1, 8))
        + a2c.scale(Fraction(1, 4))
        + c2.scale(Fraction(3, 8))
        + q.scale(Fraction(1, 4))
    ).shift()
    t_triangle = (
        a4.scale(Fraction(1, 4)) + a2c.scale(Fraction(1, 2)) + c2.scale(Fraction(1, 4))
    ).shift()
    t_sq_to_tri = (
        a4.scale(Fraction(1, 4)) + a2c.scale(Fraction(1, 2)) + c2.scale(Fraction(1, 4))
    ).shift()
    t_tri_to_circ = (a4.scale(Fraction(1, 2)) + a2c.scale(Fraction(1, 2))).shift()
    t = t_square + t_triangle + t_circ - t_sq_to_tri - t_tri_to_circ
    return {
        "T_diamond": d,
        "T_star": a,
        "T_circ": t_circ,
        "T_square": t_square,
        "T_triangle": t_triangle,
        "T_tri_to_circ": t_tri_to_circ,
        "T": t,
        "G": exp_log_mset(t),
    }


# -- double-precision evaluations -------------------------------------------------


def eval_series(series: PowerSeries, z: float) -> float:
    """sum a_n z^n in doubles, robust to coefficients beyond float range."""
    if not 0 <= z < math.inf:  # NaN too
        raise ValueError(
            f"only non-negative arguments are supported, and only finite ones, got {z}"
        )
    try:
        c0 = float(series.coeffs[0])
    except OverflowError:
        raise ValueError("the constant coefficient a_0 is beyond float range") from None
    if z == 0.0:
        return c0
    terms = _log_terms([n * a for n, a in enumerate(series.coeffs)])
    try:
        value = c0 + _moments(terms, math.log(z))[0]
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"z = {z} puts a term or the sum of the series beyond float range")
    return value


def z1_identity_residual(
    sol: SeriesSystemSolution, sp: SaddlePoint, rho: float | None = None
) -> float:
    """The identity residual at the saddle (or at a perturbed rho)."""
    x = sp.x0 if rho is None else rho
    return _z1_residual(x, eval_F(x, sp.y0, sol))
