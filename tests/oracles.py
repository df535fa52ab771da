"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: minor
containment is decided by enumerating partition models, class membership and
connectivity go through networkx, isomorphism through networkx VF2, the
tree census through an AHU certificate, and partition refinement counts
neighbors into every cell on every pass.  Slow is fine; these run on small
graphs only.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx

from apexobs.graphs import Graph


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


# -- minors by partition models ---------------------------------------------------


def oracle_is_minor(h: Graph, g: Graph) -> bool:
    """h <= g iff g has disjoint connected branch sets, one per h-vertex,
    with an edge between every pair that is adjacent in h."""
    if h.n == 0:
        return True
    if h.n > g.n or h.num_edges() > g.num_edges():
        return False
    G = to_nx(g)
    hv = list(range(h.n))

    def connected(vs: tuple[int, ...]) -> bool:
        return nx.is_connected(G.subgraph(vs))

    def touch(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        return any(G.has_edge(x, y) for x in a for y in b)

    def place(i: int, used: frozenset[int], sets: list[tuple[int, ...]]) -> bool:
        if i == len(hv):
            return True
        free = [v for v in range(g.n) if v not in used]
        # branch sets of size 1..(remaining room)
        room = len(free) - (len(hv) - i - 1)
        for size in range(1, room + 1):
            for cand in combinations(free, size):
                if not connected(cand):
                    continue
                ok = True
                for j in range(i):
                    if h.has_edge(hv[j], hv[i]) and not touch(sets[j], cand):
                        ok = False
                        break
                if ok and place(i + 1, used | frozenset(cand), sets + [cand]):
                    return True
        return False

    return place(0, frozenset(), [])


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
