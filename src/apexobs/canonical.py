"""Canonical forms, isomorphism, and exhaustive graph enumeration.

The canonical form is computed by individualization-refinement: refine an
ordered partition of the vertices to an equitable one, branch on the first
non-singleton cell, and take the lexicographically smallest relabelled
adjacency matrix over all branches.

Refinement counts neighbors only into the cells the previous pass created
(the *fresh* cells): every other cell already has a constant count inside
each cell, so counting against it could split nothing and would not change
the order of the sub-cells.  At the root the fresh cell is the unit cell;
below a branch it is the individualized vertex ``[v]``.

Two prunes skip branch vertices whose subtrees are images of an explored
sibling's subtree under an automorphism fixing the branch prefix, so they
hold no leaf that the sibling's subtree does not hold earlier: a *twin* v of
an explored sibling u (N(v) - {u} = N(u) - {v}, so the transposition (u v) is
an automorphism), and a vertex that automorphisms found from two leaves with
the same matrix map onto an explored sibling.  The first smallest leaf in
search order is never pruned, so the form and the labeling do not depend on
either prune.  This keeps the search tree near-linear on the highly
symmetric cactus graphs this package generates.

Two graphs have equal canonical forms iff they are isomorphic.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, popcount

_CACHE_SIZE = 1 << 18


def _refine(
    adj: tuple[int, ...], cells: list[list[int]], fresh: list[int]
) -> list[list[int]]:
    """Refine an ordered partition until it is equitable.

    Each pass splits every cell by the vector of its neighbor counts into the
    fresh cells (``fresh`` holds their indices into ``cells``, ascending), and
    the sub-cells the pass creates are the fresh cells of the next pass.
    Splitting is deterministic (sub-cells ordered by their count vector) so
    the refined partition is isomorphism-invariant.  A cell with no neighbor
    in a fresh cell has all counts 0 and stays whole.

    Precondition: inside each cell, the neighbor count into each cell that is
    not fresh is constant.  Then the count vectors into *all* cells differ
    only at the fresh positions, so the splits and the sub-cell order are
    those of counting against every cell.  It holds for the unit partition
    with ``fresh=[0]``, and for an equitable partition with one cell split
    into ``[v]`` and the rest, with ``fresh`` the index of ``[v]``: a count
    into the rest is the count into the old cell minus adjacency to v.  Each
    pass keeps it, since a cell it does not split was either fresh, and so
    split every cell by its counts, or already had constant counts.
    """
    while fresh:
        masks = []
        for i in fresh:
            m = 0
            for v in cells[i]:
                m |= 1 << v
            masks.append(m)
        new_cells: list[list[int]] = []
        fresh = []
        for cell in cells:
            if len(cell) > 1:
                if len(masks) == 1:
                    m = masks[0]
                    keys = [popcount(adj[v] & m) for v in cell]
                else:
                    keys = [tuple([popcount(adj[v] & m) for m in masks]) for v in cell]
                if keys.count(keys[0]) != len(keys):
                    sig = {}
                    for v, key in zip(cell, keys):
                        sig.setdefault(key, []).append(v)
                    for key in sorted(sig):
                        fresh.append(len(new_cells))
                        new_cells.append(sig[key])
                    continue
            new_cells.append(cell)
        cells = new_cells
    return cells


def _certificate(adj: tuple[int, ...], order: list[int]) -> int:
    """Relabelled adjacency matrix (position i gets vertex order[i]) as one int.

    Row i is the 32-bit mask of the positions adjacent to position i; rows are
    concatenated first row most significant, so ``to_bytes(4 * n, "big")``
    gives the matrix bytes, and for a fixed n comparing two certificates
    compares those bytes.
    """
    at = [0] * len(order)
    for i, v in enumerate(order):
        at[v] = 1 << i
    cert = 0
    for v in order:
        a = adj[v]
        row = 0
        while a:
            low = a & -a
            row |= at[low.bit_length() - 1]
            a ^= low
        cert = cert << 32 | row
    return cert


def _canonical_search_pruned(g: Graph) -> tuple[bytes, list[int]]:
    """Individualization-refinement with twin and orbit pruning (see module docstring)."""
    n, adj = g.n, g.adj
    if n == 0:
        return b"", []
    best = -1
    best_order: list[int] = []
    gens: list[tuple[int, ...]] = []

    def find(parent: list[int], x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def descend(cells: list[list[int]], fresh: list[int], fixed: tuple[int, ...]) -> None:
        nonlocal best, best_order
        cells = _refine(adj, cells, fresh)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = [c[0] for c in cells]
            s = _certificate(adj, order)
            if best < 0 or s < best:
                best, best_order = s, order
            elif s == best:
                sigma = [0] * n
                for i in range(n):
                    sigma[best_order[i]] = order[i]
                gens.append(tuple(sigma))
            return
        cell = cells[target]
        explored: list[int] = []
        parent = list(range(n))
        folded = 0
        for v in cell:
            if explored:
                # skip v if it is a twin of an explored sibling u: the
                # transposition (u v) is an automorphism fixing `fixed`
                av = adj[v]
                if any(av & ~(1 << u) == adj[u] & ~(1 << v) for u in explored):
                    continue
                # fold in automorphisms (old and newly found) fixing `fixed`;
                # skip v if one maps an explored sibling onto it
                while folded < len(gens):
                    s = gens[folded]
                    folded += 1
                    if all(s[p] == p for p in fixed):
                        for w in range(n):
                            a, b = find(parent, w), find(parent, s[w])
                            if a != b:
                                parent[a] = b
                rv = find(parent, v)
                if any(find(parent, u) == rv for u in explored):
                    continue
            explored.append(v)
            rest = [u for u in cell if u != v]
            descend(cells[:target] + [[v], rest] + cells[target + 1:], [target], fixed + (v,))

    descend([list(range(n))], [0], ())
    return best.to_bytes(4 * n, "big"), best_order


@lru_cache(maxsize=_CACHE_SIZE)
def _canonical(g: Graph) -> tuple[bytes, tuple[int, ...]]:
    form, order = _canonical_search_pruned(g)
    return bytes([g.n]) + form, tuple(order)


def canonical_form(g: Graph) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic."""
    return _canonical(g)[0]


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """Vertex order realizing the canonical form (position i holds order[i])."""
    return _canonical(g)[1]


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    order = canonical_labeling(g)
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    return g.relabel(pos)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)


@lru_cache(maxsize=64)
def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices, one canonical representative each.

    Built by extending every (n-1)-vertex graph with a new vertex joined to
    every possible subset of the old vertices, deduplicating by canonical
    form.  Counts for n = 0..7: 1, 1, 2, 4, 11, 34, 156, 1044.
    """
    if n == 0:
        return (Graph(0),)
    out: dict[bytes, Graph] = {}
    for g in enumerate_graphs(n - 1):
        for nb in range(1 << (n - 1)):
            h = g.add_vertex(nb)
            key = canonical_form(h)
            if key not in out:
                out[key] = canonical_graph(h)
    return tuple(out[k] for k in sorted(out))


def graphs_up_to(n: int) -> tuple[Graph, ...]:
    """All graphs with 1..n vertices, canonical representatives."""
    out: list[Graph] = []
    for m in range(1, n + 1):
        out.extend(enumerate_graphs(m))
    return tuple(out)
