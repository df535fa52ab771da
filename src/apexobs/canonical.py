"""Canonical forms, isomorphism, and exhaustive graph enumeration.

The canonical form is computed by individualization-refinement: refine an
ordered partition of the vertices to an equitable one, branch on the first
non-singleton cell, and take the lexicographically smallest relabelled
adjacency matrix over all branches.

Refinement counts neighbors only into the cells the previous pass created
(the *fresh* cells), and of each split cell's sub-cells only into all but
the last: the count into any other cell is constant inside each cell or
follows from the fresh counts, so counting against it could split nothing
and would not change the order of the sub-cells.  At the root the fresh
cell is the unit cell; below a branch it is the individualized vertex
``[v]``.  Every pass is the same: a vertex's counts are packed into one int
key whose order is the order of the count vectors, and each cell splits by
its keys (see ``_refine``).

Three prunes skip subtrees that are images of an explored subtree under an
automorphism fixing the branch prefix.  The search skips a branch vertex
that is a *twin* of an explored sibling (``graphs._twin_roots``; swapping
the two is an automorphism) or that automorphisms found so far map onto
an explored sibling.  A leaf with the best leaf's matrix yields
the automorphism from the best leaf to it; it fixes the branch prefix the
two leaves share and maps the best leaf's next branch vertex onto the
leaf's, so what is left of the branch the leaf took at that level is the
image of an explored branch, and the search *backjumps* to that level's
next sibling (McKay and Piperno, "Practical graph isomorphism II").  The first smallest
leaf in search order is never pruned, so the form and the labeling do not
depend on any prune.

The found automorphisms and the twin transpositions generate the
automorphism group: a vertex in the orbit of a branch vertex on the path to
the first smallest leaf is either skipped by them or searched, and its
search meets a leaf equal to the best.  ``automorphism_orbits`` returns
their union-find orbits, computed with the form.

No form is cached: canonical augmentation builds each class once, so a
form is asked for again only by a caller that threw it away.  A caller
that needs a graph's form, labeling or orbits twice keeps what the one
search returned, and the canonical representative is read off the form
itself (``_form_graph``).

Two graphs have equal canonical forms iff they are isomorphic.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .graphs import MAX_VERTICES, Graph, _twin_roots, popcount

_FIELD = MAX_VERTICES.bit_length()  # bits per count in a packed refinement key


def _refine(
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


def _canonical_search_pruned(g: Graph) -> tuple[bytes, list[int], tuple[int, ...]]:
    """Individualization-refinement with twin, orbit and backjump pruning (see
    module docstring); also returns the orbit minimum of every vertex."""
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
        cells = _refine(adj, cells, fresh)
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


# stores nothing and only counts calls; the wrapper is kept for the
# benchmark harness, which clears it and reads its cache_info() per op
@lru_cache(maxsize=0)
def _canonical(g: Graph) -> tuple[bytes, tuple[int, ...], tuple[int, ...]]:
    form, order, orbits = _canonical_search_pruned(g)
    return bytes([g.n]) + form, tuple(order), orbits


def canonical_form(g: Graph) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic."""
    return _canonical(g)[0]


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """Vertex order realizing the canonical form (position i holds order[i])."""
    return _canonical(g)[1]


def automorphism_orbits(g: Graph) -> tuple[int, ...]:
    """The smallest vertex in the automorphism orbit of each vertex of g."""
    return _canonical(g)[2]


def _form_graph(form: bytes) -> Graph:
    """The canonical representative of the class whose canonical form is
    ``form``: after the vertex count, the form holds its adjacency rows, 4
    bytes each (``_certificate``)."""
    return Graph._from_rows(
        tuple(int.from_bytes(form[i:i + 4], "big") for i in range(1, len(form), 4))
    )


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class: g relabelled
    by ``canonical_labeling``."""
    return _form_graph(canonical_form(g))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)


def _iso_classes(graphs: Iterable[Graph]) -> dict[bytes, Graph]:
    """The first graph met of each isomorphism class, keyed by canonical form,
    in the order first met.  Sorting the keys lists the classes in form order."""
    out: dict[bytes, Graph] = {}
    for g in graphs:
        out.setdefault(canonical_form(g), g)
    return out


def _form_sorted(graphs: Iterable[Graph]) -> tuple[Graph, ...]:
    """``_iso_classes(graphs)`` listed in form order: the first graph met of
    each isomorphism class.  A form starts with the vertex count, so form
    order is vertex-count order with ties broken by the rest of the form, and
    a graph alone at its vertex count is a class of its own whose place its
    size decides; only graphs that share a vertex count get a form."""
    by_size: dict[int, list[Graph]] = {}
    for g in graphs:
        by_size.setdefault(g.n, []).append(g)
    out: list[Graph] = []
    for n in sorted(by_size):
        group = by_size[n]
        if len(group) == 1:
            out.append(group[0])
        else:
            classes = _iso_classes(group)
            out.extend(classes[key] for key in sorted(classes))
    return tuple(out)


@lru_cache(maxsize=64)
def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices, one canonical representative each.

    Built by extending every (n-1)-vertex graph with a new vertex joined to
    every possible subset of the old vertices, deduplicating by canonical
    form; each class is read off its form, in form order.  Counts for
    n = 0..7: 1, 1, 2, 4, 11, 34, 156, 1044.
    """
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES} (the vertex limit)")
    if n == 0:
        return (Graph(0),)
    extended = (g.add_vertex(nb) for g in enumerate_graphs(n - 1) for nb in range(1 << (n - 1)))
    return tuple(map(_form_graph, sorted(_iso_classes(extended))))


def graphs_up_to(n: int) -> tuple[Graph, ...]:
    """All graphs with 1..n vertices, canonical representatives."""
    out: list[Graph] = []
    for m in range(1, n + 1):
        out.extend(enumerate_graphs(m))
    return tuple(out)
