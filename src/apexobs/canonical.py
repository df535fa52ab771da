"""Canonical forms, isomorphism, isomorph rejection and graph enumeration.

The canonical form is computed by individualization-refinement: refine an
ordered partition of the vertices to an equitable one, branch on the first
non-singleton cell, and take the lexicographically smallest relabelled
adjacency matrix over all branches.  A cell is the bitmask of its
vertices.  A node whose non-singleton cells each lie inside one twin class
(``graphs._twin_roots``) has one leaf below it, its cells listed in order,
and the search takes that leaf there without branching (see ``descend``).

Refinement counts neighbors only into the cells the previous pass created
(the *fresh* cells), and of each split cell's sub-cells only into all but
the last: the count into any other cell is constant inside each cell or
follows from the fresh counts, so counting against it could split nothing
and would not change the order of the sub-cells.  At the root the fresh
cell is the unit cell; below a branch it is the individualized vertex
``[v]``.  Every pass is the same: it counts only for the vertices adjacent
to a fresh cell, a vertex's counts are packed into one int key whose order
is the order of the count vectors, and each cell splits by its keys (see
``_refine``).

Three prunes skip subtrees that are images of an explored subtree under an
automorphism fixing the branch prefix.  The search skips a branch vertex
that is a *twin* of an explored sibling (swapping the two is an
automorphism) or that automorphisms found so far map onto
an explored sibling.  A leaf with the best leaf's matrix yields
the automorphism from the best leaf to it; it fixes the branch prefix the
two leaves share and maps the best leaf's next branch vertex onto the
leaf's, so what is left of the branch the leaf took at that level is the
image of an explored branch, and the search *backjumps* to that level's
next sibling (McKay and Piperno, "Practical graph isomorphism II").  The first smallest
leaf in search order is never pruned, so the form and the labeling do not
depend on any prune, nor on where a node takes its one leaf.

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

from .graphs import MAX_VERTICES, Graph, _twin_roots, bits, popcount

_FIELD = MAX_VERTICES.bit_length()  # bits per count in a packed refinement key


def _refine(adj: tuple[int, ...], cells: list[int], fresh: list[int]) -> list[int]:
    """Refine an ordered partition until it is equitable.

    A cell is the mask of its vertices, and lists them ascending.  Each pass
    splits every cell by the vector of its neighbor counts into the fresh
    cells (``fresh`` holds their indices into ``cells``, ascending).
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
    sorting the tuples would.  A vertex outside ``reach``, the union of the
    fresh cells' neighbourhoods, has the zero vector, the smallest: a cell
    that ``reach`` misses stays whole, and in any other cell the vertices
    outside ``reach`` form the first sub-cell with no key counted.
    """
    while fresh:
        masks = [cells[i] for i in fresh]
        reach = 0
        for m in masks:
            while m:
                low = m & -m
                reach |= adj[low.bit_length() - 1]
                m ^= low
        new_cells: list[int] = []
        fresh = []
        for cell in cells:
            touched = cell & reach
            if touched and cell & (cell - 1):
                subs = [cell ^ touched] if cell != touched else []
                sig: dict[int, int] = {}
                left = touched
                while left:
                    low = left & -left
                    a = adj[low.bit_length() - 1]
                    key = 0
                    for m in masks:
                        key = key << _FIELD | popcount(a & m)
                    if key in sig:
                        sig[key] |= low
                    else:
                        sig[key] = low
                    left ^= low
                subs += [sig[key] for key in sorted(sig)] if len(sig) > 1 else [touched]
                if len(subs) > 1:
                    fresh += range(len(new_cells), len(new_cells) + len(subs) - 1)
                    new_cells += subs
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
    twins = [0] * n  # the mask of each twin class, at its first vertex
    for v, r in enumerate(roots):
        twins[r] |= 1 << v

    def find(parent: list[int], x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def descend(cells: list[int], fresh: list[int], fixed: tuple[int, ...], remnants: int) -> int:
        """Search the subtree; return the depth to resume at (len(fixed) if none).

        ``remnants`` counts the twin classes with a vertex not in ``fixed``.
        A node whose open (non-singleton) cells each lie inside one twin
        class has one leaf, its cells listed in order, each ascending, and
        is handled as that leaf.  Proof: members of a twin class that are not
        yet individualized always share a cell.  Swapping two of them is an
        automorphism fixing ``fixed``; by induction it fixes every cell
        before the node refines, and refinement is isomorphism-invariant, so
        it fixes every cell after.  So each class's members left open lie in
        one cell, the individualized vertices are singletons, and the cells
        number ``len(fixed) + remnants`` iff no cell holds two classes: the
        test below.  Take the first vertex u of the first open cell C, inside
        the twin class T, and individualize it.  Every vertex outside C is
        adjacent to all of C or to none of it (a member of T by the kind of
        T's twins, any other vertex as N(x) - y = N(y) - x for x, y in T), so
        in the equitable partition every other cell is uniform toward u, and
        C - u is uniform toward u, its twins.  The refinement splits nothing
        but C, into [u] and C - u, whose open cells again lie inside twin
        classes, and the twin prune skips C's other members.  So the subtree
        is a chain, and its leaf is the listed order.  The backjump still
        compares prefixes of equal length: stopping is invariant under
        isomorphism, so an automorphism that maps one leaf onto another maps
        their stopping nodes onto each other, and the two prefixes first
        differ where the leaves' full branch sequences do.
        """
        nonlocal best, best_order, best_fixed
        cells = _refine(adj, cells, fresh)
        depth = len(fixed)
        if len(cells) == depth + remnants:
            order = []
            for c in cells:
                while c:
                    low = c & -c
                    order.append(low.bit_length() - 1)
                    c ^= low
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
        while cells[target] & (cells[target] - 1) == 0:
            target += 1
        cell = cells[target]
        before, after = cells[:target], cells[target + 1:]
        explored: list[int] = []
        explored_roots: set[int] = set()
        # union-find over the automorphisms fixing `fixed`, built at the
        # first one: until then no sibling is the image of an explored one
        parent: list[int] | None = None
        folded = 0
        for v in bits(cell):
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
            # v's class keeps no vertex open iff no twin of v shares its cell
            left = remnants - (twins[roots[v]] & cell == 1 << v)
            child = before + [1 << v, cell ^ 1 << v] + after
            resume = descend(child, [target], fixed + (v,), left)
            if resume < depth:
                return resume
        return depth

    descend([(1 << n) - 1], [0], (), len(set(roots)))
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


def _neighbour_degrees(adj: tuple[int, ...], deg: list[int], v: int) -> tuple[int, ...]:
    """The degrees of v's neighbours, ascending."""
    return tuple(sorted(deg[u] for u in bits(adj[v])))


def _invariant_multiset(g: Graph) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The sorted (degree, neighbour degrees) of every vertex of g."""
    adj = g.adj
    deg = [popcount(row) for row in adj]
    return tuple(sorted((d, _neighbour_degrees(adj, deg, v)) for v, d in enumerate(deg)))


def _distinct(pairs: Iterable[tuple[Graph, bytes | None]]) -> list[Graph]:
    """The first graph of each isomorphism class among ``pairs`` (a graph
    and its form or None), in input order, in one pass that holds only the
    classes kept.  Isomorphic graphs share the hash of their
    ``_invariant_multiset``, so a graph is compared by form (the one given,
    else one computed) only with the kept graphs that share its hash."""
    kept: dict[int, list[tuple[Graph, bytes | None]]] = {}
    out: list[Graph] = []
    for g, form in pairs:
        group = kept.setdefault(hash(_invariant_multiset(g)), [])
        if group:
            group[:] = [(h, f or _canonical(h)[0]) for h, f in group]
            form = form or _canonical(g)[0]
            if any(f == form for _, f in group):
                continue
        group.append((g, form))
        out.append(g)
    return out


def _augmentation(g: Graph) -> tuple[bool, bytes | None]:
    """Whether g's last vertex x = g.n - 1 lies in the automorphism orbit of
    g's canonical deletion vertex c(g), and g's form if deciding took one.
    c(g) has maximum degree, then the largest ascending neighbour degrees
    (``_neighbour_degrees``), then the highest position in the canonical
    labeling: rules invariant under isomorphism, so c(g) is fixed up to an
    automorphism.  Only a tie under the two degree rules takes a form, with
    the labeling and orbits of the same ``_canonical`` search.
    """
    adj, x = g.adj, g.n - 1
    deg = [popcount(row) for row in adj]
    top = max(deg)
    if deg[x] < top:
        return False, None
    tied = [v for v, d in enumerate(deg) if d == top]
    if len(tied) > 1:
        near = {v: _neighbour_degrees(adj, deg, v) for v in tied}
        best = max(near.values())
        if near[x] < best:
            return False, None
        tied = [v for v in tied if near[v] == best]
    if len(tied) == 1:
        return True, None
    form, order, orbits = _canonical(g)
    c = next(v for v in reversed(order) if v in tied)
    return orbits[c] == orbits[x], form


def _augmented_level(families: Iterable[Iterable[Graph]]) -> list[Graph]:
    """One graph per isomorphism class of the children in ``families``, one
    iterable per parent, each child its parent plus a last vertex x, by
    canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998): a parent keeps the children ``_augmentation``
    accepts, and of those the first of each class (``_distinct``).

    Sound if the parents are pairwise non-isomorphic and, for every wanted
    class G, one parent P is isomorphic to G - c(G) and has a child
    isomorphic to G by a map taking x onto c(G): that child is accepted.
    A child g isomorphic to G with x in the orbit of c(g) has g - x
    isomorphic to G - c(G), so no other parent's child is accepted.  Two
    isomorphic accepted children of P differ by an automorphism of P (one
    maps x onto the other's x, both in the orbit of c) that P's children
    need not rule out, so ``_distinct`` compares them.
    """
    out: list[Graph] = []
    for children in families:
        tried = ((g, *_augmentation(g)) for g in children)
        out += _distinct((g, form) for g, accepted, form in tried if accepted)
    return out


@lru_cache(maxsize=64)
def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices, one canonical representative each.

    Built by canonical augmentation (``_augmented_level``): each graph on
    n - 1 vertices is extended by a new vertex joined to every subset of
    its vertices.  Each class is then read off its form, in form order.
    Counts for n = 0..9: 1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668.
    """
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES} (the vertex limit)")
    if n == 0:
        return (Graph(0),)
    children = (map(g.add_vertex, range(1 << g.n)) for g in enumerate_graphs(n - 1))
    # the level is freed once its forms are sorted, before the output is built
    return tuple(map(_form_graph, sorted(map(canonical_form, _augmented_level(children)))))


def graphs_up_to(n: int) -> tuple[Graph, ...]:
    """All graphs with 1..n vertices, canonical representatives."""
    out: list[Graph] = []
    for m in range(1, n + 1):
        out.extend(enumerate_graphs(m))
    return tuple(out)
