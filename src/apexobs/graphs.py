"""Small simple graphs as per-vertex bitsets.

Everything in this package works on graphs with at most 32 vertices, so a
neighborhood fits in one machine word.  A :class:`Graph` is immutable; all
editing operations (vertex/edge deletion, contraction, union) return new
graphs with vertices relabelled to ``0..n-1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import count
from math import comb
from typing import Iterable, Iterator

MAX_VERTICES = 32


class Graph:
    """Immutable simple undirected graph on at most 32 vertices.

    Attributes:
        n: number of vertices (labelled 0..n-1).
        adj: tuple of n bitsets; bit u of adj[v] is set iff uv is an edge.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES} (the vertex limit)")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n-1}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))

    @staticmethod
    def from_adj(adj: Iterable[int]) -> Graph:
        """Build a graph directly from a bitset adjacency list (validated)."""
        g = Graph._from_rows(tuple(adj))
        g._validate()
        return g

    @staticmethod
    def _from_rows(adj: tuple[int, ...]) -> Graph:
        """The graph on the rows ``adj``, unchecked: every graph derived from a
        valid one is built here, as its rows are symmetric and loop-free."""
        g = Graph.__new__(Graph)
        object.__setattr__(g, "n", len(adj))
        object.__setattr__(g, "adj", adj)
        return g

    def _validate(self) -> None:
        n = self.n
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} exceeds {MAX_VERTICES}")
        full = (1 << n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency of {v} mentions vertices >= {n}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
            for u in bits(row):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric edge ({v},{u})")

    def __setattr__(self, *args):  # pragma: no cover
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {sorted(self.edges())})"

    # -- basic accessors ----------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return popcount(self.adj[v])

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(popcount(row) for row in self.adj))

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(bits(self.adj[v]))

    def num_edges(self) -> int:
        return sum(map(popcount, self.adj)) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in bits(self.adj[v] >> (v + 1)):
                yield (v, u + v + 1)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    # -- derived graphs -----------------------------------------------------

    def subgraph(self, keep: int) -> Graph:
        """Induced subgraph on the vertex bitmask ``keep``, relabelled."""
        out = keep >> self.n  # a negative mask sets every bit from n up
        if out:
            v = self.n + (out & -out).bit_length() - 1
            raise ValueError(f"mask {keep:#x} sets vertex {v} outside 0..{self.n - 1}")
        return _induced(self.adj, keep)

    def delete_vertices(self, drop: Iterable[int]) -> Graph:
        mask = 0
        for v in drop:
            self._check_vertex(v)
            mask |= 1 << v
        return self.subgraph(((1 << self.n) - 1) & ~mask)

    def delete_edge(self, u: int, v: int) -> Graph:
        if not self.has_edge(u, v):
            raise ValueError(f"no edge ({u},{v})")
        return Graph._from_rows(_deletion_rows(self.adj, u, v))

    def contract_edge(self, u: int, v: int) -> Graph:
        """Contract edge uv; the merged vertex keeps u's label slot.

        The merged neighborhood is the union minus the endpoints, so the result
        stays simple (parallel edges and loops are dropped).
        """
        if not self.has_edge(u, v):
            raise ValueError(f"no edge ({u},{v})")
        return _induced(_contraction_rows(self.adj, u, v), ((1 << self.n) - 1) & ~(1 << v))

    def add_vertex(self, neighborhood: int = 0) -> Graph:
        """Append a new vertex adjacent to the bitmask ``neighborhood``."""
        n = self.n
        if n >= MAX_VERTICES:
            raise ValueError(f"vertex count {n + 1} exceeds {MAX_VERTICES}")
        if not 0 <= neighborhood < 1 << n:
            raise ValueError(f"neighborhood {neighborhood:#x} mentions vertices outside 0..{n - 1}")
        new = 1 << n
        adj = tuple(row | new if neighborhood >> v & 1 else row for v, row in enumerate(self.adj))
        return Graph._from_rows(adj + (neighborhood,))

    def relabel(self, perm: Iterable[int]) -> Graph:
        """Relabel: vertex v becomes perm[v]; perm lists each of 0..n-1 once."""
        perm = list(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}: {perm}")
        adj = [0] * self.n
        for v in range(self.n):
            row = 0
            for u in bits(self.adj[v]):
                row |= 1 << perm[u]
            adj[perm[v]] = row
        return Graph._from_rows(tuple(adj))


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


popcount = int.bit_count  # number of set bits of a mask


# -- rows: a graph as bitset rows over a fixed labelling plus a mask of the
# vertices alive in it.  Every search below masks each row with the alive
# set, so a child of g can be searched in g's own labels, stale bits and all.


def _induced(adj: tuple[int, ...], keep: int) -> Graph:
    """The graph the rows ``adj`` induce on ``keep``, relabelled ``0..|keep|-1``."""
    rows = [adj[v] & keep for v in bits(keep)]
    drop = ((1 << len(adj)) - 1) & ~keep
    while drop:  # close the gap of each dropped vertex, highest first
        r = drop.bit_length() - 1
        low = (1 << r) - 1
        rows = [row & low | row >> 1 & ~low for row in rows]
        drop ^= 1 << r
    return Graph._from_rows(tuple(rows))


def _contraction_rows(adj: tuple[int, ...], u: int, v: int) -> tuple[int, ...]:
    """The rows of edge uv contracted into u, for a mask without v.

    u's row is the union of both rows minus the endpoints, so the result
    stays simple; v's neighbours gain u.  Rows still mention v.
    """
    rows = list(adj)
    rows[u] = (adj[u] | adj[v]) & ~(1 << u | 1 << v)
    for w in bits(adj[v] & ~(1 << u)):
        rows[w] |= 1 << u
    return tuple(rows)


def _deletion_rows(adj: tuple[int, ...], u: int, v: int) -> tuple[int, ...]:
    """The rows without edge uv."""
    rows = list(adj)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return tuple(rows)


# -- named constructions ----------------------------------------------------
# Edges come from generators, so Graph rejects r > MAX_VERTICES before any is built.


def complete_graph(r: int) -> Graph:
    return Graph(r, ((u, v) for v in range(r) for u in range(v)))


def complete_minus_edge(r: int) -> Graph:
    """K_r with one edge removed."""
    if r < 2:
        raise ValueError("K_r minus an edge needs r >= 2")
    return Graph(r, ((u, v) for v in range(2, r) for u in range(v)))


def cycle_graph(r: int) -> Graph:
    if r < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(r, ((i, (i + 1) % r) for i in range(r)))


def path_graph(r: int) -> Graph:
    return Graph(r, ((i, i + 1) for i in range(r - 1)))


def butterfly_graph() -> Graph:
    """Two triangles sharing one vertex; vertex 0 is the central vertex."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def disjoint_union(*graphs: Graph) -> Graph:
    n = sum(g.n for g in graphs)
    if n > MAX_VERTICES:
        raise ValueError(f"union has {n} vertices, above the {MAX_VERTICES}-vertex limit")
    adj: list[int] = []
    off = 0
    for g in graphs:
        adj.extend(row << off for row in g.adj)
        off += g.n
    return Graph._from_rows(tuple(adj))


_NAME_RE = re.compile(
    r"^(?:(?P<copies>\d+)\s*)?(?P<base>Z|butterfly|K(?P<kr>\d+)(?P<minus>[-−]|_minus)?"
    r"|C(?P<cr>\d+)|P(?P<pr>\d+))$"
)


def make_named(name: str) -> Graph:
    """Build a graph from a compact name.

    Supported names: ``K{r}`` (complete), ``K{r}-`` (complete minus an edge),
    ``C{r}`` (cycle), ``P{r}`` (path), ``Z`` or ``butterfly``, and an optional
    leading multiplier for disjoint copies, e.g. ``2K3`` or ``3Z``.
    """
    m = _NAME_RE.match(name.strip())
    if not m:
        raise ValueError(f"unknown graph name {name!r}")
    base = m.group("base")
    if base in ("Z", "butterfly"):
        g = butterfly_graph()
    elif m.group("kr"):
        r = int(m.group("kr"))
        g = complete_minus_edge(r) if m.group("minus") else complete_graph(r)
    elif m.group("cr"):
        g = cycle_graph(int(m.group("cr")))
    else:
        g = path_graph(int(m.group("pr")))
    copies = int(m.group("copies") or 1)
    if copies < 1:
        raise ValueError(f"bad multiplier in {name!r}")
    if copies * g.n > MAX_VERTICES:
        raise ValueError(f"{copies} copies of {g.n} vertices exceed the {MAX_VERTICES}-vertex limit")
    return disjoint_union(*([g] * copies)) if g.n else g  # copies of K0 are K0


# -- connectivity and cycle structure ---------------------------------------


def component_masks(g: Graph) -> list[int]:
    """Vertex bitmasks of the connected components."""
    return _components(g.adj, (1 << g.n) - 1)


def _components(adj: tuple[int, ...], alive: int) -> list[int]:
    """Vertex masks of the components of the graph the rows ``adj`` induce on ``alive``."""
    comps = []
    while alive:
        comp = _component(adj, alive & -alive, alive)
        comps.append(comp)
        alive &= ~comp
    return comps


def _component(adj: tuple[int, ...], start: int, within: int) -> int:
    """Vertex mask of the component of ``within`` holding the vertices ``start``."""
    seen = frontier = start
    while frontier:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            nxt |= adj[b.bit_length() - 1]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(component_masks(g)) == 1


def cyclomatic(g: Graph) -> int:
    """|E| - |V| + number of connected components (counts independent cycles)."""
    return _cycle_rank(g.adj, (1 << g.n) - 1)


class ClassId(Enum):
    """Recognized minor-closed graph classes."""

    SUB_UNICYCLIC = "subunicyclic"  # at most one cycle overall
    PSEUDOFOREST = "pseudoforest"   # at most one cycle per component
    CACTUS = "cactus"               # every block an edge or a cycle
    FOREST = "forest"               # no cycle


def _require_class(cls: ClassId) -> None:
    """Reject a ``cls`` that is not a :class:`ClassId`, such as its string value."""
    if not isinstance(cls, ClassId):
        raise TypeError(f"not a ClassId: {cls!r}")


def is_in_class(g: Graph, cls: ClassId) -> bool:
    """True iff g is in ``cls``: the apex search at budget 0, on g's 2-core."""
    _require_class(cls)
    return _apex_search(g.adj, *_strip(g.adj, (1 << g.n) - 1), cls, 0, {}) is not None


# -- apex sets: a bounded search tree over vertex bitmasks ------------------
#
# Every class is decided on the 2-core of the surviving vertices: a vertex
# of degree <= 1 lies on no cycle and in no block of three or more vertices,
# so it never needs deleting.  Every node picks a witness subgraph that any
# solution must hit, and branches on its vertices of degree >= 3.  That is
# enough: a degree-2 witness vertex v has both edges in the witness, so it
# sits on a chain whose end a has degree >= 3 and lies in the witness too;
# deleting a instead of v leaves a subgraph of what deleting v leaves, plus
# a pendant path, which keeps a graph in every class (it adds no cycle, and
# no block but an edge).  The cost is |witness|^k nodes, not C(n, <=k).
#
# Every search takes a 2-core and its degree >= 3 vertices: each entry point
# strips once, by ``_strip``, and a branch hands its child the 2-core and
# degree >= 3 vertices left by one deletion, from ``_peel``, which counts
# again only the neighbours of what it removes.  For FOREST and
# SUB_UNICYCLIC a node first packs disjoint cycles: k + 1 + t of them refute
# budget k for cycle rank cap t.  The packing takes its triangles in one scan.


def _strip(adj: tuple[int, ...], alive: int) -> tuple[int, int]:
    """The 2-core of ``alive`` and the mask of its vertices of degree >= 3."""
    while True:
        low = high = 0
        m = alive
        while m:
            b = m & -m
            m ^= b
            d = (adj[b.bit_length() - 1] & alive).bit_count()
            if d < 2:
                low |= b
            elif d > 2:
                high |= b
        if not low:
            return alive, high
        alive ^= low


def _peel(adj: tuple[int, ...], core: int, high: int, drop: int) -> tuple[int, int]:
    """``_strip(adj, core & ~drop)`` for a 2-core ``core`` whose vertices of
    degree >= 3 are ``high``.  Only a neighbour of a removed vertex changes
    degree, so only those are counted again, layer by layer."""
    alive = core & ~drop
    touched = 0
    while drop:
        nbrs = 0
        while drop:
            b = drop & -drop
            drop ^= b
            nbrs |= adj[b.bit_length() - 1]
        nbrs &= alive
        touched |= nbrs
        while nbrs:
            b = nbrs & -nbrs
            nbrs ^= b
            if (adj[b.bit_length() - 1] & alive).bit_count() < 2:
                drop |= b
        alive ^= drop
    touched &= alive
    high &= alive & ~touched
    while touched:
        b = touched & -touched
        touched ^= b
        if (adj[b.bit_length() - 1] & alive).bit_count() > 2:
            high |= b
    return alive, high


def _shortest_cycle(adj: tuple[int, ...], alive: int) -> int:
    """Vertex mask of one shortest cycle induced by ``alive``; 0 if acyclic."""
    m = alive
    while m:  # triangles: one AND per edge
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        for u in bits(adj[v] & m):
            common = adj[v] & adj[u] & alive
            if common:
                return b | 1 << u | (common & -common)
    # BFS from every root; the shortest non-tree edge over all roots closes a
    # shortest cycle, and then the two tree paths meet only at the root
    best, best_len = 0, MAX_VERTICES + 1
    for r in bits(alive):
        parent = {r: -1}
        depth = {r: 0}
        layer, d = [r], 0
        while layer and 2 * d + 1 < best_len:
            nxt = []
            for u in layer:
                for w in bits(adj[u] & alive):
                    if w == parent[u]:
                        continue
                    if w in depth:
                        if d + depth[w] + 1 < best_len:
                            best_len = d + depth[w] + 1
                            best = 0
                            for x in (u, w):
                                while x >= 0:
                                    best |= 1 << x
                                    x = parent[x]
                    else:
                        parent[w] = u
                        depth[w] = d + 1
                        nxt.append(w)
            layer, d = nxt, d + 1
        if best_len == 4:  # no triangle, so no shorter cycle exists
            break
    return best


def _cycle_packing(adj: tuple[int, ...], core: int, limit: int) -> int:
    """Greedy count of vertex-disjoint shortest cycles in ``core``, capped at ``limit``.

    A lower bound on the deletions into FOREST; minus one, into SUB_UNICYCLIC.
    The greedy takes a shortest cycle of what is left, strips, and repeats.
    Its triangles come from one ascending scan: each untaken vertex v takes
    its first higher untaken neighbour u that has a common higher untaken
    neighbour, and the lowest such w.  That is the triangle ``_shortest_cycle``
    would return next: every triangle lies in the 2-core, and a lower vertex
    found no triangle among untaken vertices when it was scanned, so finds
    none now.  Once the triangles are taken, the rest is stripped once and
    its longer cycles are packed one ``_shortest_cycle`` at a time.
    """
    count = taken = 0
    rest = core  # untaken vertices above the scan
    while rest and count < limit:
        b = rest & -rest
        rest ^= b
        row = m = adj[b.bit_length() - 1] & rest
        while m:
            c = m & -m
            m ^= c
            common = row & adj[c.bit_length() - 1]
            if common:
                triangle = b | c | (common & -common)
                taken |= triangle
                rest &= ~triangle
                count += 1
                break
    core = _strip(adj, core & ~taken)[0] if count < limit else 0
    while core and count < limit:
        cycle = _shortest_cycle(adj, core)
        if not cycle:
            break
        count += 1
        core = _strip(adj, core & ~cycle)[0]
    return count


def _second_cycle(adj: tuple[int, ...], within: int, cycle: int) -> int:
    """A shortest cycle of ``within`` avoiding the lowest edge of ``cycle``.

    ``within`` has cyclomatic number >= 2, so it keeps a cycle after any one
    edge is cut, and that cycle is not ``cycle``: a shortest cycle has no
    chord, so no other cycle runs through its vertices alone.
    """
    v = (cycle & -cycle).bit_length() - 1
    nbrs = adj[v] & cycle  # both lie above v
    u = (nbrs & -nbrs).bit_length() - 1
    return _shortest_cycle(_deletion_rows(adj, v, u), within)


def _shortest_path(adj: tuple[int, ...], src: int, dst: int, within: int) -> int:
    """Vertex mask of a shortest path from ``src`` to ``dst`` (one must
    exist), all of it but its first vertex in ``within``."""
    reach, layers = src, [src]
    while not reach & dst:
        grown = reach
        for v in bits(layers[-1]):
            grown |= adj[v] & within
        layers.append(grown & ~reach)
        reach = grown
    tip = reach & dst
    path = tip = tip & -tip
    for layer in reversed(layers[:-1]):  # step back one layer at a time
        step = adj[tip.bit_length() - 1] & layer
        tip = step & -step
        path |= tip
    return path


def _thick_block(adj: tuple[int, ...], core: int) -> int:
    """The first block of ``core`` that is not an edge or a cycle; 0 if ``core`` is a cactus."""
    blocks = _blocks_and_cuts(adj, core)[0]
    return next((b for b in blocks if _edge_count(adj, b) > popcount(b)), 0)


def _branch_vertices(
    adj: tuple[int, ...], core: int, high: int, block: int, cls: ClassId
) -> int:
    """Mask of vertices to branch on: the degree >= 3 vertices of a witness.

    FOREST: a shortest cycle.  SUB_UNICYCLIC: two distinct cycles.
    PSEUDOFOREST: two distinct cycles in one component and a path joining
    them.  A cycle with no vertex of degree >= 3 is a whole component; any
    one of its vertices stands for all of them.  CACTUS: a shortest cycle C
    of ``block``, a block that is not a cycle, and an ear: a shortest path
    in the block from a vertex of C, through vertices outside C, to another
    one (the block is 2-connected and C has no chord).  C plus the ear
    subdivides the diamond K4 - e, a minor no cactus has.
    """
    if cls is ClassId.CACTUS:
        cycle = _shortest_cycle(adj, block)
        outside = block & ~cycle
        a = next(v for v in bits(cycle) if adj[v] & outside)
        ear = _shortest_path(adj, adj[a] & outside, cycle & ~(1 << a), block & ~(1 << a))
        return (cycle | ear) & high
    if cls is ClassId.PSEUDOFOREST:
        # a component that is not a bare cycle has a vertex of degree >= 3
        core = _component(adj, high & -high, core)
    first = _shortest_cycle(adj, core)
    if cls is ClassId.FOREST:
        return first & high or first & -first
    second = _second_cycle(adj, core, first)
    out = (first & high or first & -first) | (second & high or second & -second)
    if cls is ClassId.PSEUDOFOREST and not first & second:
        # join the two cycles by a shortest path inside the component
        out |= _shortest_path(adj, first, second, core) & high
    return out


def _core_in_class(
    adj: tuple[int, ...], core: int, high: int, block: int, cls: ClassId
) -> bool:
    """Is the graph on ``core``, a 2-core with the vertices ``high`` of degree
    >= 3, in ``cls``?  For CACTUS, ``block`` is its ``_thick_block``, taken
    only when ``high`` is not empty (else 0), once per search node.  Class
    membership is ``_apex_search`` at budget 0: 0 iff this holds, else None."""
    if cls is ClassId.FOREST:
        return not core
    if cls is ClassId.CACTUS:
        return not block
    if high:
        return False
    # a union of bare cycles: a pseudoforest, sub-unicyclic if it is one cycle
    return cls is ClassId.PSEUDOFOREST or not core or _component(adj, core & -core, core) == core


_RANK_LIMIT = {ClassId.FOREST: 0, ClassId.SUB_UNICYCLIC: 1}  # the largest cycle rank in the class


def _apex_search(
    adj: tuple[int, ...], core: int, high: int, cls: ClassId, k: int, failed: dict[int, int]
) -> int | None:
    """A set of at most k vertices of ``core`` whose deletion lands it in ``cls``, or None.

    ``core`` is a 2-core whose vertices of degree >= 3 are ``high``: the
    ``_strip`` of an alive set, or the ``_peel`` a branch hands its child.
    A set found for the 2-core serves the alive set it came from: every
    class is decided by the 2-core alone, and deleting a set from ``alive``
    leaves the 2-core that deleting it from the 2-core of ``alive`` leaves.
    ``failed`` maps a core to the largest budget it was refuted with.  The
    packing bound needs a cycle-rank cap t, so it skips PSEUDOFOREST,
    CACTUS and k <= 1.
    """
    block = _thick_block(adj, core) if high and cls is ClassId.CACTUS else 0
    if _core_in_class(adj, core, high, block, cls):
        return 0
    if k == 0 or failed.get(core, -1) >= k:
        return None
    t = _RANK_LIMIT.get(cls)
    if k >= 2 and t is not None:
        need = k + 1 + t
        if _cycle_packing(adj, core, need) >= need:
            failed[core] = k
            return None
    branch = sorted(
        bits(_branch_vertices(adj, core, high, block, cls)),
        key=lambda v: -(adj[v] & core).bit_count(),
    )
    for v in branch:
        child, child_high = _peel(adj, core, high, 1 << v)
        found = _apex_search(adj, child, child_high, cls, k - 1, failed)
        if found is not None:
            return found | 1 << v
    failed[core] = k
    return None


def _count_forest_sets(adj: tuple[int, ...], core: int, high: int, free: int, k: int) -> int:
    """Number of k-subsets of ``free`` whose deletion leaves ``core`` a forest.

    ``core`` and ``high`` are as in ``_apex_search``, and so is the answer
    for the alive set ``core`` was stripped from.  Ordered exclusion keeps
    the branches disjoint: branch i deletes the i-th free vertex of a
    shortest cycle and forbids the ones before it.  Once the rest is a
    forest, any k of the free vertices left will do.  More than k disjoint
    cycles need more than k deletions, so the packing bound ends a branch.
    """
    if not core:
        return comb(free.bit_count(), k)
    if k == 0 or _cycle_packing(adj, core, k + 1) > k:
        return 0
    total = 0
    for v in bits(_shortest_cycle(adj, core) & free):
        child, child_high = _peel(adj, core, high, 1 << v)
        total += _count_forest_sets(adj, child, child_high, free & ~(1 << v), k - 1)
        free &= ~(1 << v)
    return total


def _rank_drop(
    adj: tuple[int, ...], rows: tuple[int, ...], alive: int, edge: tuple[int, int] | None, s: int
) -> int | None:
    """How far cyc(child - s) falls below cyc(g - s), for a child (rows,
    alive, edge) of ``_child_rows`` of the graph g with rows ``adj`` and a
    vertex mask s; None for a contraction with an end in s.

    - deleting an isolated vertex, or uv with u or v in s, leaves g - s up
      to an isolated vertex: 0;
    - deleting uv otherwise: 1 if uv lies on a cycle of g - s (a common
      neighbour outside s, or v reachable from u without uv), else 0, as
      the bridge's deletion gains a component;
    - contracting uv with u, v outside s keeps the components and merges
      the edges to each common neighbour outside s: |N(u) & N(v) - s|.
    """
    if edge is None:
        return 0
    u, v = edge
    deleted = alive >> v & 1  # else contracted: v is not alive
    if s & (1 << u | 1 << v):
        return 0 if deleted else None
    if deleted:
        return 1 if adj[u] & adj[v] & ~s else _component(rows, 1 << u, alive & ~s) >> v & 1
    return popcount(adj[u] & adj[v] & ~s)


def _edge_count(adj: tuple[int, ...], alive: int) -> int:
    """Number of edges of the graph the rows ``adj`` induce on ``alive``."""
    twice, m = 0, alive
    while m:
        b = m & -m
        m ^= b
        twice += (adj[b.bit_length() - 1] & alive).bit_count()
    return twice // 2


def _cycle_rank(adj: tuple[int, ...], alive: int) -> int:
    """|E| - |V| + components of the graph the rows ``adj`` induce on ``alive``."""
    return _edge_count(adj, alive) - popcount(alive) + len(_components(adj, alive))


def min_apex_size(g: Graph, cls: ClassId) -> int:
    """Smallest number of vertex deletions landing g in the class.

    Iterative deepening over the bounded search: budgets 0, 1, 2, ...
    """
    _require_class(cls)
    core, high = _strip(g.adj, (1 << g.n) - 1)
    failed: dict[int, int] = {}
    k = 0
    while _apex_search(g.adj, core, high, cls, k, failed) is None:
        k += 1
    return k


def has_apex_set_within(g: Graph, cls: ClassId, k: int) -> bool:
    """True iff some deletion set of size <= k lands g in the class."""
    _require_class(cls)
    return k >= 0 and _apex_search(g.adj, *_strip(g.adj, (1 << g.n) - 1), cls, k, {}) is not None


# -- blocks, cut vertices, bc-tree ------------------------------------------


def _blocks_and_cuts(adj: tuple[int, ...], alive: int) -> tuple[list[int], int]:
    """Blocks as vertex masks plus the cut-vertex bitmask (Hopcroft-Tarjan) of
    the graph the rows ``adj`` induce on ``alive``.

    A recursive lowpoint DFS, neighbours in ascending order; its depth is at
    most ``MAX_VERTICES``.  When child v of u ends with ``low[v] >= disc[u]``,
    the vertices above v on the vertex stack, v and u form a block.  The
    parent edge is not skipped: it lowers ``low[v]`` at most to ``disc[u]``,
    which that test cannot tell from a higher value.  A non-root that closes
    a block is a cut vertex; a root closes one per DFS child, so needs two.
    """
    disc = [0] * len(adj)  # discovery times from 1, 0 = unvisited
    low = [0] * len(adj)
    clock = count(1)
    stack: list[int] = []
    blocks: list[int] = []
    cuts = 0

    def visit(u: int, root: bool) -> None:
        nonlocal cuts
        disc[u] = low[u] = next(clock)
        stack.append(u)
        closed = 0
        for v in bits(adj[u] & alive):
            if disc[v]:
                if disc[v] < low[u]:
                    low[u] = disc[v]
                continue
            visit(v, False)
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                block = 1 << u
                while (w := stack.pop()) != v:
                    block |= 1 << w
                blocks.append(block | 1 << v)
                closed += 1
        if closed > root:
            cuts |= 1 << u

    for r in range(len(adj)):  # cheaper than bits(alive) for the full mask of bridges()
        if alive >> r & 1 and not disc[r]:
            if adj[r] & alive:
                visit(r, True)
            else:
                blocks.append(1 << r)  # isolated vertex: trivial block
    return blocks, cuts


BcNode = tuple[str, int]  # ("block", index) or ("cut", vertex)


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks, cut-vertices and bc-tree of a graph.

    ``bc_tree`` maps each node to its neighbors; nodes are ("block", i) with i
    indexing ``blocks``, and ("cut", v) for cut-vertices.  For a connected
    graph the bc-tree is a tree; otherwise a forest (one tree per component).
    """

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    bc_tree: dict[BcNode, tuple[BcNode, ...]]


def decompose(g: Graph) -> BlockDecomposition:
    """Standard biconnected decomposition plus the block-cut-vertex tree."""
    block_masks, cut_mask = _blocks_and_cuts(g.adj, (1 << g.n) - 1)
    blocks = tuple(frozenset(bits(b)) for b in block_masks)
    cut_vertices = frozenset(bits(cut_mask))
    tree: dict[BcNode, list[BcNode]] = {("block", i): [] for i in range(len(blocks))}
    for v in cut_vertices:
        tree[("cut", v)] = []
    for i, b in enumerate(block_masks):
        for v in bits(b & cut_mask):
            tree[("block", i)].append(("cut", v))
            tree[("cut", v)].append(("block", i))
    frozen = {node: tuple(nbrs) for node, nbrs in tree.items()}
    return BlockDecomposition(blocks, cut_vertices, frozen)


def _bfs_distances(tree: dict[BcNode, tuple[BcNode, ...]], source: BcNode) -> dict[BcNode, int]:
    dist = {source: 0}
    order = [source]
    for x in order:
        for y in tree[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                order.append(y)
    return dist


def peripheral_blocks(g: Graph, dec: BlockDecomposition | None = None) -> tuple[frozenset[int], ...]:
    """Leaf-blocks that are an endpoint of some diameter-realizing pair of the bc-tree.

    For a biconnected graph (no cut-vertices) the result is empty -- that is a
    signal, not an error.  Ties are not broken: all blocks participating in any
    maximum-distance pair are returned.

    A double sweep finds them: the farthest node a from any node, then the
    farthest node b from a, are the ends of a diameter, and in a tree every
    node x has eccentricity max(d(a, x), d(b, x)).  So the blocks whose
    distance from a or from b equals the diameter d(a, b) are the ones that
    end a diameter.
    """
    if not is_connected(g):
        raise ValueError("peripheral blocks need a connected graph")
    dec = dec or decompose(g)
    if not dec.cut_vertices:
        return ()
    tree = dec.bc_tree
    start = _bfs_distances(tree, ("block", 0))
    from_a = _bfs_distances(tree, max(start, key=start.get))
    b = max(from_a, key=from_a.get)
    from_b = _bfs_distances(tree, b)
    return tuple(
        block
        for i, block in enumerate(dec.blocks)
        if max(from_a[("block", i)], from_b[("block", i)]) == from_a[b]
    )


def bridges(g: Graph) -> list[tuple[int, int]]:
    """Edges whose removal disconnects their component (= 2-vertex blocks)."""
    blocks = _blocks_and_cuts(g.adj, (1 << g.n) - 1)[0]
    return [tuple(bits(b)) for b in blocks if popcount(b) == 2]


# -- one-step minors ---------------------------------------------------------


def _child_rows(g: Graph) -> Iterator[tuple[tuple[int, ...], int, tuple[int, int] | None]]:
    """The one-step minors of g as (rows, alive, edge) in g's labels, repeats included.

    The contraction of every edge uv of ``g.edges()`` (u's rows merged, v
    not alive), then the deletion of every edge (the full mask), then one
    isolated-vertex deletion if g has an isolated vertex (all such
    deletions give the same child; its edge is None).  So a child with an
    edge is a contraction iff v is not alive.  ``check_obstruction`` takes
    its witness in this order.
    """
    adj, full = g.adj, (1 << g.n) - 1
    edges = list(g.edges())
    for u, v in edges:
        yield _contraction_rows(adj, u, v), full & ~(1 << v), (u, v)
    for u, v in edges:
        yield _deletion_rows(adj, u, v), full, (u, v)
    iso = next((v for v in range(g.n) if adj[v] == 0), None)
    if iso is not None:
        yield adj, full & ~(1 << iso), None


def _one_step_children(g: Graph) -> Iterator[Graph]:
    """The children of ``_child_rows`` as graphs, lazily and in the same order."""
    for rows, alive, _ in _child_rows(g):
        yield _induced(rows, alive)


def one_step_minors(g: Graph) -> tuple[Graph, ...]:
    """All graphs one elementary minor operation below g, up to isomorphism.

    Operations: single edge deletion, single edge contraction (simplified),
    single isolated-vertex deletion.  Deduplicated by canonical form and
    returned in canonical order.
    """
    from .canonical import _iso_classes

    classes = _iso_classes(_one_step_children(g))
    return tuple(classes[key] for key in sorted(classes))
