"""Independent references for checking the output of every benchmark op.

Nothing here imports apexobs.  Each expectation is either a value printed
in the source paper or a brute-force computation written from the
definitions on plain bitmask adjacency, so a bug in the library cannot
produce an output that agrees with it.

Graphs are passed around as ``(n, adj)`` with ``adj[v]`` the neighbour
bitmask of vertex v.
"""

from __future__ import annotations

import itertools
from pathlib import Path

# The printed counting series: t_0..t_10 counts connected butterfly-cacti by
# number of butterflies, g_0..g_10 counts multisets of them.
PRINTED_T = (0, 1, 1, 3, 7, 25, 88, 366, 1583, 7336, 34982)
PRINTED_G = (1, 1, 2, 5, 13, 41, 143, 558, 2346, 10546, 49397)

# The printed singularity and asymptotic constants, with the tolerances
# the printed digits support.
RHO, RHO_ABS_TOL = 0.159264, 1e-4
C_T, C_G, C_REL_TOL = 0.27160, 0.33995, 0.01


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def decode_graph6(text: str) -> tuple[int, tuple[int, ...]]:
    """graph6 (short form) to (n, adj), written from the format description."""
    data = [ord(c) - 63 for c in text.strip()]
    n = data[0]
    adj = [0] * n
    i = 0
    for col in range(1, n):
        for row in range(col):
            group, offset = divmod(i, 6)
            if data[1 + group] >> (5 - offset) & 1:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            i += 1
    return n, tuple(adj)


def catalog(root: Path, k: int) -> list[tuple[int, tuple[int, ...]]]:
    """The shipped catalog graphs for level k, decoded from the data file."""
    path = root / "src" / "apexobs" / "data" / f"obs_k{k}.g6"
    return [decode_graph6(line) for line in path.read_text().split() if line]


def num_edges(adj: tuple[int, ...]) -> int:
    return sum(row.bit_count() for row in adj) // 2


def _components(adj: tuple[int, ...], keep: int) -> int:
    count = 0
    todo = keep
    while todo:
        seen = frontier = todo & -todo
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v] & keep
            frontier = nxt & ~seen
            seen |= frontier
        todo &= ~seen
        count += 1
    return count


def cyclomatic(adj: tuple[int, ...], keep: int) -> int:
    """|E| - |V| + components of the subgraph induced by the mask ``keep``."""
    edges = sum((adj[v] & keep).bit_count() for v in bits(keep)) // 2
    return edges - keep.bit_count() + _components(adj, keep)


def is_connected(n: int, adj: tuple[int, ...]) -> bool:
    return n <= 1 or _components(adj, (1 << n) - 1) == 1


def is_k_apex_subunicyclic(n: int, adj: tuple[int, ...], k: int) -> bool:
    """Some set of at most k vertices leaves at most one cycle when deleted."""
    full = (1 << n) - 1
    for size in range(min(k, n) + 1):
        for drop in itertools.combinations(range(n), size):
            keep = full
            for v in drop:
                keep &= ~(1 << v)
            if cyclomatic(adj, keep) <= 1:
                return True
    return False


def is_forest_without(adj: tuple[int, ...], n: int, drop) -> bool:
    keep = (1 << n) - 1
    for v in drop:
        keep &= ~(1 << v)
    return cyclomatic(adj, keep) == 0


def is_triangle_cactus(n: int, adj: tuple[int, ...]) -> bool:
    """Connected, and every edge lies in exactly one triangle and in no other cycle.

    With every edge in exactly one triangle the edges split into m/3
    triangles; the cyclomatic number equals m/3 exactly when no cycle
    passes through more than one triangle.
    """
    if not is_connected(n, adj):
        return False
    m = num_edges(adj)
    for u in range(n):
        for v in bits(adj[u] >> (u + 1)):
            if (adj[u] & adj[u + 1 + v]).bit_count() != 1:
                return False
    return m % 3 == 0 and m - n + 1 == m // 3


def component_graphs(n: int, adj: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """The connected components, each relabelled to 0..n_c-1."""
    out = []
    todo = (1 << n) - 1
    while todo:
        seen = frontier = todo & -todo
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v]
            frontier = nxt & ~seen
            seen |= frontier
        todo &= ~seen
        verts = list(bits(seen))
        pos = {v: i for i, v in enumerate(verts)}
        out.append((len(verts), tuple(
            sum(1 << pos[u] for u in bits(adj[v])) for v in verts
        )))
    return out


def certificate(n: int, adj: tuple[int, ...]) -> tuple:
    """Exact isomorphism certificate by brute force, for graphs of <= 8 vertices.

    Vertices are grouped by an invariant (degree, sorted neighbour degrees);
    the certificate is the smallest relabelled adjacency over every labelling
    that lists the groups in sorted order, so two graphs get equal
    certificates iff they are isomorphic.
    """
    deg = [row.bit_count() for row in adj]
    key = [(deg[v], tuple(sorted(deg[u] for u in bits(adj[v])))) for v in range(n)]
    classes = sorted(set(key))
    groups = [[v for v in range(n) if key[v] == c] for c in classes]
    best = None
    for parts in itertools.product(*(itertools.permutations(g) for g in groups)):
        order = [v for part in parts for v in part]
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        rows = tuple(sum(1 << pos[u] for u in bits(adj[v])) for v in order)
        if best is None or rows < best:
            best = rows
    return (n, tuple(classes), best)


def refinement_signature(n: int, adj: tuple[int, ...]) -> tuple:
    """Colour-refinement (1-WL) signature: equal for isomorphic graphs.

    Different signatures prove two graphs non-isomorphic; that is the only
    way it is used here (pairwise distinctness of generated families).
    """
    colors = [0] * n
    history = []
    while True:
        sig = [(colors[v], tuple(sorted(colors[u] for u in bits(adj[v])))) for v in range(n)]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        history.append(tuple(sorted(sig)))
        if len(palette) == len(set(colors)):
            return tuple(history)
        colors = [palette[s] for s in sig]


def pairwise_distinct(graphs: list[tuple[int, tuple[int, ...]]]) -> bool:
    sigs = [refinement_signature(n, adj) for n, adj in graphs]
    return len(set(sigs)) == len(sigs)
