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
from typing import Iterator

from .canonical import _form_sorted, _iso_classes, automorphism_orbits
from .graphs import (
    MAX_VERTICES,
    ClassId,
    Graph,
    butterfly_graph,
    _count_forest_sets,
    _strip,
    complete_graph,
    cycle_graph,
    disjoint_union,
    has_apex_set_within,
    is_in_class,
)
from .minors import max_triangle_packing_in_cactus
from .obstructions import is_obstruction, same_graph_sets
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


def _attach_butterfly(b: ButterflyCactus, v: int) -> ButterflyCactus:
    """Identify one extremal vertex of a new butterfly with vertex v.

    The surviving vertex id is v (the one from the old graph); the new
    butterfly is two triangles glued in turn, at v and then at its central
    vertex, so it contributes four fresh vertices, the central one n + 1.
    """
    n = b.graph.n
    g = _glue_cycle(_glue_cycle(b.graph, v, 3), n + 1, 3)
    return ButterflyCactus(g, b.central_vertices | {n + 1}, b.k + 1)


def generate_Z(k: int) -> tuple[ButterflyCactus, ...]:
    """All k-butterfly-cacti up to isomorphism, with central vertices tracked.

    Deduplication by canonical form happens at every recursion level to keep
    the frontier small.  Counts for k = 1..7: 1, 1, 3, 7, 25, 88, 366.
    """
    return _z_levels(k)[-1]


def _z_levels(k: int) -> list[tuple[ButterflyCactus, ...]]:
    """generate_Z(1), ..., generate_Z(k), each level built once from the last.

    A butterfly is attached only at the smallest vertex of each automorphism
    orbit: a vertex in the same orbit gives an isomorphic child, whose form
    the smaller vertex has already put in the level.
    """
    if not 1 <= k <= MAX_LEVEL:
        raise ValueError(f"k must be in 1..{MAX_LEVEL}, got {k}")
    level = (ButterflyCactus(butterfly_graph(), frozenset({0}), 1),)
    levels = [level]
    for _ in range(k - 1):
        classes = _iso_classes(
            (
                _attach_butterfly(b, v)
                for b in level
                for v, orbit in enumerate(automorphism_orbits(b.graph))
                if v == orbit and v not in b.central_vertices
            ),
            lambda b: b.graph,
        )
        # the next level grows from the classes in the order first met
        level = classes.values()
        levels.append(tuple(classes[key] for key in sorted(classes)))
    return levels


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
        raise ValueError("k must be non-negative")
    full = (1 << g.n) - 1
    return _count_forest_sets(g.adj, *_strip(g.adj, full), full, k)


# -- disconnected obstructions --------------------------------------------------


def _check_union_level(k: int) -> None:
    top = MAX_VERTICES // 5 - 1
    if not 1 <= k <= top:
        raise ValueError(f"k must be in 1..{top} (largest member has 5(k+1) vertices), got {k}")


def disconnected_obstructions(k: int) -> tuple[Graph, ...]:
    """Disconnected cactus obstructions at level k, up to isomorphism.

    These are the disjoint unions over multisets {G_1..G_r}, r >= 2, with
    G_i a k_i-butterfly-cactus and sum k_i = k+1, plus the exceptional
    (k+2) disjoint triangles.  The exceptional graph comes first, then the
    unions by vertex count, ties broken by canonical form: this is form
    order, as a form starts with the vertex count and (k+2)K3 has 3k + 6
    vertices, fewer than any union's 4k + 4 + r.
    """
    _check_union_level(k)
    return _disconnected(_z_levels(k))


def _disconnected(levels: list[tuple[ButterflyCactus, ...]]) -> tuple[Graph, ...]:
    """``disconnected_obstructions(k)`` from ``levels``, the k levels of
    ``_z_levels(k)``, in form order: (k+2)K3, smaller than every union, then
    the unions as ``_form_sorted`` lists them, which computes a form only for
    a union that shares its vertex count with another."""
    return (exceptional_obstruction(len(levels)),) + _form_sorted(_cacti_unions(levels))


def _cacti_unions(levels: list[tuple[ButterflyCactus, ...]]) -> Iterator[Graph]:
    """The disjoint unions of butterfly-cacti with levels summing to k + 1
    (``levels[j - 1]`` is ``generate_Z(j)``, k = len(levels)), one per
    multiset of members: a walk over the members in (level, index) order,
    each pick at or after the last (no level exceeds k, so >= 2 picks).  No
    two walks give isomorphic unions (a union's components are its members,
    one level's members are pairwise non-isomorphic, level j has 4j + 1
    vertices), so ``_form_sorted`` only orders them and drops none: by vertex
    count, 4(k + 1) + r for r members, then by canonical form among the
    unions with equally many members."""
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
        if len(_form_sorted(members)) != len(members):
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
    return CactusObstructionFamily(
        k=k,
        connected=levels[k],
        disconnected=_form_sorted(_cacti_unions(levels[:k])),
        exceptional=exceptional_obstruction(k),
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
        raise ValueError(f"k must be in 0..{MAX_LEVEL - 1}")
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
        # keeps the cycle rank, and at k >= 1 search_obstructions' filter
        # (min degree 2, bridgeless) holds for every obstruction
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
