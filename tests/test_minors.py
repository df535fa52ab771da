from __future__ import annotations

import random
from collections import Counter

import networkx as nx
import pytest

from apexobs.cacti import generate_Z, max_triangle_packing_in_cactus
from apexobs.canonical import canonical_form, enumerate_graphs
from apexobs.graphio import from_graph6, to_graph6
from apexobs.graphs import (
    Graph,
    _induced,
    butterfly_graph,
    complete_graph,
    component_masks,
    cycle_graph,
    cyclomatic,
    disjoint_union,
    make_named,
    path_graph,
    popcount,
)
import apexobs.minors
from apexobs.minors import _children, clear_minor_cache, is_minor
from apexobs.obstructions import load_catalog

from conftest import random_graph
from oracles import oracle_is_minor, oracle_min_apex


class TestIsMinor:
    def test_triangle_in_c5(self):
        assert is_minor(make_named("K3"), cycle_graph(5))

    def test_too_many_vertices(self):
        assert not is_minor(make_named("2K3"), butterfly_graph())

    def test_k4_minus_in_k4(self):
        assert is_minor(make_named("K4-"), complete_graph(4))

    def test_butterfly_in_butterfly_chain(self):
        (chain,) = generate_Z(2)  # the 9-vertex chain of four triangles
        assert is_minor(butterfly_graph(), chain.graph)
        assert oracle_is_minor(butterfly_graph(), chain.graph)

    def test_reflexive_and_size_monotone(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 7), rng.random())
            assert is_minor(g, g)

    def test_isolated_vertex_handling(self):
        # K3 plus an isolated vertex is not a minor of C4: every K3 model
        # in C4 uses all four vertices
        h = disjoint_union(make_named("K3"), Graph(1))
        assert not is_minor(h, cycle_graph(4))
        assert not oracle_is_minor(h, cycle_graph(4))
        # a K3 model inside a cycle always uses every cycle vertex, so even
        # C5 has no room for the extra vertex; a disconnected host does
        assert not is_minor(h, cycle_graph(5))
        assert is_minor(h, disjoint_union(make_named("K3"), path_graph(2)))

    def test_edgeless(self):
        assert is_minor(Graph(3), path_graph(3))
        assert not is_minor(Graph(4), path_graph(3))
        assert is_minor(Graph(0), Graph(0))

    def test_agrees_with_oracle_small_random(self):
        # 1,200 seeded pairs, hosts of <= 7 vertices so the oracle stays fast
        rng = random.Random(2101)
        answers = Counter()
        for _ in range(1200):
            h = random_graph(rng, rng.randint(1, 6), rng.random())
            g = random_graph(rng, rng.randint(1, 7), rng.random())
            got = is_minor(h, g)
            assert got == oracle_is_minor(h, g), (h, g)
            answers[got] += 1
        assert min(answers[True], answers[False]) >= 200, answers

    def test_agrees_with_oracle_exhaustive_tiny(self):
        # every ordered pair of graphs on <= 4 vertices
        pool = [g for n in range(1, 5) for g in enumerate_graphs(n)]
        for h in pool:
            for g in pool:
                assert is_minor(h, g) == oracle_is_minor(h, g), (h, g)

    def test_agrees_with_oracle_seven_vertex_hosts(self, rng):
        # sampled hosts on 7 vertices against small patterns
        hosts = enumerate_graphs(7)
        picks = [hosts[rng.randrange(len(hosts))] for _ in range(40)]
        for g in picks:
            h = random_graph(rng, rng.randint(2, 5), rng.random())
            assert is_minor(h, g) == oracle_is_minor(h, g), (h, g)

    def test_isolated_vertex_patterns_against_oracle(self):
        # a pattern with an isolated vertex takes the plain descent; the
        # hosts go past the 6 vertices of acceptance criterion 10
        rng = random.Random(1601)
        patterns = [
            h for n in range(2, 6) for h in enumerate_graphs(n) if 0 in h.adj and h.num_edges()
        ]
        answers = set()
        for _ in range(80):
            h = rng.choice(patterns)
            g = random_graph(rng, rng.randint(7, 8), rng.uniform(0.15, 0.5))
            got = is_minor(h, g)
            assert got == oracle_is_minor(h, g), (h, g)
            answers.add(got)
        assert answers == {True, False}


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


class TestTwinClasses:
    """The spanning match places each twin class of the pattern in one order."""

    PATTERNS = {
        "K5": (make_named("K5"), [5]),
        "K2,4": (complete_bipartite(2, 4), [2, 4]),
        "K1,5": (complete_bipartite(1, 5), [1, 5]),
        "3K2+K1": (disjoint_union(make_named("3K2"), Graph(1)), [1, 2, 2, 2]),
    }

    def patterns(self):
        # the k=0 catalog: 2K3, K4- (two pairs of twins) and the butterfly
        # (a pair in each triangle)
        sizes = {"2K3": [3, 3], "K4-": [2, 2], "Z": [1, 2, 2]}
        catalog = {rec.name: (rec.graph, sizes[rec.name]) for rec in load_catalog(0).records}
        return {**self.PATTERNS, **catalog}

    def test_order_chains_each_twin_class(self):
        for name, (h, sizes) in self.patterns().items():
            order = apexobs.minors._Pattern(h, h.num_edges()).order
            seen, chains = set(), {}
            for x, _, _, twin in order:
                if twin == h.n:
                    chains[x] = [x]
                else:
                    assert twin in seen, name  # placed before x
                    (chain,) = [c for c in chains.values() if c[-1] == twin]
                    chain.append(x)
                seen.add(x)
            for chain in chains.values():
                for u in chain:  # every two members are twins
                    for v in chain:
                        assert h.adj[u] & ~(1 << v) == h.adj[v] & ~(1 << u), name
            assert sorted(map(len, chains.values())) == sizes, name

    def test_agrees_with_oracle_at_and_above_the_pattern_size(self):
        # seeded hosts on |h|, |h| + 1 and |h| + 2 vertices; at |h| the
        # query is the spanning match alone
        rng = random.Random(4401)
        for name, (h, _) in self.patterns().items():
            answers = set()
            for extra in (0, 1, 2):
                for _ in range(12):
                    g = random_graph(rng, h.n + extra, rng.uniform(0.25, 0.9))
                    got = is_minor(h, g)
                    assert got == oracle_is_minor(h, g), (name, g)
                    answers.add(got)
            assert answers == {True, False}, name


def is_model(h: nx.Graph, g: nx.Graph, sets: list[list[int]]) -> bool:
    """Are ``sets`` (one per vertex of h) disjoint connected branch sets of g
    with an edge of g between the sets of every two adjacent vertices of h?"""
    used = [v for branch in sets for v in branch]
    return (
        len(sets) == h.number_of_nodes()
        and len(used) == len(set(used))
        and all(nx.is_connected(g.subgraph(branch)) for branch in sets)
        and all(
            any(g.has_edge(x, y) for x in sets[a] for y in sets[b]) for a, b in h.edges()
        )
    )


class TestEdgeGap:
    """Patterns far below the host in edges: a 10-vertex host with 30 edges,
    against two k=1 catalog graphs on 9 vertices."""

    @pytest.mark.parametrize("name,h6,sets", [
        ("O_1^0", "HwCW?CB", [[0], [2], [4], [1], [3], [6], [5], [8], [9]]),
        ("O_6^0", "H\\[W?CB", [[0], [1], [4], [2], [9], [5], [3], [6], [8]]),
    ])
    def test_dense_host_against_a_model(self, name, h6, sets):
        g6 = "I^xeeB~zW"
        # the model is checked on graphs decoded by networkx
        assert is_model(nx.from_graph6_bytes(h6.encode()), nx.from_graph6_bytes(g6.encode()), sets)
        (h,) = [rec.graph for rec in load_catalog(1).records if rec.name == name]
        assert to_graph6(h) == h6
        clear_minor_cache()
        assert is_minor(h, from_graph6(g6))
        # one vertex short of the host: no edge deletions to walk
        assert len(apexobs.minors._memo) <= 10


def with_trees(rng, core: Graph, extra: int) -> Graph:
    """core plus ``extra`` new vertices, each isolated or hung on an earlier
    vertex, so the additions form pendant trees and small new components."""
    edges = list(core.edges())
    for v in range(core.n, core.n + extra):
        if rng.random() >= 0.25:
            edges.append((rng.randrange(v), v))
    return Graph(core.n + extra, edges)


class TestPrunes:
    """The cycle-rank refutation and the 2-core host reduction."""

    def test_catalog_patterns_on_hosts_with_trees(self, rng):
        # every catalog graph on <= 8 vertices (all of minimum degree >= 2,
        # so the host is cut to its 2-core) against hosts built from it: the
        # graph itself, one edge deleted, one contracted or one subdivided,
        # then pendant trees, isolated vertices and a K2 component added
        patterns = [
            rec.graph for k in (0, 1) for rec in load_catalog(k).records if rec.graph.n <= 8
        ]
        assert len(patterns) == 25 and all(min(map(popcount, h.adj)) >= 2 for h in patterns)
        answers = []
        for h in patterns:
            for _ in range(3):
                u, v = rng.choice(list(h.edges()))
                core = rng.choice([
                    h,
                    h.delete_edge(u, v),
                    h.contract_edge(u, v),
                    Graph(h.n + 1, [e for e in h.edges() if e != (u, v)] + [(u, h.n), (h.n, v)]),
                ])
                room = h.n + 2 - core.n  # keeps the oracle to seconds
                if room >= 3 and rng.random() < 0.5:
                    core, room = disjoint_union(core, make_named("K2")), room - 2
                g = with_trees(rng, core, room)
                answers.append(is_minor(h, g))
                assert answers[-1] == oracle_is_minor(h, g), (h, g)
        assert 0 < sum(answers) < len(answers)

    @pytest.mark.parametrize("h", [
        pytest.param(Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), id="paw"),
        pytest.param(disjoint_union(path_graph(3), make_named("K3")), id="P3+K3"),
    ])
    def test_pattern_with_a_leaf_keeps_the_host(self, rng, h):
        # h has a vertex of degree 1, so the host's pendant vertices can carry
        # it; the hosts here all have a smaller 2-core
        fixed = [
            Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]),  # K3 with a tail
            Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (0, 4)]),          # K3, two leaves, K1
        ]
        hosts = fixed + [
            with_trees(rng, random_graph(rng, rng.randint(3, 5), 0.6), rng.randint(1, 3))
            for _ in range(25)
        ]
        answers = []
        for g in hosts:
            assert min(map(popcount, g.adj)) <= 1
            answers.append(is_minor(h, g))
            assert answers[-1] == oracle_is_minor(h, g), (h, g)
        assert any(answers) and not all(answers)

    @pytest.mark.parametrize("h,g", [
        pytest.param(make_named("K4-"), cycle_graph(8), id="cycle-host"),
        pytest.param(
            make_named("K4-"), Graph(7, [(v, (v - 1) // 2) for v in range(1, 7)]), id="tree-host"
        ),
        # equal cycle rank, but the 2-core of K3 with a 5-vertex tail is too small
        pytest.param(
            cycle_graph(5),
            Graph(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]),
            id="small-2-core",
        ),
    ])
    def test_refuted_before_any_canonical_form(self, monkeypatch, h, g):
        calls = []

        def counted(graph):
            calls.append(graph)
            return canonical_form(graph)

        monkeypatch.setattr(apexobs.minors, "canonical_form", counted)
        assert not is_minor(h, g)
        assert calls == []


def counted(g: Graph) -> list[tuple[str, tuple[int, int, int], tuple[int, int, int]]]:
    """Each child of ``_children(g)`` as (kind, derived counts, counts of the
    built child); the kind is a contraction, or the deletion of an isolated
    vertex, of a cut vertex (the child has more components than g) or of
    another vertex."""
    m, rank, comps = g.num_edges(), cyclomatic(g), len(component_masks(g))
    out = []
    for rows, alive, cm, crank in _children(g, m, rank):
        child = _induced(rows, alive)
        if rows != g.adj:
            kind = "contraction"
        elif cm == m:
            kind = "isolated"
        else:
            kind = "cut vertex" if len(component_masks(child)) > comps else "vertex"
        out.append((kind, (g.n - 1, cm, crank), (child.n, child.num_edges(), cyclomatic(child))))
    return out


class TestDerivedCounts:
    """The counts the descent refutes children by, against the built children."""

    def test_random_graphs_cyclic_members_and_catalog(self):
        rng = random.Random(1407)
        graphs = [random_graph(rng, rng.randint(1, 10), rng.random()) for _ in range(200)]
        graphs += [b.graph for k in (2, 3) for b in generate_Z(k)]
        graphs += [rec.graph for rec in load_catalog(1).records]
        kinds = Counter()
        for g in graphs:
            for kind, derived, built in counted(g):
                assert derived == built, (g, kind)
                kinds[kind] += 1
        assert set(kinds) == {"contraction", "isolated", "cut vertex", "vertex"}

    def test_cut_vertex_deletion_and_triangle_contraction(self):
        # two triangles joined by the bridge 2-3, with the pendant edge 5-6
        g = Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (5, 6)])
        children = counted(g)
        by_edge = dict(zip(g.edges(), children))  # the contractions, in edge order
        # contracting a triangle edge merges its other two edges: -2 edges, -1 cycle
        assert by_edge[(0, 1)][1:] == ((6, 6, 1),) * 2
        # contracting the bridge or the pendant edge keeps both cycles
        assert by_edge[(2, 3)][1:] == by_edge[(5, 6)][1:] == ((6, 7, 2),) * 2
        deletions = children[g.num_edges():]  # then one per vertex, in vertex order
        assert len(deletions) == g.n
        # a cut vertex of degree 3 splits its component in two: -3 edges, -1 cycle
        for v in (2, 3, 5):
            assert deletions[v] == ("cut vertex", (6, 5, 1), (6, 5, 1))
        assert deletions[0] == ("vertex", (6, 6, 1), (6, 6, 1))
        assert deletions[6] == ("vertex", (6, 7, 2), (6, 7, 2))  # the leaf


class TestBuildsOnlyWhatItCanonicalises:
    def test_every_built_host_is_canonicalised(self, monkeypatch):
        # the k=0 catalog against the wheel with 8 spokes: 2K3 is refuted after
        # a descent (a triangle model without the hub takes the whole rim, and
        # one with the hub leaves a path), K4- and the butterfly are found
        wheel = Graph(9, [(0, v) for v in range(1, 9)] + [(v, v % 8 + 1) for v in range(1, 9)])
        built, formed = [], []

        def counted_induced(rows, alive):
            built.append(_induced(rows, alive))
            return built[-1]

        def counted_form(graph):
            formed.append(graph)
            return canonical_form(graph)

        monkeypatch.setattr(apexobs.minors, "_induced", counted_induced)
        monkeypatch.setattr(apexobs.minors, "canonical_form", counted_form)
        answers = {}
        for rec in load_catalog(0).records:
            clear_minor_cache()
            built.clear()
            formed.clear()
            answers[rec.graph.n] = is_minor(rec.graph, wheel)
            hosts = [f for f in formed if f is not rec.graph]
            assert built and [id(f) for f in hosts] == [id(b) for b in built]
        assert answers == {6: False, 4: True, 5: True}  # 2K3, K4-, butterfly


@pytest.mark.parametrize("k,sizes", [(0, (8, 9)), (1, (6, 7, 8))])
def test_catalog_membership_matches_apex_number(k, sizes):
    # the query of the minor-membership benchmark: g has a minor in the
    # obstruction set of level k iff g is not k-apex sub-unicyclic; denser
    # hosts than the benchmark's, whose k=1 hosts are all 1-apex
    catalog = [rec.graph for rec in load_catalog(k).records]
    rng = random.Random(1400 + k)
    answers = []
    for _ in range(20):
        g = random_graph(rng, rng.choice(sizes), rng.uniform(0.15, 0.6))
        answers.append(any(is_minor(h, g) for h in catalog))
        assert answers[-1] == (oracle_min_apex(g, "subunicyclic") > k), g
    assert any(answers) and not all(answers)


class TestCactusCharacterization:
    def test_cactus_iff_no_k4_minus_minor_up_to_8(self):
        # the defining equivalence, exhaustively over every graph with
        # at most 8 vertices (13598 of them up to isomorphism)
        from apexobs.canonical import graphs_up_to
        from apexobs.graphs import ClassId, is_in_class

        k4m = make_named("K4-")
        for g in graphs_up_to(8):
            assert is_in_class(g, ClassId.CACTUS) == (not is_minor(k4m, g)), g


class TestTrianglePacking:
    def test_butterfly_packs_one(self):
        assert max_triangle_packing_in_cactus(butterfly_graph()) == 1

    def test_disjoint_triangles(self):
        assert max_triangle_packing_in_cactus(make_named("3K3")) == 3

    def test_forest_packs_none(self):
        assert max_triangle_packing_in_cactus(path_graph(5)) == 0

    def test_matches_minor_test(self):
        for k in (1, 2, 3):
            for b in generate_Z(k):
                r = max_triangle_packing_in_cactus(b.graph)
                rk3 = disjoint_union(*[make_named("K3")] * r)
                assert is_minor(rk3, b.graph)
                if (r + 1) * 3 <= b.graph.n:
                    more = disjoint_union(*[make_named("K3")] * (r + 1))
                    assert not is_minor(more, b.graph)
