from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

import apexobs.graphs
from apexobs.graphs import (
    ClassId,
    Graph,
    _apex_search,
    _child_rows,
    _cycle_packing,
    _cycle_rank,
    _induced,
    _join_rank,
    _one_step_children,
    _peel,
    _rank_drop,
    _shortest_cycle,
    _strip,
    bits,
    butterfly_graph,
    bridges,
    complete_graph,
    cycle_graph,
    cyclomatic,
    decompose,
    disjoint_union,
    has_apex_set_within,
    is_connected,
    is_in_class,
    make_named,
    min_apex_size,
    one_step_minors,
    path_graph,
    peripheral_blocks,
    popcount,
)
from apexobs.cacti import count_forest_apex_sets, generate_Z
from apexobs.canonical import are_isomorphic, canonical_form
from apexobs.obstructions import check_obstruction, is_obstruction, load_catalog

from conftest import random_graph
from oracles import (
    count_cycles,
    oracle_in_class,
    oracle_min_apex,
    oracle_peripheral_blocks,
    to_nx,
)


def traced_peak(fn) -> int:
    """The peak of the memory traced while ``fn()`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConstruction:
    def test_named_butterfly(self):
        z = make_named("Z")
        assert z.n == 5 and z.num_edges() == 6
        assert z.degree_sequence() == (2, 2, 2, 2, 4)
        # the central vertex carries both triangles
        center = next(v for v in range(5) if z.degree(v) == 4)
        wings = [frozenset(b) for b in decompose(z).blocks]
        assert all(center in b and len(b) == 3 for b in wings)

    def test_named_k3_is_c3(self):
        assert are_isomorphic(make_named("K3"), cycle_graph(3))
        assert make_named("K3").num_edges() == 3

    def test_named_2k3(self):
        g = make_named("2K3")
        assert g.n == 6 and g.num_edges() == 6
        from apexobs.graphs import component_masks

        assert len(component_masks(g)) == 2

    def test_named_errors(self):
        for bad in ("Q5", "K", "0K3", "C2", "K1-"):
            with pytest.raises(ValueError):
                make_named(bad)

    @pytest.mark.parametrize("name", ["C1000000", "P1000000", "K1000000", "K1000000-", "1000000K3"])
    def test_oversize_name_fails_before_building(self, name):
        # the vertex limit is checked before any edge list or copy is built
        def build():
            with pytest.raises(ValueError, match="32"):
                make_named(name)

        assert traced_peak(build) < 1 << 20

    def test_copies_of_the_empty_graph(self):
        # no list of a million copies is built for them
        assert traced_peak(lambda: make_named("1000000K0")) < 1 << 20
        assert make_named("1000000K0") == Graph(0)

    def test_rejects_loops_and_oversize(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(33)
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])
        with pytest.raises(ValueError, match="union has 40 vertices"):
            disjoint_union(complete_graph(20), complete_graph(20))
        for rows, message in (
            ([0] * 33, "vertex count 33 exceeds 32"),
            ([0b100, 0], "adjacency of 0 mentions vertices >= 2"),
            ([1], "loop at vertex 0"),
            ([0b10, 0], r"asymmetric edge \(0,1\)"),
        ):
            with pytest.raises(ValueError, match=message):
                Graph.from_adj(rows)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            path_graph(3).n = 4

    @pytest.mark.parametrize("method", ["delete_edge", "contract_edge"])
    def test_missing_edge_rejected(self, method):
        with pytest.raises(ValueError, match=r"no edge \(0,2\)"):
            getattr(path_graph(3), method)(0, 2)

    def test_add_vertex_checks_its_arguments(self, rng):
        g = cycle_graph(4)
        for bad in (1 << 4, 1 << 9 | 1, -1):
            with pytest.raises(ValueError):
                g.add_vertex(bad)
        with pytest.raises(ValueError):
            Graph(32).add_vertex(0)
        assert Graph(31).add_vertex(1 << 30).n == 32
        for _ in range(50):
            g = random_graph(rng, rng.randint(0, 12), rng.random())
            nb = rng.getrandbits(g.n)
            h = g.add_vertex(nb)
            assert h == Graph.from_adj(h.adj)  # symmetric and loop-free
            assert h.subgraph((1 << g.n) - 1) == g and h.adj[g.n] == nb

    @pytest.mark.parametrize(
        "method, args, vertex",
        [
            ("has_edge", (-1, 0), -1),  # a negative index would wrap to vertex 2
            ("has_edge", (0, 3), 3),
            ("degree", (-1,), -1),
            ("neighbors", (-1,), -1),
            ("delete_vertices", ([5],), 5),  # a bit past n would drop nothing
            ("delete_vertices", ([-1],), -1),
            ("contract_edge", (-1, 0), -1),
            ("delete_edge", (0, 3), 3),
            ("subgraph", (0b1000,), 3),
            ("subgraph", (-1,), 3),
        ],
        ids=lambda x: str(x).replace(" ", ""),
    )
    def test_vertex_arguments_checked(self, method, args, vertex):
        with pytest.raises(ValueError, match=rf"vertex {vertex} outside 0\.\.2"):
            getattr(complete_graph(3), method)(*args)

    def test_subgraph_names_a_negative_mask(self):
        # -1 sets every bit from 3 up; the message names the mask the caller gave
        with pytest.raises(ValueError, match=r"mask -0x1 sets vertex 3 outside 0\.\.2"):
            make_named("K3").subgraph(-1)
        with pytest.raises(ValueError, match=r"mask 0x18 sets vertex 3 outside 0\.\.2"):
            make_named("K3").subgraph(0b11000)

    def test_relabel_checks_its_permutation(self):
        g = Graph(4, [(0, 1), (2, 3)])
        for bad in ([0, 1, 1, 0], [2, 3, 0, 1, 5], [0, 1, 2]):
            with pytest.raises(ValueError, match="not a permutation"):
                g.relabel(bad)
        assert g.relabel([2, 3, 0, 1]) == g
        assert g.relabel([1, 2, 3, 0]) == Graph(4, [(1, 2), (3, 0)])

    def test_symmetry_invariant(self, rng):
        for _ in range(50):
            g = random_graph(rng, rng.randint(0, 12), rng.random())
            for v in range(g.n):
                for u in g.neighbors(v):
                    assert g.has_edge(u, v)
                assert not g.has_edge(v, v)

    def test_subgraph_and_contraction_against_edge_lists(self, rng):
        # the rows relabelled from the edge list: kept vertices in order;
        # contracting uv, v merges into u and the vertices above v move down
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 12), rng.random())
            keep = rng.getrandbits(g.n)
            pos = {v: i for i, v in enumerate(v for v in range(g.n) if keep >> v & 1)}
            sub = [(pos[a], pos[b]) for a, b in g.edges() if a in pos and b in pos]
            assert g.subgraph(keep) == Graph(len(pos), sub)
            for u, v in g.edges():
                f = [u if x == v else x - (x > v) for x in range(g.n)]
                merged = {(f[a], f[b]) for a, b in g.edges() if f[a] != f[b]}
                assert g.contract_edge(u, v) == Graph(g.n - 1, merged)

    def test_contraction_simplifies(self):
        # contracting a triangle edge must not create a doubled edge
        g = cycle_graph(3).contract_edge(0, 1)
        assert g.n == 2 and g.num_edges() == 1


class TestCyclomatic:
    def test_triangle(self):
        assert cyclomatic(make_named("K3")) == 1

    def test_forest_two_components(self):
        g = disjoint_union(path_graph(4), path_graph(3))
        assert g.n == 7 and cyclomatic(g) == 0

    def test_butterfly_matches_cycle_census(self):
        z = butterfly_graph()
        assert cyclomatic(z) == 2
        assert count_cycles(z) == 2

    def test_against_oracle(self, rng):
        from oracles import nx_cyclomatic

        for _ in range(80):
            g = random_graph(rng, rng.randint(0, 10), rng.random())
            assert cyclomatic(g) == nx_cyclomatic(g)


class TestClassMembership:
    def test_spec_examples(self):
        two_k3 = make_named("2K3")
        assert is_in_class(two_k3, ClassId.PSEUDOFOREST)
        assert not is_in_class(two_k3, ClassId.SUB_UNICYCLIC)
        assert not is_in_class(make_named("K4-"), ClassId.CACTUS)
        z = make_named("Z")
        assert not is_in_class(z, ClassId.SUB_UNICYCLIC)
        assert is_in_class(z, ClassId.CACTUS)

    def test_against_oracle(self, rng):
        for _ in range(120):
            g = random_graph(rng, rng.randint(0, 9), rng.random())
            for cls in ClassId:
                assert is_in_class(g, cls) == oracle_in_class(g, cls.value), (
                    g,
                    cls,
                )

    def test_rejects_non_class_id(self):
        # a class's string value is no ClassId: each entry point taking a class
        # raises rather than answer for another class (K4 needs 2 deletions)
        k4 = make_named("K4")
        for call in (
            lambda: is_in_class(k4, "forest"),
            lambda: min_apex_size(k4, "forest"),
            lambda: has_apex_set_within(k4, "forest", 1),
            lambda: check_obstruction(make_named("K3"), 0, "forest"),
            lambda: is_obstruction(make_named("K3"), 0, "forest"),
        ):
            with pytest.raises(TypeError, match="not a ClassId: 'forest'"):
                call()

    def test_against_oracle_up_to_32_vertices(self, rng):
        for g in wide_pool(rng):
            for cls in ClassId:
                assert is_in_class(g, cls) == oracle_in_class(g, cls.value), (g, cls)

    def test_cactus_iff_k4minus_free(self):
        # checked exhaustively on <= 8 vertices in test_acceptance; spot here
        from apexobs.minors import is_minor

        k4m = make_named("K4-")
        for g in (make_named("Z"), cycle_graph(5), complete_graph(4), make_named("2K3")):
            assert is_in_class(g, ClassId.CACTUS) == (not is_minor(k4m, g))


def random_cactus(rng: random.Random, n: int) -> Graph:
    """A connected cactus on n vertices: pendant edges and cycles hung one at a time."""
    edges, size = [], 1
    while size < n:
        at, extra = rng.randrange(size), min(rng.choice((1, 1, 2, 3, 4, 6)), n - size)
        ring = [at, *range(size, size + extra)]
        edges += zip(ring, ring[1:] + ring[:1]) if extra > 1 else [(at, size)]
        size += extra
    perm = rng.sample(range(n), n)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def wide_pool(rng: random.Random) -> list[Graph]:
    """Graphs on 1..32 vertices: random ones from sparse to dense, some with
    isolated vertices, random cacti, and P32 and C32."""
    pool = [path_graph(32), cycle_graph(32)]
    for _ in range(150):
        n = rng.randint(1, 32)
        pool.append(random_graph(rng, n, rng.choice((0.5, 1, 1.5, 2, 4)) / n))
    for _ in range(30):
        n = rng.randint(1, 28)
        pool.append(disjoint_union(random_graph(rng, n, 2 / n), Graph(rng.randint(1, 32 - n))))
    pool.extend(random_cactus(rng, rng.randint(1, 32)) for _ in range(80))
    return pool


class TestBlocks:
    def test_butterfly(self):
        dec = decompose(butterfly_graph())
        assert len(dec.blocks) == 2
        assert all(len(b) == 3 for b in dec.blocks)
        assert dec.cut_vertices == frozenset({0})

    def test_cycle_biconnected(self):
        dec = decompose(cycle_graph(5))
        assert len(dec.blocks) == 1 and not dec.cut_vertices

    def test_path(self):
        dec = decompose(path_graph(4))
        assert len(dec.blocks) == 3
        assert all(len(b) == 2 for b in dec.blocks)
        assert len(dec.cut_vertices) == 2

    def test_edge_partition(self, rng):
        # every edge lies in exactly one block
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            dec = decompose(g)
            per_block = sum(
                g.subgraph(sum(1 << v for v in b)).num_edges() for b in dec.blocks
            )
            assert per_block == g.num_edges()

    def test_bc_tree_shape(self, rng):
        import networkx as nx

        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 10), 0.3)
            if not is_connected(g):
                continue
            dec = decompose(g)
            T = nx.Graph()
            T.add_nodes_from(dec.bc_tree)
            for a, nbrs in dec.bc_tree.items():
                T.add_edges_from((a, b) for b in nbrs)
            assert nx.is_tree(T)
            for node in T.nodes:
                if T.degree(node) <= 1 and len(T) > 1:
                    assert node[0] == "block"  # every bc-tree leaf is a block

    def test_against_networkx_up_to_32_vertices(self, rng):
        import networkx as nx

        for g in wide_pool(rng):
            G = to_nx(g)
            dec = decompose(g)
            singletons = {frozenset([v]) for v in range(g.n) if not g.adj[v]}
            expected = {frozenset(b) for b in nx.biconnected_components(G)} | singletons
            assert set(dec.blocks) == expected and len(dec.blocks) == len(expected), g
            assert dec.cut_vertices == set(nx.articulation_points(G)), g
            assert set(bridges(g)) == {tuple(sorted(e)) for e in nx.bridges(G)}, g
            if is_connected(g):
                assert set(peripheral_blocks(g, dec)) == oracle_peripheral_blocks(g), g

    def test_bridges(self):
        g = path_graph(4)
        assert len(bridges(g)) == 3
        assert bridges(cycle_graph(4)) == []


class TestPeripheralBlocks:
    def test_butterfly_both_wings(self):
        assert len(peripheral_blocks(butterfly_graph())) == 2

    def test_biconnected_empty_signal(self):
        assert peripheral_blocks(cycle_graph(5)) == ()

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected graph"):
            peripheral_blocks(make_named("2K3"))

    def test_chain_of_four_triangles(self):
        # the 2-butterfly-cactus: only the two end triangles are peripheral
        from apexobs.cacti import generate_Z

        (b,) = generate_Z(2)
        per = peripheral_blocks(b.graph)
        assert len(per) == 2
        assert set(per) == oracle_peripheral_blocks(b.graph)

    def test_star_of_three_triangles(self):
        # all three triangles are pairwise anti-diametrical
        g = Graph(
            7,
            [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6)],
        )
        assert len(peripheral_blocks(g)) == 3

    def test_against_oracle(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 9), 0.3)
            if not is_connected(g):
                continue
            assert set(peripheral_blocks(g)) == oracle_peripheral_blocks(g)


class TestMinApex:
    def test_spec_examples(self):
        assert min_apex_size(make_named("Z"), ClassId.SUB_UNICYCLIC) == 1
        assert min_apex_size(make_named("3K3"), ClassId.SUB_UNICYCLIC) == 2
        assert min_apex_size(make_named("K3"), ClassId.SUB_UNICYCLIC) == 0

    def test_zero_iff_member(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(0, 8), rng.random())
            for cls in ClassId:
                assert (min_apex_size(g, cls) == 0) == is_in_class(g, cls)

    def test_against_exhaustive_oracle(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 7), rng.random())
            for cls in ClassId:
                assert min_apex_size(g, cls) == oracle_min_apex(g, cls.value)

    def test_long_cycle_with_chords_against_oracle(self):
        # a Hamiltonian cycle plus a few chords: which edge of the first
        # cycle the branching cuts decides the second cycle it finds; the
        # oracle tests above stop at 8 vertices
        rng = random.Random(1602)
        answers = set()
        for _ in range(30):
            n = rng.randint(9, 11)
            ring = rng.sample(range(n), n)
            edges = {frozenset((ring[i - 1], ring[i])) for i in range(n)}
            chords = rng.randint(2, 4)
            while len(edges) < n + chords:
                edges.add(frozenset(rng.sample(range(n), 2)))
            g = Graph(n, [tuple(e) for e in edges])
            for cls in ClassId:
                got = min_apex_size(g, cls)
                assert got == oracle_min_apex(g, cls.value), (g, cls)
                answers.add(got)
        assert max(answers) >= 2  # some searches branch below the root


def subset_loop_within(g: Graph, cls: ClassId, k: int) -> bool:
    """Plain loop over all deletion sets of size <= k."""
    return any(
        is_in_class(g.delete_vertices(drop), cls)
        for s in range(min(k, g.n) + 1)
        for drop in combinations(range(g.n), s)
    )


class TestApexSearch:
    def test_against_subset_loop(self, rng):
        outcomes = set()
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 10), rng.uniform(0.1, 0.7))
            for cls in ClassId:
                for k in range(4):
                    got = has_apex_set_within(g, cls, k)
                    assert got == subset_loop_within(g, cls, k), (g, cls, k)
                    outcomes.add((cls, k, got))
        # every class and budget saw both answers
        assert len(outcomes) == 2 * 4 * len(ClassId)

    @pytest.mark.parametrize("cls", list(ClassId))
    def test_found_sets_land_in_the_class(self, rng, cls):
        # on g and on every child in g's labels (rows that still mention
        # the vertex a contraction dropped): a found set is at most k alive
        # vertices whose deletion lands the graph in the class
        found = refuted = 0
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.7))
            for rows, alive, _ in [(g.adj, (1 << g.n) - 1, None), *_child_rows(g)]:
                need = min_apex_size(_induced(rows, alive), cls)
                for k in range(4):
                    s = _apex_search(rows, *_strip(rows, alive), cls, k, {})
                    assert (s is None) == (k < need)
                    if s is None:
                        refuted += 1
                        continue
                    found += 1
                    assert s & ~alive == 0 and popcount(s) <= k
                    assert is_in_class(_induced(rows, alive & ~s), cls)
        assert found and refuted

    def test_cactus_on_two_connected_graphs_against_subset_loop(self):
        # 2-connected graphs of 10-14 vertices grown from a cycle by random
        # ears, past the oracle tests' 8 vertices: none is a cactus, so each
        # search with k >= 1 branches on a cycle plus an ear
        rng = random.Random(2001)
        answers = Counter()
        for _ in range(40):
            n = rng.randint(10, 14)
            v = rng.randint(3, 6)
            edges = {(i, (i + 1) % v) for i in range(v)}
            while v < n or rng.random() < 0.3:  # an ear through `inner` new vertices
                inner = rng.randint(0, min(3, n - v))
                path = [rng.randrange(v), *range(v, v + inner), rng.randrange(v)]
                if path[0] != path[-1]:
                    edges |= set(zip(path, path[1:]))
                    v += inner
            g = Graph(n, edges)
            for k in range(3):
                got = has_apex_set_within(g, ClassId.CACTUS, k)
                assert got == subset_loop_within(g, ClassId.CACTUS, k), (g, k)
                answers[k, got] += 1
        assert answers[1, True] and answers[1, False] and answers[2, True] and answers[2, False]

    def test_cactus_runs_one_blocks_dfs_per_node(self, monkeypatch):
        # the thick block found for the class test of a node is the one its
        # branch set is taken from
        rng = random.Random(2102)
        graphs = [random_graph(rng, rng.randint(8, 14), rng.uniform(0.2, 0.6)) for _ in range(60)]
        nodes, dfs_calls = [], []
        search, blocks = apexobs.graphs._apex_search, apexobs.graphs._blocks_and_cuts

        def counted_search(*args):
            nodes.append(args[1])
            return search(*args)

        def counted_blocks(*args):
            dfs_calls.append(args[1])
            return blocks(*args)

        monkeypatch.setattr(apexobs.graphs, "_apex_search", counted_search)
        monkeypatch.setattr(apexobs.graphs, "_blocks_and_cuts", counted_blocks)
        sizes = [min_apex_size(g, ClassId.CACTUS) for g in graphs]
        assert max(sizes) >= 3 and len(nodes) > 1000
        assert len(dfs_calls) <= len(nodes)

    # (level, k, step) -> per member of generate_Z(level)[::step], the
    # _apex_search nodes at budgets 0..k of check_obstruction.  The budget
    # >= 1 columns are those of a search that stripped every node's alive
    # set and repacked it from scratch; budget 0 counts only the searches'
    # own leaves, as _rank_drop answers every sibling-set test of
    # SUB_UNICYCLIC.  The membership search's near misses are the first
    # sibling sets, so only the children they do not settle are searched
    NODES = {
        (4, 3, 1): [
            [12, 7, 7, 3], [11, 7, 7, 4], [7, 5, 6, 4], [20, 8, 7, 3],
            [14, 6, 6, 3], [10, 6, 6, 3], [11, 5, 4, 2],
        ],
        (5, 4, 2): [
            [9, 9, 10, 10, 6], [15, 8, 9, 7, 3], [10, 9, 9, 9, 6],
            [10, 8, 6, 7, 5], [27, 12, 13, 8, 4], [10, 8, 8, 8, 5],
            [9, 7, 7, 7, 4], [18, 11, 6, 7, 3], [23, 11, 7, 6, 3],
            [27, 16, 11, 9, 5], [9, 9, 9, 10, 6], [20, 9, 6, 6, 3],
            [16, 8, 5, 4, 2],
        ],
    }

    @pytest.mark.parametrize("level, k, step", list(NODES))
    def test_obstruction_check_node_counts(self, monkeypatch, level, k, step):
        # handing each child the 2-core peeled from g's changes no node: the
        # counts per budget are pinned, and so is every verdict
        import apexobs.obstructions

        budgets = []
        search = apexobs.graphs._apex_search

        def counted_search(*args):
            budgets.append(args[4])
            return search(*args)

        monkeypatch.setattr(apexobs.graphs, "_apex_search", counted_search)
        monkeypatch.setattr(apexobs.obstructions, "_apex_search", counted_search)
        got = []
        for b in generate_Z(level)[::step]:
            budgets.clear()
            assert check_obstruction(b.graph, k).is_obstruction
            got.append([budgets.count(j) for j in range(k + 1)])
        assert got == self.NODES[level, k, step]

    def test_negative_budget(self):
        assert not has_apex_set_within(Graph(0), ClassId.FOREST, -1)

    def test_long_cycles(self):
        # no triangles: the shortest cycles come from the breadth-first search
        g = disjoint_union(cycle_graph(5), cycle_graph(7), cycle_graph(4))
        assert min_apex_size(g, ClassId.FOREST) == 3
        assert min_apex_size(g, ClassId.SUB_UNICYCLIC) == 2
        assert min_apex_size(g, ClassId.PSEUDOFOREST) == 0

    def test_pseudoforest_dumbbell(self):
        # two 5-cycles joined by a 3-edge path: one deletion, anywhere on it
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
        edges += [(0, 10), (10, 11), (11, 5)]
        g = Graph(12, edges)
        assert min_apex_size(g, ClassId.PSEUDOFOREST) == 1
        assert not has_apex_set_within(g, ClassId.SUB_UNICYCLIC, 0)
        assert has_apex_set_within(g.delete_vertices([10]), ClassId.PSEUDOFOREST, 0)

    def test_pseudoforest_hub(self):
        # three triangles each joined by an edge to a hub: only the hub,
        # which lies on no cycle, splits them with one deletion
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 7), (7, 8), (8, 6)]
        edges += [(9, 0), (9, 3), (9, 6)]
        g = Graph(10, edges)
        assert min_apex_size(g, ClassId.PSEUDOFOREST) == 1
        assert min_apex_size(g, ClassId.SUB_UNICYCLIC) == 2
        assert min_apex_size(g, ClassId.FOREST) == 3


def greedy_packing(adj: tuple[int, ...], core: int, limit: int) -> int:
    """The greedy packing one cycle at a time: a shortest cycle, then strip."""
    count = 0
    while core and count < limit:
        cycle = _shortest_cycle(adj, core)
        if not cycle:
            break
        count += 1
        core = _strip(adj, core & ~cycle)[0]
    return count


def core_pool(rng: random.Random, size: int) -> list[tuple[tuple[int, ...], int, int]]:
    """``size`` triples (rows, 2-core, its degree >= 3 vertices): random graphs
    sparse to dense, random cacti with cycles of length 3 to 7, and
    bipartite graphs, which have no triangle."""
    pool = []
    for i in range(size):
        kind = i % 3
        if kind == 0:
            n = rng.randint(3, 16)
            g = random_graph(rng, n, rng.uniform(0.1, 0.6))
        elif kind == 1:
            g = random_cactus(rng, rng.randint(3, 32))
        else:
            n = rng.randint(4, 16)
            side = rng.randint(1, n - 1)
            p = rng.uniform(0.2, 0.7)
            g = Graph(n, [(u, v) for u in range(side) for v in range(side, n) if rng.random() < p])
        pool.append((g.adj, *_strip(g.adj, (1 << g.n) - 1)))
    return pool


class TestCoreBookkeeping:
    def test_shortest_cycle_has_the_girth(self):
        # the bipartite cores have no triangle, so the BFS answers them; its
        # cycle is chordless and connected, as long as networkx's girth, and
        # runs through the lowest vertex on any shortest cycle: roots go up,
        # and a root off every shortest cycle closes only longer ones
        import networkx as nx

        def shortest_through(h: nx.Graph, v: int) -> float:
            best = float("inf")
            for u in list(h[v]):
                h.remove_edge(v, u)
                if nx.has_path(h, u, v):
                    best = min(best, nx.shortest_path_length(h, u, v) + 1)
                h.add_edge(v, u)
            return best

        rng = random.Random(2301)
        lengths = Counter()
        for adj, core, _ in core_pool(rng, 3000):
            cycle = _shortest_cycle(adj, core)
            lengths[cycle.bit_count()] += 1
            if not core:
                assert cycle == 0
                continue
            h = nx.Graph((v, u) for v in bits(core) for u in bits(adj[v] & core))
            girth = nx.girth(h)
            assert cycle.bit_count() == girth, (adj, core)
            low = next(v for v in sorted(h) if shortest_through(h, v) == girth)
            assert cycle & -cycle == 1 << low, (adj, core)
            assert all((adj[v] & cycle).bit_count() == 2 for v in bits(cycle))
            assert nx.is_connected(h.subgraph(bits(cycle))), (adj, core)
        assert lengths[0] and lengths[3] and sum(lengths[m] for m in range(4, 9)) > 100

    def test_packing_is_the_greedy_on_random_cores(self):
        # the greedy capped at a limit is a prefix of the greedy capped at 7,
        # so one reference count per core serves limit 7 and one drawn below it
        rng = random.Random(2601)
        seen, binds = Counter(), set()
        for adj, core, _ in core_pool(rng, 21_000):
            want = greedy_packing(adj, core, 7)
            triangles = bool(core) and _shortest_cycle(adj, core).bit_count() == 3
            limit = rng.randint(1, 6)
            seen[want, triangles] += 1
            binds.update(cap for cap in (limit, 7) if want >= cap)
            assert _cycle_packing(adj, core, 7) == want, (adj, core)
            assert _cycle_packing(adj, core, limit) == min(limit, want), (adj, core, limit)
        assert binds == set(range(1, 8))  # the cap binds at every limit
        assert seen[0, False] and sum(c for (w, t), c in seen.items() if w and not t) > 1000

    def test_packing_is_the_greedy_in_the_cactus_checks(self, monkeypatch):
        # every call the obstruction checks, the k + 1 membership refutations
        # and the forest counts of Z_2..Z_5 make
        calls = []
        packing = apexobs.graphs._cycle_packing

        def recorded(*args):
            calls.append(args)
            return packing(*args)

        monkeypatch.setattr(apexobs.graphs, "_cycle_packing", recorded)
        for level in range(2, 6):
            for b in generate_Z(level):
                assert check_obstruction(b.graph, level - 1).is_obstruction
                assert check_obstruction(b.graph, level).failed_step == "membership"
                assert count_forest_apex_sets(b.graph, level) == 1
        assert len(calls) > 1000 and {limit for *_, limit in calls} == {2, 3, 4, 5, 6, 7}
        for adj, core, limit in calls:
            assert packing(adj, core, limit) == greedy_packing(adj, core, limit)

    def test_peel_is_the_strip(self):
        # a branch's deletion, and several at once: only the neighbours of
        # the deleted vertices change degree
        rng = random.Random(2602)
        drops = Counter()
        for adj, core, high in core_pool(rng, 3000):
            if not core:
                continue
            vertices = list(bits(core))
            for size in (1, 1, 2, 3):
                drop = sum(1 << v for v in rng.sample(vertices, min(size, len(vertices))))
                touched = 0
                for v in bits(drop):
                    touched |= adj[v]
                got = _peel(adj, core & ~drop, high, touched)
                assert got == _strip(adj, core & ~drop), (adj, core, drop)
                drops[got[0] == core & ~drop] += 1
        assert drops[True] and drops[False]  # some drops strip more vertices, some none

    def test_check_obstruction_strips_once(self, monkeypatch):
        import apexobs.obstructions

        calls = []
        strip = apexobs.obstructions._strip

        def counted_strip(*args):
            calls.append(args)
            return strip(*args)

        monkeypatch.setattr(apexobs.obstructions, "_strip", counted_strip)
        check = check_obstruction(generate_Z(5)[0].graph, 4)
        assert check.is_obstruction and check.children_searched > 0
        # g once, then each searched child once; no sibling-set test strips
        assert len(calls) == 1 + check.children_searched


class TestOneStepMinors:
    def test_triangle(self):
        kids = one_step_minors(make_named("K3"))
        assert len(kids) == 2
        assert any(are_isomorphic(k, path_graph(3)) for k in kids)
        assert any(are_isomorphic(k, path_graph(2)) for k in kids)

    def test_single_vertex(self):
        kids = one_step_minors(Graph(1))
        assert len(kids) == 1 and kids[0].n == 0

    def test_butterfly_counts(self):
        # frozen from enumeration: 2 classes by edge deletion, 1 by contraction
        z = butterfly_graph()
        dels = {canonical_form(z.delete_edge(u, v)) for u, v in z.edges()}
        cons = {canonical_form(z.contract_edge(u, v)) for u, v in z.edges()}
        assert len(dels) == 2 and len(cons) == 1
        assert len(one_step_minors(z)) == 3

    def test_results_are_deduplicated(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            kids = one_step_minors(g)
            forms = [canonical_form(k) for k in kids]
            assert len(set(forms)) == len(forms)
            assert forms == sorted(forms)

    def test_raw_children_in_edge_order(self, rng):
        # every contraction, then every deletion, in edge order, then one
        # isolated-vertex deletion; deduplicated they are exactly one_step_minors
        isolated_seen = False
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            kids = list(_one_step_children(g))
            expected = [g.contract_edge(u, v) for u, v in g.edges()]
            expected += [g.delete_edge(u, v) for u, v in g.edges()]
            if 0 in g.adj:
                isolated_seen = True
                assert kids[-1].n == g.n - 1 and kids[-1].num_edges() == g.num_edges()
                kids = kids[:-1]
            assert kids == expected
            # each child carries its edge; v is dropped by the contractions only
            edges = list(g.edges())
            rows = list(_child_rows(g))
            assert [e for _, _, e in rows] == edges + edges + [None] * (0 in g.adj)
            full = (1 << g.n) - 1
            assert [a for _, a, _ in rows[: 2 * len(edges)]] == [
                full & ~(1 << v) for _, v in edges
            ] + [full] * len(edges)
            assert {canonical_form(k) for k in _one_step_children(g)} == {
                canonical_form(k) for k in one_step_minors(g)
            }
        assert isolated_seen


class TestJoinRank:
    def test_a_join_and_a_deletion_move_the_cycle_rank_by_it(self):
        # a new vertex joined to touch, within a random alive set, raises the
        # rank by _join_rank; deleting a vertex outside the set lowers it by
        # the _join_rank of its neighbours there
        rng = random.Random(4701)
        met = Counter()
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.05, 0.5))
            within = rng.getrandbits(g.n) | 1
            before = _cycle_rank(g.adj, within)
            for touch in (0, within, rng.getrandbits(g.n) & within):
                got = _join_rank(g.adj, touch, within)
                joined = g.add_vertex(touch)
                assert got == _cycle_rank(joined.adj, within | 1 << g.n) - before, (g, touch)
                met[min(popcount(touch) - got, 3)] += 1
            for v in bits(((1 << g.n) - 1) & ~within):
                got = _join_rank(g.adj, g.adj[v] & within, within)
                assert got == _cycle_rank(g.adj, within | 1 << v) - before, (g, v)
        assert set(met) == {0, 1, 2, 3}  # no component met, and three or more


class TestRankDrop:
    def test_matches_the_cycle_rank(self):
        # every child of _child_rows against every set s of at most two
        # vertices, sets holding an end of the child's edge included; a
        # contraction into u with v alone in s can raise the rank
        rng = random.Random(1919)
        graphs = [rec.graph for k in (0, 1) for rec in load_catalog(k).records]
        graphs += [b.graph for j in (2, 3) for b in generate_Z(j)]
        graphs += [random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.7)) for _ in range(150)]
        seen = Counter()
        for g in graphs:
            full = (1 << g.n) - 1
            ranks = {
                s: _cycle_rank(g.adj, full & ~s)
                for size in range(3)
                for s in (sum(1 << v for v in drop) for drop in combinations(range(g.n), size))
            }
            for rows, alive, edge in _child_rows(g):
                ends = 0 if edge is None else 1 << edge[0] | 1 << edge[1]
                kind = "isolated" if edge is None else (
                    "deletion" if alive >> edge[1] & 1 else "contraction"
                )
                for s, rank in ranks.items():
                    got = _rank_drop(g.adj, rows, alive, edge, s)
                    assert got == rank - _cycle_rank(rows, alive & ~s), (g, edge, s)
                    seen[kind, max(min(got, 2), -2)] += 1
        assert set(seen) == {
            ("isolated", 0),
            ("deletion", 0), ("deletion", 1),
            ("contraction", -2), ("contraction", -1), ("contraction", 0),
            ("contraction", 1), ("contraction", 2),
        }
