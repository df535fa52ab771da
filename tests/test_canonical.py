from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

import apexobs.canonical
from apexobs.cacti import (
    cactus_obstruction_family,
    connected_cacti_up_to,
    disconnected_obstructions,
    exceptional_obstruction,
    generate_Z,
)
from apexobs.canonical import (
    _canonical_search_pruned,
    _form_sorted,
    _iso_classes,
    _refine,
    are_isomorphic,
    automorphism_orbits,
    canonical_form,
    canonical_graph,
    canonical_labeling,
    enumerate_graphs,
    graphs_up_to,
)
from apexobs.graphio import to_graph6
from apexobs.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    make_named,
    one_step_minors,
    path_graph,
)
from apexobs.obstructions import search_obstructions

from conftest import add_twins_and_pendants, random_graph
from oracles import attach_butterfly, nx_automorphism_orbits, nx_isomorphic, reference_refine


def complete_multipartite(*parts: int) -> Graph:
    side = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(side)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]])


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j))
    return Graph(n, edges)


class TestCanonicalForm:
    def test_relabelled_c4_equal(self):
        c4 = cycle_graph(4)
        assert canonical_form(c4) == canonical_form(c4.relabel([2, 0, 3, 1]))

    def test_c4_vs_k4_minus_differ(self):
        assert canonical_form(cycle_graph(4)) != canonical_form(make_named("K4-"))

    def test_eleven_graphs_on_four_vertices(self):
        # known census; distinctness double-checked by brute-force permutation
        graphs4 = enumerate_graphs(4)
        assert len(graphs4) == 11
        from itertools import permutations

        for a in graphs4:
            for b in graphs4:
                brute_iso = any(
                    a.relabel(p).adj == b.adj for p in permutations(range(4))
                )
                assert brute_iso == (canonical_form(a) == canonical_form(b))

    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabel(perm))

    def test_equality_matches_networkx(self, rng):
        for _ in range(300):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            h = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            assert are_isomorphic(g, h) == nx_isomorphic(g, h)
        # duplicated and pendant vertices, where twin pruning skips branches
        outcomes = set()
        for _ in range(300):
            base = random_graph(rng, rng.randint(1, 6), rng.choice([0.3, 0.6]))
            extra = rng.randint(1, 4)
            g = add_twins_and_pendants(rng, base, extra)
            h = add_twins_and_pendants(rng, base, extra)
            perm = list(range(h.n))
            rng.shuffle(perm)
            h = h.relabel(perm)
            same = nx_isomorphic(g, h)
            assert are_isomorphic(g, h) == same
            outcomes.add(same)
        assert outcomes == {True, False}

    def test_canonical_graph_is_fixed_point(self, rng):
        for _ in range(50):
            g = random_graph(rng, rng.randint(0, 9), rng.random())
            cg = canonical_graph(g)
            assert canonical_form(cg) == canonical_form(g)
            assert canonical_graph(cg) == cg

    def test_labeling_realizes_form(self, rng):
        # canonical_graph reads the representative off the form: it is g
        # relabelled by the labeling
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            order = canonical_labeling(g)
            assert sorted(order) == list(range(g.n))
            pos = [0] * g.n
            for i, v in enumerate(order):
                pos[v] = i
            assert canonical_graph(g) == g.relabel(pos)

    def test_highly_symmetric(self):
        # automorphism-rich graphs must still canonicalize (and fast)
        z5 = generate_Z(5)
        for g in (
            complete_graph(12),
            Graph(12),
            disjoint_union(*[cycle_graph(3)] * 6),
            disjoint_union(*[cycle_graph(5)] * 3),
            complete_multipartite(1, 12),  # K_{1,12}
            complete_multipartite(3, 7),  # K_{3,7}
            disjoint_union(*[path_graph(2)] * 6, Graph(4)),  # 6K2 + 4K1
            complete_multipartite(2, 2, 2, 2),  # K_{2,2,2,2}
            z5[0].graph,
            z5[-1].graph,
        ):
            perm = list(range(g.n))
            random.Random(1).shuffle(perm)
            assert canonical_form(g) == canonical_form(g.relabel(perm))


class TestFormSorted:
    """``_form_sorted`` lists what sorting ``_iso_classes`` by form lists."""

    @staticmethod
    def relabelled(rng: random.Random, g: Graph) -> Graph:
        perm = list(range(g.n))
        rng.shuffle(perm)
        return g.relabel(perm)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_matches_iso_classes(self, seed):
        rng = random.Random(seed)
        pool = [random_graph(rng, rng.randint(0, 7), rng.random()) for _ in range(40)]
        # isomorphic copies that are other objects, some with equal rows
        pool += [self.relabelled(rng, rng.choice(pool)) for _ in range(20)]
        pool += [Graph(g.n, g.edges()) for g in rng.sample(pool, 5)]
        # a vertex count met once, and one met only by copies of one graph
        pool.append(random_graph(rng, 10, 0.5))
        c9 = cycle_graph(9)
        pool += [c9, self.relabelled(rng, c9), c9]
        rng.shuffle(pool)
        classes = _iso_classes(pool)
        got = _form_sorted(pool)
        want = [classes[key] for key in sorted(classes)]
        assert len(got) == len(want) < len(pool)
        assert all(a is b for a, b in zip(got, want))

    def test_forms_only_where_vertex_counts_tie(self, monkeypatch):
        formed = []

        def counted(g):
            formed.append(g)
            return canonical_form(g)

        monkeypatch.setattr(apexobs.canonical, "canonical_form", counted)
        alone, k3, p3 = complete_graph(5), complete_graph(3), path_graph(3)
        assert _form_sorted([alone, k3, p3, k3]) == (p3, k3, alone)
        assert alone not in formed and len(formed) == 3
        assert _form_sorted([]) == ()


class TestAutomorphismOrbits:
    """Orbits from the search's automorphisms and the twin classes are the
    full automorphism group's orbits."""

    def test_random_graphs(self, rng):
        for _ in range(150):
            g = random_graph(rng, rng.randint(0, 10), rng.choice([0.3, 0.5, 0.7]))
            assert automorphism_orbits(g) == nx_automorphism_orbits(g)

    def test_cacti_and_unions(self):
        z = [b.graph for k in range(1, 5) for b in generate_Z(k)]
        pool = z + [exceptional_obstruction(k) for k in range(3)]
        pool.append(disjoint_union(z[1], cycle_graph(3), z[1]))
        pool.append(disjoint_union(z[0], z[0], path_graph(3)))
        for g in pool:
            assert automorphism_orbits(g) == nx_automorphism_orbits(g)

    def test_backjump_bounds_the_search(self, monkeypatch):
        # 7K3: the search without the backjump refines 751 times
        calls = []

        def counting(adj, cells, fresh):
            calls.append(fresh)
            return _refine(adj, cells, fresh)

        monkeypatch.setattr(apexobs.canonical, "_refine", counting)
        g = disjoint_union(*[complete_graph(3)] * 7)
        _, _, orbits = _canonical_search_pruned(g)
        assert orbits == (0,) * 21
        assert len(calls) <= 150

    def test_twin_prune_work_pinned(self, monkeypatch):
        # refinements over Z_1..Z_5 and over twin-rich dense graphs; without
        # the twin skip the search refines 774 and 189 times
        calls = []

        def counting(adj, cells, fresh):
            calls.append(fresh)
            return _refine(adj, cells, fresh)

        cacti = [b.graph for k in range(1, 6) for b in generate_Z(k)]
        dense = [complete_multipartite(3, 3), complete_multipartite(2, 5),
                 complete_multipartite(1, 7), complete_graph(6), make_named("5K3")]
        monkeypatch.setattr(apexobs.canonical, "_refine", counting)
        counts = []
        for pool in (cacti, dense):
            calls.clear()
            for g in pool:
                _canonical_search_pruned(g)
            counts.append(len(calls))
        assert counts == [453, 90]


class TestRefine:
    """The fresh-cell refinement gives the all-cells reference's ordered partition."""

    @staticmethod
    def pool(rng: random.Random) -> list[Graph]:
        randoms = [random_graph(rng, rng.randint(1, 12), rng.random()) for _ in range(150)]
        return randoms + [b.graph for b in generate_Z(4)]

    def test_unit_partition(self, rng):
        for g in self.pool(rng):
            unit = [list(range(g.n))]
            assert _refine(g.adj, unit, [0]) == reference_refine(g.adj, unit)

    def test_one_vertex_individualized(self, rng):
        # every equitable partition on the search path that always branches
        # on the first vertex, with each vertex of its first non-singleton
        # cell individualized in turn
        checked = 0
        for g in self.pool(rng):
            cells = reference_refine(g.adj, [list(range(g.n))])
            while any(len(c) > 1 for c in cells):
                t = next(i for i, c in enumerate(cells) if len(c) > 1)
                children = [
                    cells[:t] + [[v], [u for u in cells[t] if u != v]] + cells[t + 1:]
                    for v in cells[t]
                ]
                for child in children:
                    assert _refine(g.adj, child, [t]) == reference_refine(g.adj, child)
                    checked += 1
                cells = reference_refine(g.adj, children[0])
        assert checked > 1000

    @staticmethod
    def large_pool() -> list[Graph]:
        """Graphs on 22 to 32 vertices: butterfly children of Z_6 members,
        Z_7 members, and seeded random graphs of density up to 0.9, whose
        degrees reach 24 and more."""
        rng = random.Random(31)
        children = []
        for b in rng.sample(generate_Z(6), 8):
            free = [v for v in range(b.graph.n) if v not in b.central_vertices]
            children += [attach_butterfly(b, v).graph for v in rng.sample(free, 2)]
        z7 = [b.graph for b in rng.sample(generate_Z(7), 12)]
        randoms = [
            random_graph(rng, rng.randint(22, 32), rng.uniform(0.1, 0.9)) for _ in range(30)
        ]
        randoms.append(random_graph(rng, 32, 0.9))
        return children + z7 + randoms

    def test_large_graphs(self):
        # the unit partition and every child on the first-vertex search path,
        # as above, on graphs beyond the small pool's 12 vertices
        pool = self.large_pool()
        assert all(22 <= g.n <= 32 for g in pool)
        # counts of 24 and more, which a packed key's field must hold whole
        assert max(g.degree(v) for g in pool for v in range(g.n)) >= 24
        checked = 0
        for g in pool:
            cells = [list(range(g.n))]
            assert _refine(g.adj, cells, [0]) == reference_refine(g.adj, cells)
            cells = reference_refine(g.adj, cells)
            while len(cells) < g.n:
                t = next(i for i, c in enumerate(cells) if len(c) > 1)
                children = [
                    cells[:t] + [[v], [u for u in cells[t] if u != v]] + cells[t + 1:]
                    for v in cells[t]
                ]
                for child in children:
                    assert _refine(g.adj, child, [t]) == reference_refine(g.adj, child)
                    checked += 1
                cells = reference_refine(g.adj, children[0])
        assert checked > 300

    def test_every_cell_fresh(self):
        # any ordered partition meets the precondition when all its cells
        # are fresh; a few large cells put counts of 16 and more in every
        # field of a packed key, and the first field must still rank first
        rng = random.Random(32)
        for g in self.large_pool():
            for parts in (2, 3, 4):
                side = [rng.randrange(parts) for _ in range(g.n)]
                cells = [[v for v in range(g.n) if side[v] == i] for i in range(parts)]
                cells = [c for c in cells if c]
                fresh = list(range(len(cells)))
                assert _refine(g.adj, cells, fresh) == reference_refine(g.adj, cells)

    def test_cells_left_unchanged(self, rng):
        # the search hands one parent partition to every sibling's refinement
        for g in self.pool(rng) + self.large_pool()[::4]:
            unit = [list(range(g.n))]
            _refine(g.adj, unit, [0])
            assert unit == [list(range(g.n))]
            cells = reference_refine(g.adj, unit)
            if len(cells) == g.n:
                continue
            t = next(i for i, c in enumerate(cells) if len(c) > 1)
            v, *rest = cells[t]
            child = cells[:t] + [[v], rest] + cells[t + 1:]
            copy = [list(c) for c in child]
            _refine(g.adj, child, [t])
            assert child == copy


class TestPinnedOutput:
    def test_forms_and_labelings_unchanged(self):
        # sha256 of every (form, labeling) over a fixed pool, as computed by
        # the search that refined against all cells and pruned no twins: the
        # order of enumerate_graphs and generate_Z and the search's record
        # names depend on these bytes
        pool = [
            g.add_vertex(nb)
            for n in range(6)
            for g in enumerate_graphs(n)
            for nb in range(1 << n)
        ]
        pool += [
            attach_butterfly(b, v).graph
            for k in range(1, 5)
            for b in generate_Z(k)
            for v in range(b.graph.n)
            if v not in b.central_vertices
        ]
        rng = random.Random(8)
        pool += [random_graph(rng, rng.randint(0, 14), rng.random()) for _ in range(200)]
        assert len(pool) == 1307 + 132 + 200
        digest = hashlib.sha256()
        for g in pool:
            digest.update(canonical_form(g) + bytes(canonical_labeling(g)))
        assert digest.hexdigest() == (
            "ac38ec0456fda0139014a039e701291e5ad81316df043ba098ce181cfd417601"
        )

    def test_orbits_unchanged(self):
        # sha256 of automorphism_orbits over the pool of the test above, as
        # the search computed them before its refinement passes were packed:
        # the orbits decide which attachments _z_levels skips
        pool = [
            g.add_vertex(nb)
            for n in range(6)
            for g in enumerate_graphs(n)
            for nb in range(1 << n)
        ]
        pool += [
            attach_butterfly(b, v).graph
            for k in range(1, 5)
            for b in generate_Z(k)
            for v in range(b.graph.n)
            if v not in b.central_vertices
        ]
        rng = random.Random(8)
        pool += [random_graph(rng, rng.randint(0, 14), rng.random()) for _ in range(200)]
        assert len(pool) == 1307 + 132 + 200
        digest = hashlib.sha256()
        for g in pool:
            digest.update(bytes([g.n, *automorphism_orbits(g)]))
        assert digest.hexdigest() == (
            "4a374937dbcce7c2387650eb1e0ced74300bf160869b27448ed436f9b5659463"
        )

    def test_unions_with_repeated_parts_unchanged(self):
        # sha256 over shuffled unions of two to four parts with a repeated
        # part (2K3+K4-, Z+Z+K3, ...), where the backjump returns furthest:
        # a backjump one level too far changes 36 of these 462 entries
        parts = ["K3", "K4-", "Z", "C4", "P3", "K4", "C5"]
        rng = random.Random(12)
        pool = []
        for size in (2, 3, 4):
            for combo in combinations_with_replacement(parts, size):
                if len(set(combo)) == size:
                    continue
                g = disjoint_union(*map(make_named, combo))
                for _ in range(2):
                    perm = list(range(g.n))
                    rng.shuffle(perm)
                    pool.append(g.relabel(perm))
        assert len(pool) == 462
        digest = hashlib.sha256()
        for g in pool:
            digest.update(canonical_form(g) + bytes(canonical_labeling(g)))
        assert digest.hexdigest() == (
            "d53169542f8f3e2a249c856706dd041df9c70890ba7f18b7fba87328830eba4a"
        )

    def test_generator_outputs_unchanged(self):
        # sha256 over the graph6 and adjacency rows of what every generator
        # returns, in order: which graph of a class is kept, and the order of
        # the classes, are both part of the digest
        families = [enumerate_graphs(n) for n in range(8)]
        families += [disconnected_obstructions(k) for k in range(1, 5)]
        for k in range(1, 5):
            family = cactus_obstruction_family(k)
            families += [[b.graph for b in family.connected], family.disconnected]
        families.append(connected_cacti_up_to(11))
        families += [one_step_minors(g) for g in enumerate_graphs(6)]
        digest = hashlib.sha256()
        for graphs in families:
            for g in graphs:
                digest.update(f"{to_graph6(g)} {g.adj}\n".encode())
            digest.update(b"--\n")
        assert digest.hexdigest() == (
            "523261043261b5a93a46e5473769a1c454ec4a0a303cf32984bad95fe2b55800"
        )

    def test_search_outputs_unchanged(self):
        # sha256 over the records of three searches, which are the same
        # whether or not each candidate must first pass the structural
        # filters, and whether or not rules 4-6 prune the last layers.  The
        # counts are pinned in full: with no filter stage every candidate
        # passes, and the bridged classes are checked and refuted.  Before
        # rules 4-6, (1, 8) generated 734 and checked 549, and (2, 8)
        # generated 18,513 and checked 3,917
        digest = hashlib.sha256()
        counts = {
            (0, 7): (0, 0, 4, 4, 4, 3),
            (1, 8): (150, 516, 68, 68, 36, 22),
            (2, 8): (6003, 2851, 1062, 1062, 410, 70),
        }
        for (k, max_n), (k_apex, non_minimal, generated, passed, checked, found) in counts.items():
            cat = search_obstructions(k, max_n)
            assert cat.candidates == {
                "dropped_k_apex": k_apex, "dropped_non_minimal": non_minimal,
                "generated": generated, "passed_filters": passed,
                "checked": checked, "found": found,
            }
            digest.update(json.dumps([rec.to_dict() for rec in cat.records]).encode())
        assert digest.hexdigest() == (
            "2c25e7fdcb4bc56d348463970c09c65b680fab0d63e3140af95439c2e61760f7"
        )


class TestEnumeration:
    def test_known_counts(self):
        # number of graphs on n unlabeled vertices
        expected = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
        for n, count in expected.items():
            assert len(enumerate_graphs(n)) == count

    @pytest.mark.parametrize("n", [-1, 33])
    def test_vertex_count_checked_before_generating(self, n, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("graphs generated before the vertex count was checked")

        monkeypatch.setattr(apexobs.canonical, "_iso_classes", never)
        with pytest.raises(ValueError, match="outside 0..32"):
            enumerate_graphs(n)

    def test_all_canonical_and_distinct(self):
        forms = [canonical_form(g) for g in enumerate_graphs(5)]
        assert len(set(forms)) == len(forms)
        for g in enumerate_graphs(5):
            assert canonical_graph(g) == g

    def test_graphs_up_to(self):
        assert len(graphs_up_to(6)) == 1 + 2 + 4 + 11 + 34 + 156


class TestNoFormCache:
    def test_searches_keep_no_form(self):
        # canonical augmentation builds each class once, so no form outlives
        # its call: the wrapper of ``_canonical`` only counts the calls
        search_obstructions(2, 8)
        cactus_obstruction_family(3)
        info = apexobs.canonical._canonical.cache_info()
        assert info.currsize == 0 and info.maxsize == 0 and info.misses > 0
