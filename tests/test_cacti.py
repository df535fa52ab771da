from __future__ import annotations

import json
from itertools import combinations

import networkx as nx
import pytest

import apexobs.cacti
import apexobs.canonical
import apexobs.cli
from apexobs.cacti import (
    MAX_LEVEL,
    ButterflyCactus,
    _cacti_unions,
    _glue_cycle,
    _peel_tree,
    _row_levels,
    _tree_orbits,
    _z_levels,
    apex_forest_bound_check,
    butterfly_levels,
    cactus_obstruction_family,
    cactus_unions,
    central_set,
    connected_cacti_up_to,
    count_forest_apex_sets,
    disconnected_obstructions,
    exceptional_obstruction,
    generate_Z,
    verify_holiness,
)
from apexobs.canonical import (
    _iso_classes,
    are_isomorphic,
    automorphism_orbits,
    canonical_form,
    enumerate_graphs,
)
from apexobs.cli import run
from apexobs.graphs import (
    ClassId,
    bridges,
    butterfly_graph,
    complete_graph,
    decompose,
    is_connected,
    is_in_class,
    make_named,
    min_apex_size,
    path_graph,
)
from apexobs.obstructions import (
    check_obstruction,
    is_obstruction,
    load_catalog,
    same_graph_sets,
)
from apexobs.series import _CheckFailed

from conftest import random_graph
from oracles import (
    attach_butterfly,
    find_butterfly_buckets,
    in_form_order,
    reference_disconnected_obstructions,
    reference_generate_Z,
    tree_certificate,
)


@pytest.fixture
def searches(monkeypatch):
    """The graphs ``_canonical_search_pruned`` is called on during the test."""
    calls = []
    search = apexobs.canonical._canonical_search_pruned

    def counted(g):
        calls.append(g)
        return search(g)

    monkeypatch.setattr(apexobs.canonical, "_canonical_search_pruned", counted)
    return calls


class TestGenerateZ:
    def test_level_counts(self):
        assert [len(generate_Z(k)) for k in range(1, 7)] == [1, 1, 3, 7, 25, 88]

    def test_matches_unpruned_reference(self):
        # attaching only at orbit minima keeps every member, its labelling
        # and its central vertices; both sides in form order
        for k in range(1, 7):
            got = [(b.graph.adj, b.central_vertices) for b in in_form_order(generate_Z(k))]
            want = [(b.graph.adj, b.central_vertices) for b in reference_generate_Z(k)]
            assert got == want

    def test_level_one_is_butterfly(self):
        (b,) = generate_Z(1)
        assert are_isomorphic(b.graph, butterfly_graph())
        assert b.central_vertices == frozenset({0})

    def test_vertex_counts(self):
        for k in range(1, 6):
            for b in generate_Z(k):
                assert b.graph.n == 5 + 4 * (k - 1)
                assert b.k == k

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="got 0$"):
            generate_Z(0)
        with pytest.raises(ValueError, match=f"got {MAX_LEVEL + 1}$"):
            generate_Z(MAX_LEVEL + 1)

    def test_members_are_cacti_with_triangle_blocks(self):
        for k in range(1, 5):
            for b in generate_Z(k):
                assert is_in_class(b.graph, ClassId.CACTUS)
                dec = decompose(b.graph)
                assert all(len(blk) == 3 for blk in dec.blocks)

    def test_central_vertices_have_degree_four(self):
        for k in range(1, 5):
            for b in generate_Z(k):
                for c in b.central_vertices:
                    assert b.graph.degree(c) == 4
                    wings = [blk for blk in decompose(b.graph).blocks if c in blk]
                    assert len(wings) == 2

    def test_members_contain_butterfly_bucket(self):
        for k in range(2, 5):
            for b in generate_Z(k):
                assert find_butterfly_buckets(b.graph), b.graph

    def test_apex_numbers(self):
        # every k-butterfly-cactus needs exactly k deletions for either target
        for k in range(1, 4):
            for b in generate_Z(k):
                assert min_apex_size(b.graph, ClassId.SUB_UNICYCLIC) == k
                assert min_apex_size(b.graph, ClassId.FOREST) == k

    def test_no_canonical_search(self, searches):
        # the incidence-tree codes tell the members apart and the level is
        # listed as built, so no member gets a form
        for k in range(1, MAX_LEVEL + 1):
            generate_Z(k)
        assert searches == []

    def test_attach_glues_two_triangles(self):
        # the new butterfly's rows are those of two _glue_cycle triangles,
        # at v and then at the new central vertex n + 1
        for b in generate_Z(3):
            n = b.graph.n
            for v in range(n):
                glued = _glue_cycle(_glue_cycle(b.graph, v, 3), n + 1, 3)
                child = attach_butterfly(b, v)
                assert child.graph == glued
                assert child.central_vertices == b.central_vertices | {n + 1}


def attach_children(top: int) -> list[ButterflyCactus]:
    """Every ``attach_butterfly`` child at levels 2..top: each member of
    the levels below at each of its non-central vertices."""
    return [
        attach_butterfly(b, v)
        for j in range(1, top)
        for b in generate_Z(j)
        for v in range(b.graph.n)
        if v not in b.central_vertices
    ]


def incidence_tree(b: ButterflyCactus) -> nx.Graph:
    """The vertex-triangle incidence tree in networkx: vertex v is node v,
    a triangle is the frozenset of its vertices."""
    tree = nx.Graph()
    for block in decompose(b.graph).blocks:
        tree.add_edges_from((v, frozenset(block)) for v in block)
    return tree


class TestTreeCodes:
    """Incidence-tree codes and orbits against canonical forms,
    ``automorphism_orbits`` and a networkx AHU code."""

    def test_codes_equal_iff_forms_equal(self):
        ids = {}
        pairs = {(_peel_tree(b.graph.adj, ids)[-1][2], canonical_form(b.graph))
                 for b in attach_children(6)}
        assert len({code for code, _ in pairs}) == len({form for _, form in pairs}) == len(pairs)
        assert len(pairs) == 1 + 3 + 7 + 25 + 88

    def test_orbits_are_automorphism_orbits(self):
        members = [b for k in range(1, 7) for b in generate_Z(k)]
        for b in members + attach_children(4):
            assert _tree_orbits(b.graph.adj) == automorphism_orbits(b.graph), b.graph

    def test_codes_agree_with_networkx_ahu(self):
        ids = {}
        pairs = set()
        for b in attach_children(5):
            tree = incidence_tree(b)
            peeled = _peel_tree(b.graph.adj, ids)
            assert len(peeled) == tree.number_of_nodes()
            centre = peeled[-1][0]
            if centre >= b.graph.n:  # a triangle, whose vertices are all its children
                centre = frozenset(x for x, p, _ in peeled if p == centre)
            assert nx.center(tree) == [centre]
            pairs.add((peeled[-1][2], tree_certificate(tree)))
        assert len({code for code, _ in pairs}) == len({cert for _, cert in pairs}) == len(pairs)
        assert len(pairs) == 1 + 3 + 7 + 25


class TestCentralSet:
    def test_butterfly(self):
        (b,) = generate_Z(1)
        assert central_set(b) == frozenset({0})

    def test_uniqueness_small_levels(self):
        for k in (2, 3):
            for b in generate_Z(k):
                assert central_set(b, verify="unique") == b.central_vertices
                assert count_forest_apex_sets(b.graph, k) == 1

    def test_invariant_violation_detected(self):
        g = butterfly_graph()
        wrong = ButterflyCactus(g, frozenset({1}), 1)  # not the central vertex
        with pytest.raises(_CheckFailed, match="not an apex-forest set"):
            central_set(wrong)

    def test_central_count_must_be_k(self):
        with pytest.raises(ValueError, match="^central vertex count must equal the butterfly count$"):
            ButterflyCactus(butterfly_graph(), frozenset({0}), 2)

    def test_second_apex_forest_set_detected(self, monkeypatch):
        b = generate_Z(3)[0]
        monkeypatch.setattr(apexobs.cacti, "count_forest_apex_sets", lambda g, k: 2)
        assert central_set(b) == b.central_vertices  # the forest check alone passes
        with pytest.raises(_CheckFailed, match="apex-forest set not unique"):
            central_set(b, verify="unique")

    def test_unknown_verify_rejected(self):
        (b,) = generate_Z(1)
        with pytest.raises(ValueError, match="'forest' or 'unique'.*'uniq'"):
            central_set(b, verify="uniq")


class TestForestApexCount:
    def test_against_subset_count(self, rng):
        counts = []
        for _ in range(150):
            g = random_graph(rng, rng.randint(0, 10), rng.uniform(0.1, 0.6))
            for k in range(5):
                brute = sum(
                    is_in_class(g.delete_vertices(drop), ClassId.FOREST)
                    for drop in combinations(range(g.n), k)
                )
                assert count_forest_apex_sets(g, k) == brute, (g, k)
                counts.append(brute)
        assert max(counts) > 1 and 0 in counts

    def test_negative_k(self):
        with pytest.raises(ValueError, match="k must be non-negative, got -1$"):
            count_forest_apex_sets(butterfly_graph(), -1)


class TestTopLevels:
    def test_z6_member_is_level_five_obstruction(self):
        b = generate_Z(6)[0]
        assert b.graph.n == 25
        assert is_obstruction(b.graph, 5)
        assert count_forest_apex_sets(b.graph, 6) == 1

    def test_z7_members_are_level_six_obstructions(self):
        # 29 vertices, the largest level within the 32-vertex limit
        assert MAX_LEVEL == 7
        z7 = generate_Z(7)
        assert len(z7) == 366  # T_7
        for b in z7[::73]:
            assert b.graph.n == 29
            assert is_obstruction(b.graph, 6)

    def test_z5_member_fails_membership_at_level_five(self):
        check = check_obstruction(generate_Z(5)[0].graph, 5)
        assert not check.is_obstruction
        assert check.failed_step == "membership"


class TestDisconnected:
    def test_level_one(self):
        got = disconnected_obstructions(1)
        assert len(got) == 2
        names = {"2Z": False, "3K3": False}
        for g in got:
            for name in names:
                if are_isomorphic(g, make_named(name)):
                    names[name] = True
        assert all(names.values())

    def test_level_one_matches_catalog(self):
        cat = {r.name: r.graph for r in load_catalog(1).records}
        got = disconnected_obstructions(1)
        assert any(are_isomorphic(g, cat["O_3^0"]) for g in got)
        assert any(are_isomorphic(g, cat["O_1^0"]) for g in got)

    def test_level_two_count_and_obstructionhood(self):
        got = disconnected_obstructions(2)
        # multisets {Z,Z,Z} and {Z, Z_2-member}, plus 4K3
        assert len(got) == 3
        for g in got:
            assert is_obstruction(g, 2)

    def test_level_three_count(self):
        # partitions of 4 with >= 2 parts: 1+1+1+1, 2+1+1, 2+2, 3+1 (|Z_3| = 3)
        got = disconnected_obstructions(3)
        assert len(got) == 1 + 1 + 1 + 3 + 1

    def test_all_members_are_disconnected_cacti(self):
        from apexobs.graphs import component_masks

        for k in (1, 2, 3):
            for g in disconnected_obstructions(k):
                assert len(component_masks(g)) >= 2
                assert is_in_class(g, ClassId.CACTUS)

    def test_matches_reference(self):
        # the reference unions the members of the levels in their build
        # order, as the walk does, after each level is checked against the
        # unpruned reference; both sides in form order
        for k in range(1, 6):
            levels = butterfly_levels(k)
            for j, level in enumerate(levels, 1):
                assert [b.graph.adj for b in in_form_order(level)] == [
                    b.graph.adj for b in reference_generate_Z(j)]
            got = [g.adj for g in sorted(disconnected_obstructions(k), key=canonical_form)]
            assert got == [g.adj for g in reference_disconnected_obstructions(levels)]

    def test_walk_meets_each_multiset_once(self):
        # no two walks give isomorphic unions, and there is one union per
        # multiset: [x^(k+1)]G less the T_(k+1) connected members
        from apexobs.series import solve_system

        sol = solve_system(8)
        g, t = sol.G.integer_coeffs(), sol.T.integer_coeffs()
        counts = []
        for k in range(1, 6):
            unions = list(_cacti_unions(_z_levels(k)))
            assert len(_iso_classes(unions)) == len(unions) == g[k + 1] - t[k + 1]
            counts.append(len(unions))
        assert counts == [1, 2, 6, 16, 55]

    def test_exceptional(self):
        assert are_isomorphic(exceptional_obstruction(1), make_named("3K3"))

    @pytest.mark.parametrize("k", [-1, -2])
    def test_exceptional_rejects_negative_k(self, k):
        # k = -1 once gave a single K3 and k = -2 the empty graph
        with pytest.raises(ValueError, match=f"got {k}$"):
            exceptional_obstruction(k)

    def test_no_canonical_search(self, searches):
        # (k+2)K3 comes first and the unions follow by vertex count, ties in
        # walk order, so no graph gets a form
        for k in range(1, 6):
            got = disconnected_obstructions(k)
            assert got[0].adj == exceptional_obstruction(k).adj
        assert searches == []

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            disconnected_obstructions(0)
        with pytest.raises(ValueError):
            disconnected_obstructions(6)


class TestHoliness:
    def test_level_zero(self):
        rep = verify_holiness(0)
        assert rep.all_members_verified and rep.members == 1
        assert rep.search_matches  # Z is the only connected cactus obstruction <= 6
        assert rep.search_space == 6

    def test_level_one(self):
        rep = verify_holiness(1)
        assert rep.all_members_verified and rep.members == 1
        assert rep.search_matches
        assert rep.search_space == 62

    def test_level_two(self):
        rep = verify_holiness(2)
        assert rep.all_members_verified and rep.members == 3
        assert rep.search_matches  # the 3 members of Z_3, among cacti <= 14
        assert rep.search_space == 1230

    def test_refuted_member_reported(self, monkeypatch):
        monkeypatch.setattr(apexobs.cacti, "is_obstruction", lambda g, k: False)
        rep = verify_holiness(0)
        assert not rep.all_members_verified and rep.complete

    def test_budget(self):
        rep = verify_holiness(2, budget_seconds=0.0)
        assert not rep.complete
        # the budget stopped it before the first member, so none was verified
        assert not rep.all_members_verified
        rep = verify_holiness(6, budget_seconds=0.0)
        assert rep.members == 366 and not rep.complete and not rep.all_members_verified

    @pytest.mark.parametrize("budget", [float("nan"), -1.0])
    def test_budget_must_be_a_non_negative_number(self, budget):
        message = f"budget_seconds must be a non-negative number, got {budget}"
        with pytest.raises(ValueError, match=message):
            verify_holiness(2, budget_seconds=budget)

    def test_level_range(self):
        for k in (-1, MAX_LEVEL):
            with pytest.raises(ValueError, match=rf"k must be in 0\.\.{MAX_LEVEL - 1}, got {k}$"):
                verify_holiness(k)
        rep = verify_holiness(MAX_LEVEL - 1, budget_seconds=0.0)
        assert rep.k == 6 and rep.members == 366 and not rep.complete

    def test_cactus_pool_is_reasonable(self):
        pool = connected_cacti_up_to(9)
        # every member is a connected bridgeless cactus; the butterfly chain included
        assert all(is_connected(g) and not bridges(g) for g in pool)
        assert all(is_in_class(g, ClassId.CACTUS) for g in pool)
        (chain,) = generate_Z(2)
        assert any(are_isomorphic(g, chain.graph) for g in pool)

    def test_cactus_pool_matches_full_enumeration(self):
        oracle = [
            g
            for n in range(3, 8)
            for g in enumerate_graphs(n)
            if is_connected(g) and not bridges(g) and is_in_class(g, ClassId.CACTUS)
        ]
        assert len(oracle) == 11
        assert same_graph_sets(connected_cacti_up_to(7), oracle)


class TestApexForestBound:
    def test_butterfly(self):
        assert apex_forest_bound_check(butterfly_graph())

    def test_three_triangles(self):
        assert apex_forest_bound_check(make_named("3K3"))

    def test_forest_trivial(self):
        assert apex_forest_bound_check(path_graph(5))

    def test_rejects_non_cactus(self):
        with pytest.raises(ValueError):
            apex_forest_bound_check(make_named("K4-"))

    def test_all_generated_families(self):
        for k in (1, 2, 3):
            for b in generate_Z(k):
                assert apex_forest_bound_check(b.graph)
            for g in disconnected_obstructions(k):
                assert apex_forest_bound_check(g)


class TestFamily:
    def test_family_assembles(self):
        from apexobs.cacti import cactus_obstruction_family

        fam = cactus_obstruction_family(2)
        assert len(fam.connected) == 3
        assert len(fam.disconnected) == 2  # {Z,Z,Z} and {Z, Z_2-member}
        assert are_isomorphic(fam.exceptional, make_named("4K3"))
        assert len(fam) == 6
        forms = {canonical_form(g) for g in fam.all_graphs()}
        assert len(forms) == 6

    def test_family_rejects_duplicates(self):
        from apexobs.cacti import CactusObstructionFamily

        (b,) = generate_Z(1)
        with pytest.raises(ValueError):
            CactusObstructionFamily(
                k=1,
                connected=(b,),
                disconnected=(butterfly_graph(),),
                exceptional=make_named("3K3"),
            )

    def test_family_rejects_a_non_cactus(self):
        from apexobs.cacti import CactusObstructionFamily

        (b,) = generate_Z(2)
        with pytest.raises(ValueError, match="^every family member must be a cactus$"):
            CactusObstructionFamily(
                k=1,
                connected=(b,),
                disconnected=(complete_graph(4),),
                exceptional=make_named("3K3"),
            )

    def test_family_out_of_range(self):
        for k in (0, 6):
            with pytest.raises(ValueError, match=f"got {k}$"):
                cactus_obstruction_family(k)


class TestOneLevelPass:
    """Each family builds the butterfly-cactus levels once."""

    @pytest.fixture
    def level_passes(self, monkeypatch):
        calls = []

        def counted(k):
            calls.append(k)
            return _row_levels(k)

        # _row_levels is the one builder every level pass runs
        monkeypatch.setattr(apexobs.cacti, "_row_levels", counted)
        return calls

    def test_cactus_obstruction_family(self, level_passes):
        fam = cactus_obstruction_family(3)
        assert level_passes == [4]
        assert fam.connected == generate_Z(4)

    def test_gen_cacti_disconnected(self, level_passes, capsys):
        assert run(["gen-cacti", "--k", "4", "--disconnected", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["families"]
        assert level_passes == [4]
        assert sum(row.get("disconnected", False) for row in rows) == len(
            disconnected_obstructions(4)
        )

    def test_gen_cacti(self, level_passes, capsys):
        assert run(["gen-cacti", "--k", "7"]) == 0
        capsys.readouterr()
        assert level_passes == [7]

    def test_disconnected_obstructions(self, level_passes):
        disconnected_obstructions(4)
        assert level_passes == [4]


class TestPublicLevels:
    """``butterfly_levels`` and ``cactus_unions``, the calls ``gen-cacti``
    reads the levels and the unions from."""

    def test_butterfly_levels_are_generate_Z(self):
        # build order depends on the level alone: every pass lists level j
        # as generate_Z(j) does, member by member
        def members(level):
            return [(b.graph.adj, b.central_vertices) for b in level]

        z = [members(generate_Z(j)) for j in range(1, MAX_LEVEL + 1)]
        for k in range(1, MAX_LEVEL + 1):
            levels = butterfly_levels(k)
            assert list(map(members, levels)) == z[:k]

    def test_butterfly_levels_make_no_canonical_search(self, searches):
        butterfly_levels(MAX_LEVEL)
        assert searches == []

    @pytest.mark.parametrize("k", range(1, 6))
    def test_unions_ignore_the_order_within_a_level(self, k):
        # levels in build order give disconnected_obstructions(k) graph by
        # graph; each level reversed gives the same classes
        levels = butterfly_levels(k)
        unions = cactus_unions(levels)
        assert [g.adj for g in unions] == [g.adj for g in disconnected_obstructions(k)]
        reversed_unions = cactus_unions([level[::-1] for level in levels])
        assert sorted(map(canonical_form, reversed_unions)) == sorted(map(canonical_form, unions))

    @pytest.mark.parametrize("k", [0, 6])
    def test_cactus_unions_checks_the_union_level(self, k):
        with pytest.raises(ValueError, match=f"got {k}$"):
            cactus_unions([()] * k)


class TestCountCrossCheck:
    def test_obstruction_count_vs_series(self):
        # connected + disconnected obstruction counts against the multiset
        # series: the count at level k exceeds [x^(k+1)]G by exactly 1,
        # the exceptional (k+2)K3 not being a union of butterfly-cacti
        from apexobs.cacti import cactus_obstruction_family
        from apexobs.series import solve_system

        g = solve_system(8).G.integer_coeffs()
        sizes = []
        for k in (1, 2, 3, 4, 5):
            total = len(generate_Z(k + 1)) + len(disconnected_obstructions(k))
            assert total == g[k + 1] + 1
            assert len(cactus_obstruction_family(k)) == total
            sizes.append(total)
        assert sizes == [3, 6, 14, 42, 144]

    def test_row_levels_past_the_vertex_limit(self):
        # the rows builder needs no Graph, so it runs past MAX_LEVEL: its
        # level sizes are the T_k of the series, 33 and 37 vertices at 8, 9
        from apexobs.series import solve_system

        t = solve_system(10).T.integer_coeffs()
        sizes = [len(level) for level in _row_levels(9)]
        assert sizes == list(t[1:10])
        assert sizes[MAX_LEVEL:] == [1583, 7336]

    @pytest.mark.slow
    def test_row_level_ten(self):
        from apexobs.series import solve_system

        (*_, top) = _row_levels(10)
        assert len(top) == solve_system(11).T.integer_coeffs()[10] == 34982
        assert {len(rows) for rows, _ in top} == {41}

    def test_abstract_lower_bound_exact(self):
        # the abstract: at least 0.34 * k^-2.5 * 6.278^k obstructions at
        # level k; with 0.34 = 17/50 and 6.278 = 3139/500, squared and
        # cleared of denominators, in exact ints for every k < 512
        from apexobs.series import solve_system

        g = solve_system(512).G.integer_coeffs()

        def holds(count: int, k: int) -> bool:
            return count**2 * k**5 * 50**2 * 500 ** (2 * k) >= 17**2 * 3139 ** (2 * k)

        assert all(holds(g[k + 1] + 1, k) for k in range(1, 512))
        # the exceptional (k+2)K3 is needed: G_2 = 2 < 0.34 * 6.278
        assert not holds(g[2], 1)
