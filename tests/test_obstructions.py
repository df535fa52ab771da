from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from importlib import resources
from itertools import combinations

import pytest

import apexobs.canonical
import apexobs.graphs
import apexobs.obstructions
from apexobs.cacti import disconnected_obstructions, generate_Z
from apexobs.canonical import (
    _augmentation,
    automorphism_orbits,
    canonical_form,
    enumerate_graphs,
    graphs_up_to,
)
from apexobs.graphio import from_graph6, to_graph6
from apexobs.graphs import (
    ClassId,
    Graph,
    _RANK_LIMIT,
    _apex_search,
    _child_rows,
    _cycle_rank,
    _deletion_table,
    _rank_drop,
    _strip,
    _table_drop,
    _twin_roots,
    butterfly_graph,
    complete_graph,
    cycle_graph,
    cyclomatic,
    disjoint_union,
    has_apex_set_within,
    is_connected,
    is_in_class,
    make_named,
    one_step_minors,
    path_graph,
    popcount,
)
from apexobs.minors import is_minor
from apexobs.obstructions import (
    Catalog,
    ObstructionRecord,
    Status,
    _apex_neighbourhoods,
    _candidates,
    _core_extensions,
    _prefix_picks,
    check_obstruction,
    is_obstruction,
    load_catalog,
    same_graph_sets,
    search_obstructions,
    structural_filters,
    verify_catalog,
)

from conftest import add_twins_and_pendants, random_graph
from oracles import (
    oracle_min_apex,
    reference_check_obstruction,
    reference_core_levels,
    reference_search,
)

CYCLE_CLASSES = (ClassId.FOREST, ClassId.SUB_UNICYCLIC, ClassId.PSEUDOFOREST)


class TestIsObstruction:
    def test_base_level_members(self):
        assert is_obstruction(make_named("2K3"), 0)
        assert is_obstruction(make_named("K4-"), 0)
        assert is_obstruction(make_named("Z"), 0)

    def test_k4_not_minimal(self):
        # K4 contains K4- as a proper minor, which is already outside
        check = check_obstruction(complete_graph(4), 0)
        assert not check.is_obstruction
        assert check.failed_step == "minimality"
        assert check.witness is not None

    def test_butterfly_level_one_member(self):
        z = make_named("Z")
        assert is_obstruction(z, 0)
        check = check_obstruction(z, 1)
        assert not check.is_obstruction
        assert check.failed_step == "membership"  # central deletion leaves a forest

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_disjoint_triangles(self, k):
        g = make_named(f"{k+2}K3")
        assert is_obstruction(g, k)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be non-negative, got -1$"):
            is_obstruction(make_named("K3"), -1)


def reference_check(g: Graph, k: int) -> tuple[bool, str | None]:
    """The obstruction test over the deduplicated children of one_step_minors.

    Those children are first checked against every edge deletion and
    contraction and every isolated-vertex deletion, built here one by one.
    """
    built = [g.delete_edge(u, v) for u, v in g.edges()]
    built += [g.contract_edge(u, v) for u, v in g.edges()]
    built += [g.delete_vertices([v]) for v in range(g.n) if g.adj[v] == 0]
    children = one_step_minors(g)
    assert {canonical_form(c) for c in built} == {canonical_form(c) for c in children}
    cls = ClassId.SUB_UNICYCLIC
    if has_apex_set_within(g, cls, k):
        return False, "membership"
    if any(not has_apex_set_within(c, cls, k) for c in children):
        return False, "minimality"
    return True, None


def assert_matches_reference(g: Graph, k: int) -> str | None:
    check = check_obstruction(g, k)
    assert (check.is_obstruction, check.failed_step) == reference_check(g, k), (g, k)
    if check.failed_step != "minimality":
        assert check.witness is None
        return check.failed_step
    w = check.witness
    assert w.num_edges() < g.num_edges() or w.n < g.n
    assert canonical_form(w) in {canonical_form(c) for c in one_step_minors(g)}
    assert oracle_min_apex(w, ClassId.SUB_UNICYCLIC.value) > k
    return "minimality"


class TestRawChildren:
    """check_obstruction tests raw one-step children against the dedup reference."""

    def test_catalog_records_around_their_level(self):
        steps = set()
        for cat_k in (0, 1):
            for rec in load_catalog(cat_k).records:
                for k in (rec.k - 1, rec.k, rec.k + 1):
                    if k >= 0:
                        steps.add(assert_matches_reference(rec.graph, k))
        assert steps == {None, "membership", "minimality"}

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_butterfly_cacti_below_their_level(self, level):
        for b in generate_Z(level):
            assert assert_matches_reference(b.graph, level - 1) is None
            assert assert_matches_reference(b.graph, level - 2) == "minimality"

    def test_random_graphs(self):
        rng = random.Random(7007)
        steps = []
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.7))
            for k in (0, 1, 2):
                steps.append(assert_matches_reference(g, k))
        assert {"membership", "minimality"} <= set(steps)

    def test_isolated_vertex(self):
        # only the isolated-vertex deletion, generated last, leaves 2K3
        g = disjoint_union(make_named("2K3"), Graph(1))
        assert assert_matches_reference(g, 0) == "minimality"
        witness = check_obstruction(g, 0).witness
        assert witness.n == 6 and canonical_form(witness) == canonical_form(make_named("2K3"))

    def test_no_canonical_form(self, monkeypatch):
        g = generate_Z(5)[0].graph
        calls = []
        original = apexobs.canonical._canonical

        def counting(h):
            calls.append(h)
            return original(h)

        monkeypatch.setattr(apexobs.canonical, "_canonical", counting)
        assert check_obstruction(g, 4).is_obstruction
        assert calls == []


def assert_matches_search_per_child(g: Graph, k: int, cls: ClassId) -> str | None:
    check = check_obstruction(g, k, cls)
    want = reference_check_obstruction(g, k, cls)
    assert (check.is_obstruction, check.failed_step, check.witness) == want, (g, k, cls)
    return check.failed_step


class TestSiblingSets:
    """Children settled by a sibling's deletion set: the outcome and the
    witness (compared by ==, not up to isomorphism) equal those of a fresh
    apex search on every child."""

    @pytest.mark.parametrize("cls", CYCLE_CLASSES)
    def test_catalog_records_around_their_level(self, cls):
        steps = set()
        for cat_k in (0, 1):
            for rec in load_catalog(cat_k).records:
                for k in (rec.k - 1, rec.k, rec.k + 1):
                    if k >= 0:
                        steps.add(assert_matches_search_per_child(rec.graph, k, cls))
        assert {"membership", "minimality"} <= steps

    @pytest.mark.parametrize("cls", CYCLE_CLASSES)
    def test_butterfly_cacti(self, cls):
        steps = set()
        for level in (2, 3, 4, 5):
            for b in generate_Z(level):
                for k in (level - 2, level - 1):
                    steps.add(assert_matches_search_per_child(b.graph, k, cls))
        assert "minimality" in steps

    @pytest.mark.parametrize("cls", CYCLE_CLASSES)
    def test_random_graphs(self, cls):
        rng = random.Random(1212)
        steps = set()
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.7))
            for k in (0, 1, 2):
                steps.add(assert_matches_search_per_child(g, k, cls))
        assert {"membership", "minimality"} <= steps

    def test_cactus_small_graphs(self):
        # CACTUS sets come from the bounded search of the cycle classes, and
        # a stored set settles a sibling by the sibling's 2-core; the reference
        # takes its sets from a subset loop at these sizes, and graphs of 6-10
        # vertices are the smallest on which a witness without its ear fails
        rng = random.Random(1213)
        steps = set()
        for _ in range(120):
            g = random_graph(rng, rng.randint(6, 10), rng.uniform(0.2, 0.8))
            for k in (0, 1, 2):
                steps.add(assert_matches_search_per_child(g, k, ClassId.CACTUS))
        assert {"membership", "minimality"} <= steps

    @pytest.mark.parametrize("cls", [ClassId.FOREST, ClassId.SUB_UNICYCLIC])
    def test_rank_rule_matches_the_core_test(self, cls):
        # every child against every set s with |s| <= k that leaves g outside
        # the class, sets holding an end of the child's edge included:
        # _rank_drop answers each, and rank - drop <= t iff the budget-0
        # search lands the child minus s
        t = _RANK_LIMIT[cls]

        def lands(adj, alive):
            return _apex_search(adj, *_strip(adj, alive), cls, 0, {}) is not None

        rng = random.Random(1818)
        graphs = [(rec.graph, rec.k) for k in (0, 1) for rec in load_catalog(k).records]
        graphs += [(b.graph, j - 1) for j in (2, 3) for b in generate_Z(j)]
        graphs += [
            (random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.7)), rng.randint(0, 2))
            for _ in range(150)
        ]
        seen = Counter()
        for g, k in graphs:
            full = (1 << g.n) - 1
            sets = [
                sum(1 << v for v in drop)
                for size in range(k + 1)
                for drop in combinations(range(g.n), size)
            ]
            sets = [(s, _cycle_rank(g.adj, full & ~s)) for s in sets
                    if not lands(g.adj, full & ~s)]
            for rows, alive, edge in _child_rows(g):
                for s, rank in sets:
                    want = lands(rows, alive & ~s)
                    drop = _rank_drop(g.adj, rows, alive, edge, s)
                    assert drop is not None and (rank - drop <= t) == want, (g, edge, s)
                    kind = "isolated" if edge is None else (
                        "deletion" if alive >> edge[1] & 1 else "contraction"
                    )
                    ends = 0 if edge is None else 1 << edge[0] | 1 << edge[1]
                    seen[kind, bool(s & ends), want] += 1
        assert {key for key in seen if key[0] != "isolated"} == {
            (kind, in_s, want)
            for kind in ("deletion", "contraction")
            for in_s in (False, True)
            for want in (False, True)
            if not (kind == "deletion" and in_s and want)
        }
        assert ("isolated", False, False) in seen

    @pytest.mark.parametrize("cls", list(ClassId))
    def test_random_graphs_against_the_reference(self, cls):
        # graphs of 4-10 vertices, witnesses compared as graph6 bytes; FOREST
        # and SUB_UNICYCLIC start from the membership search's near misses
        rng = random.Random(4343)
        steps = Counter()
        for _ in range(60):
            g = random_graph(rng, rng.randint(4, 10), rng.uniform(0.1, 0.6))
            for k in (0, 1, 2):
                check = check_obstruction(g, k, cls)
                verdict, step, witness = reference_check_obstruction(g, k, cls)
                got = (check.is_obstruction, check.failed_step,
                       check.witness and to_graph6(check.witness))
                assert got == (verdict, step, witness and to_graph6(witness)), (g, k, cls)
                steps[step] += 1
        assert steps["membership"] and steps["minimality"]

    def test_near_misses_handed_to_minimality(self, monkeypatch):
        # the sets the membership search leaves in check_obstruction's list,
        # at each graph's level and one either side: at most k vertices of g,
        # each leaving g one cycle over the cap t
        handed = []
        search = apexobs.obstructions._apex_search

        def recorded(*args):
            found = search(*args)
            if len(args) > 6:  # the membership search, the only one given a list
                handed.append(list(args[6]))
            return found

        monkeypatch.setattr(apexobs.obstructions, "_apex_search", recorded)
        graphs = [(rec.graph, rec.k) for k in (0, 1) for rec in load_catalog(k).records]
        graphs += [(b.graph, j - 1) for j in (2, 3, 4, 5) for b in generate_Z(j)]
        counts = Counter()
        for cls in ClassId:
            t = _RANK_LIMIT.get(cls)
            for g, level in graphs:
                full = (1 << g.n) - 1
                for k in range(max(level - 1, 0), level + 2):
                    handed.clear()
                    check_obstruction(g, k, cls)
                    (sets,) = handed
                    for s, rank in sets:
                        assert s & ~full == 0 and popcount(s) <= k, (g, k, cls, s)
                        assert rank == t + 1 == _cycle_rank(g.adj, full & ~s), (g, k, cls, s)
                    counts[cls] += len(sets)
        assert counts[ClassId.FOREST] and counts[ClassId.SUB_UNICYCLIC]
        assert counts[ClassId.PSEUDOFOREST] == counts[ClassId.CACTUS] == 0

    def test_children_searched_pinned(self):
        # which children get an apex search depends only on each set test's
        # answer, so these sums pin the answers, the membership search's near
        # misses first among the sets
        searched = [
            sum(check_obstruction(b.graph, j - 1).children_searched for b in generate_Z(j))
            for j in (2, 3, 4, 5)
        ]
        assert searched == [1, 2, 15, 79]

    # level -> (children_searched summed over Z_level at k = level - 1, the
    # sha256 of each member's (verdict, failed_step, witness graph6)), the
    # levels gen-cacti --verify checks last, as the check gave them before
    # child searches started from g's 2-core; the sums count the children
    # that no near miss of the membership search settles
    CLI_LEVELS = {
        6: (372, "aa5601a5c6c7a49f0c5898c8012a1aa15316b3f684be4e2760b905fd55dd76da"),
        7: (2017, "eb545a4b0f780b1bca731b0dc1159067d457abb164323c0d987f9ae025ee35e8"),
    }

    @pytest.mark.parametrize("level", list(CLI_LEVELS))
    def test_outcomes_pinned_at_the_cli_levels(self, level):
        searched, digest = 0, hashlib.sha256()
        for b in generate_Z(level):
            check = check_obstruction(b.graph, level - 1)
            searched += check.children_searched
            witness = None if check.witness is None else to_graph6(check.witness)
            digest.update(repr((check.is_obstruction, check.failed_step, witness)).encode())
        assert (searched, digest.hexdigest()) == self.CLI_LEVELS[level]

    def test_siblings_settle_most_children(self):
        g = generate_Z(4)[0].graph
        check = check_obstruction(g, 3)
        children = sum(1 for _ in _child_rows(g))
        assert check.is_obstruction and 0 < check.children_searched < children
        assert check_obstruction(g, 4).children_searched == 0  # fails membership


class TestStructuralFilters:
    def test_butterfly_passes(self):
        assert structural_filters(butterfly_graph()).passed

    def test_path_fails_degree_and_bridges(self):
        rep = structural_filters(path_graph(3))
        assert not rep.min_degree_two and not rep.bridgeless
        assert not rep.passed

    def test_c4_fails_neighbor_adjacency(self):
        rep = structural_filters(cycle_graph(4))
        assert rep.min_degree_two and rep.bridgeless
        assert not rep.degree_two_neighbors_adjacent

    def test_every_catalog_member_passes(self):
        for k in (0, 1):
            for rec in load_catalog(k).records:
                assert structural_filters(rec.graph).passed, rec.name


# well-formed manifest records for the three graphs of obs_k0.g6
K0_RECORDS = [{"name": name} for name in ("2K3", "K4-", "Z")]


class TestCatalog:
    def test_k1_shape(self):
        cat = load_catalog(1)
        assert len(cat) == 29
        assert cat.claimed_complete
        names = {rec.name for rec in cat.records}
        assert {"O_1^0", "O_6^0", "O_1^1", "O_4^1", "L1_01", "L1_19"} <= names

    def test_O_1_0_is_3K3(self):
        cat = load_catalog(1)
        rec = next(r for r in cat.records if r.name == "O_1^0")
        g = rec.graph
        assert g.n == 9 and g.num_edges() == 9
        from apexobs.graphs import component_masks
        from apexobs.canonical import are_isomorphic

        assert len(component_masks(g)) == 3
        assert are_isomorphic(g, make_named("3K3"))

    def test_O_1_1_shape(self):
        cat = load_catalog(1)
        g = next(r.graph for r in cat.records if r.name == "O_1^1")
        assert g.n == 9 and g.num_edges() == 12
        assert is_connected(g)
        from apexobs.graphs import decompose

        assert len(decompose(g).cut_vertices) == 3

    def test_k0_catalog(self):
        cat = load_catalog(0)
        assert same_graph_sets(
            [r.graph for r in cat.records],
            [make_named("2K3"), make_named("K4-"), make_named("Z")],
        )

    def test_isomorphic_records_rejected(self):
        # the error names both records of the isomorphic pair
        recs = [
            ObstructionRecord("a", make_named("K3"), 0),
            ObstructionRecord("c", path_graph(3), 0),
            ObstructionRecord("b", cycle_graph(3), 0),
        ]
        with pytest.raises(ValueError, match="records a and b are isomorphic"):
            Catalog(k=0, records=recs)

    def test_duplicate_names_rejected(self):
        recs = [
            ObstructionRecord("a", make_named("2K3"), 0),
            ObstructionRecord("a", make_named("Z"), 0),
        ]
        with pytest.raises(ValueError, match="duplicate record names"):
            Catalog(k=0, records=recs)

    def test_data_dir_override(self, tmp_path, monkeypatch):
        src = load_catalog(0)
        from apexobs.graphio import write_graph6_file

        write_graph6_file(str(tmp_path / "obs_k0.g6"), [r.graph for r in src.records])
        manifest = {
            "k": 0,
            "claimed_complete": True,
            "source_note": "copy",
            "records": [{"name": r.name, "figure": "x", "row": 0, "col": i}
                        for i, r in enumerate(src.records)],
        }
        (tmp_path / "obs_k0.json").write_text(json.dumps(manifest))
        monkeypatch.setenv("APEXOBS_DATA", str(tmp_path))
        cat = load_catalog(0)
        assert len(cat) == 3 and cat.source_note == "copy"

    def test_missing_catalog(self):
        with pytest.raises(FileNotFoundError):
            load_catalog(7)

    def test_manifest_of_another_level_rejected(self, tmp_path, monkeypatch):
        # the k=0 files renamed to k=1 must not load as a Catalog(k=0)
        pkg = resources.files("apexobs.data")
        (tmp_path / "obs_k1.g6").write_text((pkg / "obs_k0.g6").read_text())
        (tmp_path / "obs_k1.json").write_text((pkg / "obs_k0.json").read_text())
        monkeypatch.setenv("APEXOBS_DATA", str(tmp_path))
        with pytest.raises(ValueError, match="k=0"):
            load_catalog(1)

    @pytest.mark.parametrize(
        "manifest, field",
        [
            ({"k": 0}, '"records"'),
            ({"k": 0, "records": 3}, '"records"'),
            ({"k": 0, "records": [{"name": "2K3"}, {"figure": "x"}, {"name": "Z"}]}, '"name"'),
            ([{"k": 0}], "JSON object"),
            ({"k": 0, "records": [{"name": "2K3"}, {"name": 7}, {"name": "Z"}]}, '"name"'),
            ({"k": 0, "claimed_complete": "no", "records": K0_RECORDS}, '"claimed_complete"'),
            ({"k": 0, "source_note": 3, "records": K0_RECORDS}, '"source_note"'),
        ],
        ids=[
            "no-records", "int-records", "record-without-name", "list-manifest",
            "int-name", "string-claimed-complete", "int-source-note",
        ],
    )
    def test_corrupt_manifest_rejected(self, tmp_path, monkeypatch, manifest, field):
        # input read from outside the program fails as ValueError, naming the field
        pkg = resources.files("apexobs.data")
        (tmp_path / "obs_k0.g6").write_text((pkg / "obs_k0.g6").read_text())
        (tmp_path / "obs_k0.json").write_text(json.dumps(manifest))
        monkeypatch.setenv("APEXOBS_DATA", str(tmp_path))
        with pytest.raises(ValueError, match=f"catalog corrupt: .*{field}"):
            load_catalog(0)

    def test_any_level_with_files_loads(self, tmp_path, monkeypatch):
        # a level is whatever obs_k{k}.g6 exists for, not a fixed list
        (tmp_path / "obs_k2.g6").write_text(to_graph6(make_named("4K3")) + "\n")
        manifest = {"k": 2, "records": [{"name": "4K3"}]}
        (tmp_path / "obs_k2.json").write_text(json.dumps(manifest))
        monkeypatch.setenv("APEXOBS_DATA", str(tmp_path))
        cat = load_catalog(2)
        assert cat.k == 2 and [r.k for r in cat.records] == [2]
        assert verify_catalog(cat).all_verified


class TestVerifyCatalog:
    def test_k0_all_verified(self):
        rep = verify_catalog(load_catalog(0))
        assert rep.all_verified and rep.verified == 3

    def test_planted_fake_is_refuted(self):
        cat = load_catalog(0)
        cat.records.append(ObstructionRecord("K4", complete_graph(4), 0))
        rep = verify_catalog(cat)
        assert not rep.all_verified
        bad = rep.refuted
        assert len(bad) == 1 and bad[0]["name"] == "K4"
        assert bad[0]["failed_step"] == "minimality"
        assert cat.records[-1].status is Status.REFUTED
        # the refutation carries its witness: a smaller graph still not 0-apex
        witness = from_graph6(bad[0]["witness"])
        assert witness.num_edges() < 6
        assert oracle_min_apex(witness, ClassId.SUB_UNICYCLIC.value) > 0
        assert all(r["witness"] is None for r in rep.results if r["name"] != "K4")

    def test_report_shapes(self):
        rep = verify_catalog(load_catalog(0))
        d = rep.to_dict()
        assert d["total"] == 3 and d["verified"] == 3 and d["refuted"] == []
        assert "3/3 verified" in rep.to_text()


class TestSearch:
    def test_k0_up_to_3_empty(self):
        cat = search_obstructions(0, 3)
        assert len(cat) == 0 and cat.claimed_complete

    def test_k0_up_to_6_rediscovers_base_obstructions(self):
        cat = search_obstructions(0, 6)
        expected = [make_named("2K3"), make_named("K4-"), make_named("Z")]
        assert same_graph_sets([r.graph for r in cat.records], expected)

    def test_budget_marks_incomplete(self):
        cat = search_obstructions(0, 6, budget_seconds=0.0)
        assert not cat.claimed_complete

    @pytest.mark.parametrize("budget", [float("nan"), -1.0])
    def test_budget_must_be_a_non_negative_number(self, budget):
        # NaN compares false, so it would never stop the search yet leave it
        # claimed complete; a negative one would stop it before any check
        message = f"budget_seconds must be a non-negative number, got {budget}"
        with pytest.raises(ValueError, match=message):
            search_obstructions(1, 7, budget_seconds=budget)

    @pytest.mark.parametrize("k, max_n", [(1, -3), (-1, 1), (0, 33)])
    def test_sizes_checked_before_generating(self, k, max_n, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("candidates generated before the sizes were checked")

        monkeypatch.setattr(apexobs.obstructions, "_candidates", never)
        with pytest.raises(ValueError, match=f"k must be non-negative, got {k}|max_n {max_n} outside"):
            search_obstructions(k, max_n)

    def test_search_is_deterministic(self):
        a = search_obstructions(0, 5)
        b = search_obstructions(0, 5)
        assert [r.name for r in a.records] == [r.name for r in b.records]
        assert [canonical_form(r.graph) for r in a.records] == [
            canonical_form(r.graph) for r in b.records
        ]

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("connected_only", [False, True])
    def test_same_records_as_search_over_every_graph(self, k, connected_only):
        every = reference_search(k, 7, connected_only)
        assert every  # each of the six searches finds something by n = 7
        for max_n in range(8):
            cat = search_obstructions(k, max_n, connected_only=connected_only)
            want = [g for g in every if g.n <= max_n]
            assert [r.name for r in cat.records] == [
                f"S{g.n}_{i + 1:02d}" for i, g in enumerate(want)
            ]
            assert [r.graph for r in cat.records] == want  # same adjacency, same order
            assert cat.candidates["found"] == len(want)

    def test_k1_up_to_10_is_the_catalog(self):
        # the k=1 catalog's completeness, re-derived up to 10 vertices
        found = search_obstructions(1, 10)
        assert found.claimed_complete and len(found) == 29
        assert same_graph_sets(
            [r.graph for r in found.records], [r.graph for r in load_catalog(1).records]
        )

    @pytest.mark.slow
    def test_k1_up_to_12_is_the_catalog(self):
        # the completeness label past the 10 vertices above (about 6 s, 42 MB)
        found = search_obstructions(1, 12)
        assert found.claimed_complete and len(found) == 29
        assert same_graph_sets(
            [r.graph for r in found.records], [r.graph for r in load_catalog(1).records]
        )

    @pytest.mark.slow
    def test_k2_up_to_9_records_unchanged(self):
        # sha256 of the records, which are the same whether or not each
        # candidate must first pass the structural filters (about 6 s): 1
        # record on 6 vertices, 8 on 7, 61 on 8 and 325 on 9
        cat = search_obstructions(2, 9)
        assert Counter(r.graph.n for r in cat.records) == {6: 1, 7: 8, 8: 61, 9: 325}
        records = json.dumps([rec.to_dict() for rec in cat.records]).encode()
        assert hashlib.sha256(records).hexdigest() == (
            "1d6e5dae82be5d7fcc7a679f452e29400fe20dacde03126c7defb213cc06acfe"
        )

    @pytest.mark.parametrize(
        "k, max_n, counts, digest",
        # (dropped_k_apex, dropped_non_minimal, generated, passed_filters,
        # checked, found), and the sha256 of the records, as the apex
        # layers gave them when rule 4 ran an apex search on each class
        [
            (3, 8, (2123, 192, 144, 144, 47, 21),
             "a05145648dc0c5ea80b7af344ade166a00dad5b437a2abecc4a0860c13e716bb"),
            (4, 9, (11492, 678, 436, 436, 109, 40),
             "2e4315c888567fbb392d3e5e336bd0818ba7fa26ebcc674b9f242a4a44101027"),
        ],
    )
    def test_k3_and_k4_outputs_pinned(self, k, max_n, counts, digest):
        cat = search_obstructions(k, max_n)
        assert tuple(cat.candidates.values()) == counts
        records = json.dumps([rec.to_dict() for rec in cat.records]).encode()
        assert hashlib.sha256(records).hexdigest() == digest

    def test_runs_no_bridge_search(self, monkeypatch):
        # a bridged candidate goes to the obstruction test, which refutes it:
        # the search looks for no bridges of its own
        calls = []
        real = apexobs.graphs._blocks_and_cuts

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(apexobs.graphs, "_blocks_and_cuts", counted)
        assert len(search_obstructions(1, 8)) == 22
        assert calls == []

    def test_k1_up_to_7_matches_catalog_subset(self):
        # the level-1 search must find exactly the catalog members that fit
        found = search_obstructions(1, 7)
        small = [r.graph for r in load_catalog(1).records if r.graph.n <= 7]
        assert len(small) == 14
        assert same_graph_sets([r.graph for r in found.records], small)


class TestCandidateGenerators:
    """The search's generators build only neighbourhoods that can still
    give a new class passing the degree filters, and every such class."""

    @staticmethod
    def twin_rich_graph(rng: random.Random, n: int) -> Graph:
        # a random graph grown by copies of its rows (twins, adjacent or
        # not, and isolated vertices), then randomly relabelled
        g = random_graph(rng, rng.randint(1, n), rng.uniform(0.2, 0.7))
        while g.n < n:
            v = rng.randrange(g.n)
            g = g.add_vertex(g.adj[v] | (1 << v if rng.random() < 0.5 else 0))
        perm = list(range(n))
        rng.shuffle(perm)
        return g.relabel(perm)

    @staticmethod
    def can_finish(h: Graph, later: int) -> bool:
        # h meets the degree filters once ``later`` more vertices may join it
        if later == 0:
            report = structural_filters(h)
            return report.min_degree_two and report.degree_two_neighbors_adjacent
        return all(popcount(row) >= 2 - later for row in h.adj)

    def test_k0_candidates_have_at_most_6_vertices(self):
        # the k = 0 core levels stop at 6 because the finished graphs of cycle
        # rank 2 are K4-, the butterfly, 2K3 and two triangles joined by an
        # edge (proof in ``_candidates``): by brute force over every graph on
        # at most 8 vertices
        finished = [g for g in graphs_up_to(8) if cyclomatic(g) == 2 and self.can_finish(g, 0)]
        bridged = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        want = [make_named("K4-"), butterfly_graph(), make_named("2K3"), bridged]
        assert len(finished) == 4 and same_graph_sets(finished, want)
        assert same_graph_sets(_candidates(0, 10), want)

    @pytest.mark.parametrize("k, max_n", [(0, 9), (1, 7), (1, 9), (2, 7), (2, 8), (3, 8)])
    def test_every_candidate_obeys_rules_1_and_2(self, k, max_n):
        # at k = 0 too, where each core level's finished classes are the
        # candidates and no apex layer enforces the rules
        made = 0
        for g in _candidates(k, max_n):
            report = structural_filters(g)
            assert report.min_degree_two and report.degree_two_neighbors_adjacent, to_graph6(g)
            made += 1
        assert made

    def test_twin_prefixes_reach_every_class_once(self, rng):
        for _ in range(40):
            g = self.twin_rich_graph(rng, rng.randint(1, 8))
            roots = _twin_roots(g.adj)
            for u, v in combinations(range(g.n), 2):
                twins = g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u)
                assert twins == (roots[u] == roots[v])
            classes = [[v for v in range(g.n) if roots[v] == r] for r in sorted(set(roots))]
            kept = [mask for mask, _ in _prefix_picks(classes, g.n)]
            assert len(set(kept)) == len(kept)
            assert {canonical_form(g.add_vertex(m)) for m in kept} == {
                canonical_form(g.add_vertex(m)) for m in range(1 << g.n)
            }
            for mask in kept:  # no kept mask is one twin swap from another
                for vs in classes:
                    for u, v in combinations(vs, 2):
                        if (mask >> u ^ mask >> v) & 1:
                            assert mask ^ (1 << u | 1 << v) not in kept

    def test_twin_classes_are_automorphism_classes(self, rng):
        # each vertex's root is the first vertex of its class, every swap
        # inside a class is an automorphism, and a class lies in one orbit
        graphs = [self.twin_rich_graph(rng, rng.randint(1, 9)) for _ in range(40)]
        graphs += [
            add_twins_and_pendants(rng, random_graph(rng, rng.randint(1, 7), rng.random()), 4)
            for _ in range(40)
        ]
        for g in graphs:
            roots, orbits = _twin_roots(g.adj), automorphism_orbits(g)
            edges = set(g.edges())
            for v in range(g.n):
                assert roots[v] <= v and roots[roots[v]] == roots[v]
                assert orbits[v] == orbits[roots[v]]
            for u, v in combinations(range(g.n), 2):
                if roots[u] == roots[v]:
                    swap = {u: v, v: u}
                    assert {
                        tuple(sorted((swap.get(a, a), swap.get(b, b)))) for a, b in edges
                    } == edges

    def test_apex_extensions_are_the_classes_that_can_finish(self, rng):
        for _ in range(30):
            g = self.twin_rich_graph(rng, rng.randint(1, 7))
            for after in (0, 1, 2):
                made = [g.add_vertex(nb) for nb in _apex_neighbourhoods(g.adj, after)]
                assert all(self.can_finish(h, after) for h in made)
                everything = (g.add_vertex(m) for m in range(1 << g.n))
                assert {canonical_form(h) for h in made} == {
                    canonical_form(h) for h in everything if self.can_finish(h, after)
                }

    def test_core_extensions_are_the_classes_that_can_finish(self, rng):
        for n in range(7):
            cores = [g for g in enumerate_graphs(n) if cyclomatic(g) <= 2]
            for core in rng.sample(cores, min(len(cores), 8)):
                perm = list(range(n))
                rng.shuffle(perm)
                core = core.relabel(perm)
                for later in range(4):
                    made = list(_core_extensions(core, later))
                    assert all(self.can_finish(h, later) for h in made)
                    want = {
                        canonical_form(h)
                        for h in (core.add_vertex(m) for m in range(1 << n))
                        if (cyclomatic(h) <= 2 if later else cyclomatic(h) == 2)
                        and self.can_finish(h, later)
                    }
                    assert {canonical_form(h) for h in made} == want

    @pytest.mark.parametrize(
        "k, max_n, checked, found, generated",
        # generated: the unpruned generators built 4,526, 4,643 and 3,249;
        # checked: 549 and 316 before rules 4-6 of the last layers
        [(0, 8, 4, 3, 4526), (1, 8, 36, 22, 4643), (2, 7, 16, 9, 3249)],
    )
    def test_pruning_checks_the_same_classes(self, k, max_n, checked, found, generated):
        c = search_obstructions(k, max_n).candidates
        assert (c["checked"], c["found"]) == (checked, found)
        assert c["passed_filters"] == c["generated"] < generated


class TestDeletionTable:
    """Rules 4-6 of the search's apex layers: the table of a parent P that
    is not (k - 1)-apex decides, from the apex's neighbourhood alone,
    whether P + a is k-apex and whether every P + a - av is.  Rule 4 is
    rule 5 at the layer's budget."""

    @staticmethod
    def parents_and_neighbourhoods(rng: random.Random, k: int, count: int):
        # seeded random parents that are not (k - 1)-apex, with random
        # neighbourhoods of a new last vertex, rich and sparse
        made = 0
        while made < count:
            p = random_graph(rng, rng.randint(k + 3, 9), rng.uniform(0.25, 0.7))
            if has_apex_set_within(p, ClassId.SUB_UNICYCLIC, k - 1):
                continue
            made += 1
            density = rng.uniform(0.1, 0.6)
            yield p, sum(1 << v for v in range(p.n) if rng.random() < density)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rule_5_is_the_apex_search(self, k, rng):
        seen = Counter()
        for p, nb in self.parents_and_neighbourhoods(rng, k, 300):
            g = p.add_vertex(nb)
            apex = has_apex_set_within(g, ClassId.SUB_UNICYCLIC, k)
            assert (_table_drop(_deletion_table(p.adj, k), nb) == "dropped_k_apex") == apex
            seen[apex] += 1
        assert min(seen[True], seen[False]) >= 30  # both verdicts occur

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rule_6_is_the_apex_search_on_every_one_edge_minor(self, k, rng):
        seen = Counter()
        for p, nb in self.parents_and_neighbourhoods(rng, k, 300):
            g = p.add_vertex(nb)
            rule = _table_drop(_deletion_table(p.adj, k), nb)
            if rule == "dropped_k_apex":
                continue
            minimal = all(
                has_apex_set_within(g.delete_edge(p.n, v), ClassId.SUB_UNICYCLIC, k)
                for v in range(p.n) if nb >> v & 1
            )
            assert (rule is None) == minimal
            seen[minimal] += 1
        assert min(seen[True], seen[False]) >= 10  # both verdicts occur

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_drops_and_candidates_are_the_neighbourhoods(self, k, monkeypatch):
        # every last-layer neighbourhood is either yielded or counted as
        # dropped by exactly one rule; the last layer's tables have budget
        # k, and the apex layers before it drop uncounted
        parents = []
        real = apexobs.obstructions._deletion_table

        def recorded(adj, budget):
            if budget == k:
                parents.append(adj)
            return real(adj, budget)

        monkeypatch.setattr(apexobs.obstructions, "_deletion_table", recorded)
        counts = Counter()
        made = sum(1 for _ in _candidates(k, 8, counts))
        enumerated = sum(1 for adj in parents for _ in _apex_neighbourhoods(adj, 0))
        assert made + counts["dropped_k_apex"] + counts["dropped_non_minimal"] == enumerated
        assert set(counts) == {"dropped_k_apex", "dropped_non_minimal"}
        assert made < enumerated


class TestCanonicalAugmentation:
    """The core levels keep one graph per class: a child is accepted only
    from the orbit of its canonical deletion vertex."""

    @staticmethod
    def low_rank_graph(rng: random.Random, n: int) -> Graph:
        # a random forest plus at most two more edges: cycle rank <= 2
        g = Graph(n, [(v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.8])
        for _ in range(rng.randint(0, 2) if n > 1 else 0):
            u, v = rng.sample(range(n), 2)
            if not g.has_edge(u, v):
                g = Graph(n, [*g.edges(), (u, v)])
        return g

    def test_one_orbit_accepted(self, rng):
        # with each vertex in turn last, the accepted ones are one orbit
        tied = 0
        for _ in range(150):
            g = self.low_rank_graph(rng, rng.randint(1, 10))
            assert cyclomatic(g) <= 2
            orbits = automorphism_orbits(g)
            accepted = set()
            for v in range(g.n):
                perm = [u - (u > v) for u in range(g.n)]
                perm[v] = g.n - 1
                ok, form = _augmentation(g.relabel(perm))
                assert form is None or form == canonical_form(g)
                tied += form is not None
                if ok:
                    accepted.add(v)
            assert accepted
            assert accepted == {u for u in range(g.n) if orbits[u] == orbits[min(accepted)]}
        assert tied  # some graphs need the canonical labeling to break a tie

    @pytest.mark.parametrize("k, max_n", [(0, 8), (0, 9), (1, 9), (2, 8)])
    def test_levels_are_the_reference_classes(self, k, max_n, monkeypatch):
        built = []
        real = apexobs.obstructions._augmented_level

        def recorded(families):
            built.append(real(families))
            return built[-1]

        monkeypatch.setattr(apexobs.obstructions, "_augmented_level", recorded)
        for _ in _candidates(k, max_n):
            pass
        want = reference_core_levels(k, max_n)
        assert len(built) == len(want) == (max_n - k if k else 6)
        for got, ref in zip(built, want):
            forms = [canonical_form(g) for g in got]
            assert len(set(forms)) == len(forms)  # no class twice
            assert set(forms) == {canonical_form(g) for g in ref}

    @pytest.mark.parametrize("k, searches", [(0, 29), (1, 103), (2, 93)], ids=["k0", "k1", "k2"])
    def test_canonical_searches_pinned(self, k, searches, monkeypatch):
        # no form is cached, so a graph whose form two steps need is searched
        # twice: at k = 0, 3 candidates whose tie ``_augmentation`` broke by
        # form, again in the search's deduplication.  ``Catalog`` takes a
        # form only for records whose invariant multisets tie
        # (``_distinct``); searching every record took 32, 115 and 98 (71,
        # 113 and 107 with a cache, 71 at k = 0 before its core levels
        # stopped at 6 vertices).  Deduplicating
        # the core levels by form took 321 and 531, at k = 0 extending the
        # top level raw took 79, at k = 1 the last layer took 280 before
        # rules 5 and 6 dropped its neighbourhoods unbuilt, and at k = 2 it
        # took 206 while rule 4 built every apex-layer graph and apex-searched
        # each class, and 108 while its apex layer took a form for every
        # graph, not only for those whose invariant multiset ties
        # (``_distinct``)
        calls = []
        real = apexobs.canonical._canonical_search_pruned

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(apexobs.canonical, "_canonical_search_pruned", counted)
        apexobs.canonical._canonical.cache_clear()
        search_obstructions(k, 7)
        assert len(calls) == searches


class TestCandidateLemma:
    """Every k-obstruction g has a k-set U with cyclomatic(g - U) = 2: the
    lemma the search's candidate source rests on, checked by brute force
    over the k-subsets of every obstruction the package knows."""

    @staticmethod
    def has_core(g: Graph, k: int) -> bool:
        return any(
            cyclomatic(g.delete_vertices(u)) == 2 for u in combinations(range(g.n), k)
        )

    @pytest.mark.parametrize("k", [0, 1])
    def test_shipped_catalogs(self, k):
        for rec in load_catalog(k).records:
            assert self.has_core(rec.graph, k), rec.name

    @pytest.mark.parametrize("j", [2, 3, 4, 5])
    def test_butterfly_cacti(self, j):
        for b in generate_Z(j):
            assert self.has_core(b.graph, j - 1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_disconnected_obstructions(self, k):
        for g in disconnected_obstructions(k):
            assert self.has_core(g, k)


class TestCatalogInvariants:
    def test_records_form_minor_antichain(self):
        # no two obstructions are comparable in the minor order
        recs = load_catalog(1).records
        for a in recs:
            for b in recs:
                if a.name == b.name:
                    continue
                ga, gb = a.graph, b.graph
                if ga.n <= gb.n and ga.num_edges() <= gb.num_edges():
                    assert not is_minor(ga, gb), (a.name, b.name)

    def test_disconnected_cactus_records_decompose(self):
        # every disconnected cactus record is (k+2)K3 or splits into
        # butterfly-cacti with levels summing to k+1
        from apexobs.cacti import generate_Z
        from apexobs.graphs import component_masks
        from apexobs.canonical import are_isomorphic

        z_forms = {
            j: {canonical_form(b.graph) for b in generate_Z(j)} for j in (1, 2)
        }
        cat = load_catalog(1)
        checked = 0
        for rec in cat.records:
            g = rec.graph
            comps = component_masks(g)
            if len(comps) < 2 or not is_in_class(g, ClassId.CACTUS):
                continue
            checked += 1
            if are_isomorphic(g, make_named("3K3")):
                continue
            levels = []
            for mask in comps:
                sub = g.subgraph(mask)
                level = next(
                    (j for j, forms in z_forms.items()
                     if canonical_form(sub) in forms),
                    None,
                )
                assert level is not None, rec.name
                levels.append(level)
            assert sum(levels) == rec.k + 1, rec.name
        assert checked == 2  # O_1^0 = 3K3 and O_3^0 = 2Z
