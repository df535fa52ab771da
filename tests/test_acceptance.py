"""Acceptance suite: the ten headline checks, one test per criterion.

Each test prints a single PASS line with its runtime (run with -s to watch
them stream); a failure raises with the offending details.  Tolerances and
time budgets are fixed here, not configurable.

Run:  pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time

from apexobs.canonical import canonical_form, graphs_up_to
from apexobs.cacti import (
    count_forest_apex_sets,
    disconnected_obstructions,
    generate_Z,
)
from apexobs.graphs import ClassId, make_named, min_apex_size
from apexobs.graphio import from_graph6
from apexobs.minors import is_minor
from apexobs.obstructions import is_obstruction, load_catalog, same_graph_sets
from apexobs.series import solve_system
from apexobs.asymptotics import (
    check_Z1_vanishes,
    estimate_constant,
    solve_saddle,
)

from conftest import random_graph
from oracles import oracle_is_minor, oracle_min_apex


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "apexobs", *argv], capture_output=True, text=True
    )


def _report(num: int, budget: float, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS  ({elapsed:6.1f}s / budget {budget:.0f}s)  {detail}")
    assert elapsed < budget, f"criterion {num} exceeded its time budget"


def test_criterion_01_base_obstruction_rediscovery():
    """search --k 0 --max-n 6 returns exactly the three base obstructions."""
    t0 = time.perf_counter()
    proc = _cli("search", "--k", "0", "--max-n", "6", "--json")
    assert proc.returncode == 0, proc.stderr
    found = [from_graph6(rec["graph6"]) for rec in json.loads(proc.stdout)["found"]]
    expected = [make_named("2K3"), make_named("K4-"), make_named("Z")]
    assert same_graph_sets(found, expected), [rec for rec in found]
    _report(1, 10, time.perf_counter() - t0, "search k=0 n<=6 = {2K3, K4-, Z}")


def test_criterion_02_29_graph_catalog_verifies():
    """verify-catalog --k 1: all 29 records verified, zero refutations."""
    t0 = time.perf_counter()
    proc = _cli("verify-catalog", "--k", "1", "--json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["total"] == 29
    assert payload["verified"] == 29
    assert payload["refuted"] == []
    _report(2, 1800, time.perf_counter() - t0, "29/29 verified, 0 refuted")


def test_criterion_03_butterfly_cacti_counts_match_series():
    """|Z_k| = (1,1,3,7,25,88) for k=1..6, equal to the series coefficients."""
    t0 = time.perf_counter()
    counts = [len(generate_Z(k)) for k in range(1, 7)]
    assert counts == [1, 1, 3, 7, 25, 88]
    t = solve_system(8).T.integer_coeffs()
    assert counts == [t[k] for k in range(1, 7)]
    _report(3, 300, time.perf_counter() - t0, f"|Z_k| = {counts} = [x^k]T")


def test_criterion_04_printed_series_reproduced():
    """First 10 T and 11 G coefficients match the printed series exactly."""
    t0 = time.perf_counter()
    sol = solve_system(64)
    assert list(sol.T.integer_coeffs()[1:11]) == [
        1, 1, 3, 7, 25, 88, 366, 1583, 7336, 34982,
    ]
    assert list(sol.G.integer_coeffs()[0:11]) == [
        1, 1, 2, 5, 13, 41, 143, 558, 2346, 10546, 49397,
    ]
    _report(4, 5, time.perf_counter() - t0, "t_1..t_10 and g_0..g_10 exact, N=64")


def test_criterion_05_unique_apex_forest_sets():
    """For every member of Z_k, k <= 4: the central set is the unique
    k-subset whose removal leaves a forest (an exact count of the k-subsets)."""
    t0 = time.perf_counter()
    checked = 0
    for k in range(1, 5):
        for b in generate_Z(k):
            assert count_forest_apex_sets(b.graph, k) == 1, (k, b.graph)
            drop = [v for v in range(b.graph.n) if v in b.central_vertices]
            sub = b.graph.delete_vertices(drop)
            from apexobs.graphs import is_in_class

            assert is_in_class(sub, ClassId.FOREST)
            checked += 1
    _report(5, 300, time.perf_counter() - t0, f"{checked} graphs, unique K(G) each")


def test_criterion_06_disconnected_characterization():
    """disconnected_obstructions(1) = {2Z, 3K3} matching the catalog; every
    level-2 member passes the obstruction test."""
    t0 = time.perf_counter()
    level1 = disconnected_obstructions(1)
    assert same_graph_sets(level1, [make_named("2Z"), make_named("3K3")])
    catalog = {r.name: r.graph for r in load_catalog(1).records}
    assert same_graph_sets(level1, [catalog["O_3^0"], catalog["O_1^0"]])
    level2 = disconnected_obstructions(2)
    failures = [g for g in level2 if not is_obstruction(g, 2)]
    assert not failures
    _report(
        6, 1800, time.perf_counter() - t0,
        f"level 1 = {{2Z, 3K3}}; {len(level2)}/{len(level2)} level-2 members verified",
    )


def test_criterion_07_saddle_point():
    """x0 = 0.15926 +/- 1e-4, y0 = 0.41738 +/- 1e-4, 1/rho = 6.27888 +/- 1e-3."""
    t0 = time.perf_counter()
    sol = solve_system(128)
    sp = solve_saddle(sol)
    assert abs(sp.x0 - 0.15926) < 1e-4, sp.x0
    assert abs(sp.y0 - 0.41738) < 1e-4, sp.y0
    assert abs(1.0 / sp.x0 - 6.27888) < 1e-3, 1.0 / sp.x0
    _report(
        7, 10, time.perf_counter() - t0,
        f"x0={sp.x0:.6f} y0={sp.y0:.6f} 1/rho={1/sp.x0:.5f}, N=128",
    )


def test_criterion_08_asymptotic_constants():
    """c_T within 1% of 0.27160 and c_G within 1% of 0.33995."""
    t0 = time.perf_counter()
    sol = solve_system(512)
    sp = solve_saddle(sol)
    est_T = estimate_constant(sol.T, sp.x0)
    est_G = estimate_constant(sol.G, sp.x0)
    assert abs(est_T.c - 0.27160) <= 0.01 * 0.27160, est_T.c
    assert abs(est_G.c - 0.33995) <= 0.01 * 0.33995, est_G.c
    _report(
        8, 120, time.perf_counter() - t0,
        f"c_T={est_T.c:.5f} (0.27160), c_G={est_G.c:.5f} (0.33995), N=512",
    )


def test_criterion_09_z1_identity():
    """Identity residual < 1e-6 at N=128, improvement monotone in N
    (up to double-precision noise; the truncation effect is geometric)."""
    t0 = time.perf_counter()
    rep = check_Z1_vanishes(solve_system(128), truncations=(64, 96, 128))
    rs = [rep.residuals[n] for n in (64, 96, 128)]
    assert rs[2] < 1e-6, rs
    assert rs[1] <= rs[0] + 1e-12 and rs[2] <= rs[1] + 1e-12, rs
    _report(
        9, 10, time.perf_counter() - t0,
        "residuals " + ", ".join(f"N={n}: {rep.residuals[n]:.1e}" for n in (64, 96, 128)),
    )


def test_criterion_10_oracle_equivalence():
    """is_minor vs partition-model oracle on all pairs of graphs with <= 6
    vertices; min_apex_size vs the exhaustive-subset oracle on 500 random
    graphs with <= 8 vertices; canonical_form invariance on 1000 relabelings."""
    t0 = time.perf_counter()
    pool = graphs_up_to(6)
    mismatches = 0
    pairs = 0
    for h in pool:
        for g in pool:
            pairs += 1
            if is_minor(h, g) != oracle_is_minor(h, g):
                mismatches += 1
    assert mismatches == 0, f"{mismatches} is_minor mismatches"

    rng = random.Random(1202)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        cls = rng.choice(list(ClassId))
        assert min_apex_size(g, cls) == oracle_min_apex(g, cls.value), (g, cls)

    for _ in range(1000):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabel(perm)), (g, perm)
    _report(
        10, 900, time.perf_counter() - t0,
        f"{pairs} minor pairs, 500 apex graphs, 1000 relabelings: 0 mismatches",
    )
