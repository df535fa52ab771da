"""The four workloads: their op pools, round mixes and output checks.

A workload is a list of groups.  Each round of the schedule takes
``quota`` ops from every group, cycling through the group's ops in an order
drawn from the seed, and shuffles the round.  Every round therefore has the
same mix of op kinds, so runs on different seeds measure comparable work.

Ops look library functions up on their module at call time, so the tracer's
wrappers see every call.  Checks use only ``reference``, never the library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator

import reference as ref

# The random graphs of minor-membership are drawn once from this seed, so
# that every run sees the same pool and --seed only draws the schedule.
MINOR_POOL_SEED = 20190206


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass(frozen=True)
class Group:
    name: str
    quota: int
    ops: tuple[Op, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[Group, ...]
    trace_ops: int  # ops in each phase of a traced run

    def rounds(self, seed: int) -> Iterator[list[tuple[str, Op]]]:
        rng = random.Random(seed)
        pending: dict[str, list[Op]] = {g.name: [] for g in self.groups}
        while True:
            batch = []
            for g in self.groups:
                for _ in range(g.quota):
                    if not pending[g.name]:
                        order = list(g.ops)
                        rng.shuffle(order)
                        pending[g.name] = order
                    batch.append((g.name, pending[g.name].pop()))
            rng.shuffle(batch)
            yield batch


def _pair(g) -> tuple[int, tuple[int, ...]]:
    return g.n, g.adj


# -- obstruction-verify ---------------------------------------------------------


def _verify_op(lib, label, g, k) -> Op:
    return Op(
        f"check_obstruction({label}, k={k})",
        lambda: lib.obstructions.check_obstruction(g, k),
        lambda out: out.is_obstruction and out.failed_step is None,
    )


def _refute_op(lib, label, g, k, step) -> Op:
    def check(out) -> bool:
        if out.is_obstruction or out.failed_step != step:
            return False
        if step == "membership":
            return True
        # the witness must be a smaller graph that is still outside the class
        w = out.witness
        return (
            w is not None
            and ref.num_edges(w.adj) < ref.num_edges(g.adj)
            and not ref.is_k_apex_subunicyclic(w.n, w.adj, k)
        )

    return Op(
        f"check_obstruction({label}, k={k}) -> {step}",
        lambda: lib.obstructions.check_obstruction(g, k),
        check,
    )


def _forest_count_op(lib, label, g, k) -> Op:
    return Op(
        f"count_forest_apex_sets({label}, {k})",
        lambda: lib.cacti.count_forest_apex_sets(g, k),
        lambda out: out == 1,
    )


def obstruction_verify(lib, root: Path) -> Workload:
    """One round of 112 ops, the same in every run; the seed orders it.

    Sorted by cost, a run is 41 ops under 40 ms, 42 forest counts on Z_4
    members (all alike, about 40 ms), then 29 slower ops with 13 Z_5 checks
    on top: so p50 falls among the Z_4 forest counts and p90 among the Z_5
    checks, each in a class of near-equal ops.
    """
    records = [
        (rec.name, rec.graph, rec.k)
        for k in (0, 1)
        for rec in lib.obstructions.load_catalog(k).records
    ]
    level1 = [r for r in records if r[2] == 1]
    z = {
        j: [(f"Z_{j}[{i}]", b.graph) for i, b in enumerate(lib.cacti.generate_Z(j))]
        for j in range(2, 6)
    }
    groups = {
        # every other Z_5 member, above a tenth of the ops so that p90 reads them
        "z5-obstruction": [_verify_op(lib, name, g, 4) for name, g in z[5][0::2]],
        "z5-forest-count": [_forest_count_op(lib, name, g, 5) for name, g in z[5][1::4]],
        "z4-obstruction": [_verify_op(lib, name, g, 3) for name, g in z[4]],
        "z4-forest-count": [_forest_count_op(lib, name, g, 4) for name, g in z[4]] * 6,
        "z4-refutation": [_refute_op(lib, name, g, 4, "membership") for name, g in z[4]]
        + [_refute_op(lib, name, g, 2, "minimality") for name, g in z[4]],
        "small-obstruction": [_verify_op(lib, name, g, j - 1) for j in (2, 3) for name, g in z[j]],
        "record-obstruction": [
            _verify_op(lib, name, g, k) for name, g, k in records[:3] + level1[0::2]
        ],
        "record-refutation": [
            _refute_op(lib, name, g, k + 1, "membership") for name, g, k in records[1::8]
        ] + [
            _refute_op(lib, name, g, k - 1, "minimality") for name, g, k in level1[3::8]
        ],
    }
    return Workload(
        "obstruction-verify",
        tuple(Group(name, len(ops), tuple(ops)) for name, ops in groups.items()),
        trace_ops=40,
    )


# -- enumerate-generate ------------------------------------------------------------


def _search_op(lib, root, k, max_n, connected) -> Op:
    expected = []

    def check(cat) -> bool:
        if not expected:
            expected.append(sorted(
                ref.certificate(n, adj)
                for n, adj in ref.catalog(root, k)
                if n <= max_n and (not connected or ref.is_connected(n, adj))
            ))
        found = sorted(ref.certificate(*_pair(rec.graph)) for rec in cat.records)
        return found == expected[0]

    return Op(
        f"search_obstructions(k={k}, max_n={max_n}, connected_only={connected})",
        lambda: lib.obstructions.search_obstructions(k, max_n, connected_only=connected),
        check,
    )


def _generate_z_op(lib, k) -> Op:
    def check(members) -> bool:
        if len(members) != ref.PRINTED_T[k]:
            return False
        for b in members:
            n, adj = _pair(b.graph)
            if n != 4 * k + 1 or not ref.is_triangle_cactus(n, adj):
                return False
            if len(b.central_vertices) != k or not ref.is_forest_without(
                adj, n, b.central_vertices
            ):
                return False
        return ref.pairwise_distinct([_pair(b.graph) for b in members])

    return Op(f"generate_Z({k})", lambda: lib.cacti.generate_Z(k), check)


def _disconnected_op(lib, k) -> Op:
    def member_ok(n, adj) -> bool:
        comps = ref.component_graphs(n, adj)
        if len(comps) < 2:
            return False
        if len(comps) == k + 2 and all(c == (3, (6, 5, 3)) for c in comps):
            return True  # the exceptional (k+2) disjoint triangles
        levels = 0
        for cn, cadj in comps:
            if cn % 4 != 1 or not ref.is_triangle_cactus(cn, cadj):
                return False
            levels += (cn - 1) // 4
        return levels == k + 1

    def check(graphs) -> bool:
        expected = ref.PRINTED_G[k + 1] - ref.PRINTED_T[k + 1] + 1
        pairs = [_pair(g) for g in graphs]
        return (
            len(pairs) == expected
            and all(member_ok(n, adj) for n, adj in pairs)
            and ref.pairwise_distinct(pairs)
        )

    return Op(
        f"disconnected_obstructions({k})",
        lambda: lib.cacti.disconnected_obstructions(k),
        check,
    )


def enumerate_generate(lib, root: Path) -> Workload:
    """Five rounds of 20.  Sorted by cost, a run is 70 cheap ops, 5
    disconnected_obstructions(4), 5 generate_Z(5), 15 searches to n<=6 and 5
    heavy ops, so p50 falls among the cheap ops and p90 among the searches."""
    variants = [(k, c) for k in (0, 1) for c in (False, True)]
    # the four searches to n<=7 and generate_Z(6), each once in a run
    heavy = tuple(_search_op(lib, root, k, 7, c) for k, c in variants) + (_generate_z_op(lib, 6),)
    return Workload(
        "enumerate-generate",
        (
            Group("heavy", 1, heavy),
            Group("search-n6", 3, tuple(_search_op(lib, root, k, 6, c) for k, c in variants)),
            Group("generate-z5", 1, (_generate_z_op(lib, 5),)),
            Group("disconnected-4", 1, (_disconnected_op(lib, 4),)),
            Group("generate-z4", 5, (_generate_z_op(lib, 4),)),
            Group("disconnected-3", 5, (_disconnected_op(lib, 3),)),
            Group("disconnected-2", 4, (_disconnected_op(lib, 2),)),
        ),
        trace_ops=40,
    )


# -- minor-membership -----------------------------------------------------------------


def _random_graph(lib, rng: random.Random, n: int):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = rng.uniform(0.15, 0.4)
    return lib.graphs.Graph(n, rng.sample(pairs, round(density * len(pairs))))


def _minor_op(lib, i, g, k, catalog) -> Op:
    # g has a minor in the complete obstruction set of level k exactly when it
    # is not k-apex sub-unicyclic (the k=1 catalog is complete up to 8 vertices)
    return Op(
        f"any_minor(g{i}: n={g.n} m={g.num_edges()}, catalog k={k})",
        lambda: any(lib.minors.is_minor(h, g) for h in catalog),
        lambda out: out == (not ref.is_k_apex_subunicyclic(g.n, g.adj, k)),
    )


def minor_membership(lib, root: Path) -> Workload:
    """A pool of 17 graphs, the whole pool per round, six rounds (102 ops).

    Six runs of each graph make every graph a class of near-equal ops, and
    with 17 graphs p50 (rank 51.5) and p90 (rank 92.7) fall inside one.
    """
    rng = random.Random(MINOR_POOL_SEED)
    groups = []
    for k, sizes, count in ((0, (8, 9), 9), (1, (6, 7, 8), 8)):
        catalog = [rec.graph for rec in lib.obstructions.load_catalog(k).records]
        ops = tuple(
            _minor_op(lib, i, _random_graph(lib, rng, rng.choice(sizes)), k, catalog)
            for i in range(count)
        )
        groups.append(Group(f"minor-k{k}", len(ops), ops))
    return Workload("minor-membership", tuple(groups), trace_ops=34)


# -- series-asymptotics ------------------------------------------------------------------


def _enumerate_op(lib, N) -> Op:
    def check(table) -> bool:
        return len(table) == N + 1 and all(
            table[n] == (n, ref.PRINTED_T[n], ref.PRINTED_G[n])
            for n in range(len(ref.PRINTED_T))
        )

    return Op(
        f"coefficient_table(solve_system({N}))",
        lambda: lib.series.coefficient_table(lib.series.solve_system(N)),
        check,
    )


def _asymptotics_op(lib) -> Op:
    def check(report) -> bool:
        return (
            abs(report["rho"] - ref.RHO) <= ref.RHO_ABS_TOL
            and abs(report["c_T"] / ref.C_T - 1) <= ref.C_REL_TOL
            and abs(report["c_G"] / ref.C_G - 1) <= ref.C_REL_TOL
        )

    return Op(
        "asymptotics_report(solve_system(64))",
        lambda: lib.asymptotics.asymptotics_report(lib.series.solve_system(64)),
        check,
    )


def series_asymptotics(lib, root: Path) -> Workload:
    """One round of 100: 11 asymptotics ops, so p90 reads them, and 89
    enumerate ops, about 30 at each N, so p50 falls among the N=72 ones."""
    return Workload(
        "series-asymptotics",
        (
            Group("asymptotics", 11, (_asymptotics_op(lib),)),
            Group("enumerate", 89, tuple(_enumerate_op(lib, N) for N in (64, 72, 80))),
        ),
        trace_ops=30,
    )


BY_NAME = {
    "obstruction-verify": obstruction_verify,
    "enumerate-generate": enumerate_generate,
    "minor-membership": minor_membership,
    "series-asymptotics": series_asymptotics,
}


def load_library(root: Path) -> SimpleNamespace:
    """Import apexobs from the checkout's src/ and refuse any other copy."""
    import importlib
    import sys

    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import apexobs

    if not Path(apexobs.__file__).resolve().is_relative_to(src):
        raise ImportError(f"apexobs imported from {apexobs.__file__}, not from {src}")
    names = ("graphs", "canonical", "minors", "graphio", "obstructions", "cacti",
             "series", "asymptotics")
    return SimpleNamespace(**{n: importlib.import_module(f"apexobs.{n}") for n in names})
