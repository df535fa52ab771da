"""Minor-obstruction verification, catalogs, and exhaustive search.

A graph g is an obstruction for the k-apex sub-unicyclic class iff g itself
needs more than k deletions to become sub-unicyclic while every one-step
minor needs at most k.  The shipped catalogs (k=0: 3 graphs, k=1: 29 graphs)
were transcribed from the source figures; ``verify_catalog`` re-checks every
record from scratch, so a transcription error shows up as a refutation.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .canonical import _iso_classes, canonical_form, canonical_graph
from .graphio import from_graph6, to_graph6
from .graphs import (
    MAX_VERTICES,
    ClassId,
    Graph,
    _RANK_LIMIT,
    _apex_search,
    _child_rows,
    _cycle_rank,
    _induced,
    _rank_drop,
    _strip,
    bridges,
    component_masks,
    cyclomatic,
    has_apex_set_within,
    is_connected,
    popcount,
)

DATA_ENV_VAR = "APEXOBS_DATA"


class Status(Enum):
    UNVERIFIED = "unverified"
    VERIFIED = "verified"
    REFUTED = "refuted"


class Provenance(Enum):
    CATALOG = "catalog"
    SEARCH = "search"


@dataclass
class ObstructionRecord:
    name: str
    graph: Graph
    k: int
    cls: ClassId = ClassId.SUB_UNICYCLIC
    status: Status = Status.UNVERIFIED
    provenance: Provenance = Provenance.CATALOG
    figure: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "graph6": to_graph6(self.graph),
            "n": self.graph.n,
            "m": self.graph.num_edges(),
            "k": self.k,
            "class": self.cls.value,
            "status": self.status.value,
            "provenance": self.provenance.value,
            **({"figure": self.figure} if self.figure else {}),
        }


@dataclass
class Catalog:
    k: int
    records: list[ObstructionRecord]
    claimed_complete: bool = False
    source_note: str = ""
    candidates: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        forms = {}
        for rec in self.records:
            f = canonical_form(rec.graph)
            if f in forms:
                raise ValueError(f"records {forms[f]} and {rec.name} are isomorphic")
            forms[f] = rec.name
        names = [r.name for r in self.records]
        if len(set(names)) != len(names):
            raise ValueError("duplicate record names")

    def __len__(self) -> int:
        return len(self.records)


# -- the membership/minimality test ------------------------------------------


@dataclass(frozen=True)
class ObstructionCheck:
    """Outcome of an obstruction test, recording which step failed."""

    is_obstruction: bool
    failed_step: str | None = None  # "membership" | "minimality" | None
    witness: Graph | None = None    # offending one-step minor, if minimality failed
    children_searched: int = 0      # children that needed an apex search of their own


def check_obstruction(g: Graph, k: int, cls: ClassId = ClassId.SUB_UNICYCLIC) -> ObstructionCheck:
    """Test minor-minimality of g outside the k-apex class, with diagnostics.

    membership step: g must NOT be k-apex (min_apex_size > k);
    minimality step: every one-step minor must be k-apex.  The raw children
    of ``_child_rows`` are tested in generation order, in g's own labels
    and with no canonical form.  Each child first tries the deletion sets
    found for its siblings, most recently useful first: a set has at most k
    vertices, so one that lands the child in the class proves it k-apex.
    Only a child that no set settles gets an apex search of budget k, and
    the first child it refutes, the first that is not k-apex, is built as
    the witness.

    A set s is stored with cyc(g - s).  For FOREST and SUB_UNICYCLIC, the
    classes of cycle rank at most t, the child minus s lands iff that rank
    minus ``graphs._rank_drop`` is at most t; where the drop has no answer
    (a contraction with an end in s), and for PSEUDOFOREST and CACTUS, the
    apex search at budget 0 decides.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if has_apex_set_within(g, cls, k):
        return ObstructionCheck(False, failed_step="membership")
    adj, full = g.adj, (1 << g.n) - 1
    t = _RANK_LIMIT.get(cls)
    sets: list[tuple[int, int]] = []  # (s, cyc(g - s))
    searched = 0
    for rows, alive, edge in _child_rows(g):
        for i, (s, rank) in enumerate(sets):
            drop = None if t is None else _rank_drop(adj, rows, alive, edge, s)
            if (rank - drop <= t if drop is not None
                    else _apex_search(rows, *_strip(rows, alive & ~s), cls, 0, {}) is not None):
                if i:
                    sets.insert(0, sets.pop(i))
                break
        else:
            searched += 1
            s = _apex_search(rows, *_strip(rows, alive), cls, k, {})
            if s is None:
                witness = _induced(rows, alive)
                return ObstructionCheck(False, "minimality", witness, children_searched=searched)
            sets.insert(0, (s, _cycle_rank(adj, full & ~s)))
    return ObstructionCheck(True, children_searched=searched)


def is_obstruction(g: Graph, k: int, cls: ClassId = ClassId.SUB_UNICYCLIC) -> bool:
    """True iff g is minor-minimal among graphs outside the k-apex class."""
    return check_obstruction(g, k, cls).is_obstruction


# -- structural necessary conditions ------------------------------------------


@dataclass(frozen=True)
class FilterReport:
    """The three necessary conditions every obstruction satisfies."""

    min_degree_two: bool
    degree_two_neighbors_adjacent: bool
    bridgeless: bool

    @property
    def passed(self) -> bool:
        return self.min_degree_two and self.degree_two_neighbors_adjacent and self.bridgeless


def _adjacent_pair(adj: tuple[int, ...], pair: int) -> bool:
    """Whether the two vertices of the mask ``pair`` are adjacent."""
    low = pair & -pair
    return bool(adj[low.bit_length() - 1] & (pair ^ low))


def structural_filters(g: Graph) -> FilterReport:
    adj = g.adj
    return FilterReport(
        all(popcount(row) >= 2 for row in adj),
        all(_adjacent_pair(adj, row) for row in adj if popcount(row) == 2),
        not bridges(g),
    )


# -- catalog I/O ---------------------------------------------------------------


def load_catalog(k: int = 1) -> Catalog:
    """Load the obstruction catalog for the k-apex sub-unicyclic class.

    A catalog is obs_k{k}.g6 plus obs_k{k}.json, read from the directory
    named by the APEXOBS_DATA environment variable, else from the package
    data; a level without obs_k{k}.g6 raises FileNotFoundError, and a
    corrupt catalog (a manifest whose "k" is not k, a missing or ill-typed
    field, a record count that is not the graph count) raises ValueError.
    """
    base = os.environ.get(DATA_ENV_VAR)
    data = Path(base) if base is not None else resources.files("apexobs.data")
    g6 = (data / f"obs_k{k}.g6").read_text()
    lines = [ln.strip() for ln in g6.splitlines() if ln.strip()]
    where = f"obs_k{k}.json"
    manifest = json.loads((data / where).read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"catalog corrupt: {where} is not a JSON object")
    if manifest.get("k") != k:
        raise ValueError(f"catalog corrupt: {where} holds the k={manifest.get('k')} manifest")
    metas = manifest.get("records")
    if not isinstance(metas, list):
        raise ValueError(f'catalog corrupt: {where} has no "records" list')
    if len(metas) != len(lines):
        raise ValueError(
            f"catalog corrupt: {len(lines)} graphs but {len(metas)} manifest records"
        )
    records = []
    for i, (meta, line) in enumerate(zip(metas, lines)):
        if not isinstance(meta, dict) or "name" not in meta:
            raise ValueError(f'catalog corrupt: record {i} of {where} has no "name"')
        fig = f"{meta.get('figure', '?')}, row {meta.get('row')}, col {meta.get('col')}"
        records.append(
            ObstructionRecord(
                name=meta["name"],
                graph=from_graph6(line),
                k=k,
                figure=fig,
            )
        )
    return Catalog(
        k=k,
        records=records,
        claimed_complete=manifest.get("claimed_complete", False),
        source_note=manifest.get("source_note", ""),
    )


# -- verification --------------------------------------------------------------


@dataclass
class VerificationReport:
    k: int
    results: list[dict] = field(default_factory=list)
    runtime_seconds: float = 0.0

    @property
    def verified(self) -> int:
        return sum(1 for r in self.results if r["status"] == "verified")

    @property
    def refuted(self) -> list[dict]:
        return [r for r in self.results if r["status"] == "refuted"]

    @property
    def all_verified(self) -> bool:
        return self.verified == len(self.results)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "total": len(self.results),
            "verified": self.verified,
            "refuted": [r["name"] for r in self.refuted],
            "runtime_seconds": round(self.runtime_seconds, 3),
            "records": self.results,
        }

    def to_text(self) -> str:
        lines = [f"catalog verification, k={self.k}"]
        for r in self.results:
            mark = "ok " if r["status"] == "verified" else "XXX"
            extra = f"  [{r['failed_step']}]" if r.get("failed_step") else ""
            lines.append(
                f"  {mark} {r['name']:8s} n={r['n']:2d} m={r['m']:2d} "
                f"{r['seconds']:7.3f}s{extra}"
            )
        lines.append(
            f"{self.verified}/{len(self.results)} verified "
            f"in {self.runtime_seconds:.1f}s"
        )
        return "\n".join(lines)


def verify_record(rec: ObstructionRecord) -> dict:
    t0 = time.perf_counter()
    outcome = check_obstruction(rec.graph, rec.k, rec.cls)
    rec.status = Status.VERIFIED if outcome.is_obstruction else Status.REFUTED
    return {
        "name": rec.name,
        "n": rec.graph.n,
        "m": rec.graph.num_edges(),
        "status": rec.status.value,
        "failed_step": outcome.failed_step,
        "witness": None if outcome.witness is None else to_graph6(outcome.witness),
        "seconds": time.perf_counter() - t0,
        "children_searched": outcome.children_searched,
    }


def verify_catalog(cat: Catalog) -> VerificationReport:
    """Run the obstruction test on every record; refutations are data, not errors."""
    t0 = time.perf_counter()
    results = [verify_record(rec) for rec in cat.records]
    return VerificationReport(cat.k, results, time.perf_counter() - t0)


# -- exhaustive search ----------------------------------------------------------


def _twin_classes(adj: tuple[int, ...]) -> list[list[int]]:
    """The twin classes of the rows ``adj``, each ascending, by first vertex.

    u and v are twins iff N(u) - v = N(v) - u: equal rows if they are not
    adjacent, equal closed rows if they are.  No vertex has twins of both
    kinds (u ~ v adjacent and v ~ w not would make w adjacent to v), so the
    relation is an equivalence, and every permutation inside a class is an
    automorphism.  Only isolated vertices are twins across components.
    """
    open_rows: dict[int, list[int]] = {}
    closed_rows: dict[int, list[int]] = {}
    for v, row in enumerate(adj):
        open_rows.setdefault(row, []).append(v)
        closed_rows.setdefault(row | 1 << v, []).append(v)
    classes = [vs for vs in open_rows.values() if len(vs) > 1]
    classes += [vs for vs in closed_rows.values() if len(vs) > 1]
    twinned = {v for vs in classes for v in vs}
    classes += [[v] for v in range(len(adj)) if v not in twinned]
    return sorted(classes)


def _prefix_picks(units: list[list[int]], cap: int) -> list[tuple[int, int]]:
    """(mask, size) of every set of at most ``cap`` vertices that takes a
    prefix of each unit, the empty set first."""
    picks = [(0, 0)]
    for vs in units:
        grown = []
        for mask, size in picks:
            grown.append((mask, size))
            for v in vs[: cap - size]:
                mask |= 1 << v
                size += 1
                grown.append((mask, size))
        picks = grown
    return picks


def _joins(adj: tuple[int, ...], later: int) -> tuple[int, list[list[int]]] | None:
    """The vertices a new vertex must join, and the twin classes it may join.

    ``later`` vertices still come after the new one, and each adds at most
    one edge per vertex, so every vertex needs degree 2 - later once the new
    vertex is in: one a single edge short must join it, and one two short
    leaves no extension (None).  With ``later`` = 0 the extension is a
    finished candidate, which must pass the degree filters: a degree-2
    vertex with non-adjacent neighbours must join, and so must the neighbour
    of a degree-1 vertex, whose two neighbours must become adjacent.  The
    forced set is invariant under automorphisms, so a twin class is all
    forced or all free.
    """
    floor = 2 - later
    forced = 0
    for v, row in enumerate(adj):
        d = popcount(row)
        if d < floor - 1:
            return None
        if d < floor:
            forced |= 1 << v | (row if later == 0 else 0)
        elif later == 0 and d == 2 and not _adjacent_pair(adj, row):
            forced |= 1 << v
    return forced, [vs for vs in _twin_classes(adj) if not forced >> vs[0] & 1]


def _degree_ok(adj: tuple[int, ...], nb: int, later: int) -> bool:
    """Whether a new vertex joined to ``nb`` can reach degree 2, and with
    ``later`` = 0 has adjacent neighbours if it has two."""
    size = popcount(nb)
    if later == 0 and size == 2:
        return _adjacent_pair(adj, nb)
    return size >= 2 - later


def _core_extensions(core: Graph, later: int) -> Iterator[Graph]:
    """One-vertex extensions of ``core`` whose cyclomatic number stays <= 2,
    with ``later`` vertices still to come after the new one.

    A new vertex joined to |N| vertices spread over c components raises the
    cyclomatic number by |N| - c, so each touched component gives 1..3
    vertices and the excess sum(|N & C| - 1) is kept within 2 - cyc(core);
    the isolated vertices, one twin class across their components, add no
    excess.  The neighbourhoods obey ``_joins`` and take a prefix of each
    twin class.  With ``later`` = 0 the extension is a candidate, whose
    core has cyclomatic number 2, so the excess must use up the budget.
    """
    adj = core.adj
    joins = _joins(adj, later)
    if joins is None:
        return
    forced, units = joins
    budget = 2 - cyclomatic(core)
    lone = sum(1 << v for v, row in enumerate(adj) if not row)
    groups = [c for c in component_masks(core) if not c & lone]
    choices = [(forced & lone | mask, 0)  # (neighbourhood so far, its excess)
               for mask, _ in _prefix_picks([vs for vs in units if lone >> vs[0] & 1], core.n)]
    for comp in groups:
        base = forced & comp
        taken = popcount(base)
        if taken > budget + 1:
            return
        picks = [(base | mask, max(taken + size - 1, 0)) for mask, size in
                 _prefix_picks([vs for vs in units if comp >> vs[0] & 1], budget + 1 - taken)]
        choices = [(a | b, e + f) for a, e in choices for b, f in picks if e + f <= budget]
    for nb, excess in choices:
        if (later or excess == budget) and _degree_ok(adj, nb, later):
            yield core.add_vertex(nb)


def _apex_extensions(g: Graph, after: int) -> Iterator[Graph]:
    """g plus one apex vertex, with ``after`` apices still to come after it.

    The apex's neighbourhood obeys ``_joins`` and takes a prefix of each
    twin class of g.
    """
    joins = _joins(g.adj, after)
    if joins is None:
        return
    forced, units = joins
    for mask, _ in _prefix_picks(units, g.n):
        if _degree_ok(g.adj, forced | mask, after):
            yield g.add_vertex(forced | mask)


def _candidates(k: int, max_n: int) -> Iterator[Graph]:
    """Raw search candidates: a superset of the k-obstructions on <= max_n vertices.

    Every k-obstruction g has a k-set U with cyclomatic(g - U) = 2.  Take an
    edge e: g - e is k-apex, so g - e - U is sub-unicyclic for some U, padded
    to k vertices; putting e back raises the cycle rank by at most one, and
    g is not k-apex, so cyc(g - U) = 2.  So g is a core H (cyc(H) = 2) plus
    k apex vertices, each joined to any subset of the vertices before it.

    Cores grow by one-vertex extension: the class cyc <= 2 is closed under
    vertex deletion, so every core on m vertices extends one on m - 1.  Each
    core level and each apex layer but the last is deduplicated by canonical
    form; the last layer is yielded raw (with k = 0 the last core extension
    is that raw layer).  Three rules drop what cannot give a new class that
    passes ``structural_filters`` (minimum degree 2, degree-2 vertices with
    adjacent neighbours), so the search checks the same classes:

    1. Degree floor.  A vertex gains at most one edge from each vertex added
       after it, so a graph with ``later`` vertices still to come needs
       minimum degree 2 - later; on core level m that is 2 - k - (top - m).
       Deleting a vertex lowers each degree by at most one, so every graph
       of level m meeting its floor extends one of level m - 1 meeting its
       own, and the levels still hold every core of a candidate.
    2. Last-layer forcing.  The last vertex added finishes the candidate:
       a degree-2 vertex with non-adjacent neighbours must join it, else it
       keeps them; the neighbour of a degree-1 vertex must join, else that
       vertex's two neighbours are not adjacent; and a new vertex of degree
       2 must have adjacent neighbours.
    3. One neighbourhood per twin orbit.  Swaps inside a twin class are
       automorphisms that fix the forced set, the degrees and the
       components, so a neighbourhood and its image give isomorphic graphs
       under the same rules; each orbit of the swaps holds exactly one that
       takes a prefix of every class, and only that one is built.
    """
    top = max_n - k  # largest core size
    level = [Graph(0)]
    for m in range(1, top + 1):
        raw = (ext for core in level for ext in _core_extensions(core, top - m + k))
        if m == top and k == 0:
            yield from raw
            return
        level = _iso_classes(raw).values()
        graphs = [g for g in level if cyclomatic(g) == 2]
        for after in range(k - 1, 0, -1):
            layer = (ext for g in graphs for ext in _apex_extensions(g, after))
            graphs = _iso_classes(layer).values()
        for g in graphs:
            yield from (_apex_extensions(g, 0) if k else [g])


def search_obstructions(
    k: int,
    max_n: int,
    connected_only: bool = False,
    budget_seconds: float | None = None,
) -> Catalog:
    """Find all k-apex sub-unicyclic obstructions with at most max_n vertices.

    Candidates are the graphs of ``_candidates``: a core of cyclomatic
    number 2 plus k apex vertices, which every k-obstruction is.  Each raw
    candidate must pass the structural necessary conditions (min degree 2,
    degree-2 vertices with adjacent neighbors, bridgeless; cheapest first)
    and is deduplicated by canonical form before the full test.  The
    ``candidates`` counts of the catalog say how many were generated, passed
    the filters, were checked and were found.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if not 0 <= max_n <= MAX_VERTICES:
        raise ValueError(f"max_n {max_n} outside 0..{MAX_VERTICES} (the vertex limit)")
    t0 = time.perf_counter()
    counts = dict.fromkeys(("generated", "passed_filters", "checked", "found"), 0)
    complete = True
    seen: set[bytes] = set()
    found: dict[bytes, Graph] = {}
    for g in _candidates(k, max_n):
        counts["generated"] += 1
        if (connected_only and not is_connected(g)) or not structural_filters(g).passed:
            continue
        counts["passed_filters"] += 1
        form = canonical_form(g)
        if form in seen:
            continue
        seen.add(form)
        if budget_seconds is not None and time.perf_counter() - t0 > budget_seconds:
            complete = False
            break
        counts["checked"] += 1
        if is_obstruction(g, k):
            found[form] = canonical_graph(g)
    counts["found"] = len(found)
    records = [
        ObstructionRecord(
            name=f"S{g.n}_{i+1:02d}",
            graph=g,
            k=k,
            status=Status.VERIFIED,
            provenance=Provenance.SEARCH,
        )
        for i, g in enumerate(found[form] for form in sorted(found))
    ]
    return Catalog(
        k=k,
        records=records,
        claimed_complete=complete,
        source_note=f"search over the graphs with <= {max_n} vertices that are a core of "
        f"cyclomatic number 2 plus {k} apex vertices (every {k}-obstruction g has a "
        f"{k}-set U with cyclomatic(g - U) = 2)"
        + (" (connected only)" if connected_only else ""),
        candidates=counts,
    )


def same_graph_sets(a: Iterable[Graph], b: Iterable[Graph]) -> bool:
    """Set equality up to isomorphism."""
    return sorted(canonical_form(g) for g in a) == sorted(canonical_form(g) for g in b)
