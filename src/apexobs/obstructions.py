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
from typing import Iterable

from .canonical import canonical_form, graphs_up_to
from .graphio import from_graph6, to_graph6
from .graphs import (
    ClassId,
    Graph,
    _one_step_children,
    bridges,
    has_apex_set_within,
    is_connected,
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


def check_obstruction(g: Graph, k: int, cls: ClassId = ClassId.SUB_UNICYCLIC) -> ObstructionCheck:
    """Test minor-minimality of g outside the k-apex class, with diagnostics.

    membership step: g must NOT be k-apex (min_apex_size > k);
    minimality step: every one-step minor must be k-apex.  The raw children
    are tested in generation order, with no canonical form: isomorphic
    children get the same verdict, so repeats cost a test but change no
    outcome, and the witness is the first child that is not k-apex.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if has_apex_set_within(g, cls, k):
        return ObstructionCheck(False, failed_step="membership")
    for child in _one_step_children(g):
        if not has_apex_set_within(child, cls, k):
            return ObstructionCheck(False, failed_step="minimality", witness=child)
    return ObstructionCheck(True)


def is_obstruction(g: Graph, k: int, cls: ClassId = ClassId.SUB_UNICYCLIC) -> bool:
    """True iff g is minor-minimal among graphs outside the k-apex class."""
    return check_obstruction(g, k, cls).is_obstruction


# -- structural necessary conditions ------------------------------------------


@dataclass(frozen=True)
class FilterReport:
    """The three necessary conditions every obstruction satisfies."""

    min_degree_two: bool
    bridgeless: bool
    degree_two_neighbors_adjacent: bool

    @property
    def passed(self) -> bool:
        return self.min_degree_two and self.bridgeless and self.degree_two_neighbors_adjacent


def structural_filters(g: Graph) -> FilterReport:
    min_deg = all(g.degree(v) >= 2 for v in range(g.n))
    no_bridge = not bridges(g)
    deg2_ok = True
    for v in range(g.n):
        if g.degree(v) == 2:
            a, b = g.neighbors(v)
            if not g.has_edge(a, b):
                deg2_ok = False
                break
    return FilterReport(min_deg, no_bridge, deg2_ok)


# -- catalog I/O ---------------------------------------------------------------


def _data_dir() -> str | None:
    return os.environ.get(DATA_ENV_VAR)


def load_catalog(k: int = 1) -> Catalog:
    """Load the shipped obstruction catalog for the k-apex sub-unicyclic class.

    The data directory can be overridden with the APEXOBS_DATA environment
    variable (expects obs_k{k}.g6 plus obs_k{k}.json).
    """
    if k not in (0, 1) and _data_dir() is None:
        raise FileNotFoundError(f"no shipped catalog for k={k}")
    base = _data_dir()
    if base is not None:
        g6_path = os.path.join(base, f"obs_k{k}.g6")
        json_path = os.path.join(base, f"obs_k{k}.json")
        with open(g6_path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        with open(json_path) as fh:
            manifest = json.load(fh)
    else:
        pkg = resources.files("apexobs.data")
        lines = [
            ln.strip()
            for ln in (pkg / f"obs_k{k}.g6").read_text().splitlines()
            if ln.strip()
        ]
        manifest = json.loads((pkg / f"obs_k{k}.json").read_text())
    metas = manifest["records"]
    if len(metas) != len(lines):
        raise ValueError(
            f"catalog corrupt: {len(lines)} graphs but {len(metas)} manifest records"
        )
    records = []
    for meta, line in zip(metas, lines):
        fig = f"{meta.get('figure', '?')}, row {meta.get('row')}, col {meta.get('col')}"
        records.append(
            ObstructionRecord(
                name=meta["name"],
                graph=from_graph6(line),
                k=manifest["k"],
                figure=fig,
            )
        )
    return Catalog(
        k=manifest["k"],
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
    }


def verify_catalog(cat: Catalog) -> VerificationReport:
    """Run the obstruction test on every record; refutations are data, not errors."""
    t0 = time.perf_counter()
    results = [verify_record(rec) for rec in cat.records]
    return VerificationReport(cat.k, results, time.perf_counter() - t0)


# -- exhaustive search ----------------------------------------------------------


def search_obstructions(
    k: int,
    max_n: int,
    connected_only: bool = False,
    budget_seconds: float | None = None,
) -> Catalog:
    """Find all k-apex sub-unicyclic obstructions with at most max_n vertices.

    Candidates are every graph up to max_n vertices up to isomorphism, pruned
    by the three structural necessary conditions (min degree 2, bridgeless,
    degree-2 vertices with adjacent neighbors) before the full test.  The
    filters are applied at the final size only; they are not hereditary.
    """
    t0 = time.perf_counter()
    candidates = [
        g
        for g in graphs_up_to(max_n)
        if (not connected_only or is_connected(g)) and structural_filters(g).passed
    ]
    complete = True
    found: list[Graph] = []
    for g in candidates:
        if budget_seconds is not None and time.perf_counter() - t0 > budget_seconds:
            complete = False
            break
        if is_obstruction(g, k):
            found.append(g)
    found.sort(key=canonical_form)
    records = [
        ObstructionRecord(
            name=f"S{g.n}_{i+1:02d}",
            graph=g,
            k=k,
            status=Status.VERIFIED,
            provenance=Provenance.SEARCH,
        )
        for i, g in enumerate(found)
    ]
    return Catalog(
        k=k,
        records=records,
        claimed_complete=complete,
        source_note=f"exhaustive search over all graphs with <= {max_n} vertices"
        + (" (connected only)" if connected_only else ""),
    )


def same_graph_sets(a: Iterable[Graph], b: Iterable[Graph]) -> bool:
    """Set equality up to isomorphism."""
    return sorted(canonical_form(g) for g in a) == sorted(canonical_form(g) for g in b)
