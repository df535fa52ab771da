from __future__ import annotations

import random

import pytest

from apexobs.graphs import Graph


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240611)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def add_twins_and_pendants(rng: random.Random, g: Graph, extra: int) -> Graph:
    """g plus `extra` new vertices, each a copy of a random vertex (with or
    without the edge to it) or a pendant vertex hanging off one."""
    for _ in range(extra):
        v = rng.randrange(g.n)
        kind = rng.choice(("twin", "true twin", "pendant"))
        nb = 1 << v if kind == "pendant" else g.adj[v] | (1 << v if kind == "true twin" else 0)
        g = g.add_vertex(nb)
    return g
