from __future__ import annotations

import networkx as nx
import pytest

from apexobs.graphio import (
    from_edgelist,
    from_graph6,
    load_graph,
    to_edgelist,
    to_graph6,
    read_graph6_file,
    write_graph6_file,
)
from apexobs.graphs import Graph, complete_graph, cycle_graph, make_named, path_graph

from conftest import random_graph


class TestGraph6:
    def test_known_strings(self):
        # values fixed by the format definition
        assert to_graph6(complete_graph(4)) == "C~"
        assert to_graph6(Graph(0)) == "?"
        assert to_graph6(Graph(1)) == "@"
        assert to_graph6(path_graph(3)) == "Bg"
        assert to_graph6(cycle_graph(4)) == "Cl"

    def test_roundtrip(self, rng):
        for _ in range(120):
            g = random_graph(rng, rng.randint(0, 20), rng.random())
            assert from_graph6(to_graph6(g)) == g

    def test_bit_exact_against_networkx(self, rng):
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 15), rng.random())
            G = nx.Graph()
            G.add_nodes_from(range(g.n))
            G.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(G, header=False).decode().strip()
            assert to_graph6(g) == theirs
            back = nx.from_graph6_bytes(to_graph6(g).encode())
            assert set(back.edges()) == {tuple(e) for e in g.edges()} or (
                nx.is_isomorphic(back, G)
            )

    def test_header_tolerated(self):
        assert from_graph6(">>graph6<<C~") == complete_graph(4)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            from_graph6("")
        with pytest.raises(ValueError):
            from_graph6("C~~~~")
        with pytest.raises(ValueError):
            from_graph6("C\x05")

    def test_padding_bits_rejected(self):
        # 'Bw' is K3 with its three padding bits clear; 'Bx' sets the last
        with pytest.raises(ValueError, match="padding bits"):
            from_graph6("Bx")
        assert from_graph6("Bw") == complete_graph(3)

    def test_long_form_rejected(self):
        # a first byte of 126 ('~') announces a vertex count above 62
        with pytest.raises(ValueError, match=r"long graph6 form \(n > 62\) not supported"):
            from_graph6("~??~" + "?" * 10)

    def test_file_roundtrip(self, tmp_path, rng):
        graphs = [random_graph(rng, rng.randint(0, 12), 0.4) for _ in range(10)]
        path = tmp_path / "batch.g6"
        write_graph6_file(str(path), graphs)
        assert read_graph6_file(str(path)) == graphs


class TestEdgeList:
    def test_roundtrip(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(0, 12), rng.random())
            assert from_edgelist(to_edgelist(g)) == g

    def test_format_shape(self):
        text = to_edgelist(make_named("K3"))
        lines = text.strip().splitlines()
        assert lines[0] == "3 3"
        assert lines[1:] == ["0 1", "0 2", "1 2"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^empty edge list$"):
            from_edgelist("\n  \n")

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError):
            from_edgelist("2 2\n0 1\n")

    @pytest.mark.parametrize(
        "text,lines",
        [
            ("3 3\n0 1\n1 0\n1 2\n", (2, 3)),    # reversed: the header's 3 edges are 2
            ("3 3\n0 1\n1 2\n\n0 1\n", (2, 5)),  # same orientation, after a blank line
        ],
    )
    def test_repeated_edge_rejected(self, text, lines):
        with pytest.raises(ValueError, match=f"lines {lines[0]} and {lines[1]}: .* repeated"):
            from_edgelist(text)


def test_load_graph_rejects_an_unknown_format(tmp_path):
    path = tmp_path / "k4.g6"
    path.write_text("C~\n")
    assert load_graph(str(path)) == complete_graph(4)
    with pytest.raises(ValueError, match="^unknown format 'dot'$"):
        load_graph(str(path), "dot")


def test_load_graph_takes_one_graph6_line(tmp_path):
    # blank lines around the one graph are fine; a second graph is an error,
    # not silently dropped
    path = tmp_path / "k4.g6"
    path.write_text("\nC~\n\n")
    assert load_graph(str(path)) == complete_graph(4)
    path.write_text("C~\nBw\n")
    with pytest.raises(ValueError, match="^2 non-blank lines; a graph6 file holds one graph$"):
        load_graph(str(path))
