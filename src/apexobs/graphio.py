"""Graph serialization: graph6 and a plain edge-list text format.

graph6 follows the standard encoding (6-bit groups offset by 63, upper
triangle in column-major order).  Only the short form is needed since all
graphs here have at most 32 vertices.

The edge-list format is a header line ``n m`` followed by m lines ``u v``
with 0-indexed endpoints, each edge on one line only.
"""

from __future__ import annotations

from .graphs import Graph


def to_graph6(g: Graph) -> str:
    if g.n > 62:
        raise ValueError("short graph6 form supports at most 62 vertices")
    bits: list[int] = []
    for col in range(1, g.n):
        for row in range(col):
            bits.append(g.adj[col] >> row & 1)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def from_graph6(text: str) -> Graph:
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in text]
    if any(d < 0 or d > 63 for d in data):
        raise ValueError(f"invalid graph6 characters in {text!r}")
    n = data[0]
    if n == 63:
        raise ValueError("long graph6 form (n > 62) not supported")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - 1 != need:
        raise ValueError(f"graph6 length mismatch: got {len(data)-1} groups, need {need}")
    bitstream = []
    for d in data[1:]:
        for shift in range(5, -1, -1):
            bitstream.append((d >> shift) & 1)
    if any(bitstream[n * (n - 1) // 2:]):
        raise ValueError(f"graph6 padding bits set in {text!r}")
    edges = []
    i = 0
    for col in range(1, n):
        for row in range(col):
            if bitstream[i]:
                edges.append((row, col))
            i += 1
    return Graph(n, edges)


def read_graph6_file(path: str) -> list[Graph]:
    graphs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                graphs.append(from_graph6(line))
    return graphs


def write_graph6_file(path: str, graphs: list[Graph]) -> None:
    with open(path, "w") as fh:
        for g in graphs:
            fh.write(to_graph6(g) + "\n")


def to_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _int_pair(lineno: int, line: str, form: str) -> tuple[int, int]:
    """The two ints of an edge-list line; ``ValueError`` naming the line otherwise."""
    try:
        a, b = map(int, line.split())
    except ValueError:
        raise ValueError(
            f"edge list line {lineno}: expected {form!r}, got {line.strip()!r}"
        ) from None
    return a, b


def from_edgelist(text: str) -> Graph:
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("empty edge list")
    n, m = _int_pair(*lines[0], "n m")
    if len(lines) - 1 != m:
        raise ValueError(f"edge-list header promises {m} edges, found {len(lines)-1}")
    first: dict[tuple[int, int], int] = {}  # edge, either orientation -> its line
    for i, ln in lines[1:]:
        u, v = _int_pair(i, ln, "u v")
        j = first.setdefault((min(u, v), max(u, v)), i)
        if j != i:
            raise ValueError(f"edge list lines {j} and {i}: edge {u} {v} repeated")
    return Graph(n, first)


def load_graph(path: str, fmt: str = "g6") -> Graph:
    """Read one graph from a file in the given format ('g6' or 'edgelist').
    A g6 file holds one non-blank line: a file of several graphs is rejected,
    not read as its first one."""
    with open(path) as fh:
        text = fh.read()
    if fmt == "g6":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("no graph in the file")
        if len(lines) > 1:
            raise ValueError(f"{len(lines)} non-blank lines; a graph6 file holds one graph")
        return from_graph6(lines[0])
    if fmt == "edgelist":
        return from_edgelist(text)
    raise ValueError(f"unknown format {fmt!r}")
