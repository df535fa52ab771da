"""Obstruction search, and the structural conditions every obstruction meets.

Every obstruction has minimum degree 2, no bridges, and adjacent neighbors
around every degree-2 vertex.  Every k-obstruction is also a core of
cyclomatic number 2 plus k apex vertices, so the search grows those cores
one vertex at a time, meeting the two degree conditions as it goes,
instead of enumerating every graph.  Searching up to
6 vertices at level 0 rediscovers the three base obstructions; searching
up to 7 vertices at level 1 finds exactly the catalog members of that
size, and up to 10 vertices all 29.

Run:  python demos/03_search_and_structure.py   (about 10 seconds)
"""

import time

from apexobs import load_catalog, search_obstructions, structural_filters, to_graph6
from apexobs.graphs import cycle_graph, make_named, path_graph
from apexobs.obstructions import same_graph_sets

print("structural filters:")
for g, label in ((make_named("Z"), "butterfly"), (path_graph(3), "path P3"),
                 (cycle_graph(4), "cycle C4")):
    rep = structural_filters(g)
    print(f"  {label:10s} min-deg-2={rep.min_degree_two}  bridgeless={rep.bridgeless}"
          f"  deg2-adjacent={rep.degree_two_neighbors_adjacent}  -> passed={rep.passed}")

print("\nsearch k=0, n <= 6:")
t0 = time.time()
cat = search_obstructions(0, 6)
for rec in cat.records:
    print(f"  {to_graph6(rec.graph):8s} n={rec.graph.n} m={rec.graph.num_edges()}")
print(f"  ({time.time()-t0:.1f}s)")

print("\nsearch k=1, n <= 7 (level-1 obstructions with at most 7 vertices):")
t0 = time.time()
found = search_obstructions(1, 7)
small = [r.graph for r in load_catalog(1).records if r.graph.n <= 7]
print(f"  found {len(found.records)}, catalog holds {len(small)} of that size, "
      f"exact match: {same_graph_sets([r.graph for r in found.records], small)}")
print(f"  candidates: {found.candidates}")
print(f"  ({time.time()-t0:.1f}s)")

print("\nsearch k=1, n <= 10 (the whole catalog):")
t0 = time.time()
found = search_obstructions(1, 10)
every = [r.graph for r in load_catalog(1).records]
print(f"  found {len(found.records)}, catalog holds {len(every)}, "
      f"exact match: {same_graph_sets([r.graph for r in found.records], every)}")
print(f"  ({time.time()-t0:.1f}s)")
