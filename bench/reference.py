"""Reference maxima M^e(L, w) computed with networkx, apart from cacforge.

    python3 bench/reference.py            # recompute bench/reference_maxima.json

The disjointness graph is built here from scratch: one vertex per
distinct difference set {+-jg mod L : 1 <= j <= w-1} of a generator g
with at least w distinct multiples, an edge between two vertices whose
sets are disjoint. A maximum clique of it is a maximum equi-difference
CAC. networkx is needed only to recompute the file, never to run the
benchmark.
"""

from __future__ import annotations

import json
import sys
import time
from math import gcd
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference_maxima.json")
INSTANCES = [(157, 4), (193, 4), (205, 4), (355, 6)]


def difference_sets(L: int, w: int) -> list[frozenset[int]]:
    seen = set()
    for g in range(1, L):
        if L // gcd(L, g) < w:
            continue
        ds = frozenset(x for j in range(1, w) for x in (j * g % L, (L - j * g) % L))
        seen.add(ds)
    return sorted(seen, key=sorted)


def disjointness_graph(L: int, w: int):
    import networkx as nx

    vertices = difference_sets(L, w)
    graph = nx.Graph()
    graph.add_nodes_from(range(len(vertices)))
    for i, a in enumerate(vertices):
        for j in range(i + 1, len(vertices)):
            if a.isdisjoint(vertices[j]):
                graph.add_edge(i, j)
    return graph


def maximum(L: int, w: int) -> int:
    import networkx as nx

    _, size = nx.max_weight_clique(disjointness_graph(L, w), weight=None)
    return size


def main() -> int:
    entries = []
    for L, w in INSTANCES:
        t0 = time.perf_counter()
        size = maximum(L, w)
        dt = time.perf_counter() - t0
        print(f"({L},{w}): maximum {size} in {dt:.1f} s", file=sys.stderr)
        entries.append({"L": L, "w": w, "max": size})
    REFERENCE_FILE.write_text(json.dumps({
        "command": "python3 bench/reference.py",
        "method": "networkx.max_weight_clique(weight=None) on the disjointness graph of "
                  "distinct difference sets, built in bench/reference.py",
        "instances": entries,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
