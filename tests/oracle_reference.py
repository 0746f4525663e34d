"""The oracle's set-up helpers in their first, plainer form: the
reference the faster ones in `cacforge.oracle` are checked against.

`build_graph` scans every generator 1..L-1, `by_degree` relabels each row
one bit at a time, and `degree_greedy` tests every vertex index for
membership at each step.
"""

from __future__ import annotations

from math import gcd

from cacforge.codes import EquiDiffCodeword, difference_set
from cacforge.oracle import DisjointnessGraph, _disjointness_rows


def build_graph(L: int, w: int) -> DisjointnessGraph:
    seen: dict[frozenset[int], int] = {}
    for g in range(1, L):
        if L // gcd(L, g) < w:
            continue
        ds = difference_set(EquiDiffCodeword(L, w, g)).elements
        if ds not in seen:
            seen[ds] = g
    items = sorted(seen.items(), key=lambda t: (-len(t[0]), t[1]))
    vertices = tuple(ds for ds, _ in items)
    generators = tuple(g for _, g in items)
    return DisjointnessGraph(L, w, vertices, generators, _disjointness_rows(vertices))


def by_degree(adj, P: int) -> tuple[list[int], list[int]]:
    verts = [v for v in range(len(adj)) if P >> v & 1]
    verts.sort(key=lambda v: -(adj[v] & P).bit_count())
    width, back = len(adj), verts[::-1]
    rows = []
    for v in verts:
        bits = format(adj[v], f"0{width}b")[::-1]
        rows.append(int("".join([bits[u] for u in back]), 2))
    return verts, rows


def degree_greedy(adj) -> list[int]:
    clique: list[int] = []
    P = (1 << len(adj)) - 1
    while P:
        verts = [v for v in range(len(adj)) if P >> v & 1]
        v = max(verts, key=lambda u: (adj[u] & P).bit_count())
        clique.append(v)
        P &= adj[v]
    return clique
