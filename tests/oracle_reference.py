"""The oracle's set-up helpers in their first, plainer form: the
reference the faster ones in `cacforge.oracle` are checked against.

`build_graph` scans every generator 1..L-1, `by_degree` relabels each row
one bit at a time, `degree_greedy` tests every vertex index for
membership at each step, and `colour_refutation` is the branch check
before the residue cuts. `max_general_cac` runs the oracle's clique
search over arbitrary w-subsets, not only arithmetic progressions, and
stops it at `volume_ceiling`, a count that needs only the sets' sizes.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from cacforge import oracle
from cacforge.codes import EquiDiffCodeword, difference_set, support_difference_set
from cacforge.errors import BudgetExceeded

_SUPPORT_CAP = 40


def build_graph(L: int, w: int) -> oracle.DisjointnessGraph:
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
    rows = oracle._disjointness_rows(vertices)
    return oracle.DisjointnessGraph(L, w, vertices, generators, rows)


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


def colour_refutation(L, smin, spare, sub, open_, masks, holders, rows, classes) -> bool:
    """`oracle._branch_cut` without the residue cuts: the colour-class
    refutation alone, as the oracle ran it before the residue columns
    joined it. It takes the helper's arguments, so a test can put it in
    the helper's place and keep the refutation while it drops the cuts."""
    return oracle._refuted(sub, classes, rows)


def volume_ceiling(sizes, L: int) -> int:
    """Largest k such that the k smallest sets hold at most L - 1 elements.

    A clique is a family of disjoint difference sets inside Z_L minus 0,
    so no clique is larger. At prime L >= 2w - 1 every set has 2w - 2
    elements and this is the floor (L - 1)/(2w - 2).
    """
    room = L - 1
    k = 0
    for size in sorted(sizes):
        room -= size
        if room < 0:
            break
        k += 1
    return k


def max_general_cac(
    L: int,
    w: int,
    budget: int = oracle.DEFAULT_NODE_BUDGET,
    cap: int = _SUPPORT_CAP,
) -> tuple[int, list[frozenset[int]]]:
    """Maximum CAC over arbitrary w-subsets of Z_L (not just equi-difference).

    Difference sets are translation invariant, so supports are normalized
    to contain 0. Tiny L only; this exists to cross-check that the
    equi-difference maximum never exceeds the unrestricted one. On a
    node-budget stop the error's best holds the incumbent's supports.
    A negative budget or cap raises ValueError. The oracle's helpers are
    looked up on the module, so a test that patches one reaches them here.
    """
    if L < w or w < 2:
        raise ValueError(f"need L >= w >= 2, got ({L},{w})")
    if budget < 0:
        raise ValueError(f"node budget must be >= 0, got {budget}")
    if cap < 0:
        raise ValueError(f"length cap must be >= 0, got {cap}")
    if L > cap:
        raise BudgetExceeded(f"L = {L} above support-set cap {cap}")
    seen: dict[frozenset[int], frozenset[int]] = {}
    for rest in combinations(range(1, L), w - 1):
        sup = frozenset((0,) + rest)
        ds = support_difference_set(L, sup).elements
        if ds not in seen:
            seen[ds] = sup
    items = sorted(seen.items(), key=lambda t: (-len(t[0]), sorted(t[1])))
    sets = [ds for ds, _ in items]
    adj = oracle._disjointness_rows(sets)
    ceiling = volume_ceiling(map(len, sets), L)
    try:
        size, members, _ = oracle._max_clique(
            adj, [[i] for i in range(len(adj))], budget, ceiling, sets
        )
    except BudgetExceeded as e:
        e.best = [items[i][1] for i in e.best]
        raise
    return size, [items[i][1] for i in members]
