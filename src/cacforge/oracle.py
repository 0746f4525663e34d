"""Brute-force ground truth for small lengths.

Finding a maximum equi-difference CAC is a maximum clique problem: one
vertex per distinct difference set, edges between disjoint ones. The
solver is exact branch and bound with greedy coloring bounds, fine for
desk-scale L; anything bigger raises BudgetExceeded instead of silently
returning a lower bound.

Multiplying by a unit u of Z_L maps D(g) to D(ug) and keeps disjointness,
so Z_L^x acts on the graph. Units act transitively on the elements of
each order, so the orbit of vertex D(g) is its class of gcd(g, L); and
gcd(g, L) is the smallest gcd in D(g), so distinct classes are distinct
vertices. The search fixes the first vertex r_i of each orbit O_i and
looks for cliques in N(r_i) minus O_1, ..., O_{i-1}, with one incumbent
for all orbits. That is exact: if O_i is the first orbit a maximum
clique meets, a unit maps it onto a clique through r_i that misses every
earlier orbit. Each such subproblem is relabelled by non-increasing
degree among its candidates before the coloring bound runs (the vertex
order of Tomita's MCQ/MCS and San Segundo's BBMC). At (671, 11), 331
vertices in 3 orbits, the search proves the maximum of 32 in 36,078
nodes (107,709 without orbits or the order), and (504, 9) finishes
exact at 16 in about 2.1 million nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import gcd

from .codes import (
    Certificate,
    Code,
    EquiDiffCodeword,
    difference_set,
    support_difference_set,
    verify_cac,
)
from .errors import BudgetExceeded, NotACac

DEFAULT_NODE_BUDGET = 5_000_000
# desk-scale length caps per weight; override via the cap argument
_LENGTH_CAPS = {3: 200}
_DEFAULT_CAP = 120
_SUPPORT_CAP = 40


@dataclass(frozen=True)
class DisjointnessGraph:
    L: int
    w: int
    vertices: tuple[frozenset[int], ...]
    generators: tuple[int, ...]
    adjacency: tuple[int, ...]  # bit j of row i set iff vertices i, j disjoint

    def unit_orbits(self) -> list[list[int]]:
        """Vertex orbits under multiplication by the units of Z_L, in vertex order."""
        classes: dict[int, list[int]] = {}
        for i, g in enumerate(self.generators):
            classes.setdefault(gcd(g, self.L), []).append(i)
        return list(classes.values())


def _disjointness_rows(sets) -> tuple[int, ...]:
    """Bitmask rows: bit j of row i set iff sets i and j are disjoint."""
    adj = [0] * len(sets)
    for i, a in enumerate(sets):
        for j in range(i + 1, len(sets)):
            if a.isdisjoint(sets[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(adj)


def build_graph(L: int, w: int) -> DisjointnessGraph:
    """One vertex per distinct difference set, largest sets first."""
    if L < w or w < 2:
        raise ValueError(f"need L >= w >= 2, got ({L},{w})")
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


def _greedy_color(P: int, adj, kmin: int) -> tuple[list[int], list[int]]:
    # partition P into independent sets; a clique takes <= 1 vertex per class.
    # Vertices colored below kmin cannot beat the incumbent and are not listed.
    order: list[int] = []
    colors: list[int] = []
    color = 0
    rest = P
    while rest:
        color += 1
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            avail = (avail & ~adj[v]) ^ low
            rest ^= low
            if color >= kmin:
                order.append(v)
                colors.append(color)
    return order, colors


def _by_degree(adj, P: int) -> tuple[list[int], list[int]]:
    """Vertices of P by non-increasing degree within P, and their rows
    restricted to P, relabelled to positions in that order."""
    verts = [v for v in range(len(adj)) if P >> v & 1]
    verts.sort(key=lambda v: -(adj[v] & P).bit_count())  # stable: ties keep vertex order
    rows = [sum(1 << k for k, u in enumerate(verts) if adj[v] >> u & 1) for v in verts]
    return verts, rows


def _max_clique(adj, orbits, budget: int) -> tuple[int, list[int], int]:
    """Exact maximum clique over the bitmask adjacency; returns (size, members, nodes).

    orbits partitions the vertices into automorphism orbits, taken in the
    given order; singleton orbits give the search without symmetry breaking.
    """
    if not adj:
        return 0, [], 0

    # greedy incumbent in vertex order seeds the pruning
    best: list[int] = []
    mask = (1 << len(adj)) - 1
    while mask:
        v = (mask & -mask).bit_length() - 1
        best.append(v)
        mask &= adj[v]
    best_size = len(best)

    nodes = 0
    current: list[int] = []  # members in the caller's vertex labels

    def expand(size: int, P: int, rows, verts) -> None:
        nonlocal nodes, best, best_size
        if nodes == budget:
            raise BudgetExceeded(
                f"node budget {budget} exhausted", best=list(best), size=best_size, nodes=nodes
            )
        nodes += 1
        order, colors = _greedy_color(P, rows, best_size - size + 1)
        work = P
        for i in range(len(order) - 1, -1, -1):
            if size + colors[i] <= best_size:
                return
            v = order[i]
            bit = 1 << v
            work &= ~bit
            current.append(verts[v])
            sub = work & rows[v]
            if sub:
                expand(size + 1, sub, rows, verts)
            elif size + 1 > best_size:
                best = current.copy()
                best_size = size + 1
            current.pop()

    excluded = 0
    for orbit in orbits:
        r = orbit[0]
        P = adj[r] & ~excluded
        for v in orbit:
            excluded |= 1 << v
        # best_size >= 1, so a subproblem that survives this test has candidates
        if 1 + P.bit_count() <= best_size:
            continue
        verts, rows = _by_degree(adj, P)
        current.append(r)
        expand(1, (1 << len(verts)) - 1, rows, verts)
        current.pop()
    return best_size, best, nodes


@dataclass(frozen=True)
class OracleResult:
    L: int
    w: int
    size: int
    witness: Code
    exact: bool
    nodes: int

    def to_json(self) -> dict:
        return {
            "L": self.L,
            "w": self.w,
            "max": self.size,
            "witness": self.witness.canonical_generators(),
            "exact": self.exact,
        }


def max_equi_diff_cac(
    L: int, w: int, budget: int = DEFAULT_NODE_BUDGET, cap: int | None = None
) -> OracleResult:
    """Exact M^e(L, w) with a witness code.

    Refuses lengths above the desk-scale cap (and node counts above
    budget) by raising BudgetExceeded; on a node-budget stop the error
    carries the incumbent as a non-exact lower bound.
    """
    if cap is None:
        cap = _LENGTH_CAPS.get(w, _DEFAULT_CAP)
    if L > cap:
        raise BudgetExceeded(f"L = {L} above cap {cap} for w = {w}; pass cap to override")
    graph = build_graph(L, w)
    try:
        size, members, nodes = _max_clique(graph.adjacency, graph.unit_orbits(), budget)
    except BudgetExceeded as e:
        if e.best is not None:
            gens = [graph.generators[i] for i in e.best]
            e.best = Code.from_generators(L, w, gens)
        raise
    gens = sorted(graph.generators[i] for i in members)
    witness = Code.from_generators(L, w, gens)
    report = verify_cac(witness)
    if not report.ok or len(witness) != size:
        raise NotACac(f"oracle witness for ({L},{w}) is not a CAC of size {size}", report)
    return OracleResult(L, w, size, witness, True, nodes)


def certify(
    cert: Certificate, budget: int = DEFAULT_NODE_BUDGET, cap: int | None = None
) -> Certificate:
    """Fill oracle_max and optimal_by_oracle; never downgrades other flags."""
    res = max_equi_diff_cac(cert.code.length, cert.code.weight, budget, cap)
    flags = replace(cert.flags, optimal_by_oracle=len(cert.code) == res.size)
    return replace(cert, flags=flags, oracle_max=res.size)


def max_general_cac(
    L: int,
    w: int,
    budget: int = DEFAULT_NODE_BUDGET,
    cap: int = _SUPPORT_CAP,
) -> tuple[int, list[frozenset[int]]]:
    """Maximum CAC over arbitrary w-subsets of Z_L (not just equi-difference).

    Difference sets are translation invariant, so supports are normalized
    to contain 0. Tiny L only; this exists to cross-check that the
    equi-difference maximum never exceeds the unrestricted one. On a
    node-budget stop the error's best holds the incumbent's supports.
    """
    if L < w or w < 2:
        raise ValueError(f"need L >= w >= 2, got ({L},{w})")
    if L > cap:
        raise BudgetExceeded(f"L = {L} above support-set cap {cap}")
    seen: dict[frozenset[int], frozenset[int]] = {}
    for rest in combinations(range(1, L), w - 1):
        sup = frozenset((0,) + rest)
        ds = support_difference_set(L, sup).elements
        if ds not in seen:
            seen[ds] = sup
    items = sorted(seen.items(), key=lambda t: (-len(t[0]), sorted(t[1])))
    adj = _disjointness_rows([ds for ds, _ in items])
    try:
        size, members, _ = _max_clique(adj, [[i] for i in range(len(adj))], budget)
    except BudgetExceeded as e:
        e.best = [items[i][1] for i in e.best]
        raise
    return size, [items[i][1] for i in members]
