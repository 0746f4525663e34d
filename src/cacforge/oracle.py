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
order of Tomita's MCQ/MCS and San Segundo's BBMC).

The search starts warm, as Batsyn, Goldengorin, Maslov and Pardalos
start MCS from a heuristic clique (J. Comb. Optim., 2014). Next to the
greedy clique in vertex order, a dynamic max-degree greedy finds a
clique of size h, often the maximum itself: 35 at (355, 6), where the
vertex-order greedy finds 21, and 32 at (671, 11), where it finds 16.
If h - 1 beats the vertex-order incumbent, the search holds the
h-clique but prunes against h - 1. The witness does not change. The
incumbent never alters the branching order: the color classes are
built the same way whatever it is, and a higher incumbent only drops a
tail of the vertices branched on. So the depth-first order is fixed,
every bound on the path to the first maximum clique in that order is at
least the maximum M > h - 1, and that clique is found and returned, as
by the search from the vertex-order incumbent. (Pruning against h would
return the greedy's clique instead.) At (504, 9) the max-degree greedy
finds 15 of 16 and the vertex-order greedy 14, so the warm start does
not engage there.

Tight branches are refuted by unit propagation over the colour classes,
the cheapest part of the MaxSAT bound of Li and Quan (AAAI 2010) and the
infra-chromatic bound of San Segundo, Nikolaev and Batsyn (Computers &
OR, 2015). Say branch vertex v has colour c, size + c == bar + 1, and
classes 1..c-1 were all peeled. The candidates left for v lie in those
c - 1 classes: the vertices of the classes above c were branched on
already, and v's own class is an independent set through v. So a clique
that beats bar needs one vertex from each of the c - 1 classes. A class
that the candidates meet in one vertex u forces u, and the candidates
shrink to u's neighbours; a class they miss refutes the branch, which is
then skipped. The check cuts only subtrees without a clique above bar, and
it changes neither the colouring nor the branching order, so the
witness is the same. At (671, 11), 331 vertices in 3 orbits, the search
proves the maximum of 32 in 2,279 nodes (3,963 without the refutation,
36,078 cold, 107,709 without orbits or the order); (504, 9) takes
700,949 nodes, 2,109,728 without it.

The search stops as soon as the incumbent reaches the exact-refund floor
of `bounds.exact_refund_floor`. A clique is a family of disjoint subsets
of Z_L minus 0, each of 2w - 2 elements save the exceptional ones, whose
pairwise-coprime orders refund at most the exact coprime excess. At
prime L >= 2w - 1 that is the floor (L - 1)/(2w - 2) which theorem 1
meets. Where the maximum lies below the floor, as at (671, 11) (floor
34) and (504, 9) (floor 32), the tree is searched to its end.

Counting residues also cuts single branches, as exact-cover solvers do
(Knuth, "Dancing Links", 2000); `_branch_cut` gives the argument. The
residues a clique leaves open must hold the sets it still needs; when
they hold them exactly, every open column {x, L - x} needs a holder, and
the column holders join the colour classes in one unit propagation per
branch. These cuts too skip only subtrees without a clique above bar, so
the witness is the same. The tight w = 3 primes become backtrack-free:
(229, 3) takes 56 nodes (457 without the residue cut, 1,113 also without
the refutation, 1,490 cold, 2,916 without the stop) and (355, 6) 34 (100,
175, 3,000 cold). The gap instances keep their counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from itertools import compress, count
from math import gcd
from operator import itemgetter, or_

from .bounds import exact_refund_floor
from .codes import (
    Certificate,
    Code,
    EquiDiffCodeword,
    difference_set,
    verify_cac,
)
from .errors import BudgetExceeded, NotACac

DEFAULT_NODE_BUDGET = 5_000_000
# desk-scale length caps per weight; override via the cap argument
_LENGTH_CAPS = {3: 200}
_DEFAULT_CAP = 120
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


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
    """Bitmask rows: bit j of row i set iff i != j and sets i and j are disjoint."""
    holders: dict = {}  # element -> mask of the sets holding it
    for i, s in enumerate(sets):
        bit = 1 << i
        for x in s:
            holders[x] = holders.get(x, 0) | bit
    full = (1 << len(sets)) - 1
    rows = []
    for i, s in enumerate(sets):
        meet = 1 << i
        for x in s:
            meet |= holders[x]
        rows.append(full ^ meet)
    return tuple(rows)


def build_graph(L: int, w: int) -> DisjointnessGraph:
    """One vertex per distinct difference set, largest sets first."""
    if L < w or w < 2:
        raise ValueError(f"need L >= w >= 2, got ({L},{w})")
    seen: dict[frozenset[int], int] = {}
    # D(g) = D(L - g), so the first generator of every set is at most L/2
    for g in range(1, L // 2 + 1):
        if L // gcd(L, g) < w:
            continue
        ds = difference_set(EquiDiffCodeword(L, w, g)).elements
        if ds not in seen:
            seen[ds] = g
    items = sorted(seen.items(), key=lambda t: (-len(t[0]), t[1]))
    vertices = tuple(ds for ds, _ in items)
    generators = tuple(g for _, g in items)
    return DisjointnessGraph(L, w, vertices, generators, _disjointness_rows(vertices))


def _greedy_color(P: int, non, kmin: int) -> tuple[list[int], list[int], list[int]]:
    # partition P into independent sets; a clique takes <= 1 vertex per class.
    # non[v] clears v and its neighbours. The first kmin - 1 classes cannot
    # beat the incumbent, so they are peeled off without being listed; only
    # their masks are kept, one XOR per class.
    order: list[int] = []
    colors: list[int] = []
    peeled: list[int] = []
    color = 0
    rest = P
    while rest and color < kmin - 1:
        color += 1
        before = avail = rest
        while avail:
            low = avail & -avail
            avail &= non[low.bit_length() - 1]
            rest ^= low
        peeled.append(before ^ rest)
    while rest:
        color += 1
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            avail &= non[v]
            rest ^= low
            order.append(v)
            colors.append(color)
    return order, colors, peeled


def _refuted(S: int, classes, rows) -> bool:
    """True if no clique inside S has a vertex in every class.

    Unit propagation: a class that meets S in a single vertex u forces u,
    and S keeps only u and its neighbours; a class that S misses refutes.
    S never loses a forced vertex, since every vertex forced later is its
    neighbour. The classes may overlap. True is always sound; False only
    means that propagation found no contradiction.
    """
    open_ = classes
    while open_:
        rest = []
        for K in open_:
            m = S & K
            if not m:
                return True
            if m & (m - 1):
                rest.append(K)
            else:
                S &= rows[m.bit_length() - 1] | m
        if len(rest) == len(open_):
            return False
        open_ = rest
    return False


def _by_degree(adj, P: int) -> tuple[list[int], list[int]]:
    """Vertices of a non-empty P by non-increasing degree within P, and
    their rows restricted to P, relabelled to positions in that order."""
    verts = _members(P)
    verts.sort(key=lambda v: -(adj[v] & P).bit_count())  # stable: ties keep vertex order
    # relabel through bit strings: character width - 1 - u of the string is
    # bit u of adj[v], and the string given to int() lists the positions
    # from the highest down
    width = len(adj)
    pick = itemgetter(*[width - 1 - u for u in reversed(verts)])
    return verts, [int("".join(pick(format(adj[v], f"0{width}b"))), 2) for v in verts]


def _bits(P: int) -> bytes:
    """Bit k of P as byte k: 1 or 0."""
    return bin(P)[:1:-1].encode().translate(_BIT_BYTES)


def _members(P: int) -> list[int]:
    """The set bits of P, lowest first."""
    return list(compress(count(), _bits(P)))


def _degree_greedy(adj) -> list[int]:
    """A maximal clique grown by dynamic max-degree greedy.

    Each step takes the candidate with the most neighbours among the
    candidates (lowest index on ties) and narrows the candidates to its
    neighbours.
    """
    clique: list[int] = []
    P = (1 << len(adj)) - 1
    while P:
        verts = _members(P)
        degrees = [(adj[u] & P).bit_count() for u in verts]
        v = verts[degrees.index(max(degrees))]  # first maximum
        clique.append(v)
        P &= adj[v]
    return clique


def _branch_cut(L: int, smin: int, spare: int, sub: int, open_: int, masks, holders, rows,
                classes) -> bool:
    """True only if no clique inside sub beats bar; one propagation at most.

    open_ marks the residues of Z_L minus 0 that the path leaves uncovered,
    masks[k] the residues of candidate k, and spare is how many residues a
    clique that beats bar can leave uncovered. Below 0 no such clique fits.
    At 0 it covers every open residue. Every set is closed under negation,
    so the residues pair into columns {x, L - x}, x <= L/2, and holders[x]
    is the mask of the candidates holding column x. They share a residue,
    so they are an independent set that the clique meets once, and they
    join the given colour classes, which it also meets once each. Above 0
    and below two sets of smin residues, more open residues that no
    candidate holds than spare refute. Unit propagation is monotone in its
    classes, so one run over the columns and the classes together cuts
    whatever a run over either would.
    """
    if spare < 0:
        return True
    if spare == 0:
        classes = [holders[x] for x in _members(open_ & (2 << L // 2) - 2)] + classes
    elif spare < 2 * smin and (
        open_ & ~reduce(or_, compress(masks, _bits(sub)))
    ).bit_count() > spare:
        return True
    return bool(classes) and _refuted(sub, classes, rows)


def _max_clique(adj, orbits, budget: int, ceiling: int, sets) -> tuple[int, list[int], int]:
    """Exact maximum clique over the bitmask adjacency; returns (size, members, nodes).

    orbits partitions the vertices into automorphism orbits, taken in the
    given order; singleton orbits give the search without symmetry breaking.
    ceiling bounds every clique's size (len(adj) always does); the search
    stops as soon as the incumbent reaches it. sets[i] is the residue set of
    vertex i, a subset of Z_L minus 0 closed under negation, and adjacent
    vertices have disjoint sets. A clique is recorded only when it beats
    bar, the size that prunes; the members returned are those the
    exhaustive search from the vertex-order greedy incumbent returns.
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
    bar = len(best)
    # the max-degree greedy clique usually comes closer to the maximum; hold
    # it, but search for one member fewer, so that the first maximum clique
    # in the (fixed) search order still replaces it
    warm = _degree_greedy(adj)
    if len(warm) - 1 > bar:
        best, bar = warm, len(warm) - 1

    # a set closed under negation mod L has least and largest elements x, L - x
    L = min(sets[0]) + max(sets[0])
    residues = [sum(1 << x for x in s) for s in sets]
    smin = min(map(len, sets))
    nodes = 0
    current: list[int] = []  # members in the caller's vertex labels

    # the subproblem's tables go in as arguments: expand refers to itself, and
    # whatever its closure holds lives until the cycle collector runs
    def expand(size: int, P: int, open_: int, rows, non, verts, masks, holders) -> None:
        # open_ marks the residues the path leaves uncovered
        nonlocal nodes, best, bar
        if nodes == budget:
            raise BudgetExceeded(
                f"node budget {budget} exhausted", best=list(best), size=len(best), nodes=nodes
            )
        nodes += 1
        order, colors, peeled = _greedy_color(P, non, bar - size + 1)
        work = P
        for i in range(len(order) - 1, -1, -1):
            c = colors[i]
            if size + c <= bar:
                return
            v = order[i]
            work ^= 1 << v
            current.append(verts[v])
            sub = work & rows[v]
            if sub:
                # sub lies in classes 1..c-1; when just enough of them are
                # left and all were peeled, an improving clique takes one
                # vertex each
                tight = size + c == bar + 1 and c - 1 == len(peeled)
                # an improving clique takes bar - size more sets of at least
                # smin residues each from those v leaves open
                rest = open_ ^ masks[v]
                spare = rest.bit_count() - (bar - size) * smin
                if not _branch_cut(
                    L, smin, spare, sub, rest, masks, holders, rows, peeled if tight else []
                ):
                    expand(size + 1, sub, rest, rows, non, verts, masks, holders)
            elif size + 1 > bar:
                best = current.copy()
                bar = size + 1
            current.pop()
            if bar >= ceiling:
                return

    excluded = 0
    for orbit in orbits:
        if bar >= ceiling:
            break
        r = orbit[0]
        P = adj[r] & ~excluded
        for v in orbit:
            excluded |= 1 << v
        # bar >= 1, so a subproblem that survives this test has candidates
        if 1 + P.bit_count() <= bar:
            continue
        verts, rows = _by_degree(adj, P)
        non = [~(row | 1 << k) for k, row in enumerate(rows)]
        masks = [residues[v] for v in verts]
        holders = [0] * (L // 2 + 1)
        for k, v in enumerate(verts):
            for x in sets[v]:
                if x + x <= L:
                    holders[x] |= 1 << k
        current.append(r)
        open_ = (1 << L) - 2 ^ residues[r]
        try:
            expand(1, (1 << len(verts)) - 1, open_, rows, non, verts, masks, holders)
        except RecursionError:  # expand recurses once per clique member
            raise BudgetExceeded("search deeper than the recursion limit",
                                 best=list(best), size=len(best), nodes=nodes) from None
        current.pop()
    return len(best), best, nodes


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

    Refuses lengths above the desk-scale cap (node counts above budget,
    and a clique deeper than the recursion limit) by raising BudgetExceeded;
    on a search stop the error carries the incumbent as a non-exact lower
    bound. A negative budget or cap raises ValueError.
    """
    if budget < 0:
        raise ValueError(f"node budget must be >= 0, got {budget}")
    if cap is None:
        cap = _LENGTH_CAPS.get(w, _DEFAULT_CAP)
    if cap < 0:
        raise ValueError(f"length cap must be >= 0, got {cap}")
    if L > cap:
        raise BudgetExceeded(f"L = {L} above cap {cap} for w = {w}")
    graph = build_graph(L, w)
    try:
        size, members, nodes = _max_clique(
            graph.adjacency, graph.unit_orbits(), budget, exact_refund_floor(L, w), graph.vertices
        )
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


def certify(cert: Certificate) -> Certificate:
    """Fill oracle_max and optimal_by_oracle; never downgrades other flags."""
    res = max_equi_diff_cac(cert.code.length, cert.code.weight)
    flags = replace(cert.flags, optimal_by_oracle=len(cert.code) == res.size)
    return replace(cert, flags=flags, oracle_max=res.size)
