import hashlib
import inspect
import json
import os
import subprocess
import sys
from itertools import combinations, product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cacforge
import cacforge.oracle as oracle
import oracle_reference
from cacforge.bounds import exact_refund_floor, new_bound
from cacforge.codes import Code, verify_cac
from cacforge.constructions import construct_lemma1
from cacforge.errors import BudgetExceeded
from cacforge.numtheory import is_prime
from cacforge.oracle import (
    _branch_cut,
    _by_degree,
    _degree_greedy,
    _disjointness_rows,
    _max_clique,
    _refuted,
    build_graph,
    certify,
    max_equi_diff_cac,
)
from oracle_reference import colour_refutation, max_general_cac, volume_ceiling


def test_build_graph_dedupes_mirrors():
    # generators 1..4 of Z_5 share the single difference set {1,2,3,4}
    g = build_graph(5, 3)
    assert len(g.vertices) == 1
    assert g.generators == (1,)


def test_build_graph_ordering():
    g = build_graph(9, 3)
    # exceptional generator 3 has the smaller difference set, so it sorts last
    assert g.generators[-1] == 3
    sizes = [len(v) for v in g.vertices]
    assert sizes == sorted(sizes, reverse=True)


def test_oracle_pins():
    for L, w, want in [(5, 3, 1), (9, 3, 2), (13, 3, 3), (15, 3, 4), (8, 2, 4)]:
        res = max_equi_diff_cac(L, w)
        assert res.size == want
        assert res.exact
        assert len(res.witness) == want
        assert verify_cac(res.witness).ok


def test_oracle_witness_deterministic():
    assert max_equi_diff_cac(9, 3).witness.canonical_generators() == [1, 3]
    assert max_equi_diff_cac(13, 3).witness.canonical_generators() == [1, 3, 4]
    assert max_equi_diff_cac(15, 3).witness.canonical_generators() == [1, 3, 4, 5]


def test_oracle_never_beats_bound(rng):
    for _ in range(40):
        L = rng.randint(3, 60)
        w = rng.choice([3, 4, 5])
        if L < w:
            continue
        res = max_equi_diff_cac(L, w)
        assert res.size <= new_bound(L, w).floor_value


def test_oracle_json():
    obj = max_equi_diff_cac(15, 3).to_json()
    assert obj == {
        "L": 15,
        "w": 3,
        "max": 4,
        "witness": [1, 3, 4, 5],
        "exact": True,
    }


def test_oracle_length_cap():
    with pytest.raises(BudgetExceeded):
        max_equi_diff_cac(201, 3)
    with pytest.raises(BudgetExceeded):
        max_equi_diff_cac(121, 4)
    # explicit cap override in either direction
    with pytest.raises(BudgetExceeded):
        max_equi_diff_cac(15, 3, cap=10)
    assert max_equi_diff_cac(125, 4, cap=130).size > 0


def test_oracle_node_budget_carries_incumbent():
    with pytest.raises(BudgetExceeded) as ei:
        max_equi_diff_cac(199, 3, budget=1)
    err = ei.value
    assert not err.exact
    assert err.size >= 1
    assert isinstance(err.best, Code)
    assert verify_cac(err.best).ok
    assert len(err.best) == err.size


def test_oracle_671_11_exact():
    # 331 distinct difference sets in 3 unit orbits; the search nails down
    # the true maximum, which the analytic bound (floor 34) overshoots
    res = max_equi_diff_cac(671, 11, budget=40_000_000, cap=700)
    assert res.exact
    assert res.size == 32
    assert new_bound(671, 11).floor_value == 34


def test_oracle_671_11_node_count():
    # machine-independent cost pin: 107,709 nodes without symmetry breaking,
    # 36,078 without the warm start and 3,963 without the refutation; the
    # exact-refund floor (34) is above the maximum, so the search exhausts its tree
    assert max_equi_diff_cac(671, 11, budget=40_000_000, cap=700).nodes == 2_279


def test_oracle_budget_reports_nodes():
    with pytest.raises(BudgetExceeded) as ei:
        max_equi_diff_cac(199, 3, budget=5)
    assert ei.value.nodes == 5


def test_search_deeper_than_the_recursion_limit_carries_incumbent():
    # expand recurses once per clique member; (401, 3) reaches its clique of
    # 100 in 99 nodes, so a limit 60 frames above this one stops it part way
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        with pytest.raises(BudgetExceeded) as ei:
            max_equi_diff_cac(401, 3, cap=401)
    finally:
        sys.setrecursionlimit(limit)
    err = ei.value
    assert str(err) == "search deeper than the recursion limit"
    assert not err.exact and 0 < err.nodes < 99
    assert verify_cac(err.best).ok
    assert len(err.best) == err.size


def _ceiling(L, w):
    return volume_ceiling(map(len, build_graph(L, w).vertices), L)


def test_volume_ceiling_bounds_the_sweep():
    # the criterion-3 sweep: no maximum exceeds the exact-refund floor, nor
    # that floor the ceiling, which is the counting floor (p - 1)/(2w - 2)
    # at prime lengths
    for w, cap in [(3, 80), (4, 60), (5, 60)]:
        for L in range(w, cap + 1):
            ceiling = _ceiling(L, w)
            assert max_equi_diff_cac(L, w).size <= exact_refund_floor(L, w) <= ceiling, (L, w)
            if is_prime(L) and L >= 2 * w - 1:
                assert ceiling == (L - 1) // (2 * w - 2), (L, w)


def test_exact_refund_floor_lies_between_the_paper_floor_and_the_volume_ceiling():
    # over the ranges of the two search digests, so the oracle's stop never
    # lies above the ceiling it replaced
    ranges = [(w, range(w, 122)) for w in range(3, 7)]
    ranges += [(w, range(122, top + 1)) for w, top in [(3, 200), (4, 200), (5, 180), (6, 180)]]
    for w, lengths in ranges:
        for L in lengths:
            floor = exact_refund_floor(L, w)
            assert new_bound(L, w).floor_value <= floor <= _ceiling(L, w), (L, w)


def test_volume_ceiling_counts_the_smallest_sets():
    assert volume_ceiling([], 9) == 0
    assert volume_ceiling([4, 2, 2], 9) == 3  # 2 + 2 + 4 = 8
    assert volume_ceiling([4, 4, 2], 9) == 2  # 2 + 4 fit, a further 4 does not
    assert volume_ceiling([9], 9) == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 110), st.integers(2, 6))
@example(13, 3)  # the greedy incumbent already meets the floor
@example(95, 3)  # 40 nodes with the stop, 56 without
@example(109, 3)  # 26 nodes with the stop, 52 without
def test_ceiling_stop_keeps_size_and_witness(L, w):
    if L < w:
        return
    g = build_graph(L, w)
    orbits = g.unit_orbits()
    stopped = _max_clique(g.adjacency, orbits, 10**7, exact_refund_floor(L, w), g.vertices)
    exhausted = _max_clique(g.adjacency, orbits, 10**7, len(g.adjacency), g.vertices)
    assert stopped[:2] == exhausted[:2]
    assert stopped[2] <= exhausted[2]


@pytest.mark.parametrize("L,w,most", [(13, 3, 0), (241, 4, 40), (229, 3, 457)])
def test_ceiling_stop_node_pins(L, w, most):
    # the maximum meets the floor here: 1, 307 and 2,916 nodes without the stop,
    # 0, 80 and 1,490 with it but without the warm start, 0, 40 and 1,113
    # without the refutation, 0, 40 and 457 without the residue cut
    res = max_equi_diff_cac(L, w, cap=L)
    assert res.size == _ceiling(L, w) == new_bound(L, w).floor_value
    assert res.nodes <= most


@pytest.mark.parametrize("L,w,nodes", [(241, 4, 39), (229, 3, 56)])
def test_residue_cut_node_pins(L, w, nodes):
    # the same tight instances with the residue-column cuts: 40 and 457 before
    res = max_equi_diff_cac(L, w, cap=L)
    assert res.size == _ceiling(L, w)
    assert res.nodes == nodes


@pytest.mark.parametrize("L,w,nodes", [(157, 4, 160), (193, 4, 507), (205, 4, 358)])
def test_gap_instances_keep_their_node_counts(L, w, nodes):
    # the maximum lies below the ceiling, so the whole tree is searched
    # (646, 1,776 and 2,282 nodes without the warm start, 617, 1,752 and
    # 2,275 without the refutation); the residue cut never fires here
    res = max_equi_diff_cac(L, w, cap=L)
    assert res.size < _ceiling(L, w)
    assert res.nodes == nodes


# the eight instances of the benchmark's search workload
BENCH_SEARCH = [(181, 4), (197, 3), (229, 3), (241, 4), (157, 4), (193, 4), (205, 4), (355, 6)]


def test_bench_search_node_total():
    # 1,866 nodes without the residue cut: 35, 209, 457, 40, 160, 507, 358, 100
    assert sum(max_equi_diff_cac(L, w, cap=L).nodes for L, w in BENCH_SEARCH) == 1_231


def test_warm_start_pin_355_6():
    # the maximum 35 meets the ceiling; the vertex-order greedy finds 21 and
    # the max-degree greedy 35, so the search needs 34 nodes, not 3,000
    # (175 without the refutation, 100 without the residue cut's dead count)
    res = max_equi_diff_cac(355, 6, cap=355)
    assert res.size == _ceiling(355, 6) == 35
    assert res.nodes == 34


def test_budget_stop_carries_the_warm_start():
    with pytest.raises(BudgetExceeded) as ei:
        max_equi_diff_cac(355, 6, cap=355, budget=1)
    err = ei.value
    assert isinstance(err.best, Code)
    assert verify_cac(err.best).ok
    assert len(err.best) == err.size == 35


def test_search_json_digest():
    # frozen outputs: every witness over w = 3..6, L = w..121, in that order
    h = hashlib.sha256()
    for w in range(3, 7):
        for L in range(w, 122):
            obj = max_equi_diff_cac(L, w, cap=L).to_json()
            h.update((json.dumps(obj, sort_keys=True) + "\n").encode())
    assert h.hexdigest() == "5b1260eae54d197c9d9d2132a8225b0354c0c1a48b6f9a2651ae469b0bf719e0"


def test_wider_search_json_digest():
    # frozen outputs above the first digest's range: w = 3 and 4 for
    # L = 122..200, then w = 5 and 6 for L = 122..180, in that order
    h = hashlib.sha256()
    for w, top in [(3, 200), (4, 200), (5, 180), (6, 180)]:
        for L in range(122, top + 1):
            obj = max_equi_diff_cac(L, w, cap=L).to_json()
            h.update((json.dumps(obj, sort_keys=True) + "\n").encode())
    assert h.hexdigest() == "4a7ae95bbb2f4580af841ae1a93555b8f8858e4aaa440d1e675fd239344f5d17"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 110), st.integers(2, 6))
@example(13, 3)  # the vertex-order greedy already meets the maximum
@example(69, 4)  # 17 nodes cold, 11 warm
@example(355, 6)  # 3,000 nodes cold, 175 warm
def test_warm_start_keeps_size_and_witness(L, w):
    if L < w:
        return
    g = build_graph(L, w)
    ceiling = _ceiling(L, w)
    for orbits in (g.unit_orbits(), [[i] for i in range(len(g.adjacency))]):
        warm = _max_clique(g.adjacency, orbits, 10**7, ceiling, g.vertices)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_degree_greedy", lambda adj: [])
            cold = _max_clique(g.adjacency, orbits, 10**7, ceiling, g.vertices)
        assert warm[:2] == cold[:2]
        assert warm[2] <= cold[2]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 110), st.integers(2, 6))
@example(13, 3)  # the vertex-order greedy already meets the maximum
@example(73, 3)  # 12 nodes with the refutation, 33 without (50 and 116 unorbited)
@example(121, 5)  # 39 and 93 (136 and 364 unorbited)
def test_refutation_keeps_size_and_witness(L, w):
    if L < w:
        return
    g = build_graph(L, w)
    ceiling = _ceiling(L, w)
    for orbits in (g.unit_orbits(), [[i] for i in range(len(g.adjacency))]):
        pruned = _max_clique(g.adjacency, orbits, 10**7, ceiling, g.vertices)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_refuted", lambda S, classes, rows: False)
            full = _max_clique(g.adjacency, orbits, 10**7, ceiling, g.vertices)
        assert pruned[:2] == full[:2]
        assert pruned[2] <= full[2]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 110), st.integers(2, 6))
@example(22, 3)  # column 11 holds one residue; weighing it 2 gives a maximum of 4, not 5
@example(34, 4)  # the dead count cuts (orbited)
@example(97, 3)  # propagation over the columns cuts: 23 nodes, 28 without (orbited)
@example(121, 5)  # no residue check runs (orbited)
@example(229, 3)  # 56 nodes with the cut, 457 without (orbited)
def test_residue_cut_keeps_size_and_witness(L, w):
    if L < w:
        return
    g = build_graph(L, w)
    ceiling = _ceiling(L, w)
    for orbits in (g.unit_orbits(), [[i] for i in range(len(g.adjacency))]):
        cut = _max_clique(g.adjacency, orbits, 10**7, ceiling, g.vertices)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_branch_cut", colour_refutation)
            full = _max_clique(g.adjacency, orbits, 10**7, ceiling, g.vertices)
        assert cut[:2] == full[:2]
        assert cut[2] <= full[2]


@pytest.mark.parametrize("w", [3, 4])
def test_max_general_cac_keeps_its_answer_under_the_residue_cut(w, monkeypatch):
    cut = [max_general_cac(L, w) for L in range(w, 21)]
    monkeypatch.setattr(oracle, "_branch_cut", colour_refutation)
    assert cut == [max_general_cac(L, w) for L in range(w, 21)]


def _cut(L, spare, sub, cover, holders, rows, classes=()):
    # _branch_cut with the path's columns, each candidate's residues and the
    # open residues read off the column masks; the sets hold at least 2
    # residues, so the dead count runs at every spare up to 3
    def residues(columns):
        return sum(1 << x | 1 << L - x for x in range(1, L // 2 + 1) if columns >> x & 1)

    masks = [residues(sum(1 << x for x, h in enumerate(holders) if h >> k & 1))
             for k in range(len(rows))]
    open_ = (1 << L) - 2 ^ residues(cover)
    return _branch_cut(L, 2, spare, sub, open_, masks, holders, rows, list(classes))


def test_residue_cut_counts_each_column():
    # Z_8 minus 0: columns {1, 7}, {2, 6}, {3, 5} and {4}; candidate 0 holds
    # column 1, candidate 1 columns 2 and 4. cover and holders are column masks.
    holders, rows = [0, 0b01, 0b10, 0, 0b10], [0b10, 0b01]
    assert _cut(8, -1, 0b11, 0, holders, rows)
    # columns 1 and 2 covered: open column 3 is dead (two residues)
    assert not _cut(8, 2, 0b11, 0b00110, holders, rows)
    assert _cut(8, 1, 0b11, 0b00110, holders, rows)
    # without candidate 1, column 4 is dead too
    assert _cut(8, 2, 0b01, 0b00110, holders, rows)
    # column 4 alone is dead: one residue, not two
    assert not _cut(8, 1, 0b01, 0b01110, holders, rows)
    # the dead count runs only below two sets of smin residues: with only
    # candidate 0, five open residues are dead
    assert _cut(8, 3, 0b01, 0, holders, rows)
    assert not _cut(8, 4, 0b01, 0, holders, rows)
    # at odd L the last column holds two residues: Z_7 minus 0, columns 1..3
    assert _cut(7, 1, 0b01, 0b0110, holders[:4], rows)
    # at spare 0 every open column needs a holder among the candidates
    assert _cut(8, 0, 0b11, 0b10110, holders, rows)
    # columns 3 and 4 force candidates 0 and 1, which must then be adjacent
    both = [0, 0b01, 0b10, 0b01, 0b10]
    assert not _cut(8, 0, 0b11, 0b00110, both, rows)
    assert _cut(8, 0, 0b11, 0b00110, both, [0, 0])
    # and the colour classes given join the propagation
    assert not _cut(8, 0, 0b111, 0b00110, both, [0b110, 0b001, 0b001])
    assert _cut(8, 0, 0b111, 0b00110, both, [0b110, 0b001, 0b001], [0b100])


def _meets_every_class(S, classes, adj):
    # exhaustive: a clique inside S with exactly one vertex in each class
    picks = [[v for v in range(S.bit_length()) if (S & K) >> v & 1] for K in classes]
    return any(
        all(adj[u] >> v & 1 for u, v in combinations(choice, 2)) for choice in product(*picks)
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_refuted_agrees_with_brute_force(data):
    # random graph on n vertices split into k independent classes (no edge
    # inside a class), and a candidate set S that drops a few vertices
    k = data.draw(st.integers(0, 5))
    n = data.draw(st.integers(k, 12))
    label = list(range(k)) + data.draw(
        st.lists(st.integers(0, max(k - 1, 0)), min_size=n - k, max_size=n - k))
    adj = [0] * n
    for u, v in combinations(range(n), 2):
        if label[u] != label[v] and data.draw(st.integers(0, 3)):  # 3 in 4 pairs
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    classes = [sum(1 << v for v in range(n) if label[v] == c) for c in range(k)]
    S = (1 << n) - 1
    for v in data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=3)):
        S &= ~(1 << v)
    if _refuted(S, classes, adj):
        assert not _meets_every_class(S, classes, adj)


def _graph(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def test_refuted_follows_a_chain_of_forced_vertices():
    # classes {0}, {1, 2}, {3, 4}, {5, 6}: every class meets S, but 0 forces
    # 1 (0 misses 2), 1 forces 4 (1 misses 3), and 4 sees neither 5 nor 6
    classes = [0b1, 0b110, 0b11000, 0b1100000]
    edges = [(0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (1, 6),
             (2, 3), (2, 4), (2, 5), (2, 6), (3, 5), (3, 6)]
    adj = _graph(7, edges)
    S = 0b1111111
    assert all(S & K for K in classes)
    assert _refuted(S, classes, adj)
    assert not _meets_every_class(S, classes, adj)
    # with the edge 4-5 the same chain ends in the clique 0, 1, 4, 5
    adj = _graph(7, edges + [(4, 5)])
    assert not _refuted(S, classes, adj)
    assert _meets_every_class(S, classes, adj)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_refuted_is_monotone_in_its_classes(data):
    # refuted over some classes means refuted over those and any more, in
    # any order: so _branch_cut propagates once over the open columns and
    # the colour classes together, where a second run over fewer classes
    # could never cut. Classes here are any vertex sets, as columns are.
    n = data.draw(st.integers(1, 10))
    adj = [0] * n
    for u, v in combinations(range(n), 2):
        if data.draw(st.booleans()):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    masks = st.integers(0, (1 << n) - 1)
    S = data.draw(masks)
    some = data.draw(st.lists(masks, max_size=4))
    more = data.draw(st.permutations(some + data.draw(st.lists(masks, max_size=4))))
    if _refuted(S, some, adj):
        assert _refuted(S, more, adj)


def test_one_propagation_per_branch_on_the_tight_bench_instances():
    # 315 runs of _refuted before the residue columns and the colour classes
    # shared one: a tight branch at spare 0 ran it over both, then over the
    # classes alone (22, 38, 47 and 26 such repeats)
    runs = []
    real = oracle._refuted
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_refuted", lambda *args: runs.append(1) or real(*args))
        nodes = [max_equi_diff_cac(L, w, cap=L).nodes
                 for L, w in [(181, 4), (197, 3), (229, 3), (241, 4)]]
    assert nodes == [29, 48, 56, 39]
    assert len(runs) == 30 + 51 + 62 + 39


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 24), st.sets(st.tuples(st.integers(0, 23), st.integers(0, 23))))
@example(0, set())
def test_degree_greedy_returns_a_maximal_clique(n, pairs):
    adj = [0] * n
    for i, j in pairs:
        if i != j and i < n and j < n:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    clique = _degree_greedy(adj)
    assert len(set(clique)) == len(clique)
    assert all(adj[u] >> v & 1 for u, v in combinations(clique, 2))
    common = (1 << n) - 1
    for v in clique:
        common &= adj[v]
    assert common == 0


def test_degree_greedy_takes_the_most_connected_vertex():
    # edge 0-1 and triangle 2-3-4: the vertex-order greedy stops at [0, 1]
    adj = [0b10, 0b1, 0b11000, 0b10100, 0b1100]
    assert _degree_greedy(adj) == [2, 3, 4]


def test_build_graph_matches_the_full_scan():
    for L in range(2, 151):
        for w in range(2, min(L, 7) + 1):
            assert build_graph(L, w) == oracle_reference.build_graph(L, w), (L, w)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(BENCH_SEARCH), st.data())
def test_by_degree_and_degree_greedy_match_the_reference(Lw, data):
    # random candidate sets over the benchmark's graphs; the greedy runs on
    # the subgraph that _by_degree relabels
    adj = build_graph(*Lw).adjacency
    keep = data.draw(st.sampled_from([1, 2, 4, 8, 16]))  # about 1 in keep vertices
    P = data.draw(st.integers(1, (1 << len(adj)) - 1))
    for _ in range(keep.bit_length() - 1):
        P &= data.draw(st.integers(0, (1 << len(adj)) - 1))
    P = P or 1 << data.draw(st.integers(0, len(adj) - 1))
    verts, rows = _by_degree(adj, P)
    assert (verts, rows) == oracle_reference.by_degree(adj, P)
    one = P & -P  # a single candidate: one index for the row's gather
    assert _by_degree(adj, one) == oracle_reference.by_degree(adj, one)
    assert _degree_greedy(rows) == oracle_reference.degree_greedy(rows)


def test_degree_greedy_matches_the_reference_on_the_bench_graphs():
    for L, w in BENCH_SEARCH:
        adj = build_graph(L, w).adjacency
        assert _degree_greedy(adj) == oracle_reference.degree_greedy(adj), (L, w)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.frozensets(st.integers(0, 15), max_size=5), max_size=24))
@example([frozenset(), frozenset({1}), frozenset(), frozenset({1, 2})])
def test_disjointness_rows_match_pairwise_reference(sets):
    rows = _disjointness_rows(sets)
    assert len(rows) == len(sets)
    for i, a in enumerate(sets):
        assert not rows[i] >> i & 1
        for j, b in enumerate(sets):
            if i != j:
                assert bool(rows[i] >> j & 1) == a.isdisjoint(b), (i, j)


def _difference_sets(L, w):
    # D(g) = {k g mod L : 0 < |k| < w}, computed apart from cacforge
    out = set()
    for g in range(1, L):
        if L // gcd(L, g) >= w:
            out.add(frozenset(k * g % L for k in range(1 - w, w) if k))
    return list(out)


def test_oracle_matches_networkx():
    nx = pytest.importorskip("networkx")
    for w in (3, 4, 5):
        for L in range(w, 46):
            sets = _difference_sets(L, w)
            G = nx.Graph()
            G.add_nodes_from(range(len(sets)))
            G.add_edges_from(
                (i, j)
                for i in range(len(sets))
                for j in range(i + 1, len(sets))
                if sets[i].isdisjoint(sets[j])
            )
            want = len(nx.max_weight_clique(G, weight=None)[0])
            res = max_equi_diff_cac(L, w)
            assert res.size == want, (L, w)
            assert verify_cac(res.witness).ok and len(res.witness) == want


@pytest.mark.parametrize("L,w", [(45, 3), (60, 4), (84, 4), (90, 5), (105, 3)])
def test_unit_orbits_are_gcd_classes(L, w):
    g = build_graph(L, w)
    orbits = g.unit_orbits()
    classes = {}
    for i, gen in enumerate(g.generators):
        classes.setdefault(gcd(gen, L), set()).add(i)
    assert sorted(map(sorted, orbits)) == sorted(map(sorted, classes.values()))
    assert len(orbits) >= 3
    # orbits come in vertex order: each starts after the previous one's start
    assert [o[0] for o in orbits] == sorted(o[0] for o in orbits)
    where = {ds: k for k, orbit in enumerate(orbits) for ds in (g.vertices[i] for i in orbit)}
    for u in range(1, L):
        if gcd(u, L) != 1:
            continue
        for ds, k in where.items():
            assert where[frozenset(u * x % L for x in ds)] == k


def test_witness_check_survives_optimize():
    # a witness that fails verification must raise NotACac even under -O
    script = """
import cacforge.oracle as o
from cacforge.errors import NotACac
assert False, "assertions must be off"
g = o.build_graph(13, 3)
j = next(j for j in range(1, len(g.vertices)) if not g.adjacency[0] >> j & 1)
o._max_clique = lambda adj, orbits, budget, ceiling, sets: (2, [0, j], 1)
try:
    o.max_equi_diff_cac(13, 3)
except NotACac as e:
    print("NotACac", e.report.ok)
"""
    src = str(Path(cacforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "NotACac False"


def test_certify_fills_oracle_fields():
    cert = construct_lemma1(13, 3)
    assert cert.oracle_max is None
    done = certify(cert)
    assert done.oracle_max == 3
    assert done.flags.optimal_by_oracle is True
    # original is untouched
    assert cert.flags.optimal_by_oracle is None


def test_max_general_cac_pins():
    assert max_general_cac(5, 3)[0] == 1
    size, sups = max_general_cac(9, 3)
    assert size == 2
    assert all(0 in s for s in sups)
    assert max_general_cac(15, 3)[0] == 4


def test_max_general_cac_budget_carries_supports():
    w = 3
    with pytest.raises(BudgetExceeded) as exc:
        max_general_cac(30, w, budget=1)
    best = exc.value.best
    assert len(best) == exc.value.size > 0
    diffs = []
    for sup in best:
        assert 0 in sup and len(sup) == w
        assert all(0 <= x < 30 for x in sup)
        diffs.append({(a - b) % 30 for a in sup for b in sup if a != b})
    for i in range(len(diffs)):
        for j in range(i):
            assert not diffs[i] & diffs[j]


def test_negative_budget_is_rejected():
    # the search stops at nodes == budget, which a negative budget never
    # reaches
    with pytest.raises(ValueError, match="budget"):
        max_equi_diff_cac(157, 4, budget=-1, cap=157)
    with pytest.raises(ValueError, match="budget"):
        max_general_cac(9, 3, budget=-1)
    with pytest.raises(BudgetExceeded):
        max_equi_diff_cac(157, 4, budget=0, cap=157)


def test_negative_cap_is_rejected():
    # a negative cap is a caller error, not a search too large to run
    with pytest.raises(ValueError, match="cap must be >= 0"):
        max_equi_diff_cac(15, 3, cap=-5)
    with pytest.raises(ValueError, match="cap must be >= 0"):
        max_general_cac(15, 3, cap=-5)
    # zero is a cap like any other
    with pytest.raises(BudgetExceeded):
        max_equi_diff_cac(15, 3, cap=0)
    with pytest.raises(BudgetExceeded):
        max_general_cac(15, 3, cap=0)


def test_max_general_cac_cap():
    with pytest.raises(BudgetExceeded):
        max_general_cac(41, 3)
    with pytest.raises(ValueError):
        max_general_cac(3, 1)


def test_general_never_below_equi_diff(rng):
    for _ in range(15):
        L = rng.randint(4, 24)
        w = rng.choice([2, 3])
        if L < w:
            continue
        general, _ = max_general_cac(L, w)
        assert general >= max_equi_diff_cac(L, w).size
