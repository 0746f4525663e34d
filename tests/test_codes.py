import copy
import json
import math
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacforge.bounds import new_bound
from cacforge.codes import (
    CertFlags,
    Certificate,
    Code,
    DifferenceSet,
    EquiDiffCodeword,
    code_from_json,
    code_to_json,
    difference_set,
    is_exceptional,
    is_tight,
    support,
    support_difference_set,
    verify_cac,
)
from cacforge.constructions import construct_lemma1
from cacforge.errors import (
    DegenerateCodeword,
    HeterogeneousCode,
    NotACac,
    ParseError,
)


def test_support():
    assert support(EquiDiffCodeword(9, 3, 4)) == frozenset({0, 4, 8})
    assert support(EquiDiffCodeword(7, 3, 2)) == frozenset({0, 2, 4})
    assert len(support(EquiDiffCodeword(919, 4, 7))) == 4


def test_degenerate_codewords():
    with pytest.raises(DegenerateCodeword):
        EquiDiffCodeword(9, 3, 0)
    with pytest.raises(DegenerateCodeword):
        EquiDiffCodeword(9, 3, 9)
    with pytest.raises(DegenerateCodeword):
        EquiDiffCodeword(8, 3, 4)  # support 0,4,0 collapses
    with pytest.raises(DegenerateCodeword):
        EquiDiffCodeword(1, 2, 1)
    # boundary: L/gcd == w is the smallest legal orbit
    assert support(EquiDiffCodeword(9, 3, 6)) == frozenset({0, 3, 6})


def test_difference_set_pins():
    d = difference_set(EquiDiffCodeword(9, 3, 1))
    assert d.elements == frozenset({1, 2, 7, 8})
    d = difference_set(EquiDiffCodeword(9, 3, 3))
    assert d.elements == frozenset({3, 6})


@pytest.mark.parametrize("elements, message", [
    ({0}, "outside"), ({13}, "outside"), ({-1, 14}, "outside"), ({5, 8, 13}, "outside"),
    ({1}, "not closed"), ({1, 12, 2}, "not closed"),
])
def test_difference_set_rejects(elements, message):
    with pytest.raises(ValueError, match=message):
        DifferenceSet(13, frozenset(elements))
    assert DifferenceSet(13, frozenset({1, 12, 2, 11})).elements == {1, 2, 11, 12}


def _assert_trusted_build(L, w, g):
    """difference_set skips DifferenceSet's checks; its result must still pass them."""
    d = difference_set(EquiDiffCodeword(L, w, g))
    brute = frozenset(sign * j * g % L for j in range(1, w) for sign in (1, -1))
    assert type(d) is DifferenceSet
    assert d.length == L and d.elements == brute
    checked = DifferenceSet(L, brute)  # the public constructor accepts it
    assert d == checked and hash(d) == hash(checked)
    assert all(1 <= x <= L - 1 and L - x in d.elements for x in d.elements)


def test_difference_set_matches_brute_force_for_every_small_codeword():
    cases = 0
    for L in range(2, 61):
        for w in range(2, L + 1):
            for g in range(1, L):
                if L // math.gcd(L, g) >= w:
                    _assert_trusted_build(L, w, g)
                    cases += 1
    assert cases == 51616


@st.composite
def _large_codewords(draw):
    L = draw(st.integers(2, 10**6))
    orders = [m for m in range(2, 81) if L % m == 0]
    if orders and draw(st.booleans()):
        # a generator of small additive order m, so exceptional codewords occur
        m = draw(st.sampled_from(orders))
        g = L // m * draw(st.integers(1, m - 1))
    else:
        g = draw(st.integers(1, L - 1))
    w = draw(st.integers(2, min(L // math.gcd(L, g), 40)))
    return L, w, g


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=_large_codewords())
def test_difference_set_trusted_build_at_large_length(case):
    _assert_trusted_build(*case)


def test_difference_set_runs_no_check_but_the_public_constructor_does(monkeypatch):
    checked = []
    check = DifferenceSet.__post_init__

    def counting(self):
        checked.append(self.length)
        check(self)

    monkeypatch.setattr(DifferenceSet, "__post_init__", counting)
    d = difference_set(EquiDiffCodeword(919, 4, 7))
    assert verify_cac(construct_lemma1(13, 3).code).covered == 12
    assert checked == []
    with pytest.raises(FrozenInstanceError):
        d.length = 5
    assert DifferenceSet(919, d.elements) == d
    assert checked == [919]
    support_difference_set(9, frozenset({0, 1, 3}))
    assert checked == [919, 9]
    with pytest.raises(ValueError, match="not closed"):
        DifferenceSet(13, frozenset({1}))
    assert checked == [919, 9, 13]


def test_exceptional():
    # an exceptional codeword's differences, with 0, are the subgroup <gcd(L, g)>
    for L, w, g in [(9, 3, 3), (12, 4, 2), (30, 4, 6), (671, 11, 61), (20, 6, 2)]:
        cw = EquiDiffCodeword(L, w, g)
        assert is_exceptional(cw)
        assert difference_set(cw).elements | {0} == frozenset(range(0, L, math.gcd(L, g)))
    assert not is_exceptional(EquiDiffCodeword(9, 3, 1))


def test_canonicalize():
    # the canonical generator of g is min(g, L - g)
    assert Code.from_generators(9, 3, [8, 4]).canonical_generators() == [1, 4]
    code = Code.from_generators(15, 3, [11])
    assert code.canonical_generators() == [4]
    assert difference_set(EquiDiffCodeword(15, 3, 4)) == difference_set(code.codewords[0])


def test_codeword_random_properties(rng):
    for _ in range(2000):
        L = rng.randint(4, 400)
        w = rng.randint(2, 8)
        g = rng.randint(1, L - 1)
        if L // math.gcd(L, g) < w:
            continue
        cw = EquiDiffCodeword(L, w, g)
        d = difference_set(cw).elements
        assert len(d) == min(L // math.gcd(L, g), 2 * w - 1) - 1
        assert all((L - x) % L in d for x in d)
        assert 0 not in d
        canon = Code(L, w, (cw,)).canonical_generators()
        assert canon == [min(g, L - g)]
        assert difference_set(EquiDiffCodeword(L, w, canon[0])).elements == d
        if is_exceptional(cw):
            assert d | {0} == frozenset(range(0, L, math.gcd(L, g)))


def test_support_difference_set():
    d = support_difference_set(9, frozenset({0, 1, 3}))
    assert d.elements == frozenset({1, 2, 3, 6, 7, 8})
    assert support_difference_set(9, frozenset({5})).elements == frozenset()


def test_code_construction():
    code = Code.from_generators(9, 3, [1, 3])
    assert len(code) == 2
    assert code.generators == (1, 3)
    assert code.canonical_generators() == [1, 3]
    with pytest.raises(HeterogeneousCode):
        Code(9, 3, (EquiDiffCodeword(9, 3, 1), EquiDiffCodeword(9, 4, 1)))
    with pytest.raises(HeterogeneousCode):
        Code(9, 3, (EquiDiffCodeword(9, 3, 1), EquiDiffCodeword(11, 3, 1)))


def test_canonical_generators_dedup():
    # 8 generates the mirror of 1; canonical form collapses them
    code = Code.from_generators(9, 3, [8, 3])
    assert code.canonical_generators() == [1, 3]


def test_verify_cac():
    good = Code.from_generators(9, 3, [1, 3])
    rep = verify_cac(good)
    assert rep.ok and rep.pair is None and rep.witness is None
    assert rep.covered == 6  # {1, 2, 7, 8} and {3, 6}
    assert rep.to_json() == {"ok": True, "pair": None, "witness": None}
    bad = Code.from_generators(9, 3, [1, 4])
    rep = verify_cac(bad)
    assert not rep.ok
    assert rep.pair == (0, 1)
    assert rep.witness == 1
    assert rep.covered is None
    assert rep.to_json() == {"ok": False, "pair": [0, 1], "witness": 1}


def test_verify_cac_duplicate_generator():
    rep = verify_cac(Code.from_generators(13, 3, [1, 1]))
    assert not rep.ok and rep.pair == (0, 1)


def _verify_reference(code):
    """The sorted scan with a dict of owners that verify_cac must agree with."""
    owner = {}
    for idx, cw in enumerate(code.codewords):
        for x in sorted(difference_set(cw).elements):
            if x in owner:
                return False, (owner[x], idx), x, None
            owner[x] = idx
    return True, None, None, len(owner)


def _keep_disjoint(L, w, gens):
    """The generators whose difference sets miss all kept ones: a CAC."""
    kept, seen = [], set()
    for g in gens:
        d = difference_set(EquiDiffCodeword(L, w, g)).elements
        if seen.isdisjoint(d):
            kept.append(g)
            seen |= d
    return kept


@st.composite
def _codes(draw):
    """(dense, code): verify_cac's list of L owners when dense, else its dict.

    A dense code has L <= 16(w-1), so any one codeword makes it dense; a
    sparse one has at most 10 codewords and L > 160(w-1), up to 10^12.
    """
    dense = draw(st.booleans())
    w = draw(st.integers(2, 7))
    if dense:
        L = draw(st.integers(w, 16 * (w - 1)))
        valid = [g for g in range(1, L) if L // math.gcd(L, g) >= w]
        gens = draw(st.lists(st.sampled_from(valid), min_size=1, max_size=10))
    else:
        L = draw(st.integers(160 * (w - 1) + 1, 10**12))
        gens = draw(st.lists(st.integers(1, L - 1).filter(
            lambda g: L // math.gcd(L, g) >= w), max_size=10))
        # clashes are rare among random generators of a long code: derive
        # some as j*g, whose difference set holds jg from g's
        for _ in range(draw(st.integers(0, 10 - len(gens)))):
            if gens:
                g = draw(st.sampled_from(gens)) * draw(st.integers(1, w - 1)) % L
                if g and L // math.gcd(L, g) >= w:
                    gens.append(g)
    if draw(st.booleans()):
        gens = _keep_disjoint(L, w, gens)
    return dense, Code.from_generators(L, w, gens)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(case=_codes())
def test_verify_cac_matches_sorted_scan(case):
    dense, code = case
    assert (code.length <= 16 * (code.weight - 1) * len(code)) == dense
    rep = verify_cac(code)
    assert (rep.ok, rep.pair, rep.witness, rep.covered) == _verify_reference(code)


def test_verify_cac_memory_per_residue():
    code = construct_lemma1(50021, 3).code
    tracemalloc.start()
    try:
        assert verify_cac(code).covered == 50020
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a list of owners is 8 B per residue; a set of the ints took about 88
    assert peak / code.length < 24


def test_slotted_value_classes():
    # slots drop the per-instance __dict__; the value semantics stay
    cw = EquiDiffCodeword(13, 3, 2)
    ds = difference_set(cw)
    cases = [
        (cw, (13, 3, 2), "EquiDiffCodeword(length=13, weight=3, generator=2)"),
        (ds, (13, frozenset({2, 4, 9, 11})),
         f"DifferenceSet(length=13, elements={frozenset({2, 4, 9, 11})!r})"),
    ]
    for obj, fields, text in cases:
        assert not hasattr(obj, "__dict__")
        assert obj == type(obj)(*fields) and hash(obj) == hash(fields)
        assert repr(obj) == text
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert twin == obj and hash(twin) == hash(obj) and repr(twin) == text
        with pytest.raises(FrozenInstanceError):
            obj.length = 14
    assert cw != EquiDiffCodeword(13, 3, 3)
    assert ds != difference_set(EquiDiffCodeword(13, 3, 3))


def test_is_tight():
    assert not is_tight(Code.from_generators(9, 3, [1, 3]))
    cert = construct_lemma1(13, 3)
    assert is_tight(cert.code)
    with pytest.raises(NotACac):
        is_tight(Code.from_generators(9, 3, [1, 4]))


def test_code_json_roundtrip():
    code = Code.from_generators(15, 3, [1, 3, 4, 5])
    obj = code_to_json(code)
    assert obj == {"L": 15, "w": 3, "generators": [1, 3, 4, 5]}
    assert code_from_json(json.loads(json.dumps(obj))) == code


def test_certificate_roundtrip():
    cert = construct_lemma1(13, 3)
    assert cert.bound_floor == 3
    assert cert.flags == CertFlags(True, True, True, None)
    obj = json.loads(json.dumps(cert.to_json()))
    back = Certificate.from_json(obj)
    # serialization stores canonical generators, so compare those
    assert back.code.canonical_generators() == cert.code.canonical_generators()
    assert (back.code.length, back.code.weight) == (13, 3)
    assert back.bound == cert.bound
    assert back.flags == cert.flags
    assert back.params == cert.params


def test_certificate_bound_floor_matches_bound():
    cert = construct_lemma1(5, 3)
    assert cert.bound_floor == new_bound(5, 3).floor_value == 1


def test_certificate_accepts_oracle_fields():
    obj = json.loads(json.dumps(construct_lemma1(13, 3).to_json()))
    obj["flags"]["optimal_by_oracle"] = True
    obj["oracle_max"] = 3
    cert = Certificate.from_json(obj)
    assert cert.flags == CertFlags(True, True, True, True)
    assert cert.oracle_max == 3


@pytest.mark.parametrize("field, value, message", [
    ("verified_cac", "yes", "verified_cac must be true, false or null, got 'yes'"),
    ("tight", "no", "tight must be true, false or null, got 'no'"),
    ("optimal_by_bound", 1, "optimal_by_bound must be true, false or null, got 1"),
    ("optimal_by_oracle", "maybe", "optimal_by_oracle must be true, false or null, got 'maybe'"),
    ("oracle_max", "x", "oracle_max must be an integer, got 'x'"),
    ("oracle_max", 3.0, "oracle_max must be an integer, got 3.0"),
    ("oracle_max", True, "oracle_max must be an integer, got True"),
])
def test_certificate_flags_are_strict(field, value, message):
    obj = json.loads(json.dumps(construct_lemma1(13, 3).to_json()))
    if field == "oracle_max":
        obj[field] = value
    else:
        obj["flags"][field] = value
    with pytest.raises(ParseError) as ei:
        Certificate.from_json(obj)
    assert str(ei.value) == f"malformed certificate ({message})"
