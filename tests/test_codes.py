import json
import math

import pytest

from cacforge.bounds import new_bound
from cacforge.codes import (
    CertFlags,
    Certificate,
    Code,
    EquiDiffCodeword,
    canonicalize,
    code_from_json,
    code_to_json,
    difference_set,
    is_exceptional,
    is_tight,
    subgroup_of_exceptional,
    support,
    support_difference_set,
    verify_cac,
)
from cacforge.constructions import construct_lemma1
from cacforge.errors import (
    DegenerateCodeword,
    HeterogeneousCode,
    NotACac,
    NotExceptional,
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


def test_exceptional():
    cw = EquiDiffCodeword(9, 3, 3)
    assert is_exceptional(cw)
    assert subgroup_of_exceptional(cw) == frozenset({0, 3, 6})
    reg = EquiDiffCodeword(9, 3, 1)
    assert not is_exceptional(reg)
    with pytest.raises(NotExceptional):
        subgroup_of_exceptional(reg)


def test_canonicalize():
    assert canonicalize(EquiDiffCodeword(9, 3, 8)).generator == 1
    assert canonicalize(EquiDiffCodeword(9, 3, 4)).generator == 4
    cw = EquiDiffCodeword(15, 3, 11)
    assert canonicalize(cw).generator == 4
    assert difference_set(canonicalize(cw)) == difference_set(cw)


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
        canon = canonicalize(cw)
        assert canon.generator <= L - canon.generator
        assert difference_set(canon).elements == d
        assert canonicalize(canon) == canon


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
