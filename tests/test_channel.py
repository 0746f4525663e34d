import json
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacforge.channel import (
    EXHAUSTIVE_BUDGET,
    Scenario,
    _run_once,
    cross_correlation,
    scenario_from_json,
    simulate,
    to_protocol_sequence,
    verify_irrepressibility_exhaustive,
)
from cacforge.codes import Code, EquiDiffCodeword, support
from cacforge.constructions import (
    construct_lemma1,
    construct_theorem2,
    construct_two_prime,
)
from cacforge.errors import BudgetExceeded, DuplicateAssignment, NotACac, ParamMismatch


def test_protocol_sequence():
    s = to_protocol_sequence(EquiDiffCodeword(9, 3, 1))
    assert str(s) == "111000000"
    assert s.weight == 3
    assert s.as_bits() == (1, 1, 1, 0, 0, 0, 0, 0, 0)
    s = to_protocol_sequence(EquiDiffCodeword(9, 3, 4))
    assert str(s) == "100010001"


def test_cross_correlation_pins():
    a = to_protocol_sequence(EquiDiffCodeword(9, 3, 1))
    b = to_protocol_sequence(EquiDiffCodeword(9, 3, 3))
    assert cross_correlation(a, a, 0) == 3
    assert all(cross_correlation(a, b, t) == 1 for t in range(9))
    with pytest.raises(ValueError):
        cross_correlation(a, to_protocol_sequence(EquiDiffCodeword(7, 3, 1)), 0)


def test_cross_correlation_shift_invariance(rng):
    code = construct_lemma1(13, 3).code
    seqs = [to_protocol_sequence(cw) for cw in code.codewords]
    for _ in range(200):
        i, j = rng.randrange(len(seqs)), rng.randrange(len(seqs))
        t = rng.randrange(13)
        cc = cross_correlation(seqs[i], seqs[j], t)
        if i == j and t == 0:
            assert cc == 3
        elif i != j:
            # disjoint difference sets force at most one coincidence
            assert cc <= 1


def test_simulate_explicit():
    code = Code.from_generators(9, 3, [1, 3])
    rep = simulate(Scenario(code, active=((0, 0), (1, 3))))
    assert rep.runs == 1
    assert rep.per_user == {0: 2, 1: 2}
    assert rep.violations == ()


def test_simulate_single_user_all_clear():
    code = Code.from_generators(9, 3, [1, 3])
    rep = simulate(Scenario(code, active=((1, 5),)))
    assert rep.per_user == {1: 3}


def test_simulate_rejects():
    code = Code.from_generators(9, 3, [1, 3])
    with pytest.raises(DuplicateAssignment):
        simulate(Scenario(code, active=((0, 0), (0, 4))))
    with pytest.raises(ParamMismatch):
        simulate(Scenario(code, active=((7, 0),)))
    with pytest.raises(ParamMismatch):
        simulate(Scenario(Code(9, 3, ()), trials=3))
    with pytest.raises(NotACac):
        simulate(Scenario(Code.from_generators(9, 3, [1, 4]), active=((0, 0),)))


def test_simulate_sampling_deterministic():
    code = construct_lemma1(13, 3).code
    a = simulate(Scenario(code, seed=7, trials=300))
    b = simulate(Scenario(code, seed=7, trials=300))
    assert a.to_json() == b.to_json()
    assert a.runs == 300
    assert a.violations == ()
    c = simulate(Scenario(code, seed=8, trials=300))
    assert c.to_json() != a.to_json()


def test_simulate_cac_never_starves(rng):
    # any <= w active users of a verified CAC each keep a clear slot
    code = construct_two_prime(3, 13, 3).code
    for _ in range(30):
        k = rng.randint(1, 3)
        idxs = rng.sample(range(len(code)), k)
        active = tuple((i, rng.randrange(39)) for i in idxs)
        rep = simulate(Scenario(code, active=active))
        assert all(v > 0 for v in rep.per_user.values())


def test_scenario_json_roundtrip():
    obj = {
        "code": {"L": 9, "w": 3, "generators": [1, 3]},
        "active": [{"idx": 0, "delay": 2}],
        "seed": 5,
        "trials": 0,
    }
    sc = scenario_from_json(json.loads(json.dumps(obj)))
    assert sc.code.generators == (1, 3)
    assert sc.active == ((0, 2),)
    rep = simulate(sc)
    assert rep.per_user == {0: 3}


def test_irrepressibility_k1():
    assert verify_irrepressibility_exhaustive(Code.from_generators(9, 3, [1, 4]), 1)


def test_irrepressibility_translate_pair_fails():
    # generators 1 and 8 give translate-identical supports: one user can
    # mirror the other exactly and black it out
    assert not verify_irrepressibility_exhaustive(Code.from_generators(9, 3, [1, 8]), 2)
    # sharing differences alone is not enough to blind anyone
    assert verify_irrepressibility_exhaustive(Code.from_generators(9, 3, [1, 4]), 2)
    assert not verify_irrepressibility_exhaustive(
        Code.from_generators(9, 3, [1, 2, 4]), 3
    )


def test_irrepressibility_valid_cac():
    code = construct_lemma1(13, 3).code
    for k in (1, 2, 3):
        assert verify_irrepressibility_exhaustive(code, k)


def test_irrepressibility_bad_k():
    code = construct_lemma1(13, 3).code
    with pytest.raises(ValueError):
        verify_irrepressibility_exhaustive(code, 0)
    with pytest.raises(ValueError):
        verify_irrepressibility_exhaustive(code, 4)


def test_irrepressibility_budget():
    code = construct_theorem2(
        construct_lemma1(5, 3), construct_lemma1(13, 3)
    ).code
    # 16 users, k = 3: C(16,3) * 65^2 is about 2.4M delay combinations
    with pytest.raises(BudgetExceeded):
        verify_irrepressibility_exhaustive(code, 3, budget=1000)
    assert EXHAUSTIVE_BUDGET == 5_000_000


def test_irrepressibility_small_budget_boundary():
    code = Code.from_generators(9, 3, [1, 3])
    # C(2,2) * 9 = 9 combinations exactly
    assert verify_irrepressibility_exhaustive(code, 2, budget=9)
    with pytest.raises(BudgetExceeded):
        verify_irrepressibility_exhaustive(code, 2, budget=8)


def _irrepressible_by_brute_force(code, k):
    # every k-subset and every delay tuple, one period each; shifting all
    # users by the same delay changes no count, so the first delay is 0
    L = code.length
    on_air_at = [[sum(1 << (s + d) % L for s in support(cw)) for d in range(L)]
                 for cw in code.codewords]
    for users in combinations(range(len(code)), k):
        for delays in product(range(L), repeat=k - 1):
            on_air = [on_air_at[u][d] for u, d in zip(users, (0,) + delays)]
            if 0 in _run_once(on_air):
                return False
    return True


@st.composite
def small_codes(draw):
    w = draw(st.integers(2, 4))
    L = draw(st.integers(w, 30))
    valid = [g for g in range(1, L) if L // gcd(L, g) >= w]
    gens = draw(st.lists(st.sampled_from(valid), min_size=1, max_size=5))
    return Code.from_generators(L, w, gens)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_codes())
def test_irrepressibility_matches_brute_force(code):
    for k in range(1, min(code.weight, len(code)) + 1):
        expected = _irrepressible_by_brute_force(code, k)
        assert verify_irrepressibility_exhaustive(code, k) is expected


def test_irrepressibility_fails_on_every_clash_copy():
    # replacing codeword i by 2 g_j shares the differences +-2 g_j with j
    code = construct_theorem2(construct_lemma1(5, 3), construct_lemma1(13, 3)).code
    assert verify_irrepressibility_exhaustive(code, 3)
    gens = code.generators
    for i, j in product(range(len(gens)), repeat=2):
        if i != j:
            clash = list(gens)
            clash[i] = 2 * gens[j] % code.length
            bad = Code.from_generators(code.length, code.weight, clash)
            assert not verify_irrepressibility_exhaustive(bad, 3), (i, j)
