import json
import math
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from cacforge.bounds import (
    _best_coprime_subset,
    _subset_pool,
    coprime_excess_exact,
    corollary1_bound,
    exact_refund_floor,
    new_bound,
    omega,
    omega_star,
    prime_divisor_bound,
    subset_excess_bound,
)
from cacforge.codes import Certificate
from cacforge.errors import InconsistentClaim, ParseError, UnsupportedWeight


def test_omega():
    assert omega(20, 3) == (4,)
    assert omega(36, 4) == (4, 6)
    assert omega(252, 8) == (9, 12, 14)
    assert omega(919, 4) == ()
    assert omega(671, 11) == (11,)
    assert omega(13, 8) == (13,)


def test_omega_star():
    assert omega_star(20, 3) == (4,)
    # 6 shares a factor with the smaller 4, so only 4 survives
    assert omega_star(36, 4) == (4,)
    # 12 loses to 9, then 14 loses to the already-rejected 12
    assert omega_star(252, 8) == (9,)


def test_omega_star_pairwise_coprime(rng):
    for _ in range(500):
        L = rng.randint(4, 5000)
        w = rng.randint(2, 10)
        star = omega_star(L, w)
        assert set(star) <= set(omega(L, w))
        for i, a in enumerate(star):
            for b in star[i + 1:]:
                assert math.gcd(a, b) == 1


def test_new_bound_pins():
    r = new_bound(20, 3)
    assert (r.raw_numerator, r.denominator, r.floor_value, r.excess) == (20, 4, 5, 1)
    assert r.as_fraction == Fraction(5, 1)
    assert new_bound(919, 4).floor_value == 153
    assert new_bound(919, 4).excess == 0
    r = new_bound(671, 11)
    assert (r.excess, r.floor_value) == (10, 34)
    # raw fraction is kept unreduced
    assert new_bound(21, 3).to_json()["raw"] == "22/4"


def test_omega_at_a_weight_far_above_the_length():
    # omega and the subset pool against plain scans, over ranges below and
    # above sqrt(L)
    for L in range(2, 2000):
        for w in range(2, 60):
            assert omega(L, w) == tuple(d for d in range(w, 2 * w - 1) if L % d == 0)
            assert _subset_pool(L, w) == [
                x for x in range(2, 2 * w - 1)
                if L % x == 0 and 2 * x * math.ceil(w / x) - x <= 2 * w - 2
            ]
    # the scan is about sqrt(L) long, so its cost does not grow with w
    t0 = time.perf_counter()
    r = new_bound(13, 10**8)
    assert (r.omega, r.excess, r.floor_value) == ((), 0, 0)
    assert time.perf_counter() - t0 < 0.5


def test_new_bound_report_shape(rng):
    for _ in range(300):
        L = rng.randint(6, 3000)
        w = rng.randint(3, 8)
        r = new_bound(L, w)
        assert r.denominator == 2 * w - 2
        assert r.raw_numerator == L - 1 + r.excess
        assert r.excess == sum(2 * w - 1 - p for p in r.omega_star)
        assert r.floor_value == r.raw_numerator // r.denominator
        assert all(L % p == 0 and w <= p < 2 * w - 1 for p in r.omega)


def _certificate_json(L, w, bound):
    """A certificate of the empty (L, w) code that carries the given bound report."""
    flags = {"verified_cac": True, "tight": False, "optimal_by_bound": False,
             "optimal_by_oracle": None}
    return {"code": {"L": L, "w": w, "generators": []}, "bound": bound, "flags": flags}


def test_bound_report_json_roundtrip():
    r = new_bound(252, 8)
    back = Certificate.from_json(_certificate_json(252, 8, json.loads(json.dumps(r.to_json()))))
    assert back.bound == r
    edited = dict(r.to_json(), floor=99)
    with pytest.raises(ParseError, match=r"bound floor must be 18 for a \(252,8\) code, got 99"):
        Certificate.from_json(_certificate_json(252, 8, edited))
    with pytest.raises(InconsistentClaim, match=r"floor 99 is not floor\(257/14\)"):
        replace(r, floor_value=99)


@pytest.mark.parametrize("field, value", [
    ("floor", 1.9), ("floor", 1.0), ("excess", "0"), ("L", True), ("omega_star", [5.0]),
    ("raw", "4/4.0"), ("raw", "4/0"),
])
def test_bound_report_json_takes_integers_only(field, value):
    # a p = 5 lemma-1 bound; int() once read 1.9 and "0" as 1 and 0
    want = new_bound(5, 3).to_json()
    obj = _certificate_json(5, 3, dict(want, **{field: value}))
    with pytest.raises(ParseError) as ei:
        Certificate.from_json(obj)
    assert str(ei.value) == (f"malformed certificate (bound {field} must be "
                             f"{json.dumps(want[field])} for a (5,3) code, "
                             f"got {json.dumps(value)})")


def test_corollary1():
    assert [corollary1_bound(20, w) for w in (3, 4, 5, 6)] == [5, 4, 3, 2]
    assert corollary1_bound(919, 4) == (919 + 4) // 6
    with pytest.raises(UnsupportedWeight):
        corollary1_bound(20, 7)
    with pytest.raises(UnsupportedWeight):
        corollary1_bound(20, 2)


def test_prime_divisor_bound():
    assert prime_divisor_bound(919, 4) == (Fraction(307, 2), 153)
    assert prime_divisor_bound(36, 4) == (Fraction(41, 6), 6)


def test_subset_excess_bound():
    assert subset_excess_bound(36, 4) == (Fraction(19, 3), 6, (4,))
    frac, floor, chosen = subset_excess_bound(252, 8)
    assert (frac, floor, chosen) == (Fraction(130, 7), 18, (4, 9))
    for i, a in enumerate(chosen):
        for b in chosen[i + 1:]:
            assert math.gcd(a, b) == 1


def test_coprime_excess_exact():
    assert coprime_excess_exact(20, 3) == 1
    assert coprime_excess_exact(36, 4) == 3
    # the greedy filter keeps only 9 here, but {9, 14} is coprime and scores
    # one more; the exact maximizer must see that
    assert new_bound(252, 8).excess == 6
    assert coprime_excess_exact(252, 8) == 7


def test_bound_orderings(rng):
    # filtered excess never exceeds the exact coprime maximum (nor its floor
    # the exact-refund floor), and the bound built from it never exceeds the
    # two older bounds
    for _ in range(300):
        L = rng.randint(6, 4000)
        w = rng.randint(3, 8)
        r = new_bound(L, w)
        assert r.excess <= coprime_excess_exact(L, w)
        assert r.floor_value <= exact_refund_floor(L, w)
        assert r.as_fraction <= prime_divisor_bound(L, w)[0]
        assert r.as_fraction <= subset_excess_bound(L, w)[0]
        if w <= 6:
            assert r.floor_value <= corollary1_bound(L, w)


def _best_coprime_subset_by_brute_force(pool, gain):
    # every subset by size, then in combinations order; the first to beat
    # the best so far wins
    best, best_set = 0, ()
    for r in range(1, len(pool) + 1):
        for sub in combinations(pool, r):
            if all(math.gcd(a, b) == 1 for a, b in combinations(sub, 2)):
                val = sum(map(gain, sub))
                if val > best:
                    best, best_set = val, sub
    return best, best_set


def test_best_coprime_subset_matches_the_brute_force():
    # both pools, the maximizing subset included
    for w in range(2, 12):
        gains = (lambda p: 2 * w - 1 - p, lambda x: x - 1 - 2 * x * math.ceil(w / x) + 2 * w)
        for L in range(2, 3001):
            for pool, gain in zip((omega(L, w), _subset_pool(L, w)), gains):
                want = _best_coprime_subset_by_brute_force(pool, gain)
                assert _best_coprime_subset(pool, gain) == want, (L, w)


def test_exact_refund_floor_above_the_paper_floor_at_504_9():
    # omega (9, 12, 14): the filter keeps 9 alone (refund 8), while the
    # coprime pair {9, 14} refunds 8 + 3
    assert omega_star(504, 9) == (9,)
    assert new_bound(504, 9).floor_value == 31
    assert coprime_excess_exact(504, 9) == 11
    assert exact_refund_floor(504, 9) == 32
