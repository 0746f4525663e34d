import math

import pytest

from cacforge.errors import NotAUnit, NotPrime
from cacforge.numtheory import (
    Factorization,
    cyclic_subgroup,
    divisors,
    factorize,
    is_prime,
    multiplicative_order,
    primitive_root,
    totient,
)
from coset_reference import NotASubgroupOf, cosets, is_sdr, sdr_offender, unit_group


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert is_prime(919)
    assert is_prime(2_305_843_009_213_693_951)  # 2^61 - 1
    assert not is_prime(561)  # Carmichael
    assert not is_prime(919 * 929)


def test_factorize_pins():
    f = factorize(840)
    assert f.factors == ((2, 3), (3, 1), (5, 1), (7, 1))
    assert f.primes == (2, 3, 5, 7)
    assert f.distinct_prime_count == 4
    assert factorize(919).factors == ((919, 1),)
    assert factorize(671).primes == (11, 61)
    assert factorize(1).factors == ()
    assert factorize(1).distinct_prime_count == 0


def test_factorization_validates():
    with pytest.raises(Exception):
        Factorization(12, ((2, 1), (3, 1)))  # product is 6, not 12
    with pytest.raises(Exception):
        Factorization(12, ((3, 1), (2, 2)))  # out of order
    with pytest.raises(Exception):
        Factorization(16, ((4, 2),))  # 4 is not prime


def test_factorize_random_roundtrip(rng):
    for _ in range(300):
        n = rng.randint(1, 10**6)
        f = factorize(n)
        prod = 1
        for p, e in f.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def _trial_division(n):
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def test_factorize_matches_trial_division():
    for n in range(1, 20_000):
        assert factorize(n).factors == _trial_division(n), n


def test_factorize_retests_primality_only_after_a_division(monkeypatch):
    import cacforge.numtheory as nt

    calls = []
    real = nt.is_prime
    monkeypatch.setattr(nt, "is_prime", lambda n: calls.append(n) or real(n))
    # 10007 * 10009: one test before the loop, none while d climbs to
    # 10007, then two from Factorization's own validation
    assert nt.factorize(10007 * 10009).factors == ((10007, 1), (10009, 1))
    assert calls == [10007 * 10009, 10007, 10009]


def test_divisors():
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert divisors(1) == [1]
    assert divisors(919) == [1, 919]


def _divisors_by_factorization(n):
    # the enumerator divisors used before its square-root scan
    out = [1]
    for p, e in factorize(n).factors:
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def test_divisors_match_the_factorization_enumerator():
    for n in range(1, 10_001):
        assert divisors(n) == _divisors_by_factorization(n), n
    # large smooth lengths, with divisors on both sides of the square root
    for n in [720720, 12252240, 2 ** 20 * 3 ** 8, 2 ** 12 * 3 ** 4 * 5 ** 3 * 7 ** 2 * 11]:
        assert divisors(n) == _divisors_by_factorization(n), n


def test_totient_pins():
    assert totient(1) == 1
    assert totient(12) == 4
    assert totient(919) == 918
    assert totient(671) == 600


def test_totient_random(rng):
    for _ in range(50):
        n = rng.randint(1, 400)
        brute = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert totient(n) == brute


def test_multiplicative_order_pins():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(7, 919) == 918
    # regression: composite modulus where naive exponent halving goes wrong
    assert multiplicative_order(45, 671) == 30
    with pytest.raises(NotAUnit):
        multiplicative_order(6, 9)


def test_multiplicative_order_random(rng):
    for _ in range(200):
        L = rng.randint(2, 500)
        a = rng.randint(1, L - 1)
        if math.gcd(a, L) != 1:
            continue
        d = multiplicative_order(a, L)
        assert pow(a, d, L) == 1
        assert totient(L) % d == 0
        # minimality
        assert all(pow(a, k, L) != 1 for k in range(1, min(d, 40)))


def test_primitive_root_is_the_least_generator():
    for p in range(2, 2000):
        if not is_prime(p):
            continue
        # the least g whose powers reach every unit (1 for p = 2)
        least = next(g for g in range(1, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
        assert primitive_root(p) == least, p


def test_primitive_root():
    assert primitive_root(2) == 1
    assert primitive_root(7) == 3
    assert primitive_root(13) == 2
    assert primitive_root(919) == 7
    with pytest.raises(NotPrime):
        primitive_root(15)


def test_primitive_root_random(rng):
    for _ in range(40):
        p = rng.randint(3, 2000)
        if not is_prime(p):
            continue
        g = primitive_root(p)
        assert multiplicative_order(g, p) == p - 1


def test_cyclic_subgroup():
    H = cyclic_subgroup(9, 17)
    assert H.order == 8
    assert H.elements == frozenset({1, 2, 4, 8, 9, 13, 15, 16})
    assert cyclic_subgroup(1, 10).elements == frozenset({1})
    with pytest.raises(NotAUnit):
        cyclic_subgroup(4, 10)


def test_unit_group():
    assert unit_group(12) == frozenset({1, 5, 7, 11})
    assert len(unit_group(919)) == 918


def test_cosets():
    units = unit_group(13)
    H = cyclic_subgroup(4, 13)
    assert H.order == 6
    parts = cosets(H, units)
    assert len(parts) == 2
    # extraction order: smallest uncovered element first
    assert [min(c) for c in parts] == [1, 2]
    assert frozenset().union(*parts) == units
    with pytest.raises(NotASubgroupOf):
        cosets(cyclic_subgroup(2, 5), unit_group(13))


def test_cosets_random(rng):
    for _ in range(60):
        L = rng.randint(3, 200)
        units = unit_group(L)
        a = rng.choice(sorted(units))
        H = cyclic_subgroup(a, L)
        parts = cosets(H, units)
        assert all(len(c) == H.order for c in parts)
        assert len(parts) * H.order == len(units)


def test_is_sdr():
    parts = [frozenset({1, 4}), frozenset({2, 3})]
    assert is_sdr((1, 2), parts)
    assert is_sdr((4, 3), parts)
    assert not is_sdr((1, 4), parts)  # same coset twice
    assert not is_sdr((1,), parts)  # a coset left unhit
    assert not is_sdr((1, 2, 3), parts)  # too many reps
    assert not is_sdr((1, 2, 5), parts)  # 5 lies in no coset


def test_sdr_offender():
    parts = [frozenset({1, 4}), frozenset({2, 3})]
    assert sdr_offender((1, 2), parts) is None
    assert sdr_offender((1, 4), parts) == parts[0]  # hit twice, first in order
    assert sdr_offender((1, 5), parts) == parts[1]  # never hit
    assert sdr_offender((3, 1, 5), parts) == frozenset()  # every coset hit once, 5 astray
    assert sdr_offender((5,), []) == frozenset()
    assert sdr_offender((), []) is None
