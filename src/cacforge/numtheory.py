"""Elementary number theory: primality, factorization, divisors, orders, subgroups.

Everything here is exact and deterministic. Magnitudes are desk scale
(64-bit); Miller-Rabin with the fixed witness set below is deterministic
well past that range.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import NotAUnit, NotPrime

# deterministic for all n < 3.3 * 10^24, far beyond 64-bit
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime factorization n = prod(p^e), primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1 or not is_prime(p):
                raise ValueError("malformed factorization")
            prev = p
            prod *= p ** e
        if prod != self.n:
            raise ValueError("factors do not multiply back to n")

    @property
    def distinct_prime_count(self) -> int:
        return len(self.factors)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factorize(n: int) -> Factorization:
    """Trial division; adequate at the magnitudes this package targets."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    m = n
    out = []
    for p in (2, 3):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
    # remaining factors are of the form 6k +- 1; m is re-tested for
    # primality only after a divisor has shrunk it
    d = 5
    fresh = True
    while d * d <= m:
        if fresh and is_prime(m):
            break
        fresh = False
        for q in (d, d + 2):
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            if e:
                out.append((q, e))
                fresh = True
        d += 6
    if m > 1:
        out.append((m, 1))
    return Factorization(n, tuple(out))


def _divisors_between(L: int, lo: int, hi: int) -> list[int]:
    """Divisors of L in [lo, hi), ascending, for 1 <= lo.

    Below sqrt(L) each d is tested; above it each cofactor L // d is, so
    the scan is about sqrt(L) long at most however wide the range, and a
    range below sqrt(L) is a plain scan.
    """
    root = isqrt(L) + 1
    low = [d for d in range(lo, min(hi, root)) if L % d == 0]
    top = max(lo, root)
    if top >= hi:
        return low
    # d in [top, hi) iff its cofactor c = L // d lies in (L // hi, L // top]
    return low + [L // c for c in range(L // top, L // hi, -1) if L % c == 0]


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("divisors requires n >= 1")
    return _divisors_between(n, 1, n + 1)


def totient(n: int) -> int:
    t = n
    for p, _ in factorize(n).factors:
        t -= t // p
    return t


def multiplicative_order(a: int, L: int) -> int:
    """Least k >= 1 with a^k = 1 mod L."""
    if L < 2:
        raise ValueError("modulus must be >= 2")
    a %= L
    if gcd(a, L) != 1:
        raise NotAUnit(f"{a} is not a unit mod {L}")
    k = totient(L)
    # strip each prime from the exponent while the power stays 1
    for p, _ in factorize(k).factors:
        while k % p == 0 and pow(a, k // p, L) == 1:
            k //= p
    return k


def _order_is(a: int, t: int, n: int, primes) -> bool:
    """a^t = 1 mod n and a^(t/q) != 1 for every q in primes dividing t.

    That is "a has order exactly t" whenever primes holds every prime
    factor of t.
    """
    return pow(a, t, n) == 1 and all(pow(a, t // q, n) != 1 for q in primes if t % q == 0)


def primitive_root(p: int) -> int:
    """Smallest primitive root of the prime p (1 for p = 2)."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p == 2:
        return 1
    qs = factorize(p - 1).primes
    return next(g for g in range(2, p) if _order_is(g, p - 1, p, qs))


@dataclass(frozen=True)
class CyclicSubgroup:
    """The subgroup of Z_L^x generated by a single unit."""

    modulus: int
    generator: int
    elements: frozenset[int]
    order: int

    def __post_init__(self):
        if len(self.elements) != self.order or 1 not in self.elements:
            raise ValueError("inconsistent subgroup")


def cyclic_subgroup(a: int, L: int) -> CyclicSubgroup:
    if L < 2:
        raise ValueError("modulus must be >= 2")
    a %= L
    if gcd(a, L) != 1:
        raise NotAUnit(f"{a} is not a unit mod {L}")
    elems = [1]
    x = a
    while x != 1:
        elems.append(x)
        x = x * a % L
    return CyclicSubgroup(L, a, frozenset(elems), len(elems))

