"""Elementary number theory: primality, factorization, divisors, orders, subgroups.

Everything here is exact and deterministic. Magnitudes are desk scale
(64-bit); Miller-Rabin with the fixed witness set below is deterministic
well past that range.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count
from math import gcd, isqrt

from .errors import NotAUnit, NotPrime

# the first 13 primes: deterministic below psi_13 = 3,317,044,064,679,887,385,961,981
# (Sorenson and Webster, Math. Comp. 2017); 41 rejects psi_12, the least
# strong pseudoprime to all the bases below it
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# factorize divides by trial below this, then splits what is left by rho
_TRIAL_LIMIT = 1 << 16


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
    """Trial division by d < 2^16, then Pollard-Brent rho on a composite
    cofactor, whose prime factors all exceed 2^16."""
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
        if d >= _TRIAL_LIMIT:
            out += sorted(Counter(_rho_primes(m)).items())
            m = 1
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


def _brent_factor(n: int) -> int:
    """A proper factor of the odd composite n by Brent's variant of Pollard's
    rho: x -> x^2 + c from x = 2, for c = 1, 2, ... until one splits n."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batched product overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _rho_primes(m: int) -> list[int]:
    """The prime factors of the composite m, with multiplicity, unordered."""
    primes, stack = [], [m]
    while stack:
        k = stack.pop()
        if is_prime(k):
            primes.append(k)
        else:
            f = _brent_factor(k)
            stack += (f, k // f)
    return primes


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

