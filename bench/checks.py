"""Output checks made apart from cacforge.

Everything here is recomputed from first principles with the standard
library: difference sets with a bytearray of L flags, trial-division
factorization, the prime-divisor bound and corollary 1 from their closed
forms, and a slot-by-slot recount of simulated trials. Each check raises
CheckFailed with a message naming the offending object.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# number theory, kept apart from cacforge.numtheory


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1 by trial division, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def primitive_root(p: int) -> int:
    """The smallest primitive root of the odd prime p."""
    qs = prime_factors(p - 1)
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


def seeded_primitive_root(p: int, rng: random.Random) -> int:
    """A primitive root of p drawn from the seeded rng: g0^u with gcd(u, p-1) = 1."""
    g0 = primitive_root(p)
    while True:
        u = rng.randrange(1, p - 1)
        if gcd(u, p - 1) == 1:
            return pow(g0, u, p)


def theorem1_divisors(p: int, w: int) -> list[int]:
    """The s | (p-1)/(2w-2), ascending, for which theorem 1's condition holds.

    With ind the discrete logarithm to any primitive root, 1..w-1 is an
    SDR of the cosets of N1 = <alpha^(s(w-1))> in H = <alpha^s> iff every
    ind(j) is divisible by s and the ind(j)/s are distinct mod w-1. The
    choice of primitive root multiplies every ind(j) by a unit mod p-1,
    which keeps both properties.
    """
    total = (p - 1) // (2 * w - 2)
    g = primitive_root(p)
    ind = {}
    x = 1
    for k in range(p - 1):
        if x < w:
            ind[x] = k
        x = x * g % p
    return [
        s for s in range(1, total + 1)
        if total % s == 0
        and all(ind[j] % s == 0 for j in range(1, w))
        and len({ind[j] // s % (w - 1) for j in range(1, w)}) == w - 1
    ]


# codes


def code_coverage(L: int, w: int, generators) -> int:
    """Number of nonzero residues covered by the code's difference sets.

    Raises CheckFailed when two codewords share a difference or a
    generator cannot carry w distinct multiples.
    """
    seen = bytearray(L)
    covered = 0
    for g in generators:
        require(1 <= g <= L - 1, f"({L},{w}): generator {g} outside Z_L minus 0")
        require(L // gcd(L, g) >= w, f"({L},{w}): generator {g} is degenerate")
        mine = set()
        for j in range(1, w):
            x = j * g % L
            mine.add(x)
            mine.add(L - x)
        for x in mine:
            require(not seen[x], f"({L},{w}): difference {x} shared, second owner generator {g}")
            seen[x] = 1
        covered += len(mine)
    return covered


def check_code(L: int, w: int, generators, size: int | None = None, tight: bool = False) -> None:
    """Disjoint difference sets, optionally an exact size and full coverage."""
    require(len(set(generators)) == len(generators), f"({L},{w}): repeated generator")
    covered = code_coverage(L, w, generators)
    if size is not None:
        require(len(generators) == size, f"({L},{w}): {len(generators)} codewords, expected {size}")
    if tight:
        require(covered == L - 1, f"({L},{w}): covers {covered} of {L - 1} differences")


def prime_length_optimum(p: int, w: int) -> int:
    """(p-1)/(2w-2): the size of an optimal tight code at prime length."""
    require((p - 1) % (2 * w - 2) == 0, f"{p} is not 1 mod 2(w-1) for w = {w}")
    return (p - 1) // (2 * w - 2)


def two_prime_optimum(p: int, q: int, w: int) -> int:
    """pf + 1 with q = 2(w-1)f + 1: the two-prime construction's size."""
    return p * prime_length_optimum(q, w) + 1


def check_certificate(cert: dict, size: int) -> None:
    """A certificate JSON whose code is a tight CAC of the optimal size."""
    code = cert["code"]
    check_code(code["L"], code["w"], code["generators"], size=size, tight=True)
    flags = cert["flags"]
    require(
        flags["verified_cac"] and flags["tight"] and flags["optimal_by_bound"],
        f"({code['L']},{code['w']}): certificate flags {flags}",
    )
    require(cert["bound"]["floor"] == size, f"({code['L']},{code['w']}): bound floor "
            f"{cert['bound']['floor']} differs from optimum {size}")


def check_verify_report(report: dict, size: int) -> None:
    """`verify --json` on an optimal tight code."""
    require(report["ok"] and report["tight"] and report["optimal_by_bound"],
            f"verify report {report}")
    require(report["size"] == size, f"verify reports size {report['size']}, expected {size}")


# bounds


def prime_divisor_floor(L: int, w: int) -> int:
    """floor((L-1)/(2w-2) + k/2), k the number of distinct primes dividing L."""
    value = Fraction(L - 1, 2 * w - 2) + Fraction(len(prime_factors(L)), 2)
    return value.numerator // value.denominator


def corollary1_floor(L: int, w: int) -> int:
    """The paper's closed forms for w = 3..6."""
    return {3: (L + 2) // 4, 4: (L + 4) // 6, 5: (L + 8) // 8, 6: (L + 8) // 10}[w]


def check_bound_report(L: int, w: int, report: dict, best_code: int = 0) -> None:
    """`bound L w --all --json`: new <= prime-divisor, <= corollary 1, >= any code."""
    new = report["new"]["floor"]
    pd = prime_divisor_floor(L, w)
    require(report["prime_divisor"]["floor"] == pd,
            f"({L},{w}): prime-divisor floor {report['prime_divisor']['floor']}, recomputed {pd}")
    require(new <= pd, f"({L},{w}): new bound {new} above prime-divisor bound {pd}")
    if w <= 6:
        c1 = corollary1_floor(L, w)
        require(new <= c1, f"({L},{w}): new bound {new} above corollary 1 {c1}")
    require(new >= best_code, f"({L},{w}): new bound {new} below a built code of size {best_code}")


# channel


def success_slots(L: int, supports, active) -> list[int]:
    """Clean slots per active user; active is a list of (codeword index, delay)."""
    slots = [frozenset((t + d) % L for t in supports[i]) for i, d in active]
    out = []
    for k, mine in enumerate(slots):
        others = set().union(*(s for j, s in enumerate(slots) if j != k))
        out.append(len(mine - others))
    return out


def recount_simulation(L: int, w: int, generators, seed: int, trials: int) -> dict[int, int]:
    """Per-user clean-slot totals of `simulate`'s sampling mode, recounted slot by slot.

    Follows the documented draw: per trial an rng seeded with "seed:trial"
    picks 1..min(w, n) distinct users and a uniform delay for each.
    Raises CheckFailed on any trial that leaves an active user no clean slot.
    """
    supports = [[j * g % L for j in range(w)] for g in generators]
    n = len(generators)
    per_user = {i: 0 for i in range(n)}
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        k = rng.randint(1, min(w, n))
        chosen = rng.sample(range(n), k)
        active = [(i, rng.randrange(L)) for i in chosen]
        counts = success_slots(L, supports, active)
        require(0 not in counts, f"trial {t}: a user in {active} has no clean slot")
        for (i, _), c in zip(active, counts):
            per_user[i] += c
    return per_user


def check_simulation(report: dict, L: int, w: int, generators, seed: int, trials: int) -> None:
    require(report["runs"] == trials and report["seed"] == seed,
            f"simulate reports {report['runs']} runs with seed {report['seed']}")
    require(not report["violations"], f"simulate reports {len(report['violations'])} violations")
    expected = recount_simulation(L, w, generators, seed, trials)
    got = {int(k): v for k, v in report["per_user"].items()}
    require(got == expected, "simulate per-user totals differ from the slot recount")


# oracle


def check_search(result: dict, L: int, w: int, floor: int, expected: int) -> None:
    """`search --json`: a valid witness of the reported size, at most the floor."""
    size = result["max"]
    require(result["exact"], f"({L},{w}): search result not exact")
    check_code(L, w, result["witness"], size=size)
    require(size <= floor, f"({L},{w}): maximum {size} above bound floor {floor}")
    require(size <= prime_divisor_floor(L, w),
            f"({L},{w}): maximum {size} above the prime-divisor bound")
    require(size == expected, f"({L},{w}): maximum {size}, reference {expected}")
