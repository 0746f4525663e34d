"""Upper bounds on the size of equi-difference conflict-avoiding codes.

The main bound charges every codeword 2w-2 differences and refunds the
shortfall of exceptional codewords, whose difference sets plus zero are
additive subgroups of some order p dividing L with w <= p < 2w-1. Two
exceptional codewords can coexist only when their orders are coprime
(otherwise the subgroups intersect beyond zero), which caps the total
refund by a maximum over pairwise-coprime divisor subsets; omega_star is
the paper's closed filter rule for that maximum and coprime_excess_exact
the maximum itself. exact_refund_floor, built on the latter, is the one
bound the package acts on; new_bound keeps the paper's report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, gcd, prod

from .errors import InconsistentClaim, UnsupportedWeight
from .numtheory import _divisors_between, factorize, is_prime


def omega(L: int, w: int) -> tuple[int, ...]:
    """Divisors of L in [w, 2w-1), ascending."""
    if L < 2 or w < 2:
        raise ValueError("need L >= 2 and w >= 2")
    return tuple(_divisors_between(L, w, 2 * w - 1))


def omega_star(L: int, w: int) -> tuple[int, ...]:
    """Members of omega that are prime or minimal among their non-coprime peers."""
    om = omega(L, w)
    out = tuple(
        p
        for p in om
        if is_prime(p) or all(p <= q for q in om if q != p and gcd(p, q) != 1)
    )
    if any(gcd(a, b) != 1 for a, b in combinations(out, 2)):
        raise InconsistentClaim(f"omega_star not pairwise coprime at ({L},{w})")
    return out


@dataclass(frozen=True)
class BoundReport:
    L: int
    w: int
    omega: tuple[int, ...]
    omega_star: tuple[int, ...]
    excess: int
    raw_numerator: int
    denominator: int
    floor_value: int

    def __post_init__(self):
        if self.floor_value != self.raw_numerator // self.denominator:
            raise InconsistentClaim(
                f"floor {self.floor_value} is not floor({self.raw_numerator}/{self.denominator})")

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.raw_numerator, self.denominator)

    def to_json(self) -> dict:
        return {
            "L": self.L,
            "w": self.w,
            "omega": list(self.omega),
            "omega_star": list(self.omega_star),
            "excess": self.excess,
            "raw": f"{self.raw_numerator}/{self.denominator}",
            "floor": self.floor_value,
        }


def new_bound(L: int, w: int) -> BoundReport:
    """M^e(L,w) <= (L - 1 + excess) / (2w - 2), reported unreduced with floor."""
    om = omega(L, w)
    oms = omega_star(L, w)
    excess = sum(2 * w - 1 - p for p in oms)
    num = L - 1 + excess
    den = 2 * w - 2
    return BoundReport(L, w, om, oms, excess, num, den, num // den)


def corollary1_bound(L: int, w: int) -> int:
    if w == 3:
        return (L + 2) // 4
    if w == 4:
        return (L + 4) // 6
    if w == 5:
        return (L + 8) // 8
    if w == 6:
        return (L + 8) // 10
    raise UnsupportedWeight(f"closed form only for w in 3..6, got {w}")


def prime_divisor_bound(L: int, w: int) -> tuple[Fraction, int]:
    """(L-1)/(2w-2) + (number of distinct prime divisors of L)/2, with floor."""
    if L < 2 or w < 2:
        raise ValueError("need L >= 2 and w >= 2")
    value = Fraction(L - 1, 2 * w - 2) + Fraction(factorize(L).distinct_prime_count, 2)
    return value, value.numerator // value.denominator


def _best_coprime_subset(pool, gain) -> tuple[int, tuple[int, ...]]:
    """Max (at least 0) of sum(gain(x)) over pairwise-coprime subsets of the
    ascending pool, with the first subset reaching it by size, then
    combinations order.

    One pass keeps, per set of primes used (keyed by their product), the
    least (-refund, size, subset). Subsets with the same primes extend
    alike and every later member exceeds them all, so the least stays least.
    """
    states = {1: (0, 0, ())}
    for x in pool:
        rad = prod(factorize(x).primes)
        for key, (neg, size, sub) in list(states.items()):
            if gcd(key, x) == 1:
                new = (neg - gain(x), size + 1, sub + (x,))
                states[key * rad] = min(new, states.get(key * rad, new))
    neg, _, best_set = min(states.values())
    return -neg, best_set


def _subset_pool(L: int, w: int) -> list[int]:
    # x qualifies when x | L and the subgroup <L/x> wastes few enough differences
    return [x for x in _divisors_between(L, 2, 2 * w - 1) if 2 * x * ceil(w / x) - x <= 2 * w - 2]


def subset_excess_bound(L: int, w: int) -> tuple[Fraction, int, tuple[int, ...]]:
    """floor((L-1+F)/(2w-2)) where F maximizes the subgroup refund term.

    F is the exact maximum over pairwise-coprime subsets of the candidate
    pool. Returns the raw rational, its floor and a maximizing subset.
    """
    if L < w or w < 2:
        raise ValueError("need L >= w >= 2")
    best, best_set = _best_coprime_subset(
        _subset_pool(L, w), lambda x: x - 1 - 2 * x * ceil(w / x) + 2 * w
    )
    value = Fraction(L - 1 + best, 2 * w - 2)
    return value, value.numerator // value.denominator, best_set


def coprime_excess_exact(L: int, w: int) -> int:
    """Max of sum(2w-1-p) over pairwise-coprime subsets of omega(L,w).

    The exact refund: exceptional codewords have pairwise-coprime orders
    in omega, and this is the most they can save. The omega_star filter
    may fall short of it (it can drop a member over a conflict with an
    element that is itself dropped), never above.
    """
    return _best_coprime_subset(omega(L, w), lambda p: 2 * w - 1 - p)[0]


def exact_refund_floor(L: int, w: int) -> int:
    """floor((L - 1 + coprime_excess_exact(L, w)) / (2w - 2)), the sound bound
    on M^e(L, w) behind every optimality gate and the oracle's stop; at
    least new_bound's floor, above it at (504, 9): 32 against 31."""
    return (L - 1 + coprime_excess_exact(L, w)) // (2 * w - 2)
