"""Brute-force coset enumeration: the reference the subgroup tests in
`cacforge.constructions` are checked against.

The package answers coset questions by membership (exponent keys at a
prime modulus, pairwise quotients otherwise). These helpers answer them
the slow, literal way: list Z_L^x, partition it into cosets, count hits.
"""

from __future__ import annotations

from math import gcd

from cacforge.numtheory import CyclicSubgroup, cyclic_subgroup, multiplicative_order


class NotASubgroupOf(Exception):
    pass


def unit_group(L: int) -> frozenset[int]:
    return frozenset(a for a in range(1, L) if gcd(a, L) == 1)


def cosets(H: CyclicSubgroup, G_elements: frozenset[int]) -> list[frozenset[int]]:
    """Partition G into multiplicative cosets of H, ordered by smallest member.

    G must be closed under multiplication mod L and contain H; anything
    else raises NotASubgroupOf.
    """
    L = H.modulus
    if not H.elements <= G_elements:
        raise NotASubgroupOf("H is not contained in G")
    remaining = set(G_elements)
    out = []
    while remaining:
        x = min(remaining)
        coset = frozenset(x * h % L for h in H.elements)
        if not coset <= remaining or len(coset) != H.order:
            raise NotASubgroupOf("G is not a disjoint union of H-cosets")
        remaining -= coset
        out.append(coset)
    return out


def sdr_offender(reps, coset_partition) -> frozenset[int] | None:
    """The first coset that reps hit zero or several times; None iff reps are an SDR.

    A representative outside every coset also fails: once each coset is
    hit exactly once, any further (stray) reps make the empty set the offender.
    """
    counts = [0] * len(coset_partition)
    for r in reps:
        for i, c in enumerate(coset_partition):
            if r in c:
                counts[i] += 1
                break
    for c, n in zip(coset_partition, counts):
        if n != 1:
            return c
    return None if len(reps) == len(coset_partition) else frozenset()


def is_sdr(reps, coset_partition) -> bool:
    """True iff reps hit each coset exactly once (counting multiplicity)."""
    return sdr_offender(reps, coset_partition) is None


def theorem1_offender(p: int, w: int, s: int, alpha: int) -> frozenset[int] | None:
    """The first coset of N1 = <alpha^(s(w-1))> in H = <alpha^s> that 1..w-1 miss or repeat."""
    H = cyclic_subgroup(pow(alpha, s, p), p)
    N1 = cyclic_subgroup(pow(alpha, s * (w - 1), p), p)
    return sdr_offender(range(1, w), cosets(N1, H.elements))


def condition(L: int, w: int, kind: int) -> tuple[int, int, tuple[int, ...]] | None:
    """(generator, order, reps) of the first cyclic subgroup meeting condition kind.

    Every unit of the target order is tried in ascending order, each with
    the full coset partition of Z_L^x.
    """
    units = unit_group(L)
    slots = (w - 1) if kind == 1 else 2 * (w - 1)
    if len(units) % slots:
        return None
    reps = tuple(range(1, w)) if kind == 1 else tuple(
        v for j in range(1, w) for v in (j, L - j))
    for a in sorted(units):
        if multiplicative_order(a, L) != len(units) // slots:
            continue
        H = cyclic_subgroup(a, L)
        if ((L - 1) in H.elements) == (kind == 1) and is_sdr(reps, cosets(H, units)):
            return (a, H.order, reps)
    return None
