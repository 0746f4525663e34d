"""Constructions of optimal equi-difference conflict-avoiding codes.

Three families, each returning a fully verified Certificate:

  * prime length p = 2(w-1)ms + 1 with a subgroup SDR condition
    (construct_theorem1; construct_lemma1 is the s = 1 case),
  * recursive products of two certified prime-length codes
    (construct_theorem2),
  * two-prime lengths L = pq with w <= p <= 2w-2 and q = 2(w-1)f + 1,
    assembled from cyclic subgroup witnesses (construct_two_prime).

Every stated precondition is machine checked; a failed condition raises
a typed error carrying the offending object instead of emitting an
unverified code. Each family knows its codeword count from its
parameters, and refuses a code above CODEWORD_BUDGET codewords
(BudgetExceeded) before it builds anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .bounds import exact_refund_floor, new_bound
from .codes import Certificate, CertFlags, Code, is_tight, require_cac, verify_cac
from .errors import (
    BudgetExceeded,
    ConditionNotSatisfied,
    InconsistentClaim,
    InputNotOptimal,
    InputNotTight,
    LengthsNotCoprimePrimes,
    NotAUnit,
    NotPrime,
    NotPrimitive,
    ParamMismatch,
    SdrConditionFailed,
)
from .numtheory import (
    _order_is,
    cyclic_subgroup,
    divisors,
    factorize,
    is_prime,
    multiplicative_order,
    primitive_root,
    totient,
    CyclicSubgroup,
)


# the most codewords a construction builds; read at call time
CODEWORD_BUDGET = 1_000_000


def _check_size(count: int) -> None:
    """Refuse a code of more than CODEWORD_BUDGET codewords before it is built."""
    if count > CODEWORD_BUDGET:
        raise BudgetExceeded(f"{count} codewords exceed budget {CODEWORD_BUDGET}")


@dataclass(frozen=True)
class Theorem1Params:
    p: int
    w: int
    m: int
    s: int
    alpha: int | None = None


@dataclass(frozen=True)
class ConditionWitness:
    """A cyclic subgroup H whose cosets admit the required SDR.

    kind 1: -1 in H, |H| = |Z_L^x| / (w-1), representatives 1..w-1.
    kind 2: -1 not in H, |H| = |Z_L^x| / (2(w-1)), representatives
    1, L-1, 2, L-2, ..., w-1, L-(w-1).
    """

    kind: int
    H: CyclicSubgroup
    reps: tuple[int, ...]

    def to_json(self) -> dict:
        return {"kind": self.kind, "generator": self.H.generator, "order": self.H.order}


def _resolve_alpha(p: int, alpha: int | None, primes) -> int:
    """alpha checked to be primitive mod p, or the smallest primitive root.

    primes are the prime factors of p - 1.
    """
    if alpha is None:
        return primitive_root(p)
    if alpha % p == 0:
        raise NotAUnit(f"0 is not a unit mod {p}")
    if not _order_is(alpha, p - 1, p, primes):
        raise NotPrimitive(f"{alpha} does not generate Z_{p}^x")
    return alpha


def _certificate(code: Code, params: dict) -> Certificate:
    # is_tight repeats verify_cac, where report.covered would do; the
    # benchmark's tracer test pins these three difference-set passes
    require_cac(code, "construction bug: ")
    flags = CertFlags(
        verified_cac=True,
        tight=is_tight(code),
        optimal_by_bound=len(code) == exact_refund_floor(code.length, code.weight),
    )
    # the certificate reports the paper's bound; the flag rests on the exact refund
    return Certificate(code, new_bound(code.length, code.weight), flags, params)


def _optimal_tight(cert: Certificate) -> Certificate:
    if not (cert.flags.tight and cert.flags.optimal_by_bound):
        raise InconsistentClaim(f"{len(cert.code)} codewords, not tight and optimal by bound")
    return cert


def construct_lemma1(p: int, w: int, alpha: int | None = None) -> Certificate:
    """Prime p = 2(w-1)m + 1; codewords generated by the powers of alpha^(w-1).

    Requires 1..w-1 to be an SDR of the cosets of <alpha^(w-1)> in Z_p^x.
    """
    if w < 2:
        raise ParamMismatch(f"need w >= 2, got {w}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if (p - 1) % (2 * w - 2):
        raise ParamMismatch(f"p = {p} is not of the form 2(w-1)m + 1 for w = {w}")
    m = (p - 1) // (2 * w - 2)
    return _prime_length_code(p, w, m, 1, alpha, {"method": "lemma1", "p": p, "w": w, "m": m})


def construct_theorem1(params: Theorem1Params) -> Certificate:
    """Prime p = 2(w-1)ms + 1; sm codewords generated by alpha^(i + s(w-1)j).

    H = <alpha^s> has order 2m(w-1) and N1 = <alpha^(s(w-1))> has order 2m
    automatically; the only substantive condition is that 1..w-1 is an SDR
    of N1's cosets inside H.
    """
    p, w, m, s = params.p, params.w, params.m, params.s
    if w < 2 or m < 1 or s < 1:
        raise ParamMismatch(f"need w >= 2, m >= 1, s >= 1, got {(w, m, s)}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p != 2 * (w - 1) * m * s + 1:
        raise ParamMismatch(f"p = {p} but 2(w-1)ms + 1 = {2 * (w - 1) * m * s + 1}")
    return _prime_length_code(
        p, w, m, s, params.alpha, {"method": "theorem1", "p": p, "w": w, "m": m, "s": s}
    )


def _n1_key(j: int, p: int, w: int, m: int) -> int | None:
    """The key j^(2m) mod p of j's coset of N1 when j lies in H, else None.

    Z_p^x is cyclic, so H and N1 are its unique subgroups of orders
    2m(w-1) and 2m: j lies in H iff j^(2m(w-1)) = 1, and j, k share an
    N1-coset iff j^(2m) = k^(2m).
    """
    key = pow(j, 2 * m, p)
    return key if pow(key, w - 1, p) == 1 else None


def _theorem1_sdr_holds(p: int, w: int, m: int) -> bool:
    """Whether 1..w-1 is an SDR of the w-1 cosets of N1 in H: iff all lie
    in H and no two share a coset."""
    keys = {_n1_key(j, p, w, m) for j in range(1, w)}
    return len(keys) == w - 1 and None not in keys


def _offending_coset(p: int, w: int, m: int, n1: int) -> frozenset[int]:
    """The coset x·N1 of least member x among those 1..w-1 hit zero or several times.

    A hit coset's least member is its least representative, an unhit one's
    is at least w: x is the least representative sharing its coset, else
    the least x >= w in H whose coset no representative hits.
    """
    keys = [_n1_key(j, p, w, m) for j in range(1, w)]
    x = (next((j for j, k in enumerate(keys, 1) if k is not None and keys.count(k) > 1), 0)
         or next(x for x in range(w, p) if _n1_key(x, p, w, m) not in (None, *keys)))
    return frozenset(x * h % p for h in cyclic_subgroup(n1, p).elements)


def _prime_length_code(p: int, w: int, m: int, s: int, alpha: int | None,
                       params: dict) -> Certificate:
    """The code of theorem 1 (lemma 1 when s = 1) for validated parameters.

    The ms codewords are checked against the budget first. alpha is resolved (and
    checked) here, and recorded as params' last key. One factorization of
    p - 1 serves the primitivity test and both subgroup-order checks.
    """
    _check_size(m * s)
    primes = factorize(p - 1).primes
    alpha = _resolve_alpha(p, alpha, primes)
    params = {**params, "alpha": alpha}
    h, n1 = pow(alpha, s, p), pow(alpha, s * (w - 1), p)
    exact = all((p - 1) % t == 0 and _order_is(a, t, p, primes)
                for a, t in ((h, 2 * m * (w - 1)), (n1, 2 * m)))
    if not exact:
        orders = multiplicative_order(h, p), multiplicative_order(n1, p)
        raise InconsistentClaim(f"subgroup orders {orders[0]}, {orders[1]} for p = {p}")
    if not _theorem1_sdr_holds(p, w, m):
        # the coset is built only when .coset is read
        raise SdrConditionFailed(
            f"1..{w - 1} is not an SDR of the cosets of <{n1}> in <{h}> mod {p}",
            coset=lambda: _offending_coset(p, w, m, n1),
        )
    # alpha^(i + s(w-1)j) for i < s, j < m, in that order, by running
    # products: alpha^i steps by alpha, and each row by n1 = alpha^(s(w-1))
    gens = []
    first = 1
    for _ in range(s):
        x = first
        for _ in range(m):
            gens.append(x)
            x = x * n1 % p
        first = first * alpha % p
    return _certificate(Code.from_generators(p, w, gens), params)


def find_theorem1_params(p: int, w: int) -> list[tuple[int, int, int]]:
    """All (m, s, alpha) with ms = (p-1)/(2w-2) passing the SDR condition.

    alpha is always the smallest primitive root; s runs over divisors
    ascending. Empty list when p is not prime, 2w-2 does not divide p-1,
    or no factorization qualifies.
    """
    if w < 2 or not is_prime(p) or (p - 1) % (2 * w - 2):
        return []
    total = (p - 1) // (2 * w - 2)
    alpha = primitive_root(p)
    out = []
    for s in divisors(total):
        m = total // s
        try:
            construct_theorem1(Theorem1Params(p, w, m, s, alpha))
        except SdrConditionFailed:
            continue
        out.append((m, s, alpha))
    return out


def construct_theorem2(cert1: Certificate, cert2: Certificate) -> Certificate:
    """Compose optimal tight prime-length codes into one of length p1*p2.

    Codewords: g + i*p1 for every generator g of the first code and
    0 <= i < p2, plus b*p1 for every generator b of the second code.
    """
    code1, code2 = cert1.code, cert2.code
    w = code1.weight
    if code2.weight != w:
        raise ParamMismatch(f"weights differ: {w} vs {code2.weight}")
    p1, p2 = code1.length, code2.length
    if not (is_prime(p1) and is_prime(p2)) or p1 == p2 or min(p1, p2) <= w - 1:
        raise LengthsNotCoprimePrimes(
            f"lengths must be distinct primes greater than w-1, got {p1}, {p2}"
        )
    for code, p in ((code1, p1), (code2, p2)):
        if verify_cac(code).covered != p - 1:
            raise InputNotTight(f"input of length {p} is not a tight CAC")
        floor = exact_refund_floor(p, w)
        if len(code) != (p - 1) // (2 * w - 2) or len(code) != floor:
            raise InputNotOptimal(
                f"input of length {p} has {len(code)} codewords, optimal is {floor}"
            )
    _check_size(p2 * len(code1) + len(code2))
    L = p1 * p2
    gens = [(g + i * p1) % L for g in code1.generators for i in range(p2)]
    gens += [b * p1 for b in code2.generators]
    code = Code.from_generators(L, w, gens)
    return _optimal_tight(
        _certificate(code, {"method": "theorem2", "p1": p1, "p2": p2, "w": w})
    )


def check_condition(L: int, w: int, kind: int) -> ConditionWitness | None:
    """Search Z_L^x for a cyclic subgroup satisfying condition `kind`.

    Deterministic: candidate generators ascending, first witness wins.
    Returns None when no cyclic witness exists. Only cyclic subgroups are
    searched; a qualifying non-cyclic subgroup would not yield the
    generator enumeration the constructions need.

    The reps, one per coset, are an SDR iff all are units and no quotient
    r_i·r_j^(-1), i < j, lies in H. Units in a subgroup already tried are
    skipped, so each subgroup is tried once, from its least generator.
    """
    if kind not in (1, 2):
        raise ValueError(f"kind must be 1 or 2, got {kind}")
    if w < 2 or L < 2:
        raise ValueError(f"need L >= 2 and w >= 2, got ({L},{w})")
    phi = totient(L)
    slots = (w - 1) if kind == 1 else 2 * (w - 1)
    if phi % slots:
        return None
    reps = tuple(range(1, w)) if kind == 1 else tuple(
        v for j in range(1, w) for v in (j, L - j))
    if any(gcd(r, L) != 1 for r in reps):
        return None
    quotients = {r * pow(t, -1, L) % L for i, r in enumerate(reps) for t in reps[i + 1:]}
    target = phi // slots
    primes = factorize(target).primes
    tried = set()  # the elements of every subgroup tried, at most phi(L)
    for a in range(1, L):
        if a in tried or gcd(a, L) != 1 or not _order_is(a, target, L, primes):
            continue
        H = cyclic_subgroup(a, L)
        tried |= H.elements
        if ((L - 1) in H.elements) == (kind == 1) and H.elements.isdisjoint(quotients):
            return ConditionWitness(kind, H, reps)
    return None


def construct_two_prime(p: int, q: int, w: int) -> Certificate:
    """Optimal tight (pq, w)-code with pf + 1 codewords, q = 2(w-1)f + 1.

    Three parts: generators enumerating a condition witness subgroup of
    Z_pq^x, generators p*b for b enumerating a witness subgroup of Z_q^x,
    and the single exceptional codeword generated by q itself.
    """
    if w < 3:
        raise ParamMismatch(f"need w >= 3, got {w}")
    if not is_prime(p) or not w <= p <= 2 * w - 2:
        raise ParamMismatch(f"p must be a prime in [{w}, {2 * w - 2}], got {p}")
    if not is_prime(q) or (q - 1) % (2 * w - 2) or (q - 1) // (2 * w - 2) < 1:
        raise ParamMismatch(f"q must be a prime of the form 2(w-1)f + 1, got {q}")
    f = (q - 1) // (2 * w - 2)
    _check_size(p * f + 1)
    L = p * q

    params = {"method": "two_prime", "p": p, "q": q, "w": w, "f": f}
    # condition 1 halves the enumeration: alpha^s = -1 mirrors the family
    gens = []
    for name, n, scale in (("L", L, 1), ("q", q, p)):
        wit = check_condition(n, w, 1) or check_condition(n, w, 2)
        if wit is None:
            raise ConditionNotSatisfied(
                f"Z_{n}^x admits no qualifying cyclic subgroup", modulus=n
            )
        count = wit.H.order // 2 if wit.kind == 1 else wit.H.order
        x, a = 1, wit.H.generator  # a^i for i < count, by a running product
        for _ in range(count):
            gens.append(scale * x)
            x = x * a % n
        params[f"condition_{name}"] = wit.to_json()
    gens.append(q)

    code = Code.from_generators(L, w, gens)
    if len(code) != p * f + 1:
        raise InconsistentClaim(f"{len(code)} codewords, expected pf + 1 = {p * f + 1}")
    return _optimal_tight(_certificate(code, params))
