"""Slotted collision channel without feedback.

Each user owns a codeword, turned into a periodic binary protocol
sequence with ones at the codeword support. A transmission in a slot
succeeds iff no other active user transmits in the same slot. Disjoint
difference sets make any two sequences collide in at most one slot per
period regardless of relative delay, so each of up to w active users
keeps at least one clean slot per period.

Sequences are stored as L-bit integers; slot t is bit t.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log
from random import Random

from .codes import Code, EquiDiffCodeword, code_from_json, require_cac, support
from .errors import (
    BudgetExceeded,
    DuplicateAssignment,
    ParamMismatch,
    ParseError,
    json_int,
)

EXHAUSTIVE_BUDGET = 5_000_000
# bits simulate may spend on its L-bit masks, two per codeword (kept doubled) plus the full mask
MASK_BITS_BUDGET = 2 ** 30


@dataclass(frozen=True)
class ProtocolSequence:
    length: int
    mask: int
    weight: int


def _check_mask_bits(L: int) -> None:
    if L > MASK_BITS_BUDGET:
        raise BudgetExceeded(f"a mask of {L} bits exceeds {MASK_BITS_BUDGET}")


def to_protocol_sequence(cw: EquiDiffCodeword) -> ProtocolSequence:
    """The codeword's L-bit slot mask; BudgetExceeded above MASK_BITS_BUDGET bits."""
    _check_mask_bits(cw.length)
    return ProtocolSequence(cw.length, sum(1 << t for t in support(cw)), cw.weight)


def _rot(mask: int, d: int, L: int, full: int) -> int:
    # new[t] = old[(t + d) mod L]
    d %= L
    return ((mask >> d) | (mask << (L - d))) & full


def cross_correlation(a: ProtocolSequence, b: ProtocolSequence, tau: int) -> int:
    """Number of slots t with a[t] = 1 and b[(t + tau) mod L] = 1.

    Its L-bit masks are refused above MASK_BITS_BUDGET bits (BudgetExceeded).
    """
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} vs {b.length}")
    _check_mask_bits(a.length)
    full = (1 << a.length) - 1
    return (a.mask & _rot(b.mask, tau, a.length, full)).bit_count()


@dataclass(frozen=True)
class Scenario:
    """Explicit (an active set of distinct (codeword index, delay) pairs,
    run once, trials 0) or sampled (no active set, trials >= 0 seeded
    runs, which need a codeword); anything else is refused here."""

    code: Code
    active: tuple[tuple[int, int], ...] = ()
    seed: int = 0
    trials: int = 0

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        idxs, n = [i for i, _ in self.active], len(self.code)
        if idxs and self.trials:
            raise ParamMismatch(f"an active set runs once; trials must be 0, got {self.trials}")
        if len(set(idxs)) != len(idxs):
            raise DuplicateAssignment(f"codeword indices repeat in {idxs}")
        for i in idxs:
            if not 0 <= i < n:
                raise ParamMismatch(f"codeword index {i} out of range for {n} codewords")
        if self.trials and not n:
            raise ParamMismatch("sampled trials need at least one codeword")


@dataclass(frozen=True)
class SimReport:
    per_user: dict[int, int]
    violations: tuple[dict, ...]
    runs: int
    seed: int

    def to_json(self) -> dict:
        return {
            "per_user": {str(k): v for k, v in sorted(self.per_user.items())},
            "violations": list(self.violations),
            "runs": self.runs,
            "seed": self.seed,
        }


def scenario_from_json(obj: dict) -> Scenario:
    what = "scenario"
    try:
        code = code_from_json(obj["code"])
        active = tuple((json_int(e["idx"], "idx", what), json_int(e["delay"], "delay", what))
                       for e in obj.get("active", []))
        seed = json_int(obj.get("seed", 0), "seed", what)
        trials = json_int(obj.get("trials", 0), "trials", what)
    except (KeyError, TypeError) as e:
        raise ParseError(f"malformed scenario ({type(e).__name__}: {e})") from e
    try:
        return Scenario(code, active, seed, trials)
    except ValueError as e:
        raise ParseError(str(e)) from e


def _run_once(on_air: list[int]) -> list[int]:
    # each user's count of the slots that exactly one user transmits in
    once = twice = 0
    for m in on_air:
        twice |= once & m
        once |= m
    alone = once & ~twice
    return [(m & alone).bit_count() for m in on_air]


def simulate(sc: Scenario) -> SimReport:
    """Run the scenario's explicit active set, or seeded random trials.

    Explicit mode: one period with the given (codeword index, delay)
    pairs. Sampling mode (empty active, trials > 0): trial t draws from
    random.Random(f"{seed}:{t}") exactly what k = randint(1, min(w, n)),
    users = sample(range(n), k) and then one randrange(L) delay per user,
    in pick order, would draw, straight from getrandbits with random's own
    rejection loops. per_user aggregates success-slot counts by codeword
    index; a violation records any run that left some user at zero. 2n + 1
    masks of L bits (each codeword doubled, and the full mask) above
    MASK_BITS_BUDGET raise BudgetExceeded before any is built.
    """
    code = sc.code
    require_cac(code)
    n, L = len(code), code.length
    if (2 * n + 1) * L > MASK_BITS_BUDGET:
        raise BudgetExceeded(f"{2 * n + 1} masks of {L} bits exceed {MASK_BITS_BUDGET}")
    full = (1 << L) - 1
    # delay d moves slot t to t + d mod L: the doubled mask shifted right by L - d
    doubled = [m | m << L for m in (to_protocol_sequence(cw).mask for cw in code.codewords)]

    if sc.active:
        counts = _run_once([doubled[i] >> L - d % L & full for i, d in sc.active])
        violations = ({"active": [[i, d % L] for i, d in sc.active]},) if 0 in counts else ()
        return SimReport(dict(zip((i for i, _ in sc.active), counts)), violations, 1, sc.seed)

    totals, violations, rng = [0] * n, [], Random()
    reseed, bits, prefix = rng.seed, rng.getrandbits, f"{sc.seed}:"
    most = min(code.weight, n)
    most_bits, n_bits, L_bits = most.bit_length(), n.bit_length(), L.bit_length()
    # per k: does sample(range(n), k) pick from a pool (else it redraws repeats)?
    pooled = [n <= 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0) for k in range(most + 1)]
    for t in range(sc.trials):
        # re-seeding gives the state of a fresh random.Random(f"{seed}:{t}")
        reseed(f"{prefix}{t}")
        k = bits(most_bits)
        while k >= most:
            k = bits(most_bits)
        k += 1
        picked = []
        if pooled[k]:
            pool = list(range(n))
            for left in range(n, n - k, -1):
                j = bits(left.bit_length())
                while j >= left:
                    j = bits(left.bit_length())
                picked.append(pool[j])
                pool[j] = pool[left - 1]
        else:
            for _ in range(k):
                j = bits(n_bits)
                while j >= n or j in picked:
                    j = bits(n_bits)
                picked.append(j)
        # one randrange(L) delay per pick, counted as _run_once counts
        delays, on_air, once, twice = [], [], 0, 0
        for i in picked:
            d = bits(L_bits)
            while d >= L:
                d = bits(L_bits)
            m = doubled[i] >> L - d & full
            delays.append(d)
            on_air.append(m)
            twice |= once & m
            once |= m
        alone, starved = once & ~twice, False
        for i, m in zip(picked, on_air):
            c = (m & alone).bit_count()
            totals[i] += c
            starved = starved or not c
        if starved:
            violations.append({"trial": t, "active": [[i, d] for i, d in zip(picked, delays)]})
    return SimReport(dict(enumerate(totals)), tuple(violations), sc.trials, sc.seed)


def verify_irrepressibility_exhaustive(code: Code, k: int) -> bool:
    """True iff every k-subset of users with every delay tuple leaves
    every active user at least one success slot per period.

    User i is left without one iff the other k-1 users cover all w of its
    slots. With i at delay 0, user j at delay d covers slot s of i iff
    s - d lies in j's support, so only the delays d = s - t with t in that
    support matter, and the users' delays are independent. Per user i, a
    DP over the other users keeps each covered subset of i's slots (a
    w-bit mask) with the fewest users that cover it, up to k-1. Adding a
    user never uncovers a slot, so the code fails iff some user's full
    mask is reached. The n (n-1) 2^w DP states are checked against
    EXHAUSTIVE_BUDGET, read at call time, before any work; anything above
    it raises BudgetExceeded. No CAC precondition: the point is to observe
    guarantee failures on corrupted codes too.
    """
    if not 1 <= k <= code.weight:
        raise ValueError(f"k must be in 1..w = {code.weight}, got {k}")
    n, L = len(code), code.length
    if k == 1 or n < k:
        return True
    states = n * (n - 1) * 2 ** code.weight
    if states > EXHAUSTIVE_BUDGET:
        raise BudgetExceeded(f"{states} DP states exceed budget {EXHAUSTIVE_BUDGET}")
    slots = [sorted(support(cw)) for cw in code.codewords]
    for i, mine in enumerate(slots):
        full = (1 << len(mine)) - 1
        fewest = {0: 0}
        for j, theirs in enumerate(slots):
            if j == i:
                continue
            at = {}  # delay of j -> the slots of i it covers there
            for b, s in enumerate(mine):
                for t in theirs:
                    d = (s - t) % L
                    at[d] = at.get(d, 0) | 1 << b
            covers = set(at.values())
            # a snapshot, so that j joins each covering set at most once
            for mask, used in list(fewest.items()):
                if used < k - 1:
                    for c in covers:
                        if fewest.get(mask | c, k) > used + 1:
                            fewest[mask | c] = used + 1
            if full in fewest:
                return False
    return True
