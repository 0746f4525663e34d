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

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from .codes import Code, EquiDiffCodeword, code_from_json, support, verify_cac
from .errors import (
    BudgetExceeded,
    DuplicateAssignment,
    NotACac,
    ParamMismatch,
    ParseError,
    json_int,
)

EXHAUSTIVE_BUDGET = 5_000_000


@dataclass(frozen=True)
class ProtocolSequence:
    length: int
    mask: int
    weight: int

    def __str__(self) -> str:
        return "".join("1" if self.mask >> t & 1 else "0" for t in range(self.length))

    def as_bits(self) -> tuple[int, ...]:
        return tuple(self.mask >> t & 1 for t in range(self.length))


def to_protocol_sequence(cw: EquiDiffCodeword) -> ProtocolSequence:
    return ProtocolSequence(cw.length, sum(1 << t for t in support(cw)), cw.weight)


def _rot(mask: int, d: int, L: int, full: int) -> int:
    # new[t] = old[(t + d) mod L]
    d %= L
    return ((mask >> d) | (mask << (L - d))) & full


def cross_correlation(a: ProtocolSequence, b: ProtocolSequence, tau: int) -> int:
    """Number of slots t with a[t] = 1 and b[(t + tau) mod L] = 1."""
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} vs {b.length}")
    full = (1 << a.length) - 1
    return (a.mask & _rot(b.mask, tau, a.length, full)).bit_count()


@dataclass(frozen=True)
class Scenario:
    code: Code
    active: tuple[tuple[int, int], ...] = ()
    seed: int = 0
    trials: int = 0


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
        sc = Scenario(
            code=code_from_json(obj["code"]),
            active=tuple((json_int(e["idx"], "idx", what), json_int(e["delay"], "delay", what))
                         for e in obj.get("active", [])),
            seed=json_int(obj.get("seed", 0), "seed", what),
            trials=json_int(obj.get("trials", 0), "trials", what),
        )
    except (KeyError, TypeError) as e:
        raise ParseError(f"malformed scenario ({type(e).__name__}: {e})") from e
    if sc.trials < 0:
        raise ParseError(f"trials must be >= 0, got {sc.trials}")
    return sc


def _alone(on_air: list[int]) -> tuple[int, int]:
    # (slots anyone transmits in, slots exactly one user transmits in)
    once = twice = 0
    for m in on_air:
        twice |= once & m
        once |= m
    return once, once & ~twice


def _run_once(on_air: list[int]) -> list[int]:
    alone = _alone(on_air)[1]
    return [(m & alone).bit_count() for m in on_air]


def simulate(sc: Scenario) -> SimReport:
    """Run the scenario's explicit active set, or seeded random trials.

    Explicit mode: one period with the given (codeword index, delay)
    pairs. Sampling mode (empty active, trials > 0): per trial, an rng
    derived from (seed, trial) picks 1..min(w, |code|) distinct users and
    uniform delays. per_user aggregates success-slot counts by codeword
    index; a violation records any run that left some user at zero.
    """
    code = sc.code
    report = verify_cac(code)
    if not report.ok:
        raise NotACac(f"difference {report.witness} shared by codewords {report.pair}", report)
    L = code.length
    full = (1 << L) - 1
    masks = [to_protocol_sequence(cw).mask for cw in code.codewords]

    if sc.active:
        idxs = [i for i, _ in sc.active]
        if len(set(idxs)) != len(idxs):
            raise DuplicateAssignment(f"codeword indices repeat in {idxs}")
        for i in idxs:
            if not 0 <= i < len(code):
                raise ParamMismatch(f"codeword index {i} out of range for {len(code)} codewords")
        counts = _run_once([_rot(masks[i], -d, L, full) for i, d in sc.active])
        per_user = {i: c for (i, _), c in zip(sc.active, counts)}
        violations = []
        if 0 in counts:
            violations.append({"active": [[i, d % L] for i, d in sc.active]})
        return SimReport(per_user, tuple(violations), 1, sc.seed)

    n = len(code)
    if sc.trials and not n:
        raise ParamMismatch("sampled trials need at least one codeword")
    per_user = {i: 0 for i in range(n)}
    violations = []
    for t in range(sc.trials):
        rng = random.Random(f"{sc.seed}:{t}")
        k = rng.randint(1, min(code.weight, n))
        chosen = rng.sample(range(n), k)
        active = [(i, rng.randrange(L)) for i in chosen]
        counts = _run_once([_rot(masks[i], -d, L, full) for i, d in active])
        for (i, _), c in zip(active, counts):
            per_user[i] += c
        if 0 in counts:
            violations.append({"trial": t, "active": [[i, d] for i, d in active]})
    return SimReport(per_user, tuple(violations), sc.trials, sc.seed)


def verify_irrepressibility_exhaustive(
    code: Code, k: int, budget: int = EXHAUSTIVE_BUDGET
) -> bool:
    """True iff every k-subset of users with every delay tuple leaves
    every active user at least one success slot per period.

    The first user's delay is pinned to 0 (cyclic symmetry), so the
    enumeration size is C(|code|, k) * L^(k-1); anything above budget
    raises BudgetExceeded. No CAC precondition: the point is to observe
    guarantee failures on corrupted codes too.

    The last user's L delays are tested at once, as one L-bit mask of the
    delays at which somebody is left without a clean slot.
    """
    if not 1 <= k <= code.weight:
        raise ValueError(f"k must be in 1..w = {code.weight}, got {k}")
    n, L = len(code), code.length
    total = comb(n, k) * L ** (k - 1)
    if total > budget:
        raise BudgetExceeded(f"{total} combinations exceed budget {budget}")
    masks = [to_protocol_sequence(cw).mask for cw in code.codewords]
    if k == 1:
        return all(m != 0 for m in masks)

    full = (1 << L) - 1
    rot = [[_rot(m, -d, L, full) for d in range(L)] for m in masks]
    shifts = [support(cw) - {0} for cw in code.codewords]
    # hit[c][t]: the delays at which user c transmits in slot t
    mirrored = [sum(1 << -s % L for s in support(cw)) for cw in code.codewords]
    hit = [[_rot(m, -t, L, full) for t in range(L)] for m in mirrored]

    for placed in combinations(range(n - 1), k - 1):
        for delays in product(range(L), repeat=k - 2):
            on_air = [rot[i][d] for i, d in zip(placed, (0,) + delays)]
            union, alone = _alone(on_air)
            for c in range(placed[-1] + 1, n):
                # drowned at d: every slot s + d of c lies in union, so bad needs no cut to L bits
                bad = union
                for s in shifts[c]:
                    bad &= (union >> s) | (union << (L - s))
                # blanking at d: c covers every clear slot of a placed user
                for m in on_air:
                    r = m & alone
                    blank = full
                    while r and blank:
                        low = r & -r
                        blank &= hit[c][low.bit_length() - 1]
                        r ^= low
                    bad |= blank
                if bad:
                    return False
    return True
