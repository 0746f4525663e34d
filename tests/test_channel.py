import json
import random
from dataclasses import replace
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cacforge.channel as channel
from cacforge.channel import (
    EXHAUSTIVE_BUDGET,
    MASK_BITS_BUDGET,
    ProtocolSequence,
    Scenario,
    _rot,
    _run_once,
    cross_correlation,
    scenario_from_json,
    simulate,
    to_protocol_sequence,
    verify_irrepressibility_exhaustive,
)
from cacforge.codes import Code, EquiDiffCodeword, support
from cacforge.constructions import (
    Theorem1Params,
    construct_lemma1,
    construct_theorem1,
    construct_theorem2,
    construct_two_prime,
)
from cacforge.errors import (
    BudgetExceeded,
    DuplicateAssignment,
    NotACac,
    ParamMismatch,
    ParseError,
)


def test_protocol_sequence():
    s = to_protocol_sequence(EquiDiffCodeword(9, 3, 1))
    assert (s.length, s.mask, s.weight) == (9, 0b111, 3)
    s = to_protocol_sequence(EquiDiffCodeword(9, 3, 4))
    assert s.mask == 0b100010001


def test_cross_correlation_pins():
    a = to_protocol_sequence(EquiDiffCodeword(9, 3, 1))
    b = to_protocol_sequence(EquiDiffCodeword(9, 3, 3))
    assert cross_correlation(a, a, 0) == 3
    assert all(cross_correlation(a, b, t) == 1 for t in range(9))
    with pytest.raises(ValueError):
        cross_correlation(a, to_protocol_sequence(EquiDiffCodeword(7, 3, 1)), 0)


def test_cross_correlation_shift_invariance(rng):
    code = construct_lemma1(13, 3).code
    seqs = [to_protocol_sequence(cw) for cw in code.codewords]
    for _ in range(200):
        i, j = rng.randrange(len(seqs)), rng.randrange(len(seqs))
        t = rng.randrange(13)
        cc = cross_correlation(seqs[i], seqs[j], t)
        if i == j and t == 0:
            assert cc == 3
        elif i != j:
            # disjoint difference sets force at most one coincidence
            assert cc <= 1


def test_simulate_explicit():
    code = Code.from_generators(9, 3, [1, 3])
    rep = simulate(Scenario(code, active=((0, 0), (1, 3))))
    assert rep.runs == 1
    assert rep.per_user == {0: 2, 1: 2}
    assert rep.violations == ()


def test_simulate_explicit_violation_records_delays_mod_L():
    # more than w users can blank one: user 1 at delay -7, that is 1, sends
    # in slots 1 and 3, which users 0 (slots 0, 1) and 2 (slots 3, 6) take
    code = Code.from_generators(8, 2, [1, 2, 3, 4])
    rep = simulate(Scenario(code, active=((0, 0), (1, -7), (2, 3))))
    assert rep.per_user == {0: 1, 1: 0, 2: 1}
    assert rep.violations == ({"active": [[0, 0], [1, 1], [2, 3]]},)


def test_simulate_single_user_all_clear():
    code = Code.from_generators(9, 3, [1, 3])
    rep = simulate(Scenario(code, active=((1, 5),)))
    assert rep.per_user == {1: 3}


def test_simulate_rejects():
    code = Code.from_generators(9, 3, [1, 3])
    with pytest.raises(DuplicateAssignment):
        simulate(Scenario(code, active=((0, 0), (0, 4))))
    with pytest.raises(ParamMismatch):
        simulate(Scenario(code, active=((7, 0),)))
    with pytest.raises(ParamMismatch):
        simulate(Scenario(Code(9, 3, ()), trials=3))
    with pytest.raises(NotACac):
        simulate(Scenario(Code.from_generators(9, 3, [1, 4]), active=((0, 0),)))


def test_scenario_is_explicit_or_sampled():
    code = Code.from_generators(9, 3, [1, 3])
    # an active set runs once: a trial count beside it is refused, not ignored
    with pytest.raises(ParamMismatch, match="^an active set runs once; trials must be 0, got 50$"):
        Scenario(code, active=((0, 1),), trials=50)
    with pytest.raises(ValueError, match="^trials must be >= 0, got -5$"):
        Scenario(code, trials=-5)
    # a replaced field passes the same checks
    explicit, sampled = Scenario(code, active=((0, 1),)), Scenario(code, trials=4)
    with pytest.raises(ParamMismatch):
        replace(explicit, trials=1)
    with pytest.raises(ParamMismatch):
        replace(sampled, active=((0, 1),))
    with pytest.raises(DuplicateAssignment):
        replace(explicit, active=((1, 0), (1, 2)))
    assert simulate(replace(explicit, trials=0)).runs == 1
    assert simulate(replace(sampled, trials=0)).runs == 0
    with pytest.raises(ParseError, match="^trials must be >= 0, got -5$"):
        scenario_from_json({"code": {"L": 9, "w": 3, "generators": [1, 3]}, "trials": -5})
    with pytest.raises(ParamMismatch):
        scenario_from_json({"code": {"L": 9, "w": 3, "generators": [1, 3]},
                            "active": [{"idx": 0, "delay": 1}], "trials": 50})


def test_simulate_mask_budget(monkeypatch):
    code = Code.from_generators(9, 3, [1, 3])
    explicit, sampled = Scenario(code, active=((0, 0), (1, 3))), Scenario(code, trials=5)
    # two codewords, each doubled, and the full mask: 5 masks of 9 bits
    monkeypatch.setattr(channel, "MASK_BITS_BUDGET", 45)
    assert simulate(explicit).per_user == {0: 2, 1: 2}
    assert simulate(sampled).runs == 5

    def built(cw):
        raise AssertionError("a refused scenario must refuse before it builds a mask")

    monkeypatch.setattr(channel, "MASK_BITS_BUDGET", 44)
    monkeypatch.setattr(channel, "to_protocol_sequence", built)
    for sc in (explicit, sampled):
        with pytest.raises(BudgetExceeded, match="^5 masks of 9 bits exceed 44$"):
            simulate(sc)
    assert MASK_BITS_BUDGET == 2 ** 30


def test_protocol_masks_refuse_lengths_above_the_budget(monkeypatch):
    cw = EquiDiffCodeword(9, 3, 1)
    monkeypatch.setattr(channel, "MASK_BITS_BUDGET", 9)
    seq = to_protocol_sequence(cw)
    assert cross_correlation(seq, seq, 0) == 3

    def built(cw):
        raise AssertionError("a refused mask must be refused before it is built")

    monkeypatch.setattr(channel, "MASK_BITS_BUDGET", 8)
    monkeypatch.setattr(channel, "support", built)
    with pytest.raises(BudgetExceeded, match="^a mask of 9 bits exceeds 8$"):
        to_protocol_sequence(cw)
    # a sequence given directly: its mask holds one bit, but the rotation
    # and the full mask would take L bits each
    with pytest.raises(BudgetExceeded, match="^a mask of 9 bits exceeds 8$"):
        cross_correlation(seq, ProtocolSequence(9, 1, 3), 1)
    with pytest.raises(ValueError, match="length mismatch"):
        cross_correlation(seq, ProtocolSequence(7, 1, 3), 1)


def test_simulate_sampling_deterministic():
    code = construct_lemma1(13, 3).code
    a = simulate(Scenario(code, seed=7, trials=300))
    b = simulate(Scenario(code, seed=7, trials=300))
    assert a.to_json() == b.to_json()
    assert a.runs == 300
    assert a.violations == ()
    c = simulate(Scenario(code, seed=8, trials=300))
    assert c.to_json() != a.to_json()


class _Recording(random.Random):
    """A Random that logs its getrandbits calls, one (seed, log) per seeding."""

    seedings = []

    def seed(self, a=None, version=2):
        self.log = []
        self.seedings.append((a, self.log))
        super().seed(a, version)

    def getrandbits(self, k):
        bits = super().getrandbits(k)
        self.log.append((k, bits))
        return bits


@pytest.mark.parametrize("seed", range(3))
def test_draws_match_random_draw_for_draw(monkeypatch, seed):
    # each trial of simulate calls getrandbits exactly as random's own
    # randint(1, min(w, n)), sample(range(n), k) and one randrange(L) per
    # pick do on a fresh Random(f"{seed}:{t}"): n spans sample's pool/set
    # switch at 21/22 (k <= 5) and 85/86 (k = 6..9), and 277/278 at k = 22
    monkeypatch.setattr(channel, "Random", _Recording)
    monkeypatch.setattr(channel, "require_cac", lambda code: None)
    drawn = {}  # n -> the k drawn
    for L, w, n in [(101, 9, n) for n in range(1, 101)] + [(281, 22, 277), (281, 22, 278)]:
        _Recording.seedings.clear()
        simulate(Scenario(Code.from_generators(L, w, range(1, n + 1)), seed=seed, trials=120))
        trials = _Recording.seedings[1:]  # the first seeding is Random()'s own
        assert [a for a, _ in trials] == [f"{seed}:{t}" for t in range(120)]
        for a, log in trials:
            twin, plain = _Recording(a), random.Random(a)
            k = twin.randint(1, min(w, n))
            picked = twin.sample(range(n), k)
            delays = [twin.randrange(L) for _ in picked]
            assert log == twin.log, (n, a)
            # recording leaves random's draws as they are
            assert (plain.randint(1, min(w, n)), plain.sample(range(n), k)) == (k, picked)
            assert [plain.randrange(L) for _ in picked] == delays
            drawn.setdefault(n, set()).add(k)
    assert all(drawn[n] == set(range(1, 10)) for n in (21, 22, 85, 86))
    assert all(22 in drawn[n] for n in (277, 278))


def _reference_run(code, seed, trials):
    # the documented draw made with random's own methods, counted with _rot
    # and _run_once
    n, L, full = len(code), code.length, (1 << code.length) - 1
    masks = [to_protocol_sequence(cw).mask for cw in code.codewords]
    per_user, violations = dict.fromkeys(range(n), 0), []
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        k = rng.randint(1, min(code.weight, n))
        active = [(i, rng.randrange(L)) for i in rng.sample(range(n), k)]
        counts = _run_once([_rot(masks[i], -d, L, full) for i, d in active])
        for (i, _), c in zip(active, counts):
            per_user[i] += c
        if 0 in counts:
            violations.append({"trial": t, "active": [[i, d] for i, d in active]})
    return per_user, tuple(violations)


@pytest.mark.parametrize("L, generators", [(7, [1, 2, 3]), (13, list(range(1, 13)) * 2)],
                         ids=["pool", "set"])
def test_sampling_matches_random_on_a_clashing_code(monkeypatch, L, generators):
    # a code that is no CAC makes violations happen
    code = Code.from_generators(L, 3, generators)
    per_user, violations = _reference_run(code, 11, 400)
    assert violations
    monkeypatch.setattr(channel, "require_cac", lambda code: None)
    rep = simulate(Scenario(code, seed=11, trials=400))
    assert rep.per_user == per_user
    assert rep.violations == violations


@st.composite
def codes_with_repeats(draw):
    w = draw(st.integers(2, 5))
    L = draw(st.integers(w, 24))
    valid = [g for g in range(1, L) if L // gcd(L, g) >= w]
    gens = draw(st.lists(st.sampled_from(valid), min_size=1, max_size=8))
    # up to 32 codewords: past sample's pool/set switch at 21/22 for k <= 5
    return Code.from_generators(L, w, gens * draw(st.integers(1, 4)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(codes_with_repeats(), st.integers(0, 2 ** 32), st.integers(0, 200))
def test_sampling_matches_random_on_any_code(code, seed, trials):
    # the inline draws and count against the reference, on codes that are
    # mostly no CAC; each violation's active set starves someone when run
    # alone in explicit mode too
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(channel, "require_cac", lambda code: None)
        rep = simulate(Scenario(code, seed=seed, trials=trials))
        assert (rep.per_user, rep.violations) == _reference_run(code, seed, trials)
        for v in rep.violations:
            again = simulate(Scenario(code, active=tuple(map(tuple, v["active"]))))
            assert again.violations == ({"active": v["active"]},)


def test_simulate_cac_never_starves(rng):
    # any <= w active users of a verified CAC each keep a clear slot
    code = construct_two_prime(3, 13, 3).code
    for _ in range(30):
        k = rng.randint(1, 3)
        idxs = rng.sample(range(len(code)), k)
        active = tuple((i, rng.randrange(39)) for i in idxs)
        rep = simulate(Scenario(code, active=active))
        assert all(v > 0 for v in rep.per_user.values())


def test_scenario_json_roundtrip():
    obj = {
        "code": {"L": 9, "w": 3, "generators": [1, 3]},
        "active": [{"idx": 0, "delay": 2}],
        "seed": 5,
        "trials": 0,
    }
    sc = scenario_from_json(json.loads(json.dumps(obj)))
    assert sc.code.generators == (1, 3)
    assert sc.active == ((0, 2),)
    rep = simulate(sc)
    assert rep.per_user == {0: 3}


def test_irrepressibility_k1():
    assert verify_irrepressibility_exhaustive(Code.from_generators(9, 3, [1, 4]), 1)


def test_irrepressibility_translate_pair_fails():
    # generators 1 and 8 give translate-identical supports: one user can
    # mirror the other exactly and black it out
    assert not verify_irrepressibility_exhaustive(Code.from_generators(9, 3, [1, 8]), 2)
    # sharing differences alone is not enough to blind anyone
    assert verify_irrepressibility_exhaustive(Code.from_generators(9, 3, [1, 4]), 2)
    assert not verify_irrepressibility_exhaustive(
        Code.from_generators(9, 3, [1, 2, 4]), 3
    )


def test_irrepressibility_valid_cac():
    code = construct_lemma1(13, 3).code
    for k in (1, 2, 3):
        assert verify_irrepressibility_exhaustive(code, k)


def test_irrepressibility_bad_k():
    code = construct_lemma1(13, 3).code
    with pytest.raises(ValueError):
        verify_irrepressibility_exhaustive(code, 0)
    with pytest.raises(ValueError):
        verify_irrepressibility_exhaustive(code, 4)


def test_irrepressibility_budget(monkeypatch):
    code = construct_theorem2(
        construct_lemma1(5, 3), construct_lemma1(13, 3)
    ).code
    # 16 users, w = 3: 16 * 15 * 2^3 = 1,920 DP states
    monkeypatch.setattr(channel, "EXHAUSTIVE_BUDGET", 1000)
    with pytest.raises(BudgetExceeded, match="^1920 DP states exceed budget 1000$"):
        verify_irrepressibility_exhaustive(code, 3)
    assert EXHAUSTIVE_BUDGET == 5_000_000


def test_irrepressibility_small_budget_boundary(monkeypatch):
    code = Code.from_generators(9, 3, [1, 3])
    # 2 users, w = 3: 2 * 1 * 2^3 = 16 DP states exactly
    monkeypatch.setattr(channel, "EXHAUSTIVE_BUDGET", 16)
    assert verify_irrepressibility_exhaustive(code, 2)
    monkeypatch.setattr(channel, "EXHAUSTIVE_BUDGET", 15)
    with pytest.raises(BudgetExceeded):
        verify_irrepressibility_exhaustive(code, 2)


def test_irrepressibility_with_fewer_users_than_k():
    # no k-subset exists, so nobody can be blanked: not even the translate
    # pair that fails at k = 2
    assert verify_irrepressibility_exhaustive(Code.from_generators(9, 3, [1, 8]), 3)
    assert verify_irrepressibility_exhaustive(Code(9, 3, ()), 2)


def test_irrepressibility_reaches_919_4():
    # 153 users: 153 * 152 * 2^4 = 372,096 DP states, against
    # C(153, 4) * 919^3, about 1.7e16, delay tuples
    code = construct_theorem1(Theorem1Params(919, 4, 51, 3, 7)).code
    assert verify_irrepressibility_exhaustive(code, 4)
    gens = list(code.generators)
    gens[0] = 2 * gens[1] % code.length
    bad = Code.from_generators(code.length, code.weight, gens)
    # the clashing pair shares 2 of 4 slots at most, so blanking needs a third user
    assert verify_irrepressibility_exhaustive(bad, 2)
    assert not verify_irrepressibility_exhaustive(bad, 3)


def _irrepressible_by_brute_force(code, k):
    # every k-subset and every delay tuple, one period each; shifting all
    # users by the same delay changes no count, so the first delay is 0
    L = code.length
    on_air_at = [[sum(1 << (s + d) % L for s in support(cw)) for d in range(L)]
                 for cw in code.codewords]
    for users in combinations(range(len(code)), k):
        for delays in product(range(L), repeat=k - 1):
            on_air = [on_air_at[u][d] for u, d in zip(users, (0,) + delays)]
            if 0 in _run_once(on_air):
                return False
    return True


@st.composite
def small_codes(draw):
    w = draw(st.integers(2, 4))
    L = draw(st.integers(w, 30))
    valid = [g for g in range(1, L) if L // gcd(L, g) >= w]
    gens = draw(st.lists(st.sampled_from(valid), min_size=1, max_size=5))
    return Code.from_generators(L, w, gens)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_codes())
def test_irrepressibility_matches_brute_force(code):
    for k in range(1, min(code.weight, len(code)) + 1):
        expected = _irrepressible_by_brute_force(code, k)
        assert verify_irrepressibility_exhaustive(code, k) is expected


def test_irrepressibility_fails_on_every_clash_copy():
    # replacing codeword i by 2 g_j shares the differences +-2 g_j with j
    code = construct_theorem2(construct_lemma1(5, 3), construct_lemma1(13, 3)).code
    assert verify_irrepressibility_exhaustive(code, 3)
    gens = code.generators
    for i, j in product(range(len(gens)), repeat=2):
        if i != j:
            clash = list(gens)
            clash[i] = 2 * gens[j] % code.length
            bad = Code.from_generators(code.length, code.weight, clash)
            assert not verify_irrepressibility_exhaustive(bad, 3), (i, j)
