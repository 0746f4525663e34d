import pytest

from cacforge.bounds import new_bound
from cacforge.codes import CertFlags, Certificate, Code, is_tight, verify_cac
from cacforge.constructions import (
    Theorem1Params,
    check_condition,
    construct_lemma1,
    construct_theorem1,
    construct_theorem2,
    construct_two_prime,
    find_theorem1_params,
)
from cacforge.errors import (
    ConditionNotSatisfied,
    InputNotOptimal,
    InputNotTight,
    LengthsNotCoprimePrimes,
    NotPrime,
    NotPrimitive,
    ParamMismatch,
    SdrConditionFailed,
)


def _hand_certificate(L, w, gens):
    code = Code.from_generators(L, w, gens)
    return Certificate(code, new_bound(L, w), CertFlags(True, False, False), {})


def test_lemma1_smallest():
    cert = construct_lemma1(5, 3)
    assert cert.code.canonical_generators() == [1]
    assert cert.flags.tight and cert.flags.optimal_by_bound
    assert cert.bound_floor == 1


def test_lemma1_13_3():
    cert = construct_lemma1(13, 3)
    assert cert.code.canonical_generators() == [1, 3, 4]
    assert verify_cac(cert.code).ok
    assert is_tight(cert.code)
    assert len(cert.code) == cert.bound_floor == 3


def test_lemma1_rejects():
    with pytest.raises(NotPrime):
        construct_lemma1(15, 3)
    with pytest.raises(ParamMismatch):
        construct_lemma1(11, 4)  # 10 not divisible by 2(w-1)


def test_lemma1_sdr_failure():
    # mod 17 the squares {1,2,4,8,9,13,15,16} swallow both 1 and 2
    with pytest.raises(SdrConditionFailed) as ei:
        construct_lemma1(17, 3)
    assert {1, 2} <= set(ei.value.coset)
    with pytest.raises(SdrConditionFailed):
        construct_lemma1(919, 4)


def test_theorem1_basic():
    cert = construct_theorem1(Theorem1Params(17, 3, 2, 2, 3))
    assert len(cert.code) == 4
    assert cert.flags.tight and cert.flags.optimal_by_bound
    assert verify_cac(cert.code).ok


def test_theorem1_reduces_to_lemma1():
    # s = 1 must reproduce the one-parameter family
    a = construct_theorem1(Theorem1Params(13, 3, 3, 1, 2))
    b = construct_lemma1(13, 3, alpha=2)
    assert a.code.canonical_generators() == b.code.canonical_generators()


def test_theorem1_rejects():
    with pytest.raises(ParamMismatch):
        construct_theorem1(Theorem1Params(17, 3, 3, 2, 3))  # 2*2*3*2 != 16
    with pytest.raises(NotPrimitive):
        construct_theorem1(Theorem1Params(919, 4, 51, 3, 2))  # ord(2) = 153
    with pytest.raises(NotPrime):
        construct_theorem1(Theorem1Params(15, 3, 1, 1, 2))


def test_find_theorem1_params():
    assert find_theorem1_params(7, 3) == []
    assert find_theorem1_params(13, 3) == [(3, 1, 2)]
    assert find_theorem1_params(17, 3) == [(2, 2, 3)]
    for p, w in [(13, 3), (17, 3), (41, 3), (37, 4)]:
        for m, s, alpha in find_theorem1_params(p, w):
            cert = construct_theorem1(Theorem1Params(p, w, m, s, alpha))
            assert cert.flags.tight and cert.flags.optimal_by_bound


def test_theorem2_compose():
    cert = construct_theorem2(construct_lemma1(5, 3), construct_lemma1(13, 3))
    assert cert.code.length == 65
    assert len(cert.code) == 16 == cert.bound_floor
    assert cert.flags.tight and cert.flags.optimal_by_bound
    assert verify_cac(cert.code).ok


def test_theorem2_order_matters_not():
    a = construct_theorem2(construct_lemma1(5, 3), construct_lemma1(13, 3))
    b = construct_theorem2(construct_lemma1(13, 3), construct_lemma1(5, 3))
    assert len(a.code) == len(b.code)
    assert a.code.length == b.code.length


def test_theorem2_rejects():
    c5 = construct_lemma1(5, 3)
    with pytest.raises(ParamMismatch):
        construct_theorem2(c5, construct_lemma1(7, 4))
    with pytest.raises(LengthsNotCoprimePrimes):
        construct_theorem2(c5, construct_lemma1(5, 3))
    with pytest.raises(LengthsNotCoprimePrimes):
        construct_theorem2(c5, construct_two_prime(3, 5, 3))  # 15 is composite
    with pytest.raises(InputNotTight):
        construct_theorem2(_hand_certificate(13, 3, [1]), c5)
    # tight but not of the plain optimal size: one exceptional codeword
    # covers all of Z_7 minus 0 when w = 5
    with pytest.raises(InputNotOptimal):
        construct_theorem2(_hand_certificate(7, 5, [1]), _hand_certificate(11, 5, [1]))


def test_check_condition_pins():
    wit = check_condition(5, 3, 1)
    assert (wit.kind, wit.H.generator, wit.H.order) == (1, 4, 2)
    assert check_condition(15, 3, 1) is None
    wit = check_condition(15, 3, 2)
    assert (wit.kind, wit.H.generator, wit.H.order) == (2, 4, 2)
    assert check_condition(61, 11, 1) is None
    assert check_condition(61, 11, 2) is None
    wit = check_condition(671, 11, 2)
    assert (wit.H.generator, wit.H.order) == (45, 30)
    with pytest.raises(ValueError):
        check_condition(15, 3, 0)


def test_check_condition_factors_once(monkeypatch):
    import cacforge.constructions as constructions
    import cacforge.numtheory as numtheory

    calls = []

    def counting_factorize(n):
        calls.append(n)
        return numtheory.factorize(n)

    def no_order(a, L):
        raise AssertionError("check_condition must not call multiplicative_order")

    monkeypatch.setattr(constructions, "factorize", counting_factorize)
    monkeypatch.setattr(constructions, "multiplicative_order", no_order)
    wit = check_condition(671, 11, 2)
    assert (wit.H.generator, wit.H.order) == (45, 30)
    assert calls == [30]


def test_check_condition_matches_multiplicative_order():
    from cacforge.numtheory import cosets, cyclic_subgroup, is_sdr, multiplicative_order, unit_group

    def reference(L, w, kind):
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

    for L in range(2, 160):
        for w in range(2, 6):
            for kind in (1, 2):
                wit = check_condition(L, w, kind)
                got = None if wit is None else (wit.H.generator, wit.H.order, wit.reps)
                assert got == reference(L, w, kind), (L, w, kind)


def test_condition_witness_json():
    wit = check_condition(5, 3, 1)
    assert wit.to_json() == {"kind": 1, "generator": 4, "order": 2}


def test_two_prime_small():
    cert = construct_two_prime(3, 5, 3)
    assert cert.code.canonical_generators() == [1, 3, 4, 5]
    assert len(cert.code) == 4 == cert.bound_floor
    assert cert.flags.tight
    cert = construct_two_prime(3, 13, 3)
    assert len(cert.code) == 10 == cert.bound_floor
    assert cert.code.canonical_generators() == [1, 3, 4, 9, 10, 12, 13, 14, 16, 17]


def test_two_prime_w4():
    cert = construct_two_prime(5, 7, 4)
    assert cert.code.length == 35
    assert len(cert.code) == 6 == cert.bound_floor
    assert cert.flags.tight and cert.flags.optimal_by_bound


def test_two_prime_rejects():
    with pytest.raises(ParamMismatch):
        construct_two_prime(3, 5, 2)
    with pytest.raises(ParamMismatch):
        construct_two_prime(5, 13, 3)  # p outside [w, 2w-2]
    with pytest.raises(ParamMismatch):
        construct_two_prime(3, 7, 3)  # q != 1 mod 2(w-1)
    with pytest.raises(ConditionNotSatisfied) as ei:
        construct_two_prime(3, 17, 3)  # no qualifying subgroup mod 51
    assert ei.value.modulus == 51


def test_two_prime_exceptional_codeword():
    # generator q always contributes the lone exceptional codeword
    cert = construct_two_prime(3, 13, 3)
    from cacforge.codes import difference_set, is_exceptional

    exceptional = [cw for cw in cert.code.codewords if is_exceptional(cw)]
    assert len(exceptional) == 1
    assert exceptional[0].generator == 13
    assert len(difference_set(exceptional[0]).elements) == 2


def test_constructions_match_oracle():
    from cacforge.oracle import max_equi_diff_cac

    certs = [
        construct_lemma1(29, 3),
        construct_theorem1(Theorem1Params(17, 3, 2, 2, 3)),
        construct_two_prime(3, 5, 3),
        construct_theorem2(construct_lemma1(5, 3), construct_lemma1(13, 3)),
    ]
    for cert in certs:
        res = max_equi_diff_cac(cert.code.length, cert.code.weight)
        assert res.size == len(cert.code)
