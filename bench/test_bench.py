"""Tests of the benchmark's own checks, reference and tracer.

The output checks must accept what cacforge emits and reject each kind
of corrupted output (negative controls); the networkx reference must
agree with the oracle on small lengths; the tracer must see calls made
between modules through names they imported.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cacforge as cf  # noqa: E402
import cacforge.cli  # noqa: E402,F401
import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_check_code_accepts_a_tight_code():
    code = cf.construct_lemma1(13, 3).code
    checks.check_code(13, 3, list(code.generators), size=3, tight=True)


@pytest.mark.parametrize("generators, kwargs", [
    ([1, 2], {}),  # d*(1) and d*(2) share 2 and 11
    ([1, 1], {}),  # a repeated codeword
    ([1, 13], {}),  # generator outside Z_13 minus 0
    ([1, 5], {"size": 3}),  # right differences, wrong size
    ([1, 5], {"tight": True}),  # disjoint but covers 8 of 12 differences
])
def test_check_code_rejects(generators, kwargs):
    with pytest.raises(CheckFailed):
        checks.check_code(13, 3, generators, **kwargs)


def test_check_certificate_and_verify_report():
    cert = cf.construct_theorem1(cf.Theorem1Params(919, 4, 51, 3, 7)).to_json()
    checks.check_certificate(cert, 153)
    clash = json.loads(json.dumps(cert))
    clash["code"]["generators"][1] = 2 * clash["code"]["generators"][0] % 919
    flag = json.loads(json.dumps(cert))
    flag["flags"]["tight"] = False
    for bad, size in ((clash, 153), (flag, 153), (cert, 152)):
        with pytest.raises(CheckFailed):
            checks.check_certificate(bad, size)
    good = {"ok": True, "tight": True, "optimal_by_bound": True, "size": 153}
    checks.check_verify_report(good, 153)
    for key, value in (("tight", False), ("optimal_by_bound", False), ("size", 152)):
        with pytest.raises(CheckFailed):
            checks.check_verify_report({**good, key: value}, 153)


def test_check_bound_report(capsys):
    assert cf.cli.main(["bound", "1001", "5", "--all", "--json"]) == 0
    good = json.loads(capsys.readouterr().out)
    checks.check_bound_report(1001, 5, good)
    inflated = json.loads(json.dumps(good))
    inflated["new"]["floor"] = checks.prime_divisor_floor(1001, 5) + 1
    wrong_pd = json.loads(json.dumps(good))
    wrong_pd["prime_divisor"]["floor"] += 1
    for bad in (inflated, wrong_pd):
        with pytest.raises(CheckFailed):
            checks.check_bound_report(1001, 5, bad)
    with pytest.raises(CheckFailed):
        checks.check_bound_report(1001, 5, good, best_code=good["new"]["floor"] + 1)


def test_own_number_theory_matches_cacforge():
    for n in range(1, 400):
        assert checks.prime_factors(n) == list(cf.factorize(n).primes)
        assert checks.is_prime(n) == cf.is_prime(n)
    for p in (13, 919, 1009):
        assert checks.primitive_root(p) == cf.primitive_root(p)


def test_theorem1_divisors_match_find_theorem1_params():
    assert checks.theorem1_divisors(919, 4) == [3]
    for p in range(7, 400):
        if not checks.is_prime(p):
            continue
        for w in range(3, 7):
            if (p - 1) % (2 * w - 2) == 0:
                found = [s for _, s, _ in cf.find_theorem1_params(p, w)]
                assert checks.theorem1_divisors(p, w) == found, (p, w)


def test_recount_matches_simulate_and_rejects_tampering():
    code = cf.construct_lemma1(29, 3).code
    gens = list(code.generators)
    rep = cf.simulate(cf.Scenario(code, seed=5, trials=300)).to_json()
    checks.check_simulation(rep, 29, 3, gens, 5, 300)
    tampered = json.loads(json.dumps(rep))
    tampered["per_user"]["0"] += 1
    starved = {**rep, "violations": [{"trial": 0}]}
    for bad in (tampered, starved):
        with pytest.raises(CheckFailed):
            checks.check_simulation(bad, 29, 3, gens, 5, 300)


def test_check_search():
    res = cf.max_equi_diff_cac(29, 3).to_json()
    checks.check_search(res, 29, 3, floor=7, expected=res["max"])
    clash = {**res, "witness": [1, 2] + res["witness"][2:]}
    for bad, floor, expected in ((clash, 7, res["max"]), (res, res["max"] - 1, res["max"]),
                                 (res, 7, res["max"] + 1)):
        with pytest.raises(CheckFailed):
            checks.check_search(bad, 29, 3, floor, expected)


@pytest.mark.parametrize("w", [3, 4])
def test_oracle_agrees_with_networkx(w):
    pytest.importorskip("networkx")
    for L in range(w, 41):
        assert reference.maximum(L, w) == cf.max_equi_diff_cac(L, w).size, (L, w)


def test_reference_file_covers_the_search_gap_instances():
    assert set(workloads.SEARCH_GAP) <= set(workloads.load_reference())


def test_channel_plan_checks_its_outputs(tmp_path):
    plan = workloads.channel(cf, 3, tmp_path)
    outputs = [op.call() for op in plan.ops]
    plan.check(outputs)
    sim = next(i for i, op in enumerate(plan.ops) if op.label.startswith("simulate"))
    irr = 1 - sim
    report = json.loads(outputs[sim])
    report["per_user"]["0"] += 1
    tampered = list(outputs)
    tampered[sim] = json.dumps(report)
    wrong = list(outputs)
    wrong[irr] = False
    for bad in (tampered, wrong):
        with pytest.raises(CheckFailed):
            plan.check(bad)


def test_tracer_sees_calls_through_imported_names():
    tracer = Tracer().install()
    try:
        cf.constructions.find_theorem1_params(919, 4)
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    calls = summary["calls"]
    assert calls["constructions.find_theorem1_params"] == 1
    # one call per divisor s of 153, each reaching construct_theorem1 through the module global
    assert calls["constructions.construct_theorem1"] == 6
    # the one passing s: verify_cac in _certificate, then again inside is_tight
    assert calls["codes.verify_cac"] == 2
    assert calls["codes.difference_set"] == 3 * 153
    parents = {tracer.names[tracer.name[i]]: tracer.parent[i] for i in range(len(tracer.name))}
    caller = tracer.names[tracer.name[parents["constructions.construct_theorem1"]]]
    assert caller == "constructions.find_theorem1_params"
    assert cf.constructions.verify_cac is cf.codes.verify_cac
    assert not hasattr(cf.constructions.verify_cac, "__wrapped__")
