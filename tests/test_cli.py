import hashlib
import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cacforge.cli as cli
from cacforge.cli import _build_parser, main
from cacforge.codes import (
    Certificate,
    Code,
    EquiDiffCodeword,
    code_to_json,
    difference_set,
    is_tight,
    verify_cac,
)
from conftest import subprocess_env


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def run_quiet(*argv):
    """main's exit code, stdout and stderr, without a pytest fixture."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def test_bound_plain(capsys):
    rc, out, err = run(capsys, "bound", "20", "3")
    assert rc == 0
    assert "floor 5" in out
    assert "20/4" in out


def test_bound_json(capsys):
    rc, out, _ = run(capsys, "bound", "919", "4", "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["floor"] == 153
    assert obj["raw"] == "918/6"


def test_bound_all(capsys):
    rc, out, _ = run(capsys, "bound", "36", "4", "--all")
    assert rc == 0
    assert "prime-divisor" in out and "subset-excess" in out
    rc, out, _ = run(capsys, "bound", "252", "8", "--all")
    assert rc == 0
    assert "n/a" in out  # corollary only covers w in 3..6
    rc, out, _ = run(capsys, "bound", "252", "8", "--all", "--json")
    obj = json.loads(out)
    assert obj["corollary1"] is None
    assert obj["new"]["floor"] == 18


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert _build_parser() is _build_parser()
    rc, out, _ = run(capsys, "bound", "13", "3", "--json")
    assert rc == 0
    assert json.loads(out)["floor"] == 3
    rc, out, _ = run(capsys, "bound", "13", "3")
    assert rc == 0
    assert out.startswith("new bound for (L=13, w=3)")
    rc, out, _ = run(capsys, "search", "15", "3")
    assert rc == 0
    assert "M^e(15,3) = 4" in out
    rc, out, _ = run(capsys, "bound", "36", "4", "--all")
    assert rc == 0
    assert "subset-excess" in out and not out.startswith("{")


def test_dispatch_calls_a_command_replaced_after_the_parser_was_built(capsys, monkeypatch):
    assert run(capsys, "bound", "13", "3")[0] == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_bound", lambda args: calls.append(args.L) or 0)
    assert run(capsys, "bound", "13", "3")[0] == 0
    assert calls == [13]


def test_python_m_cacforge():
    proc = subprocess.run([sys.executable, "-m", "cacforge", "bound", "13", "3"],
                          capture_output=True, text=True, env=subprocess_env(), timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("new bound for (L=13, w=3): floor 3")


def test_bound_usage_errors(capsys):
    with pytest.raises(SystemExit):
        main(["bound", "twenty", "3"])
    rc, _, err = run(capsys, "bound", "20", "1")
    assert rc == 2
    assert "cacforge:" in err


def test_construct_lemma1_json(capsys):
    rc, out, _ = run(capsys, "construct", "lemma1", "--p", "13", "--w", "3", "--json")
    assert rc == 0
    cert = Certificate.from_json(json.loads(out))
    assert cert.code.canonical_generators() == [1, 3, 4]
    assert cert.flags.tight


def test_construct_missing_args(capsys):
    rc, _, err = run(capsys, "construct", "lemma1", "--w", "3")
    assert rc == 2
    assert "requires --p" in err
    rc, _, err = run(capsys, "construct", "theorem1", "--p", "17", "--w", "3")
    assert rc == 2
    assert "theorem1 requires --p, --w, --m and --s" in err
    rc, _, err = run(capsys, "construct", "theorem2")
    assert rc == 2
    assert "theorem2 requires --cert1 and --cert2" in err
    rc, _, err = run(capsys, "construct", "two-prime", "--p", "3", "--w", "3")
    assert rc == 2
    assert "two-prime requires --p, --q and --w" in err


def test_construct_failure_exit(capsys):
    rc, _, err = run(capsys, "construct", "lemma1", "--p", "17", "--w", "3")
    assert rc == 3
    assert "SdrConditionFailed" in err
    rc, _, err = run(capsys, "construct", "two-prime",
                     "--p", "3", "--q", "17", "--w", "3")
    assert rc == 3
    assert "ConditionNotSatisfied" in err


def test_construct_out_and_theorem2(tmp_path, capsys):
    c5 = tmp_path / "c5.json"
    c13 = tmp_path / "c13.json"
    rc, out, _ = run(capsys, "construct", "lemma1", "--p", "5", "--w", "3",
                     "--out", str(c5))
    assert rc == 0
    assert "wrote certificate" in out
    rc, _, _ = run(capsys, "construct", "lemma1", "--p", "13", "--w", "3",
                   "--out", str(c13))
    assert rc == 0
    rc, out, _ = run(capsys, "construct", "theorem2",
                     "--cert1", str(c5), "--cert2", str(c13), "--json")
    assert rc == 0
    cert = Certificate.from_json(json.loads(out))
    assert cert.code.length == 65
    assert len(cert.code) == 16


def test_verify_certificate_and_code(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    rc, _, _ = run(capsys, "construct", "two-prime", "--p", "3", "--q", "5",
                   "--w", "3", "--out", str(cert_file))
    assert rc == 0
    rc, out, _ = run(capsys, "verify", str(cert_file))
    assert rc == 0
    assert out.startswith("ok:")

    raw = tmp_path / "code.json"
    raw.write_text('{"L": 15, "w": 3, "generators": [1, 3, 4, 5]}')
    rc, out, _ = run(capsys, "verify", str(raw), "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["ok"] and obj["tight"] and obj["optimal_by_bound"]
    assert obj["size"] == 4 and obj["bound_floor"] == 4


def test_verify_detects_conflict(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"L": 9, "w": 3, "generators": [1, 4]}')
    rc, out, _ = run(capsys, "verify", str(bad))
    assert rc == 3
    assert "share difference 1" in out


def test_verify_file_errors(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    rc, _, err = run(capsys, "verify", str(garbled))
    assert rc == 3
    assert "parse error" in err
    rc, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert rc == 2


@pytest.mark.parametrize("obj", [
    {"w": 3, "generators": [1, 3]},
    [{"L": 9, "w": 3, "generators": [1, 3]}],
    {"L": 9, "w": 3, "generators": ["x"]},
], ids=["no-L", "a-list", "bad-generator"])
def test_verify_malformed_code(tmp_path, capsys, obj):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "verify", str(bad))
    assert rc == 3
    assert "ParseError" in err
    assert "Traceback" not in out + err


def _theorem2_inputs(tmp_path, capsys):
    c5, c13 = tmp_path / "c5.json", tmp_path / "c13.json"
    for p, path in ((5, c5), (13, c13)):
        rc, _, _ = run(capsys, "construct", "lemma1", "--p", str(p), "--w", "3",
                       "--out", str(path))
        assert rc == 0
    return c5, c13


@pytest.mark.parametrize("drop", ["bound", "flags", "code"])
def test_theorem2_malformed_certificate(tmp_path, capsys, drop):
    c5, c13 = _theorem2_inputs(tmp_path, capsys)
    obj = json.loads(c5.read_text())
    del obj[drop]
    c5.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "construct", "theorem2", "--cert1", str(c5), "--cert2", str(c13))
    assert rc == 3
    assert "ParseError" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "python-O"])
def test_theorem2_rejects_edited_floor(tmp_path, capsys, optimize):
    c5, c13 = _theorem2_inputs(tmp_path, capsys)
    obj = json.loads(c5.read_text())
    obj["bound"]["floor"] = 99
    c5.write_text(json.dumps(obj))
    cmd = [sys.executable, *(["-O"] if optimize else []), "-m", "cacforge.cli",
           "construct", "theorem2", "--cert1", str(c5), "--cert2", str(c13)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=subprocess_env(),
                          timeout=60)
    assert proc.returncode == 3
    assert "InconsistentClaim" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_search(capsys):
    rc, out, _ = run(capsys, "search", "15", "3")
    assert rc == 0
    assert "M^e(15,3) = 4" in out
    rc, out, _ = run(capsys, "search", "15", "3", "--json")
    obj = json.loads(out)
    assert obj == {"L": 15, "w": 3, "max": 4, "witness": [1, 3, 4, 5], "exact": True}


def test_search_budget_exit(capsys):
    rc, _, err = run(capsys, "search", "500", "3")
    assert rc == 4
    assert "budget exceeded" in err
    rc, _, err = run(capsys, "search", "199", "3", "--budget", "1")
    assert rc == 4
    assert "incumbent" in err


def test_search_reports_nodes(capsys):
    rc, out, _ = run(capsys, "search", "193", "4", "--cap", "200")
    assert rc == 0
    assert out.rstrip().endswith("search nodes")
    rc, _, err = run(capsys, "search", "199", "3", "--budget", "5")
    assert rc == 4
    assert "after 5 search nodes" in err


def test_search_bad_witness_exit(capsys, monkeypatch):
    import cacforge.oracle as oracle

    g = oracle.build_graph(13, 3)
    j = next(j for j in range(1, len(g.vertices)) if not g.adjacency[0] >> j & 1)
    monkeypatch.setattr(oracle, "_max_clique", lambda adj, orbits, budget: (2, [0, j], 1))
    rc, _, err = run(capsys, "search", "13", "3")
    assert rc == 3
    assert "NotACac" in err


def test_simulate(tmp_path, capsys):
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps({
        "code": {"L": 9, "w": 3, "generators": [1, 3]},
        "active": [{"idx": 0, "delay": 0}, {"idx": 1, "delay": 3}],
    }))
    rc, out, _ = run(capsys, "simulate", str(sc))
    assert rc == 0
    assert "violations 0" in out

    sampled = tmp_path / "sampled.json"
    sampled.write_text(json.dumps({
        "code": {"L": 15, "w": 3, "generators": [1, 3, 4, 5]},
    }))
    rc, out, _ = run(capsys, "simulate", str(sampled),
                     "--seed", "3", "--trials", "200", "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["runs"] == 200
    assert obj["violations"] == []


_CODE_9_3 = {"L": 9, "w": 3, "generators": [1, 3]}


@pytest.mark.parametrize("scenario", [
    {"code": _CODE_9_3, "active": [{"idx": 0}]},
    {"code": _CODE_9_3, "active": [{"delay": 0}]},
    {"code": _CODE_9_3, "active": [{"idx": 0, "delay": "x"}]},
    {"code": _CODE_9_3, "active": [3]},
    {"code": _CODE_9_3, "trials": -5},
    {"code": {"L": 9, "w": 3}},
    {"active": []},
    [_CODE_9_3],
], ids=["no-delay", "no-idx", "bad-delay", "entry-not-object", "negative-trials",
        "no-generators", "no-code", "not-an-object"])
def test_simulate_malformed_scenario(tmp_path, capsys, scenario):
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(scenario))
    rc, out, err = run(capsys, "simulate", str(sc))
    assert rc == 3
    assert "ParseError" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("command, obj, error", [
    ("verify", {"L": 0, "w": 3, "generators": []}, "DegenerateCodeword"),
    ("simulate", {"code": _CODE_9_3, "active": [{"idx": 2, "delay": 0}]}, "ParamMismatch"),
    ("simulate", {"code": {"L": 9, "w": 3, "generators": []}, "trials": 3}, "ParamMismatch"),
    ("catalog", {"L": 0, "w": 3, "best_size": 0}, "ParseError"),
], ids=["verify-L0", "simulate-index", "simulate-no-codewords", "catalog-L0"])
def test_out_of_range_inputs_exit_3(tmp_path, capsys, command, obj, error):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    argv = [command, str(path)]
    if command == "catalog":
        argv = ["catalog", "update", str(path), "--catalog", str(tmp_path / "c.jsonl")]
    rc, out, err = run(capsys, *argv)
    assert rc == 3
    assert error in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("trials", ["-5", "x"])
def test_simulate_rejects_bad_trials_override(tmp_path, capsys, trials):
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps({"code": _CODE_9_3}))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(sc), "--trials", trials])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--trials" in err
    assert "Traceback" not in err


def test_catalog_flow(tmp_path, capsys, monkeypatch):
    cat = tmp_path / "cat.jsonl"
    cert_file = tmp_path / "c13.json"
    run(capsys, "construct", "lemma1", "--p", "13", "--w", "3",
        "--out", str(cert_file))
    oracle_file = tmp_path / "or15.json"
    rc, out, _ = run(capsys, "search", "15", "3", "--json")
    oracle_file.write_text(out)

    rc, out, _ = run(capsys, "catalog", "update", str(cert_file),
                     str(oracle_file), "--catalog", str(cat))
    assert rc == 0
    assert "2 entries (2 updated)" in out

    rc, out, _ = run(capsys, "catalog", "show", "--catalog", str(cat))
    assert rc == 0
    assert "(13,3) best 3" in out
    assert "(15,3) best 4" in out

    rc, out, _ = run(capsys, "catalog", "check", "--catalog", str(cat))
    assert rc == 0
    assert "ok, 2 entries" in out

    # same facts again: nothing to update
    rc, out, _ = run(capsys, "catalog", "update", str(cert_file),
                     "--catalog", str(cat))
    assert rc == 0
    assert "(0 updated)" in out

    # the env var stands in for --catalog
    monkeypatch.setenv("CACFORGE_CATALOG", str(cat))
    rc, out, _ = run(capsys, "catalog", "show")
    assert rc == 0
    assert "(13,3)" in out


def test_catalog_update_requires_files(capsys):
    rc, _, err = run(capsys, "catalog", "update")
    assert rc == 2
    assert "requires at least one" in err


def test_catalog_parse_error(tmp_path, capsys):
    cat = tmp_path / "broken.jsonl"
    cat.write_text('{"L": 13, "w": 3, "best_size": 3, "source": "x"}\n{oops\n')
    rc, _, err = run(capsys, "catalog", "show", "--catalog", str(cat))
    assert rc == 3
    assert "line 2" in err


def test_catalog_rejects_unknown_shape(tmp_path, capsys):
    entry = tmp_path / "weird.json"
    entry.write_text('{"foo": 1}')
    rc, _, err = run(capsys, "catalog", "update", str(entry),
                     "--catalog", str(tmp_path / "c.jsonl"))
    assert rc == 3
    assert "unrecognized catalog entry shape" in err


@pytest.mark.parametrize("entry", [
    {"best_size": 3},
    {"L": 13, "w": 3, "best_size": "three"},
    {"code": {"L": 13, "w": 3}},
    [1, 2, 3],
], ids=["no-L", "bad-size", "certificate-without-generators", "a-list"])
def test_catalog_malformed_entry(tmp_path, capsys, entry):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(entry))
    rc, out, err = run(capsys, "catalog", "update", str(bad),
                       "--catalog", str(tmp_path / "c.jsonl"))
    assert rc == 3
    assert "ParseError" in err
    assert "Traceback" not in out + err
    assert not (tmp_path / "c.jsonl").exists()


def test_catalog_integrity(tmp_path, capsys):
    cat = tmp_path / "cat.jsonl"
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({
        "L": 15, "w": 3, "best_size": 99, "source": "made-up",
        "exact": True, "generators": [],
    }))
    rc, _, err = run(capsys, "catalog", "update", str(bogus),
                     "--catalog", str(cat))
    assert rc == 3
    assert "integrity error" in err
    assert not cat.exists()  # nothing written on failure

    cat.write_text(json.dumps({
        "L": 9, "w": 3, "best_size": 2, "source": "forged",
        "exact": True, "generators": [1, 4],
    }) + "\n")
    rc, _, err = run(capsys, "catalog", "check", "--catalog", str(cat))
    assert rc == 3
    assert "do not certify" in err

    # update runs the same check: generators that are not a CAC are refused
    good = tmp_path / "good.jsonl"
    search15 = tmp_path / "or15.json"
    rc, out, _ = run(capsys, "search", "15", "3", "--json")
    search15.write_text(out)
    rc, _, _ = run(capsys, "catalog", "update", str(search15), "--catalog", str(good))
    assert rc == 0
    before = good.read_bytes()
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps({
        "L": 13, "w": 3, "best_size": 3, "source": "forged",
        "exact": True, "generators": [1, 2, 5],
    }))
    rc, _, err = run(capsys, "catalog", "update", str(forged), "--catalog", str(good))
    assert rc == 3
    assert "(13,3) stored generators do not certify" in err
    assert good.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(".")) == []


def test_no_command_usage():
    with pytest.raises(SystemExit):
        main([])


# sha256 of stdout: certificates and verify reports are frozen outputs,
# so a speed-up must leave them byte for byte the same
_THEOREM1_919 = ["construct", "theorem1", "--p", "919", "--w", "4", "--m", "51", "--s", "3",
                 "--alpha", "7", "--json"]
_TWO_PRIME_4295 = ["construct", "two-prime", "--p", "5", "--q", "859", "--w", "4", "--json"]
_FROZEN = {
    "theorem1-919": ("5bc736e9a12f2bcc53e31c1e8098510231839fe618cb8157f40a9b3a2cdf80e1",
                     "f810d77759b0709c2fe2ac146d5bb0529047053d11d4269cb1ebf6831d53947d",
                     "41ec4d2d52d560d3467cfe6bb049a9d67d812dccbd7a7d5404cbf2b76daae3ba"),
    "two-prime-4295": ("ecbb3a380e2bc452b3f2698b9b0105210d82ca9f92156d7f2f3b6ea96f52fda2",
                       "e6f3e47efea5b8cf3b24a47f52cccc2f9d027cc9bc995722379b42849f2e86f4",
                       "30b5807c70fa37529d0929e931bc8e59d8a97c29c021a572eae70330061d5375"),
}


@pytest.mark.parametrize("name, argv", [("theorem1-919", _THEOREM1_919),
                                        ("two-prime-4295", _TWO_PRIME_4295)])
def test_frozen_outputs(tmp_path, capsys, name, argv):
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    cert_sha, verify_sha, clash_sha = _FROZEN[name]
    rc, cert, _ = run(capsys, *argv)
    assert rc == 0 and sha(cert) == cert_sha
    path = tmp_path / "cert.json"
    path.write_text(cert)
    rc, out, _ = run(capsys, "verify", str(path), "--json")
    assert rc == 0 and sha(out) == verify_sha
    # codeword 1 replaced by twice codeword 0: both hold the difference +-2 g_0
    obj = json.loads(cert)
    gens = obj["code"]["generators"]
    gens[1] = 2 * gens[0] % obj["code"]["L"]
    path.write_text(json.dumps(obj))
    rc, out, _ = run(capsys, "verify", str(path), "--json")
    assert rc == 3 and sha(out) == clash_sha


@st.composite
def random_cacs(draw):
    """Codewords of a random (L, w), kept greedily while difference sets stay disjoint."""
    w = draw(st.integers(2, 5))
    L = draw(st.integers(w, 60))
    valid = [g for g in range(1, L) if L // gcd(L, g) >= w]
    covered, gens = set(), []
    for g in draw(st.permutations(valid)):
        d = difference_set(EquiDiffCodeword(L, w, g)).elements
        if not covered & d:
            covered |= d
            gens.append(g)
    return Code.from_generators(L, w, gens)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_cacs())
def test_verify_tight_matches_is_tight(tmp_path_factory, code):
    report = verify_cac(code)
    assert report.ok
    assert report.covered == sum(len(difference_set(cw).elements) for cw in code.codewords)
    path = tmp_path_factory.getbasetemp() / "tight-code.json"
    path.write_text(json.dumps(code_to_json(code)))
    rc, out, _ = run_quiet("verify", path, "--json")
    assert rc == 0
    assert json.loads(out)["tight"] is is_tight(code)


# a JSON number beyond the float range parses to inf, which int() cannot convert
@pytest.mark.parametrize("command", ["verify", "simulate", "theorem2", "catalog"])
def test_json_number_overflow_is_a_parse_error(tmp_path, capsys, command):
    big = tmp_path / "big.json"
    if command == "verify":
        big.write_text('{"L": 1e400, "w": 3, "generators": [1]}')
        argv = ["verify", str(big)]
    elif command == "simulate":
        big.write_text(json.dumps({"code": _CODE_9_3}).replace("}}", '}, "seed": 1e400}'))
        argv = ["simulate", str(big)]
    elif command == "theorem2":
        c5, c13 = _theorem2_inputs(tmp_path, capsys)
        big.write_text(c5.read_text().replace('"L": 5', '"L": 1e400', 1))
        argv = ["construct", "theorem2", "--cert1", str(big), "--cert2", str(c13)]
    else:
        big.write_text('{"L": 13, "w": 3, "best_size": 1e400}')
        argv = ["catalog", "update", str(big), "--catalog", str(tmp_path / "c.jsonl")]
    assert "1e400" in big.read_text()
    rc, out, err = run(capsys, *argv)
    assert rc == 3
    assert "ParseError" in err and "OverflowError" in err
    assert "Traceback" not in out + err


_CODE_13_3 = {"L": 13, "w": 3, "generators": [1, 3, 4]}
_CERT_5_3 = {
    "code": {"L": 5, "w": 3, "generators": [1]},
    "bound": {"L": 5, "w": 3, "omega": [], "omega_star": [], "excess": 0, "raw": "4/4",
              "floor": 1},
    "flags": {"verified_cac": True, "tight": True, "optimal_by_bound": True,
              "optimal_by_oracle": None},
    "params": {"method": "lemma1", "p": 5, "w": 3, "m": 1, "alpha": 2},
    "oracle_max": None,
}
# valid inputs of each command; the fuzzer keeps, drops or replaces each of their parts
_FUZZ_TEMPLATES = {
    "verify": [_CODE_13_3, {"code": _CODE_13_3}],
    "simulate": [{"code": _CODE_13_3, "active": [{"idx": 0, "delay": 1}, {"idx": 2, "delay": 5}],
                  "seed": 1, "trials": 3}],
    "theorem2": [_CERT_5_3],
    "catalog": [{"L": 13, "w": 3, "best_size": 3, "source": "x", "exact": True,
                 "generators": [1, 3, 4]},
                {"L": 15, "w": 3, "max": 4, "witness": [1, 3, 4, 5], "exact": True},
                _CERT_5_3],
}
# small integers only: a huge L would make simulate allocate L-bit masks
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 200),
              st.sampled_from([float("inf"), float("-inf"), float("nan")]),
              st.text("abLw/", max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text("abLw", max_size=2), inner, max_size=3)),
    max_leaves=8,
)
_DROPPED = object()  # a part the fuzzer leaves out


def _like(template):
    """Values of the template's shape: each part kept 7 times in 8, else
    replaced by random JSON or, inside a dict or list, dropped."""
    if isinstance(template, dict):
        shaped = st.fixed_dictionaries({k: _like(v) for k, v in template.items()}).map(
            lambda d: {k: v for k, v in d.items() if v is not _DROPPED})
    elif isinstance(template, list):
        shaped = st.one_of(
            st.tuples(*map(_like, template)),
            st.lists(st.one_of(*map(_like, template)) if template else _JSON, max_size=5),
        ).map(lambda xs: [x for x in xs if x is not _DROPPED])
    else:
        shaped = st.just(template)
    return st.sampled_from(range(16)).flatmap(
        lambda mode: shaped if mode < 14 else _JSON if mode == 14 else st.just(_DROPPED))


@pytest.fixture(scope="module")
def cert_13_3(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "c13.json"
    assert run_quiet("construct", "lemma1", "--p", "13", "--w", "3", "--out", path)[0] == 0
    return path


@pytest.mark.parametrize("command", sorted(_FUZZ_TEMPLATES))
@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_json_inputs_exit_0_or_3(cert_13_3, command, data):
    obj = data.draw(st.one_of(*map(_like, _FUZZ_TEMPLATES[command])))
    obj = None if obj is _DROPPED else obj
    # inf prints as Infinity; 1e400 is the plain JSON number that parses to it
    text = json.dumps(obj).replace("Infinity", "1e400")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text)
        argv = {
            "verify": ["verify", path, "--json"],
            "simulate": ["simulate", path, "--json"],
            "theorem2": ["construct", "theorem2", "--cert1", path, "--cert2", cert_13_3],
            "catalog": ["catalog", "update", path, "--catalog", Path(tmp) / "c.jsonl"],
        }[command]
        rc, out, err = run_quiet(*argv)
    assert rc in (0, 3), (text, err)
