import hashlib
import io
import json
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cacforge.cli as cli
from cacforge.bounds import exact_refund_floor, new_bound
from cacforge.channel import SimReport
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
from cacforge.constructions import Theorem1Params, construct_lemma1, construct_theorem1
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


def test_bound_all_at_a_large_prime_and_weight(capsys):
    # omega and the subset pool scan about sqrt(L) candidates, not 2w
    t0 = time.perf_counter()
    rc, out, _ = run(capsys, "bound", "100000007", "10000000", "--all")
    assert time.perf_counter() - t0 < 0.5
    assert rc == 0
    assert out == (
        "bounds for (L=100000007, w=10000000):\n"
        "  new:            floor 5  raw 100000006/19999998  omega_star []\n"
        "  prime-divisor:  floor 5  raw 110000005/19999998\n"
        "  subset-excess:  floor 5  raw 50000003/9999999  set []\n"
        "  corollary1:     n/a (w outside 3..6)\n"
    )


@pytest.mark.parametrize("L, w, out", [
    ("720720", "30",
     "bounds for (L=720720, w=30):\n"
     "  new:            floor 12426  raw 720748/58  omega_star [30]\n"
     "  prime-divisor:  floor 12429  raw 720893/58\n"
     "  subset-excess:  floor 12427  raw 360390/29  set [16, 33, 35]\n"
     "  corollary1:     n/a (w outside 3..6)\n"),
    ("12252240", "40",
     "bounds for (L=12252240, w=40):\n"
     "  new:            floor 157080  raw 12252278/78  omega_star [40]\n"
     "  prime-divisor:  floor 157083  raw 6126256/39\n"
     "  subset-excess:  floor 157081  raw 6126160/39  set [7, 51, 52, 55]\n"
     "  corollary1:     n/a (w outside 3..6)\n"),
], ids=["720720-30", "12252240-40"])
def test_bound_all_at_a_highly_composite_length(capsys, L, w, out):
    # the refund maximizer passes once over the pool; a loop over all its
    # subsets took 12 s at (720720, 30) on a shared 2-CPU machine, and the
    # pool there has 23 members against 33 at (12252240, 40)
    t0 = time.perf_counter()
    rc, got, _ = run(capsys, "bound", L, w, "--all")
    assert time.perf_counter() - t0 < 0.5
    assert rc == 0
    assert got == out


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


def test_bound_outputs_are_frozen():
    # sha256 over exit code and stdout, recorded before the text and the JSON
    # were rendered from one dict, with and without --all and --json
    h = hashlib.sha256()
    for L, w in [(13, 3), (36, 4), (252, 8), (504, 9), (671, 11), (720720, 30)]:
        for flags in [(), ("--all",), ("--json",), ("--all", "--json")]:
            rc, out, _ = run_quiet("bound", L, w, *flags)
            h.update(f"{rc}\n{out}".encode())
    assert h.hexdigest() == "d0dd83dd7b6a1abe71249942b318f9943580a7a91e0f7e65dedafe3bba23c62a"


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


def test_construct_refuses_a_huge_code_at_once(capsys):
    # 10^12 + 61 is a prime of the form 4m + 1: lemma 1 would build m codewords
    rc, out, err = run(capsys, "construct", "lemma1", "--p", "1000000000061", "--w", "3")
    assert (rc, out) == (4, "")
    assert "250000000015 codewords above cap 1000000; pass a larger cap (--cap)" in err
    assert run(capsys, "construct", "lemma1", "--p", "13", "--w", "3", "--cap", "2")[0] == 4
    assert run(capsys, "construct", "lemma1", "--p", "13", "--w", "3", "--cap", "3")[0] == 0


def test_construct_rejects_a_negative_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "lemma1", "--p", "13", "--w", "3", "--cap", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--cap" in err and "Traceback" not in err


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


def test_verify_a_short_code_of_huge_length(tmp_path, capsys):
    # three codewords at L = 10^15: verify_cac's owners go in a dict, not L slots
    good, clash = tmp_path / "good.json", tmp_path / "clash.json"
    good.write_text(json.dumps({"L": 10**15, "w": 3, "generators": [10**14, 3, 7]}))
    # d*(5 * 10^13) shares 10^14 and L - 10^14 with d*(10^14), not its least 5 * 10^13
    clash.write_text(json.dumps({"L": 10**15, "w": 3, "generators": [10**14, 3, 5 * 10**13]}))
    rc, out, _ = run(capsys, "verify", str(good))
    assert rc == 0
    assert out == ("ok: (1000000000000000,3) CAC, 3 codewords, tight=False, "
                   "bound floor 250000000000000\n")
    rc, out, _ = run(capsys, "verify", str(clash))
    assert rc == 3
    assert out == "FAIL: codewords 0 and 2 share difference 100000000000000\n"


def test_verify_reports_the_exact_refund_floor(tmp_path, capsys):
    # at (504, 9) the paper's floor is 31 and the exact-refund floor 32
    empty = tmp_path / "empty.json"
    empty.write_text('{"L": 504, "w": 9, "generators": []}')
    rc, out, _ = run(capsys, "verify", str(empty), "--json")
    assert rc == 0
    obj = json.loads(out)
    assert (obj["bound_floor"], obj["optimal_by_bound"]) == (32, False)


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
    {"L": 13, "w": 3, "generators": "14"},
    {"L": 13, "w": 3, "generators": {"1": 4}},
], ids=["no-L", "a-list", "bad-generator", "generators-string", "generators-object"])
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
    assert ("ParseError: malformed certificate (bound floor must be 1 for a (5,3) code, "
            "got 99)") in proc.stderr
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


@pytest.mark.parametrize("argv", [
    ["search", "157", "4", "--cap", "157", "--budget", "-1"],
    ["search", "15", "3", "--budget", "x"],
    ["search", "157", "4", "--cap", "-5"],
], ids=["negative-budget", "bad-budget", "negative-cap"])
def test_search_rejects_negative_budget_and_cap(capsys, argv):
    # the node count never reaches a negative budget, and a negative cap
    # refuses every length: both are usage errors, not searches
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert argv[-2] in err
    assert "Traceback" not in err


def test_search_budget_zero_stops_at_once(capsys):
    rc, _, err = run(capsys, "search", "157", "4", "--cap", "157", "--budget", "0")
    assert rc == 4
    assert "after 0 search nodes" in err


def test_search_bad_witness_exit(capsys, monkeypatch):
    import cacforge.oracle as oracle

    g = oracle.build_graph(13, 3)
    j = next(j for j in range(1, len(g.vertices)) if not g.adjacency[0] >> j & 1)
    monkeypatch.setattr(oracle, "_max_clique",
                        lambda adj, orbits, budget, ceiling, sets: (2, [0, j], 1))
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
        "code": {"L": 15, "w": 3, "generators": [1, 3, 4, 5]}, "seed": 3, "trials": 200,
    }))
    rc, out, _ = run(capsys, "simulate", str(sampled), "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["runs"] == 200
    assert obj["violations"] == []


def test_simulate_text_lists_five_violations_then_a_count(tmp_path, capsys, monkeypatch):
    # sampled runs on a CAC are all clean, so the report is made up
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps({"code": {"L": 9, "w": 3, "generators": [1, 3]}, "trials": 7}))
    violations = tuple({"trial": t, "active": [[0, t]]} for t in range(7))
    monkeypatch.setattr(cli, "simulate", lambda sc: SimReport({0: 0}, violations, 7, sc.seed))
    rc, out, _ = run(capsys, "simulate", str(sc))
    assert rc == 0
    assert out == "".join(
        ["runs 7, seed 0, violations 7\n"]
        + [f"  violation: {{'trial': {t}, 'active': [[0, {t}]]}}\n" for t in range(5)]
        + ["  ... and 2 more\n"]
    )


@pytest.mark.parametrize("make, seed, trials, digest", [
    # n = 153 users: sample's rejection-set branch
    (lambda: construct_theorem1(Theorem1Params(919, 4, 51, 3, 7)), 919, 3_000,
     "4902185f9d8997700887d6c1d92094e52029b25d22c999a22244a3a89ce9bf34"),
    # n = 3: the pool branch
    (lambda: construct_lemma1(13, 3), 7, 300,
     "d61143cf48bef6a116ebb7765eeb01908cbc322286c291b5e16397ca0c6fbff6"),
    # n = 64: the set branch for k <= 5, the pool branch for k >= 6
    (lambda: construct_theorem1(Theorem1Params(769, 7, 32, 2, 11)), 5, 2_000,
     "1b84c5d349a4a3539f6f8877b3524c8069347abc344a6ba513433389573e78a8"),
], ids=["919-4", "13-3", "769-7"])
def test_simulate_sampled_json_digest(tmp_path, capsys, make, seed, trials, digest):
    # frozen outputs: the seed:trial draw stream of sampling mode
    code = make().code
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "code": {"L": code.length, "w": code.weight, "generators": list(code.generators)},
        "seed": seed, "trials": trials,
    }))
    rc, out, _ = run(capsys, "simulate", str(path), "--json")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_refuses_a_huge_length_at_once(tmp_path):
    # three doubled codewords and the full mask, seven 10^12-bit masks, would be
    # 875 GB; the address-space limit turns a missing guard into a MemoryError
    # instead of exhausting the machine
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"code": {"L": 10**12, "w": 3, "generators": [10**11, 3, 7]},
                                "seed": 1, "trials": 5}))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "cacforge", "simulate", str(path)],
                          capture_output=True, text=True, env=subprocess_env(), timeout=60,
                          preexec_fn=limit_memory)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == ("cacforge: budget exceeded: 7 masks of 1000000000000 bits "
                           "exceed 1073741824\n")


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
    ("simulate", {"code": _CODE_9_3, "active": [{"idx": 0, "delay": 1}], "trials": 50},
     "ParamMismatch: an active set runs once; trials must be 0, got 50"),
    ("catalog", {"L": 0, "w": 3, "best_size": 0}, "ParseError"),
], ids=["verify-L0", "simulate-index", "simulate-no-codewords", "simulate-active-and-trials",
        "catalog-L0"])
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


@pytest.mark.parametrize("flag, value", [("--seed", "1"), ("--trials", "5")],
                         ids=["seed", "trials"])
def test_simulate_takes_seed_and_trials_only_from_the_file(tmp_path, capsys, flag, value):
    # the scenario file is the whole record of a run: argparse refuses the flag
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps({"code": _CODE_9_3}))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(sc), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} {value}" in err
    assert "Traceback" not in err


def test_parse_errors_name_the_file(tmp_path, capsys):
    c5, c13 = _theorem2_inputs(tmp_path, capsys)
    broken = tmp_path / "broken.json"
    broken.write_text('{"code":\n  {oops}}')
    message = (f"cacforge: ParseError: parse error at {broken} line 2 column 4: "
               f"Expecting property name enclosed in double quotes\n")
    for argv in (["construct", "theorem2", "--cert1", c5, "--cert2", broken],
                 ["catalog", "update", c13, broken, "--catalog", tmp_path / "c.jsonl"],
                 ["verify", broken], ["simulate", broken]):
        rc, out, err = run(capsys, *map(str, argv))
        assert (rc, out, err) == (3, "", message), argv
    assert not (tmp_path / "c.jsonl").exists()
    # a JSONL catalog counts its lines the same way
    cat = tmp_path / "broken.jsonl"
    cat.write_text('{"L": 13, "w": 3, "best_size": 3, "source": "x"}\n\n{oops\n')
    rc, _, err = run(capsys, "catalog", "check", "--catalog", str(cat))
    assert (rc, err) == (3, f"cacforge: ParseError: parse error at {cat} line 3 column 2: "
                            f"Expecting property name enclosed in double quotes\n")



@pytest.mark.parametrize("value, message", [
    # json.loads raises RecursionError, not JSONDecodeError, on deep nesting
    (b"[" * 100_000 + b"]" * 100_000, "{path}: value at line {line} nested too deep"),
    # JSON text is UTF-8 (RFC 8259), whatever the locale
    (b'{"L": 9, "w": 3, "generators": [1, 3], "note": "\xff"}',
     "{path} line {line}: not UTF-8 (invalid start byte)"),
], ids=["deep-nesting", "not-utf-8"])
def test_unreadable_json_is_a_parse_error(tmp_path, capsys, value, message):
    c5, c13 = _theorem2_inputs(tmp_path, capsys)
    bad = tmp_path / "bad.json"
    bad.write_bytes(value)
    expected = f"cacforge: ParseError: parse error at {message}\n".format(path=bad, line=1)
    for argv in (["verify", bad], ["simulate", bad],
                 ["construct", "theorem2", "--cert1", bad, "--cert2", c13],
                 ["catalog", "update", c5, bad, "--catalog", tmp_path / "c.jsonl"]):
        rc, out, err = run(capsys, *map(str, argv))
        assert (rc, out, err) == (3, "", expected), argv
    assert not (tmp_path / "c.jsonl").exists()
    # a JSONL catalog names the line the bad value is on
    cat = tmp_path / "bad.jsonl"
    cat.write_bytes(b'{"L": 13, "w": 3, "best_size": 3, "source": "x"}\n\n' + value + b"\n")
    rc, out, err = run(capsys, "catalog", "check", "--catalog", str(cat))
    expected = f"cacforge: ParseError: parse error at {message}\n".format(path=cat, line=3)
    assert (rc, out, err) == (3, "", expected)

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

    # without --catalog it is ./catalog.jsonl; an environment variable names nothing
    monkeypatch.chdir(tmp_path)
    cat.rename("catalog.jsonl")
    other = tmp_path / "other.jsonl"
    other.write_text("{oops\n")  # read, it would be a parse error
    monkeypatch.setenv("CACFORGE_CATALOG", str(other))
    rc, out, _ = run(capsys, "catalog", "show")
    assert rc == 0
    assert "(13,3) best 3" in out
    assert "(15,3) best 4" in out
    assert other.read_text() == "{oops\n"


def test_catalog_show_empty_and_blank_lines(tmp_path, capsys):
    cat = tmp_path / "cat.jsonl"
    rc, out, _ = run(capsys, "catalog", "show", "--catalog", str(cat))
    assert (rc, out) == (0, f"catalog {cat}: empty\n")
    e13 = {"L": 13, "w": 3, "best_size": 3, "source": "x", "exact": True,
           "generators": [1, 3, 4]}
    e15 = dict(e13, L=15, best_size=4, generators=[1, 3, 4, 5])
    cat.write_text("\n" + json.dumps(e13) + "\n\n   \n" + json.dumps(e15) + "\n\n")
    rc, out, _ = run(capsys, "catalog", "check", "--catalog", str(cat))
    assert (rc, out) == (0, f"catalog {cat}: ok, 2 entries\n")
    rc, out, _ = run(capsys, "catalog", "show", "--catalog", str(cat))
    assert rc == 0
    assert out == "(13,3) best 3 exact=True source=x\n(15,3) best 4 exact=True source=x\n"


def test_catalog_integrity_takes_the_exact_refund_floor(tmp_path, capsys):
    # at (504, 9) the paper's floor is 31; the proven floor is 32
    cat = tmp_path / "cat.jsonl"
    entry = {"L": 504, "w": 9, "best_size": 32, "source": "x", "exact": False,
             "generators": []}
    cat.write_text(json.dumps(entry) + "\n")
    assert run(capsys, "catalog", "check", "--catalog", str(cat))[0] == 0
    cat.write_text(json.dumps(dict(entry, best_size=33)) + "\n")
    rc, _, err = run(capsys, "catalog", "check", "--catalog", str(cat))
    assert rc == 3
    assert "(504,9) best_size 33 exceeds bound floor 32" in err


def test_catalog_decides_a_certificate_bound_claim_by_the_floor(tmp_path, capsys):
    # one codeword at (13, 3) flagged optimal by bound, where the floor and
    # the maximum are 3: the entry is not exact, and check passes on it
    cat, cert = tmp_path / "cat.jsonl", tmp_path / "cert.json"
    flags = {"verified_cac": True, "tight": False, "optimal_by_bound": True,
             "optimal_by_oracle": None}
    claim = {"code": {"L": 13, "w": 3, "generators": [1]},
             "bound": new_bound(13, 3).to_json(), "flags": flags}
    cert.write_text(json.dumps(claim))
    assert run(capsys, "catalog", "update", str(cert), "--catalog", str(cat))[0] == 0
    assert run(capsys, "catalog", "show", "--catalog", str(cat))[1] == (
        "(13,3) best 1 exact=False source=certificate\n")
    assert run(capsys, "catalog", "check", "--catalog", str(cat))[0] == 0
    assert exact_refund_floor(13, 3) == 3
    # a code that meets the floor is exact whatever its flag says
    claim = dict(claim, code=_CODE_13_3, flags=dict(flags, tight=True, optimal_by_bound=False))
    cert.write_text(json.dumps(claim))
    assert run(capsys, "catalog", "update", str(cert), "--catalog", str(cat))[0] == 0
    assert run(capsys, "catalog", "show", "--catalog", str(cat))[1] == (
        "(13,3) best 3 exact=True source=certificate\n")
    # and the flag's type is still checked
    cert.write_text(json.dumps(dict(claim, flags=dict(flags, optimal_by_bound="yes"))))
    rc, _, err = run(capsys, "catalog", "update", str(cert), "--catalog", str(cat))
    assert rc == 3
    assert "optimal_by_bound must be true, false or null" in err
    # a partial certificate, with no bound report, is refused
    cert.write_text(json.dumps({"code": _CODE_13_3, "flags": {"optimal_by_bound": False}}))
    before = cat.read_bytes()
    rc, _, err = run(capsys, "catalog", "update", str(cert), "--catalog", str(cat))
    assert (rc, err) == (3, "cacforge: ParseError: malformed certificate (KeyError: 'bound')\n")
    assert cat.read_bytes() == before


@pytest.mark.parametrize("action", ["check", "show"])
def test_catalog_check_and_show_refuse_result_files(tmp_path, capsys, action):
    # only update merges result files; check and show once ignored them
    missing, cat = tmp_path / "missing.json", tmp_path / "none.jsonl"
    rc, out, err = run(capsys, "catalog", action, str(missing), "--catalog", str(cat))
    assert (rc, out) == (2, "")
    assert err == f"cacforge: catalog {action} takes no result files, got {missing}\n"
    assert not cat.exists()


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


@pytest.mark.parametrize("field, value, message", [
    ("exact", "no", "exact must be true, false or null"),
    ("generators", "12", "generators must be a list"),
    ("best_size", -5, "best_size -5 is negative"),
    ("source", {"a": [1]}, "source must be a string, got {'a': [1]}"),
    ("source", 7, "source must be a string, got 7"),
], ids=["exact-string", "generators-string", "negative-size", "source-object",
        "source-number"])
def test_catalog_entry_contract(tmp_path, capsys, field, value, message):
    entry = {"L": 15, "w": 3, "best_size": 4, "source": "x", "exact": True,
             "generators": [1, 3, 4, 5]}
    cat = tmp_path / "cat.jsonl"
    cat.write_text(json.dumps(entry) + "\n")
    rc, _, _ = run(capsys, "catalog", "check", "--catalog", str(cat))
    assert rc == 0
    cat.write_text(json.dumps({**entry, field: value}) + "\n")
    for action in ("check", "show"):
        rc, out, err = run(capsys, "catalog", action, "--catalog", str(cat))
        assert rc == 3, action
        assert "ParseError" in err and message in err
        assert "Traceback" not in out + err


def test_catalog_rewrite_is_byte_identical(tmp_path, capsys):
    cat = tmp_path / "cat.jsonl"
    lines = [
        {"L": 13, "w": 3, "best_size": 3, "source": "lemma1", "exact": True,
         "generators": [1, 3, 4]},
        {"L": 15, "w": 3, "best_size": 4, "source": "oracle", "exact": False,
         "generators": [1, 3, 4, 5]},
        {"L": 20, "w": 3, "best_size": 0, "source": "x", "exact": False, "generators": []},
    ]
    text = "".join(json.dumps(e, sort_keys=True) + "\n" for e in lines)
    cat.write_text(text)
    entries = cli._load_catalog(str(cat))
    cli._write_catalog(str(cat), entries)
    assert cat.read_text() == text
    rc, out, _ = run(capsys, "catalog", "check", "--catalog", str(cat))
    assert rc == 0 and "ok, 3 entries" in out


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

    # a generator that is no codeword at all fails the same way
    cat.write_text(json.dumps({
        "L": 13, "w": 3, "best_size": 1, "source": "forged",
        "exact": False, "generators": [0],
    }) + "\n")
    rc, _, err = run(capsys, "catalog", "check", "--catalog", str(cat))
    assert rc == 3
    assert "(13,3) stored generators do not certify best_size 1" in err

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


@pytest.mark.parametrize("entry", [
    {"L": 13, "w": 3, "best_size": 1, "exact": True, "generators": [1], "source": "x"},
    {"L": 13, "w": 3, "max": 1, "witness": [1], "exact": True},
], ids=["native", "oracle"])
def test_catalog_reproves_exact_claims_below_the_floor(tmp_path, capsys, entry):
    # one codeword certifies best_size 1, but M^e(13, 3) = 3
    path, cat = tmp_path / "entry.json", tmp_path / "c.jsonl"
    path.write_text(json.dumps(entry))
    message = ("cacforge: integrity error: (13,3) best_size 1 is claimed exact, "
               "but the oracle finds M^e(13,3) = 3\n")
    rc, _, err = run(capsys, "catalog", "update", str(path), "--catalog", str(cat))
    assert (rc, err) == (3, message)
    assert not cat.exists()
    cat.write_text(json.dumps(entry) + "\n")
    rc, _, err = run(capsys, "catalog", "check", "--catalog", str(cat))
    assert (rc, err) == (3, message)
    # the same entry without the claim is a plain lower bound
    path.write_text(json.dumps(dict(entry, exact=False)))
    cat.unlink()
    assert run(capsys, "catalog", "update", str(path), "--catalog", str(cat))[0] == 0
    assert run(capsys, "catalog", "check", "--catalog", str(cat))[0] == 0


def test_catalog_reproves_after_the_cheap_checks(tmp_path, capsys):
    cat = tmp_path / "c.jsonl"
    false_claim = {"L": 13, "w": 3, "best_size": 1, "exact": True, "generators": [1],
                   "source": "x"}
    too_big = {"L": 15, "w": 3, "best_size": 99, "exact": False, "generators": [],
               "source": "x"}
    cat.write_text(json.dumps(false_claim) + "\n" + json.dumps(too_big) + "\n")
    rc, _, err = run(capsys, "catalog", "check", "--catalog", str(cat))
    assert rc == 3
    assert "(15,3) best_size 99 exceeds bound floor" in err
    # a claim beyond the oracle's length cap cannot be confirmed
    cat.write_text(json.dumps(dict(false_claim, L=300, generators=[])) + "\n")
    rc, _, err = run(capsys, "catalog", "check", "--catalog", str(cat))
    assert rc == 3
    assert err == ("cacforge: integrity error: (300,3) best_size 1 is claimed exact, but the "
                   "oracle cannot reach it: L = 300 above cap 200 for w = 3\n")


def test_catalog_keeps_an_exact_search_below_the_floor(tmp_path, capsys):
    # M^e(20, 3) = 4 against the floor 5: the oracle confirms the claim
    assert exact_refund_floor(20, 3) == 5
    result, cat = tmp_path / "or20.json", tmp_path / "c.jsonl"
    rc, out, _ = run(capsys, "search", "20", "3", "--json")
    assert rc == 0
    result.write_text(out)
    assert run(capsys, "catalog", "update", str(result), "--catalog", str(cat))[0] == 0
    assert run(capsys, "catalog", "show", "--catalog", str(cat))[1] == (
        "(20,3) best 4 exact=True source=oracle\n")
    assert run(capsys, "catalog", "check", "--catalog", str(cat)) == (
        0, f"catalog {cat}: ok, 1 entries\n", "")


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


# a JSON number beyond the float range parses to inf: a code, bound, scenario or
# catalog field takes JSON integers only
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
    assert "ParseError" in err
    # theorem2's edited L is the bound report's, which must equal new_bound(5, 3)'s
    assert ("bound L must be 5 for a (5,3) code, got Infinity" if command == "theorem2"
            else "must be an integer, got inf") in err
    assert "Traceback" not in out + err


_CODE_13_3 = {"L": 13, "w": 3, "generators": [1, 3, 4]}
_CERT_13_3 = {
    "code": _CODE_13_3,
    "bound": {"L": 13, "w": 3, "omega": [], "omega_star": [], "excess": 0, "raw": "12/4",
              "floor": 3},
    "flags": {"verified_cac": True, "tight": True, "optimal_by_bound": True,
              "optimal_by_oracle": None},
    "params": {"method": "lemma1", "p": 13, "w": 3, "m": 3, "alpha": 2},
    "oracle_max": None,
}
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
    "verify": [_CODE_13_3, _CERT_13_3],
    "simulate": [{"code": _CODE_13_3, "active": [{"idx": 0, "delay": 1}, {"idx": 2, "delay": 5}],
                  "seed": 1},
                 {"code": _CODE_13_3, "seed": 1, "trials": 3}],
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


@pytest.mark.parametrize("command", sorted(_FUZZ_TEMPLATES) + ["catalog-check", "catalog-show"])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_json_inputs_exit_0_or_3(cert_13_3, command, data):
    # catalog-check and catalog-show read the fuzzed entry as a one-line JSONL catalog
    obj = data.draw(st.one_of(*map(_like, _FUZZ_TEMPLATES[command.split("-")[0]])))
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
            "catalog-check": ["catalog", "check", "--catalog", path],
            "catalog-show": ["catalog", "show", "--json", "--catalog", path],
        }[command]
        rc, out, err = run_quiet(*argv)
    assert rc in (0, 3), (text, err)


def test_catalog_update_rejects_a_method_that_is_not_a_string(tmp_path, capsys):
    obj = json.loads(json.dumps(_CERT_5_3))
    obj["params"]["method"] = ["lemma1"]
    path, cat = tmp_path / "entry.json", tmp_path / "c.jsonl"
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "catalog", "update", str(path), "--catalog", str(cat))
    assert rc == 3
    assert "ParseError" in err and "params.method must be a string, got ['lemma1']" in err
    assert "Traceback" not in out + err
    assert not cat.exists()


_NOT_INTEGERS = [2.5, 3.0, True, "3"]
_NOT_INTEGER_IDS = ["float", "integral-float", "bool", "string"]


@pytest.mark.parametrize("bad", _NOT_INTEGERS, ids=_NOT_INTEGER_IDS)
@pytest.mark.parametrize("field", ["L", "w", "generator"])
def test_verify_takes_json_integers_only(tmp_path, capsys, field, bad):
    path = tmp_path / "code.json"
    obj = {"L": 13, "w": 3, "generators": [1, 5]}
    path.write_text(json.dumps(obj))
    assert run(capsys, "verify", str(path))[0] == 0
    if field == "generator":
        obj["generators"][1] = bad
    else:
        obj[field] = bad
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 3
    name = "generators must be integers" if field == "generator" else f"{field} must be an integer"
    assert f"ParseError: malformed code ({name}, got {bad!r})" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("bad", _NOT_INTEGERS, ids=_NOT_INTEGER_IDS)
@pytest.mark.parametrize("field", ["L", "w", "best_size", "generator"])
def test_catalog_takes_json_integers_only(tmp_path, capsys, field, bad):
    path, cat = tmp_path / "entry.json", tmp_path / "c.jsonl"
    obj = {"L": 15, "w": 3, "best_size": 4, "source": "x", "generators": [1, 3, 4, 5]}
    if field == "generator":
        obj["generators"][2] = bad
    else:
        obj[field] = bad
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "catalog", "update", str(path), "--catalog", str(cat))
    assert rc == 3
    name = "generators must be integers" if field == "generator" else f"{field} must be an integer"
    assert f"ParseError: malformed catalog entry ({name}, got {bad!r})" in err
    assert "Traceback" not in out + err
    assert not cat.exists()


@pytest.mark.parametrize("field, value", [
    ("tight", "no"), ("optimal_by_oracle", "maybe"), ("oracle_max", "x"),
    ("params", [["method", "lemma1"], ["p", 5]]),
])
def test_theorem2_rejects_certificate_fields_of_the_wrong_type(tmp_path, capsys, field,
                                                               value):
    c5, c13 = _theorem2_inputs(tmp_path, capsys)
    obj = json.loads(c5.read_text())
    if field in ("oracle_max", "params"):
        obj[field] = value
    else:
        obj["flags"][field] = value
    c5.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "construct", "theorem2", "--cert1", str(c5), "--cert2", str(c13))
    assert rc == 3
    assert f"ParseError: malformed certificate ({field} must be" in err
    assert "Traceback" not in out + err


_SCENARIO_9_3 = {"code": _CODE_9_3, "active": [{"idx": 0, "delay": 1}, {"idx": 1, "delay": 4}],
                 "seed": 5, "trials": 0}


@pytest.mark.parametrize("bad", _NOT_INTEGERS, ids=_NOT_INTEGER_IDS)
@pytest.mark.parametrize("field", ["idx", "delay", "seed", "trials"])
def test_simulate_takes_json_integers_only(tmp_path, capsys, field, bad):
    path = tmp_path / "scenario.json"
    obj = json.loads(json.dumps(_SCENARIO_9_3))
    path.write_text(json.dumps(obj))
    assert run(capsys, "simulate", str(path))[0] == 0
    if field in ("idx", "delay"):
        obj["active"][1][field] = bad
    else:
        obj[field] = bad
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "simulate", str(path))
    assert rc == 3
    assert f"ParseError: malformed scenario ({field} must be an integer, got {bad!r})" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("bad", _NOT_INTEGERS, ids=_NOT_INTEGER_IDS)
@pytest.mark.parametrize("field", ["L", "w", "excess", "floor", "omega", "omega_star"])
def test_theorem2_takes_json_integers_only_in_the_bound(tmp_path, capsys, field, bad):
    c5, c13 = _theorem2_inputs(tmp_path, capsys)
    obj = json.loads(c5.read_text())
    want = json.dumps(obj["bound"][field])
    obj["bound"][field] = [bad] if field in ("omega", "omega_star") else bad
    c5.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "construct", "theorem2", "--cert1", str(c5), "--cert2", str(c13))
    assert rc == 3
    assert (f"ParseError: malformed certificate (bound {field} must be {want} for a (5,3) code, "
            f"got {json.dumps(obj['bound'][field])})") in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("raw", [
    "4.0/4", "4/4.0", "true/4", "4/x", " 4/4", "+4/4", "04/4", "4_0/4", "4", "4/4/4", 1, ["4", "4"],
])
def test_theorem2_takes_json_integers_only_in_the_raw_bound(tmp_path, capsys, raw):
    c5, c13 = _theorem2_inputs(tmp_path, capsys)
    obj = json.loads(c5.read_text())
    obj["bound"]["raw"] = raw
    c5.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "construct", "theorem2", "--cert1", str(c5), "--cert2", str(c13))
    assert rc == 3
    assert (f'ParseError: malformed certificate (bound raw must be "4/4" for a (5,3) code, '
            f'got {json.dumps(raw)})') in err
    assert "Traceback" not in out + err


def test_theorem2_rejects_a_zero_bound_denominator(tmp_path, capsys):
    c5, c13 = _theorem2_inputs(tmp_path, capsys)
    c5.write_text(c5.read_text().replace('"4/4"', '"4/0"'))
    rc, out, err = run(capsys, "construct", "theorem2", "--cert1", str(c5), "--cert2", str(c13))
    assert rc == 3
    assert ('ParseError: malformed certificate (bound raw must be "4/4" for a (5,3) code, '
            'got "4/0")') in err
    assert "Traceback" not in out + err


def test_theorem2_reads_well_formed_certificates_unchanged(tmp_path, capsys):
    c5, c13 = _theorem2_inputs(tmp_path, capsys)
    for path in (c5, c13):
        obj = json.loads(path.read_text())
        assert Certificate.from_json(obj).to_json() == obj


# one edit each to the (13, 3) lemma-1 certificate, and the claim every reader refuses
_BAD_CERTIFICATES = {
    "bound-of-919-4": (lambda c: c.update(bound=new_bound(919, 4).to_json()),
                       "bound L must be 13 for a (13,3) code, got 919"),
    "tight-no": (lambda c: c["flags"].update(tight="no"),
                 "tight must be true, false or null, got 'no'"),
    "raw-x": (lambda c: c["bound"].update(raw="x"),
              'bound raw must be "12/4" for a (13,3) code, got "x"'),
    "floor-1.0": (lambda c: c["bound"].update(floor=1.0),
                  "bound floor must be 3 for a (13,3) code, got 1.0"),
    "floor-3.0": (lambda c: c["bound"].update(floor=3.0),
                  "bound floor must be 3 for a (13,3) code, got 3.0"),
    "no-bound": (lambda c: c.pop("bound"), "KeyError: 'bound'"),
    "no-flags": (lambda c: c.pop("flags"), "KeyError: 'flags'"),
    "code-alone": (lambda c: [c.pop(k) for k in ("bound", "flags", "params", "oracle_max")],
                   "KeyError: 'bound'"),
}


@pytest.mark.parametrize("edit, message", _BAD_CERTIFICATES.values(), ids=_BAD_CERTIFICATES)
def test_every_certificate_reader_refuses_the_same_claims(tmp_path, capsys, edit, message):
    c5, _ = _theorem2_inputs(tmp_path, capsys)
    good, bad, cat = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "c.jsonl"
    good.write_text(json.dumps(_CERT_13_3))
    assert run(capsys, "verify", str(good))[0] == 0
    obj = json.loads(json.dumps(_CERT_13_3))
    edit(obj)
    bad.write_text(json.dumps(obj))
    cat.write_text(json.dumps({"L": 15, "w": 3, "best_size": 4, "source": "x", "exact": True,
                               "generators": [1, 3, 4, 5]}) + "\n")
    before = cat.read_bytes()
    for argv in (["construct", "theorem2", "--cert1", bad, "--cert2", c5],
                 ["verify", bad, "--json"],
                 ["catalog", "update", bad, "--catalog", cat]):
        rc, out, err = run(capsys, *map(str, argv))
        assert (rc, out, err) == (
            3, "", f"cacforge: ParseError: malformed certificate ({message})\n"), argv
    assert cat.read_bytes() == before
