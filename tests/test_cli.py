import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cacforge
from cacforge.cli import _build_parser, main
from cacforge.codes import Certificate


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


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
    src = str(Path(cacforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, *(["-O"] if optimize else []), "-m", "cacforge.cli",
           "construct", "theorem2", "--cert1", str(c5), "--cert2", str(c13)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
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
