import ast
import pickle
import re
import subprocess
import sys
from collections import Counter
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cacforge
from cacforge.bounds import new_bound, prime_divisor_bound, subset_excess_bound
from cacforge.codes import CertFlags, Certificate, Code, is_tight, verify_cac
from cacforge.constructions import (
    Theorem1Params,
    _resolve_alpha,
    _theorem1_sdr_holds,
    check_condition,
    construct_lemma1,
    construct_theorem1,
    construct_theorem2,
    construct_two_prime,
    find_theorem1_params,
)
from cacforge.errors import (
    BudgetExceeded,
    ConditionNotSatisfied,
    InputNotOptimal,
    InputNotTight,
    LengthsNotCoprimePrimes,
    NotAUnit,
    NotPrime,
    NotPrimitive,
    ParamMismatch,
    SdrConditionFailed,
)
from cacforge.numtheory import (
    _order_is,
    cyclic_subgroup,
    divisors,
    factorize,
    is_prime,
    multiplicative_order,
    primitive_root,
    totient,
)
from cacforge.oracle import build_graph
from conftest import subprocess_env
from coset_reference import condition, theorem1_offender


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
    # pickling, before any read, carries the coset itself
    copy = pickle.loads(pickle.dumps(ei.value))
    assert {1, 2} <= set(ei.value.coset)
    assert (str(copy), copy.coset) == (str(ei.value), ei.value.coset)
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


def test_theorem1_generators_by_running_products_match_pow():
    # alpha^(i + s(w-1)j) is built by one product per generator; the order
    # of the generators is part of the certificate path
    found = 0
    for w in range(3, 7):
        for p in range(2 * w - 1, 3000):
            for m, s, alpha in find_theorem1_params(p, w):
                gens = construct_theorem1(Theorem1Params(p, w, m, s, alpha)).code.generators
                assert list(gens) == [pow(alpha, i + s * (w - 1) * j, p)
                                      for i in range(s) for j in range(m)], (p, w, m, s)
                found += 1
    assert found == 281
    # an alpha given outside 1..p-1 (15 and -11 are 2 mod 13)
    for alpha in (15, -11):
        gens = construct_lemma1(13, 3, alpha=alpha).code.generators
        assert gens == tuple(pow(alpha, 2 * j, 13) for j in range(3)) == (1, 4, 3)


def test_theorem1_sdr_by_exponents_matches_coset_enumeration():
    cases = 0
    for p in range(3, 2500):
        if not is_prime(p):
            continue
        alpha = primitive_root(p)
        for w in range(2, 8):
            if (p - 1) % (2 * w - 2):
                continue
            for s in divisors((p - 1) // (2 * w - 2)):
                m = (p - 1) // (2 * w - 2) // s
                expected = theorem1_offender(p, w, s, alpha) is None
                assert _theorem1_sdr_holds(p, w, m) is expected, (p, w, s)
                cases += 1
    assert cases == 6794


_CHECKS_UNDER_O = """
from cacforge.codes import DifferenceSet
from cacforge.constructions import _prime_length_code
from cacforge.errors import InconsistentClaim
try:
    _prime_length_code(13, 3, 2, 1, 2, {})  # <2> has order 12 mod 13, not 2m(w-1) = 8
except InconsistentClaim as e:
    print("InconsistentClaim:", e)
try:
    DifferenceSet(13, frozenset({1}))
except ValueError as e:
    print("ValueError:", e)
from cacforge.constructions import Theorem1Params, construct_lemma1, construct_theorem1
from cacforge.errors import SdrConditionFailed
for build in (lambda: construct_lemma1(17, 3),
              lambda: construct_theorem1(Theorem1Params(37, 4, 3, 2, 2))):
    try:
        build()
    except SdrConditionFailed as e:
        print("SdrConditionFailed:", e, sorted(e.coset))
import json
from cacforge.bounds import new_bound
from cacforge.cli import _normalize_entry
from cacforge.codes import Certificate, code_from_json
from cacforge.errors import ParseError
cert = json.loads(json.dumps(construct_lemma1(13, 3).to_json()))
moved = dict(cert, bound=new_bound(919, 4).to_json())
cert["flags"]["tight"] = "no"
for parse, obj in ((code_from_json, {"L": 13.5, "w": 3, "generators": [1]}),
                   (Certificate.from_json, cert),
                   (Certificate.from_json, moved),
                   (_normalize_entry, {"L": 13, "w": 3, "best_size": 3, "source": {"a": [1]}})):
    try:
        parse(obj)
    except ParseError as e:
        print("ParseError:", e)
"""


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "python-O"])
def test_subgroup_order_and_difference_set_checks_survive_python_O(optimize):
    cmd = [sys.executable, *(["-O"] if optimize else []), "-c", _CHECKS_UNDER_O]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=subprocess_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "InconsistentClaim: subgroup orders 12, 6 for p = 13",
        "ValueError: difference set not closed under negation",
        "SdrConditionFailed: 1..2 is not an SDR of the cosets of <9> in <3> mod 17 "
        "[1, 2, 4, 8, 9, 13, 15, 16]",
        "SdrConditionFailed: 1..3 is not an SDR of the cosets of <27> in <4> mod 37 "
        "[9, 12, 16, 21, 25, 28]",
        "ParseError: malformed code (L must be an integer, got 13.5)",
        "ParseError: malformed certificate (tight must be true, false or null, got 'no')",
        "ParseError: malformed certificate (bound L must be 13 for a (13,3) code, got 919)",
        "ParseError: malformed catalog entry (source must be a string, got {'a': [1]})",
    ]


def test_no_assert_in_the_package():
    # python -O strips assert statements, so no check may be one
    modules = sorted(Path(cacforge.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_import_in_the_package():
    # a name a module imports and never reads is a leftover; __init__ re-exports
    modules = sorted(set(Path(cacforge.__file__).parent.glob("*.py"))
                     - {Path(cacforge.__file__)})
    assert len(modules) >= 9
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        imported = {(alias.asname or alias.name).partition(".")[0]: node.lineno
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unused == []


def test_every_export_has_a_use_outside_the_unit_tests():
    # a public name only unit tests call belongs in a tests-only reference module
    package = Path(cacforge.__file__).parent
    init = ast.parse((package / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(exported) > 50
    used = set()
    for path in set(package.glob("*.py")) - {package / "__init__.py"}:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name for alias in node.names)
    root = package.parents[1]
    drivers = sorted((root / "bench").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    assert len(drivers) >= 6
    for path in drivers:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "cf":
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cacforge"):
                used.update(alias.name for alias in node.names)
    used.update(re.findall(r"\bcf\.(\w+)", _readme_library()))
    assert sorted(exported - used) == []


def _readme_library() -> str:
    """The README's Library example, as written."""
    readme = (Path(cacforge.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    return readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    exec(compile(_readme_library(), "README.md", "exec"), {})


def test_only_the_paper_reports_read_new_bound():
    # every gate and the oracle's stop act on exact_refund_floor; new_bound
    # is the paper's report, printed by `bound` and kept in certificates
    package = Path(cacforge.__file__).parent
    readers = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}  # node -> innermost enclosing function (ast.walk is breadth first)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if getattr(node, "id", getattr(node, "attr", None)) == "new_bound":
                readers.append(f"{path.stem}.{owner.get(node, '<module>')}")
    assert sorted(readers) == ["cli.cmd_bound", "codes._certificate_claims",
                               "constructions._certificate"]


def test_each_check_is_made_in_one_place():
    # one unit propagation per oracle branch, one clash message, one exact
    # order test, one divisor scan, one JSON reader, one string check and
    # one reader of a certificate's claims; no input from the environment,
    # no file read or written in the locale's encoding, no value check in
    # the argument parser (the library checks a limit's value), no value
    # object built past its constructor's checks but where they hold as built,
    # no function that calls itself by name (the oracle keeps its path in a
    # list of frames, so no search stops at the recursion limit) and no
    # RecursionError caught but json.loads's on deep nesting
    package = Path(cacforge.__file__).parent
    propagations, clashes, defined, readers, strings, claims = [], [], [], [], [], []
    environ, unencoded, parser_checks, direct_builds = [], [], [], []
    self_calls, recursion = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}  # node -> innermost enclosing function (ast.walk is breadth first)
        method = {}  # node -> Class.method of the method holding it
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
                if fn.name in ("_order_is", "_divisors_between"):
                    defined.append(f"{path.stem}.{fn.name}")
            elif isinstance(fn, ast.ClassDef):
                method.update((node, f"{fn.name}.{m.name}") for m in fn.body
                              if isinstance(m, ast.FunctionDef) for node in ast.walk(m))
        # object.__new__, a slot descriptor's __set__ or object.__setattr__;
        # one bound, not called, to a module-level name counts where that
        # name is used
        bypass = ("__new__", "__set__", "__setattr__")
        aliases, bound = set(), set()
        for stmt in tree.body:
            value = list(ast.walk(stmt.value)) if isinstance(stmt, ast.Assign) else []
            if any(getattr(n, "attr", None) in bypass for n in value) and not any(
                    isinstance(n, ast.Call) for n in value):
                bound.update(value)
                aliases.update(t.id for target in stmt.targets for t in ast.walk(target)
                               if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if node not in bound and (getattr(node, "attr", None) in bypass or (
                    isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in aliases)):
                site = method.get(node, owner.get(node, "<module>"))
                direct_builds.append(f"{path.stem}.{site}")
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                site = f"{path.stem}.{owner.get(node, '<module>')}"
                if isinstance(node.func, ast.Name) and node.func.id == owner.get(node):
                    self_calls.append(site)
                if name == "_refuted":
                    propagations.append(site)
                elif name == "NotACac":
                    clashes.append(site)
                elif name == "loads":
                    readers.append(site)
                elif name in ("read_text", "write_text", "open") and not any(
                        k.arg == "encoding" for k in node.keywords):
                    unencoded.append(site)
            elif isinstance(node, ast.Constant) and "must be a string" in str(node.value):
                strings.append(f"{path.stem}.{owner.get(node, '<module>')}")
            # os.environ, os.getenv, os.putenv, or the bare names imported from os
            ident = getattr(node, "attr", getattr(node, "id", getattr(node, "name", None)))
            if ident in ("environ", "getenv", "putenv"):
                environ.append(f"{path.stem}.{owner.get(node, '<module>')}")
            elif ident == "ArgumentTypeError":
                parser_checks.append(f"{path.stem}.{owner.get(node, '<module>')}")
            elif ident == "RecursionError":
                recursion.append(f"{path.stem}.{owner.get(node, '<module>')}")
            # obj["bound"], obj["flags"], obj.get("bound") or obj.get("flags")
            key = (node.slice if isinstance(node, ast.Subscript) else
                   node.args[0] if isinstance(node, ast.Call) and node.args
                   and getattr(node.func, "attr", None) == "get" else None)
            if isinstance(key, ast.Constant) and key.value in ("bound", "flags"):
                claims.append(f"{path.stem}.{owner.get(node, '<module>')}")
    assert propagations == ["oracle._branch_cut"]
    assert sorted(clashes) == ["codes.require_cac", "oracle.max_equi_diff_cac"]
    assert sorted(defined) == ["numtheory._divisors_between", "numtheory._order_is"]
    assert readers == ["cli._read_json"]
    assert strings == ["errors.json_str"]
    assert set(claims) == {"codes._certificate_claims"}
    assert environ == []
    assert unencoded == []
    assert parser_checks == []
    assert self_calls == []
    assert recursion == ["cli._read_json"]
    assert set(direct_builds) == {"codes.difference_set", "codes.Code.from_generators"}


@pytest.mark.parametrize("call, error, message", [
    (lambda: construct_lemma1(13, 1), ParamMismatch, "need w >= 2, got 1"),
    (lambda: construct_theorem1(Theorem1Params(13, 3, 0, 1)), ParamMismatch,
     "need w >= 2, m >= 1, s >= 1, got (3, 0, 1)"),
    (lambda: check_condition(1, 3, 1), ValueError, "need L >= 2 and w >= 2, got (1,3)"),
    (lambda: factorize(0), ValueError, "factorize requires n >= 1"),
    (lambda: divisors(0), ValueError, "divisors requires n >= 1"),
    (lambda: multiplicative_order(1, 1), ValueError, "modulus must be >= 2"),
    (lambda: cyclic_subgroup(1, 1), ValueError, "modulus must be >= 2"),
    (lambda: build_graph(2, 3), ValueError, "need L >= w >= 2, got (2,3)"),
    (lambda: prime_divisor_bound(1, 3), ValueError, "need L >= 2 and w >= 2"),
    (lambda: subset_excess_bound(2, 3), ValueError, "need L >= w >= 2"),
], ids=["lemma1-w", "theorem1-m", "check-condition-L", "factorize-0", "divisors-0",
        "order-modulus", "subgroup-modulus", "build-graph-L", "prime-divisor-L",
        "subset-excess-L"])
def test_range_errors(call, error, message):
    with pytest.raises(error) as ei:
        call()
    assert str(ei.value) == message


def _counting(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_offending_coset_is_built_only_when_read(monkeypatch):
    import cacforge.constructions as constructions

    counts = Counter()
    monkeypatch.setattr(constructions, "cyclic_subgroup",
                        _counting(counts, "cyclic_subgroup", cyclic_subgroup))
    failing = []
    for p in range(3, 400):
        if not is_prime(p):
            continue
        for w in range(3, 7):
            if (p - 1) % (2 * w - 2):
                continue
            total = (p - 1) // (2 * w - 2)
            passing = {s for _, s, _ in find_theorem1_params(p, w)}
            failing += [(p, w, s) for s in divisors(total) if s not in passing]
    assert counts == Counter()
    assert len(failing) == 397
    kinds = Counter()
    for p, w, s in failing:
        alpha = primitive_root(p)
        m = (p - 1) // (2 * w - 2) // s
        with pytest.raises(SdrConditionFailed) as ei:
            construct_theorem1(Theorem1Params(p, w, m, s, alpha))
        assert counts == Counter()
        expected = theorem1_offender(p, w, s, alpha)
        assert ei.value.coset == expected is not None, (p, w, s)
        assert ei.value.coset is ei.value.coset
        assert counts == Counter({"cyclic_subgroup": 1}), (p, w, s)
        counts.clear()
        # a coset left unhit has its least member >= w; one hit twice, below w
        kinds["unhit" if min(expected) >= w else "multi-hit"] += 1
        kinds["multi-hit outside N1"] += min(expected) < w and 1 not in expected
    assert kinds == Counter({"unhit": 287, "multi-hit": 110, "multi-hit outside N1": 24})


def test_exact_order_test_matches_multiplicative_order():
    cases = 0
    for p in range(3, 300):
        if not is_prime(p):
            continue
        primes = factorize(p - 1).primes
        for a in range(1, p):
            order = multiplicative_order(a, p)
            for t in divisors(p - 1):
                assert _order_is(a, t, p, primes) is (order == t), (p, a, t)
                cases += 1
            if order == p - 1:
                assert _resolve_alpha(p, a, primes) == a
            else:
                with pytest.raises(NotPrimitive):
                    _resolve_alpha(p, a, primes)
        assert _resolve_alpha(p, None, primes) == primitive_root(p)
        with pytest.raises(NotAUnit):
            _resolve_alpha(p, p, primes)
    assert cases == 77916


def test_prime_length_construction_factors_once(monkeypatch):
    import cacforge.constructions as constructions
    import cacforge.numtheory as numtheory

    calls = []

    def counting_factorize(n):
        calls.append(n)
        return factorize(n)

    def no_order(a, L):
        raise AssertionError("a passing construction must not call multiplicative_order")

    monkeypatch.setattr(constructions, "factorize", counting_factorize)
    monkeypatch.setattr(numtheory, "factorize", counting_factorize)
    monkeypatch.setattr(constructions, "multiplicative_order", no_order)
    construct_theorem1(Theorem1Params(17, 3, 2, 2, 3))
    assert calls == [16]
    calls.clear()
    # with no alpha given, primitive_root factorizes p - 1 a second time
    construct_theorem1(Theorem1Params(17, 3, 2, 2, None))
    assert calls == [16, 16]
    calls.clear()
    construct_lemma1(13, 3, 2)
    assert calls == [12]
    calls.clear()
    with pytest.raises(SdrConditionFailed):
        construct_theorem1(Theorem1Params(919, 4, 153, 1, 7))
    assert calls == [918]
    calls.clear()
    # primitive_root, then one factorization per divisor s of 153; divisors
    # scans for them and factorizes nothing
    find_theorem1_params(919, 4)
    assert calls == [918] + [918] * 6


def test_constructions_refuse_codes_above_the_cap(monkeypatch):
    import cacforge.constructions as constructions

    c5, c13 = construct_lemma1(5, 3), construct_lemma1(13, 3)
    builds = {  # codeword count: the construction
        3: lambda: construct_lemma1(13, 3),
        4: lambda: construct_theorem1(Theorem1Params(17, 3, 2, 2, 3)),
        16: lambda: construct_theorem2(c5, c13),
        10: lambda: construct_two_prime(3, 13, 3),
    }
    for count, build in builds.items():
        monkeypatch.setattr(constructions, "CODEWORD_BUDGET", count)
        assert len(build().code) == count

    def built(*args):
        raise AssertionError("a refused construction must refuse before it builds")

    # the count comes from the parameters: no factorization, totient or code
    for name in ("factorize", "totient", "Code"):
        monkeypatch.setattr(constructions, name, built)
    for count, build in builds.items():
        monkeypatch.setattr(constructions, "CODEWORD_BUDGET", count - 1)
        with pytest.raises(BudgetExceeded, match=f"^{count} codewords exceed budget {count - 1}$"):
            build()


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
    for L in range(2, 160):
        for w in range(2, 6):
            for kind in (1, 2):
                wit = check_condition(L, w, kind)
                got = None if wit is None else (wit.H.generator, wit.H.order, wit.reps)
                assert got == condition(L, w, kind), (L, w, kind)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(2, 2000), st.integers(2, 7), st.sampled_from([1, 2]))
# the cosets' count divides phi(L), but some representative is not a unit
@example(45, 4, 1)
@example(16, 3, 2)
@example(1990, 3, 2)
@example(1995, 7, 2)
def test_check_condition_matches_the_coset_reference(L, w, kind):
    wit = check_condition(L, w, kind)
    got = None if wit is None else (wit.H.generator, wit.H.order, wit.reps)
    assert got == condition(L, w, kind)


def test_check_condition_tries_each_subgroup_once(monkeypatch):
    import cacforge.constructions as constructions

    counts = Counter()
    monkeypatch.setattr(constructions, "cyclic_subgroup",
                        _counting(counts, "cyclic_subgroup", cyclic_subgroup))
    L, w = 14015, 4
    target = totient(L) // (2 * (w - 1))
    # a cyclic group of order t has phi(t) generators
    of_target = sum(1 for a in range(1, L) if gcd(a, L) == 1
                    and multiplicative_order(a, L) == target)
    assert check_condition(L, w, 2) is None
    assert of_target % totient(target) == 0
    assert counts == Counter({"cyclic_subgroup": of_target // totient(target)})


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


@pytest.mark.parametrize("p, q, w", [(3, 5, 3), (3, 13, 3), (5, 7, 4), (5, 859, 4), (7, 701, 6)])
def test_two_prime_generators_by_running_products_match_pow(p, q, w):
    cert = construct_two_prime(p, q, w)
    want = []
    for name, n, scale in (("L", p * q, 1), ("q", q, p)):
        wit = cert.params[f"condition_{name}"]
        count = wit["order"] // 2 if wit["kind"] == 1 else wit["order"]
        want += [scale * pow(wit["generator"], i, n) for i in range(count)]
    assert list(cert.code.generators) == want + [q]


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
