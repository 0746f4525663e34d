"""Command line surface: bounds, constructions, verification, oracle
search, channel simulation, and a JSONL catalog of certified results.

Exit codes: 0 success, 2 usage, 3 verification or construction failure
(including parse and catalog integrity errors), 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .bounds import (
    corollary1_bound,
    new_bound,
    prime_divisor_bound,
    subset_excess_bound,
)
from .channel import scenario_from_json, simulate
from .codes import Certificate, Code, code_from_json, verify_cac
from .constructions import (
    Theorem1Params,
    construct_lemma1,
    construct_theorem1,
    construct_theorem2,
    construct_two_prime,
)
from .errors import BudgetExceeded, CacError, ParseError, UnsupportedWeight
from .oracle import DEFAULT_NODE_BUDGET, max_equi_diff_cac


def _err(msg: str) -> None:
    print(f"cacforge: {msg}", file=sys.stderr)


def cmd_bound(args) -> int:
    br = new_bound(args.L, args.w)
    if not args.all:
        if args.json:
            print(json.dumps(br.to_json(), sort_keys=True))
        else:
            print(
                f"new bound for (L={args.L}, w={args.w}): floor {br.floor_value} "
                f"(raw {br.raw_numerator}/{br.denominator}, "
                f"omega_star {list(br.omega_star)})"
            )
        return 0
    pd_val, pd_floor = prime_divisor_bound(args.L, args.w)
    se_val, se_floor, se_set = subset_excess_bound(args.L, args.w)
    try:
        c1 = corollary1_bound(args.L, args.w)
    except UnsupportedWeight:
        c1 = None
    if args.json:
        out = {
            "new": br.to_json(),
            "prime_divisor": {
                "raw": f"{pd_val.numerator}/{pd_val.denominator}",
                "floor": pd_floor,
            },
            "subset_excess": {
                "raw": f"{se_val.numerator}/{se_val.denominator}",
                "floor": se_floor,
                "set": list(se_set),
            },
            "corollary1": c1,
        }
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"bounds for (L={args.L}, w={args.w}):")
        print(
            f"  new:            floor {br.floor_value}  "
            f"raw {br.raw_numerator}/{br.denominator}  "
            f"omega_star {list(br.omega_star)}"
        )
        print(f"  prime-divisor:  floor {pd_floor}  raw {pd_val.numerator}/{pd_val.denominator}")
        print(
            f"  subset-excess:  floor {se_floor}  "
            f"raw {se_val.numerator}/{se_val.denominator}  set {list(se_set)}"
        )
        print(f"  corollary1:     {c1 if c1 is not None else 'n/a (w outside 3..6)'}")
    return 0


def _load_certificate(path: str) -> Certificate:
    return Certificate.from_json(json.loads(Path(path).read_text()))


_CONSTRUCT_NEEDS = {
    "lemma1": ("p", "w"),
    "theorem1": ("p", "w", "m", "s"),
    "theorem2": ("cert1", "cert2"),
    "two-prime": ("p", "q", "w"),
}


def cmd_construct(args) -> int:
    method = args.method
    flags = [f"--{name}" for name in _CONSTRUCT_NEEDS[method]]
    if any(getattr(args, name) in (None, "") for name in _CONSTRUCT_NEEDS[method]):
        _err(f"construct {method} requires {', '.join(flags[:-1])} and {flags[-1]}")
        return 2
    if method == "lemma1":
        cert = construct_lemma1(args.p, args.w, args.alpha)
    elif method == "theorem1":
        cert = construct_theorem1(
            Theorem1Params(args.p, args.w, args.m, args.s, args.alpha)
        )
    elif method == "theorem2":
        cert = construct_theorem2(
            _load_certificate(args.cert1), _load_certificate(args.cert2)
        )
    else:  # two-prime
        cert = construct_two_prime(args.p, args.q, args.w)
    text = json.dumps(cert.to_json(), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote certificate for ({cert.code.length},{cert.code.weight}) "
              f"with {len(cert.code)} codewords to {args.out}")
    else:
        print(text)
    return 0


def cmd_verify(args) -> int:
    obj = json.loads(Path(args.file).read_text())
    if isinstance(obj, dict) and "code" in obj and "generators" not in obj:
        obj = obj["code"]
    code = code_from_json(obj)
    report = verify_cac(code)
    tight = report.ok and report.covered == code.length - 1
    br = new_bound(code.length, code.weight)
    if args.json:
        out = report.to_json()
        out.update(
            tight=tight,
            size=len(code),
            bound_floor=br.floor_value,
            optimal_by_bound=report.ok and len(code) == br.floor_value,
        )
        print(json.dumps(out, sort_keys=True))
    elif report.ok:
        print(
            f"ok: ({code.length},{code.weight}) CAC, {len(code)} codewords, "
            f"tight={tight}, bound floor {br.floor_value}"
        )
    else:
        print(
            f"FAIL: codewords {report.pair[0]} and {report.pair[1]} "
            f"share difference {report.witness}"
        )
    return 0 if report.ok else 3


def cmd_search(args) -> int:
    res = max_equi_diff_cac(args.L, args.w, budget=args.budget, cap=args.cap)
    if args.json:
        print(json.dumps(res.to_json(), sort_keys=True))
    else:
        print(
            f"M^e({args.L},{args.w}) = {res.size} (exact), witness generators "
            f"{res.witness.canonical_generators()}, {res.nodes} search nodes"
        )
    return 0


def _non_negative(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return n


def cmd_simulate(args) -> int:
    sc = scenario_from_json(json.loads(Path(args.file).read_text()))
    if args.seed is not None:
        sc = replace(sc, seed=args.seed)
    if args.trials is not None:
        sc = replace(sc, trials=args.trials)
    rep = simulate(sc)
    if args.json:
        print(json.dumps(rep.to_json(), sort_keys=True))
    else:
        print(f"runs {rep.runs}, seed {rep.seed}, violations {len(rep.violations)}")
        for v in rep.violations[:5]:
            print(f"  violation: {v}")
        if len(rep.violations) > 5:
            print(f"  ... and {len(rep.violations) - 5} more")
    return 0


def _catalog_path(args) -> str:
    return args.catalog or os.environ.get("CACFORGE_CATALOG") or "catalog.jsonl"


def _normalize_entry(obj: dict) -> dict:
    """Accept native catalog entries, oracle results, or certificates."""
    try:
        if "best_size" in obj:
            L, w, size, gens = obj["L"], obj["w"], obj["best_size"], obj.get("generators", [])
            source, exact = obj.get("source", "unknown"), obj.get("exact", False)
        elif "max" in obj and "witness" in obj:
            L, w, size, gens = obj["L"], obj["w"], obj["max"], obj["witness"]
            source, exact = "oracle", obj.get("exact", False)
        elif "code" in obj:
            code, flags = obj["code"], obj.get("flags", {})
            L, w, gens = code["L"], code["w"], code["generators"]
            size = len(gens)
            source = obj.get("params", {}).get("method", "certificate")
            exact = flags.get("optimal_by_bound") or flags.get("optimal_by_oracle")
        else:
            raise ParseError("unrecognized catalog entry shape")
        entry = {"L": int(L), "w": int(w), "best_size": int(size), "source": str(source),
                 "exact": bool(exact), "generators": [int(g) for g in gens]}
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as e:
        raise ParseError(f"malformed catalog entry ({type(e).__name__}: {e})") from e
    if entry["L"] < 2 or entry["w"] < 2:
        raise ParseError(f"malformed catalog entry (need L >= 2 and w >= 2, "
                         f"got ({entry['L']},{entry['w']}))")
    return entry


def _load_catalog(path: str) -> dict:
    entries: dict = {}
    p = Path(path)
    if not p.exists():
        return entries
    for lineno, line in enumerate(p.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise CacError(
                f"parse error at {path} line {lineno} column {e.colno}: {e.msg}"
            ) from e
        entry = _normalize_entry(obj)
        entries[(entry["L"], entry["w"])] = entry
    return entries


def _write_catalog(path: str, entries: dict) -> None:
    """Write a sibling temp file, then rename it over path in one step."""
    lines = [
        json.dumps(entries[key], sort_keys=True) for key in sorted(entries)
    ]
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + ("\n" if lines else ""))
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def _integrity_error(entries: dict) -> str | None:
    """The first entry whose size beats the bound or whose generators do not certify it."""
    for (L, w), entry in sorted(entries.items()):
        floor = new_bound(L, w).floor_value
        if entry["best_size"] > floor:
            return (f"integrity error: ({L},{w}) best_size {entry['best_size']} "
                    f"exceeds bound floor {floor}")
        if entry["generators"]:
            try:
                code = Code.from_generators(L, w, entry["generators"])
                ok = verify_cac(code).ok and len(code) == entry["best_size"]
            except CacError:
                ok = False
            if not ok:
                return (f"integrity error: ({L},{w}) stored generators do not "
                        f"certify best_size {entry['best_size']}")
    return None


def cmd_catalog(args) -> int:
    path = _catalog_path(args)
    if args.action == "update":
        if not args.files:
            _err("catalog update requires at least one result file")
            return 2
        entries = _load_catalog(path)
        changed = 0
        for f in args.files:
            entry = _normalize_entry(json.loads(Path(f).read_text()))
            key = (entry["L"], entry["w"])
            old = entries.get(key)
            better = (
                old is None
                or entry["best_size"] > old["best_size"]
                or (entry["best_size"] == old["best_size"]
                    and entry["exact"] and not old["exact"])
            )
            if better:
                entries[key] = entry
                changed += 1
        error = _integrity_error(entries)
        if error:
            _err(error)
            return 3
        _write_catalog(path, entries)
        print(f"catalog {path}: {len(entries)} entries ({changed} updated)")
        return 0
    entries = _load_catalog(path)
    if args.action == "show":
        if not entries:
            print(f"catalog {path}: empty")
            return 0
        for key in sorted(entries):
            entry = entries[key]
            if args.json:
                print(json.dumps(entry, sort_keys=True))
            else:
                print(
                    f"({entry['L']},{entry['w']}) best {entry['best_size']} "
                    f"exact={entry['exact']} source={entry['source']}"
                )
        return 0
    # check
    error = _integrity_error(entries)
    if error:
        _err(error)
        return 3
    print(f"catalog {path}: ok, {len(entries)} entries")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cacforge",
        description="equi-difference conflict-avoiding codes: bounds, "
        "constructions, verification, search, simulation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="upper bounds for (L, w)")
    b.add_argument("L", type=int)
    b.add_argument("w", type=int)
    b.add_argument("--all", action="store_true", help="print comparison bounds too")
    b.add_argument("--json", action="store_true")

    c = sub.add_parser("construct", help="run a construction, emit its certificate")
    c.add_argument("method", choices=["lemma1", "theorem1", "theorem2", "two-prime"])
    c.add_argument("--p", type=int)
    c.add_argument("--q", type=int)
    c.add_argument("--w", type=int)
    c.add_argument("--m", type=int)
    c.add_argument("--s", type=int)
    c.add_argument("--alpha", type=int, help="primitive root override")
    c.add_argument("--cert1", help="first input certificate (theorem2)")
    c.add_argument("--cert2", help="second input certificate (theorem2)")
    c.add_argument("--out", help="write the certificate JSON here instead of stdout")
    c.add_argument("--json", action="store_true", help="output is JSON regardless")

    v = sub.add_parser("verify", help="verify a code or certificate JSON file")
    v.add_argument("file")
    v.add_argument("--json", action="store_true")

    s = sub.add_parser("search", help="exact oracle value of M^e(L, w)")
    s.add_argument("L", type=int)
    s.add_argument("w", type=int)
    s.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help="search node budget")
    s.add_argument("--cap", type=int, help="override the desk-scale length cap")
    s.add_argument("--json", action="store_true")

    m = sub.add_parser("simulate", help="run a channel scenario JSON file")
    m.add_argument("file")
    m.add_argument("--seed", type=int, help="override the scenario seed")
    m.add_argument("--trials", type=_non_negative, help="override the scenario trial count")
    m.add_argument("--json", action="store_true")

    g = sub.add_parser("catalog", help="maintain the certified-results catalog")
    g.add_argument("action", choices=["update", "show", "check"])
    g.add_argument("files", nargs="*", help="result files to merge (update)")
    g.add_argument("--catalog",
                   help="catalog path (default: $CACFORGE_CATALOG or ./catalog.jsonl)")
    g.add_argument("--json", action="store_true")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up per call: the parser is cached, a module global may be replaced
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except BudgetExceeded as e:
        _err(f"budget exceeded: {e}" + (
            f" (incumbent {e.size}, not exact, after {e.nodes} search nodes)"
            if e.best is not None else ""))
        return 4
    except CacError as e:
        _err(f"{type(e).__name__}: {e}")
        return 3
    except json.JSONDecodeError as e:
        _err(f"parse error at line {e.lineno} column {e.colno}: {e.msg}")
        return 3
    except (OSError, ValueError) as e:
        _err(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
