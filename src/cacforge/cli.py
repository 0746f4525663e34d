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
from pathlib import Path

from .bounds import (
    corollary1_bound,
    exact_refund_floor,
    new_bound,
    prime_divisor_bound,
    subset_excess_bound,
)
from .channel import scenario_from_json, simulate
from .codes import (
    Certificate,
    Code,
    _certificate_claims,
    code_from_json,
    verify_cac,
)
from .constructions import (
    Theorem1Params,
    construct_lemma1,
    construct_theorem1,
    construct_theorem2,
    construct_two_prime,
)
from .errors import (
    BudgetExceeded,
    CacError,
    ParseError,
    UnsupportedWeight,
    json_flag,
    json_int,
    json_ints,
    json_str,
)
from .oracle import DEFAULT_NODE_BUDGET, max_equi_diff_cac


def _err(msg: str) -> None:
    print(f"cacforge: {msg}", file=sys.stderr)


def cmd_bound(args) -> int:
    out = {"new": new_bound(args.L, args.w).to_json()}
    if args.all:
        pd_val, pd_floor = prime_divisor_bound(args.L, args.w)
        se_val, se_floor, se_set = subset_excess_bound(args.L, args.w)
        try:
            c1 = corollary1_bound(args.L, args.w)
        except UnsupportedWeight:
            c1 = None
        out.update(
            prime_divisor={"raw": f"{pd_val.numerator}/{pd_val.denominator}", "floor": pd_floor},
            subset_excess={"raw": f"{se_val.numerator}/{se_val.denominator}", "floor": se_floor,
                           "set": list(se_set)},
            corollary1=c1,
        )
    new = out["new"]
    if args.json:
        print(json.dumps(out if args.all else new, sort_keys=True))
    elif not args.all:
        print(f"new bound for (L={args.L}, w={args.w}): floor {new['floor']} "
              f"(raw {new['raw']}, omega_star {new['omega_star']})")
    else:
        pd, se, c1 = out["prime_divisor"], out["subset_excess"], out["corollary1"]
        print(f"bounds for (L={args.L}, w={args.w}):\n"
              f"  new:            floor {new['floor']}  raw {new['raw']}  "
              f"omega_star {new['omega_star']}\n"
              f"  prime-divisor:  floor {pd['floor']}  raw {pd['raw']}\n"
              f"  subset-excess:  floor {se['floor']}  raw {se['raw']}  set {se['set']}\n"
              f"  corollary1:     {'n/a (w outside 3..6)' if c1 is None else c1}")
    return 0


def _read_json(path: str, jsonl: bool = False):
    """The JSON value in the file at path, or with jsonl the values on its
    non-blank lines. Text that is not UTF-8, bad syntax or too deep a nesting is a
    ParseError naming the file, and the line where it can."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        line = e.object.count(b"\n", 0, e.start) + 1
        raise ParseError(f"parse error at {path} line {line}: not UTF-8 ({e.reason})") from e
    docs = ([(n, t) for n, t in enumerate(text.split("\n"), 1) if t.strip()]
            if jsonl else [(1, text)])
    values = []
    for first, doc in docs:
        try:
            values.append(json.loads(doc))
        except json.JSONDecodeError as e:
            raise ParseError(f"parse error at {path} line {first + e.lineno - 1} "
                             f"column {e.colno}: {e.msg}") from e
        except RecursionError as e:
            raise ParseError(f"parse error at {path}: value at line {first} nested too deep") from e
    return values if jsonl else values[0]


# each method's required flags and its builder; a builder names its
# construct_* when called, so a replaced module global is the one it runs
_CONSTRUCT = {
    "lemma1": (("p", "w"), lambda a: construct_lemma1(a.p, a.w, a.alpha)),
    "theorem1": (("p", "w", "m", "s"), lambda a: construct_theorem1(
        Theorem1Params(a.p, a.w, a.m, a.s, a.alpha))),
    "theorem2": (("cert1", "cert2"), lambda a: construct_theorem2(
        Certificate.from_json(_read_json(a.cert1)), Certificate.from_json(_read_json(a.cert2)))),
    "two-prime": (("p", "q", "w"), lambda a: construct_two_prime(a.p, a.q, a.w)),
}


def cmd_construct(args) -> int:
    needs, build = _CONSTRUCT[args.method]
    if any(getattr(args, name) in (None, "") for name in needs):
        flags = [f"--{name}" for name in needs]
        _err(f"construct {args.method} requires {', '.join(flags[:-1])} and {flags[-1]}")
        return 2
    cert = build(args)
    text = json.dumps(cert.to_json(), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote certificate for ({cert.code.length},{cert.code.weight}) "
              f"with {len(cert.code)} codewords to {args.out}")
    else:
        print(text)
    return 0


def cmd_verify(args) -> int:
    obj = _read_json(args.file)
    certificate = isinstance(obj, dict) and "code" in obj and "generators" not in obj
    code = Certificate.from_json(obj).code if certificate else code_from_json(obj)
    report = verify_cac(code)
    tight = report.ok and report.covered == code.length - 1
    floor = exact_refund_floor(code.length, code.weight)
    if args.json:
        out = report.to_json()
        out.update(
            tight=tight,
            size=len(code),
            bound_floor=floor,
            optimal_by_bound=report.ok and len(code) == floor,
        )
        print(json.dumps(out, sort_keys=True))
    elif report.ok:
        print(
            f"ok: ({code.length},{code.weight}) CAC, {len(code)} codewords, "
            f"tight={tight}, bound floor {floor}"
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


def cmd_simulate(args) -> int:
    rep = simulate(scenario_from_json(_read_json(args.file)))
    if args.json:
        print(json.dumps(rep.to_json(), sort_keys=True))
    else:
        print(f"runs {rep.runs}, seed {rep.seed}, violations {len(rep.violations)}")
        for v in rep.violations[:5]:
            print(f"  violation: {v}")
        if len(rep.violations) > 5:
            print(f"  ... and {len(rep.violations) - 5} more")
    return 0


def _normalize_entry(obj: dict) -> dict:
    """Accept native catalog entries, oracle results, or certificates."""
    what = "catalog entry"
    try:
        if "best_size" in obj:
            L, w, size, gens = obj["L"], obj["w"], obj["best_size"], obj.get("generators", [])
            source = json_str(obj.get("source", "unknown"), "source", what)
            exact = bool(json_flag(obj.get("exact", False), "exact", what))
        elif "max" in obj and "witness" in obj:
            L, w, size, gens = obj["L"], obj["w"], obj["max"], obj["witness"]
            source, exact = "oracle", bool(json_flag(obj.get("exact", False), "exact", what))
        elif "code" in obj:
            code = obj["code"]
            L, w, size, gens = code["L"], code["w"], None, code["generators"]
        else:
            raise ParseError("unrecognized catalog entry shape")
    except (KeyError, TypeError, AttributeError) as e:
        raise ParseError(f"malformed catalog entry ({type(e).__name__}: {e})") from e
    L, w, gens = json_int(L, "L", what), json_int(w, "w", what), json_ints(gens, "generators", what)
    if L < 2 or w < 2:
        raise ParseError(f"malformed catalog entry (need L >= 2 and w >= 2, got ({L},{w}))")
    if size is None:  # a certificate: optimal by bound as every gate decides it
        _, flags, params, _ = _certificate_claims(obj, L, w)
        size = len(gens)
        source = json_str(params.get("method", "certificate"), "params.method", what)
        exact = bool(flags.optimal_by_oracle) or size == exact_refund_floor(L, w)
    size = json_int(size, "best_size", what)
    if size < 0:
        raise ParseError(f"malformed catalog entry (best_size {size} is negative)")
    return {"L": L, "w": w, "best_size": size, "source": source, "exact": exact,
            "generators": gens}


def _load_catalog(path: str) -> dict:
    objs = _read_json(path, jsonl=True) if Path(path).exists() else []
    return {(e["L"], e["w"]): e for e in map(_normalize_entry, objs)}


def _write_catalog(path: str, entries: dict) -> None:
    """Write a sibling temp file, then rename it over path in one step."""
    lines = [
        json.dumps(entries[key], sort_keys=True) for key in sorted(entries)
    ]
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def _integrity_error(entries: dict) -> str | None:
    """The first entry whose size beats the bound or whose generators do not
    certify it; then the first exact claim below the bound that the oracle,
    under its default caps and budget, does not confirm."""
    claims = []
    for (L, w), entry in sorted(entries.items()):
        floor = exact_refund_floor(L, w)
        if entry["best_size"] > floor:
            return (f"integrity error: ({L},{w}) best_size {entry['best_size']} "
                    f"exceeds bound floor {floor}")
        try:
            code = Code.from_generators(L, w, entry["generators"])
            ok = verify_cac(code).ok and len(code) == entry["best_size"]
        except CacError:
            ok = False
        if not ok:
            return (f"integrity error: ({L},{w}) stored generators do not "
                    f"certify best_size {entry['best_size']}")
        if entry["exact"] and entry["best_size"] < floor:
            claims.append((L, w, entry["best_size"]))
    for L, w, size in claims:
        try:
            found = max_equi_diff_cac(L, w).size
        except CacError as e:
            return (f"integrity error: ({L},{w}) best_size {size} is claimed exact, "
                    f"but the oracle cannot reach it: {e}")
        if found != size:
            return (f"integrity error: ({L},{w}) best_size {size} is claimed exact, "
                    f"but the oracle finds M^e({L},{w}) = {found}")
    return None


def cmd_catalog(args) -> int:
    path = args.catalog
    update = args.action == "update"
    if update and not args.files:
        _err("catalog update requires at least one result file")
        return 2
    if args.files and not update:
        _err(f"catalog {args.action} takes no result files, got {args.files[0]}")
        return 2
    entries = _load_catalog(path)
    if args.action == "show":
        if not entries:
            print(f"catalog {path}: empty")
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
    changed = 0
    for f in args.files if update else ():
        entry = _normalize_entry(_read_json(f))
        key = (entry["L"], entry["w"])
        old = entries.get(key)
        # a larger size wins, and at equal size an exact entry
        if old is None or (entry["best_size"], entry["exact"]) > (old["best_size"], old["exact"]):
            entries[key] = entry
            changed += 1
    error = _integrity_error(entries)
    if error:
        _err(error)
        return 3
    if update:
        _write_catalog(path, entries)
        print(f"catalog {path}: {len(entries)} entries ({changed} updated)")
    else:
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
    js = argparse.ArgumentParser(add_help=False)
    js.add_argument("--json", action="store_true", help="print JSON (construct always does)")

    b = sub.add_parser("bound", parents=[js], help="upper bounds for (L, w)")
    b.add_argument("L", type=int)
    b.add_argument("w", type=int)
    b.add_argument("--all", action="store_true", help="print comparison bounds too")

    c = sub.add_parser("construct", parents=[js], help="run a construction, emit its certificate")
    c.add_argument("method", choices=list(_CONSTRUCT))
    c.add_argument("--p", type=int)
    c.add_argument("--q", type=int)
    c.add_argument("--w", type=int)
    c.add_argument("--m", type=int)
    c.add_argument("--s", type=int)
    c.add_argument("--alpha", type=int, help="primitive root override")
    c.add_argument("--cert1", help="first input certificate (theorem2)")
    c.add_argument("--cert2", help="second input certificate (theorem2)")
    c.add_argument("--out", help="write the certificate JSON here instead of stdout")

    v = sub.add_parser("verify", parents=[js], help="verify a code or certificate JSON file")
    v.add_argument("file")

    s = sub.add_parser("search", parents=[js], help="exact oracle value of M^e(L, w)")
    s.add_argument("L", type=int)
    s.add_argument("w", type=int)
    s.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help="search node budget")
    s.add_argument("--cap", type=int, help="override the desk-scale length cap")

    m = sub.add_parser("simulate", parents=[js], help="run a channel scenario JSON file")
    m.add_argument("file")

    g = sub.add_parser("catalog", parents=[js], help="maintain the certified-results catalog")
    g.add_argument("action", choices=["update", "show", "check"])
    g.add_argument("files", nargs="*", help="result files to merge (update)")
    g.add_argument("--catalog", default="catalog.jsonl",
                   help="catalog path (default: ./catalog.jsonl)")
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
    except (OSError, ValueError) as e:
        _err(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
