"""The four workloads: what each pass runs and how its outputs are checked.

A workload's setup gets a freshly imported cacforge, the seed and a work
directory. It writes the input files and returns a Plan: the operations
of one pass and a check for their outputs. Each operation drives
`cacforge.cli.main` in-process, except the two library calls the CLI
has no command for (`find_theorem1_params` and exhaustive
irrepressibility). Operations look cacforge functions up at call time,
so a tracer installed after setup sees every call.

The seed never changes how much work a pass does, only which equivalent
inputs it gets: the primitive root each prime-length construction uses,
the order of the operations, the simulation seed and the codeword a
negative control corrupts. So traced counts repeat exactly across seeds.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from checks import CheckFailed, require

REFERENCE_FILE = Path(__file__).with_name("reference_maxima.json")


class OpFailed(Exception):
    """An operation exited non-zero or raised."""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    instances: int  # (L, w) instances the operation completes
    codewords: Callable[[object], int]  # codewords of the codes it builds, checks or finds
    files: list[Path] = field(default_factory=list)  # files it writes


@dataclass
class Plan:
    ops: list[Op]
    check: Callable[[list], None]  # first-pass outputs, aligned with ops


def run_cli(cf, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cf.cli.main(argv)
    if rc != 0:
        raise OpFailed(f"cacforge {' '.join(argv)}: exit {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def cli_op(cf, argv, instances, codewords, files=()) -> Op:
    argv = [str(a) for a in argv]
    return Op(" ".join(argv), lambda: run_cli(cf, argv), instances, codewords, list(files))


_WROTE = re.compile(r"with (\d+) codewords")


def wrote_codewords(stdout: str) -> int:
    """Codeword count from `construct --out`'s confirmation line."""
    m = _WROTE.search(stdout)
    return int(m.group(1)) if m else 0


def read_json(path: Path):
    return json.loads(path.read_text())


# certify: a few large codes, constructed then verified from their files

CERTIFY_LEMMA1 = [(50021, 3)]  # p = 5 mod 8, so 1, 2 sit in distinct cosets of the squares
CERTIFY_THEOREM1 = [(60169, 4, 5014, 2), (61057, 5, 3816, 2)]  # (p, w, m, s) with s > 1
CERTIFY_THEOREM2 = [((13, 3), (3853, 3))]  # inputs built by lemma 1 during set-up
CERTIFY_TWO_PRIME = [(5, 859, 4), (7, 701, 6)]  # (p, q, w)


def certify(cf, seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    jobs = []  # (argv, output file, optimal size)
    for p, w in CERTIFY_LEMMA1:
        alpha = checks.seeded_primitive_root(p, rng)
        out = work / f"lemma1-{p}-{w}.json"
        jobs.append((["construct", "lemma1", "--p", p, "--w", w, "--alpha", alpha, "--out", out],
                     out, checks.prime_length_optimum(p, w)))
    for p, w, m, s in CERTIFY_THEOREM1:
        alpha = checks.seeded_primitive_root(p, rng)
        out = work / f"theorem1-{p}-{w}.json"
        jobs.append((["construct", "theorem1", "--p", p, "--w", w, "--m", m, "--s", s,
                      "--alpha", alpha, "--out", out], out, checks.prime_length_optimum(p, w)))
    for (p1, w), (p2, _) in CERTIFY_THEOREM2:
        inputs = []
        for p in (p1, p2):
            cert = cf.construct_lemma1(p, w, checks.seeded_primitive_root(p, rng))
            path = work / f"input-{p}-{w}.json"
            path.write_text(json.dumps(cert.to_json()))
            inputs.append(path)
        out = work / f"theorem2-{p1 * p2}-{w}.json"
        jobs.append((["construct", "theorem2", "--cert1", inputs[0], "--cert2", inputs[1],
                      "--out", out], out, checks.prime_length_optimum(p1 * p2, w)))
    for p, q, w in CERTIFY_TWO_PRIME:
        out = work / f"two-prime-{p * q}-{w}.json"
        jobs.append((["construct", "two-prime", "--p", p, "--q", q, "--w", w, "--out", out],
                     out, checks.two_prime_optimum(p, q, w)))
    rng.shuffle(jobs)

    ops = [cli_op(cf, argv, 1, wrote_codewords, [out]) for argv, out, _ in jobs]
    ops += [cli_op(cf, ["verify", out, "--json"], 1, lambda s: json.loads(s)["size"])
            for _, out, _ in jobs]

    def check(outputs):
        n = len(jobs)
        for (_, out, size), stdout, report in zip(jobs, outputs[:n], outputs[n:]):
            checks.check_certificate(read_json(out), size)
            require(wrote_codewords(stdout) == size, f"{out.name}: confirmation line {stdout!r}")
            checks.check_verify_report(json.loads(report), size)

    return Plan(ops, check)


# sweep: hundreds of small instances through theorem 1, the catalog and the bounds

SWEEP_PRIMES = (1000, 1600)  # theorem 1 over every prime in this range, w = 3..6
SWEEP_GRID = (1000, 1060)  # bound comparison over every L in this range, w = 3..8


def sweep(cf, seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    certs = work / "certs"
    certs.mkdir()
    catalog = work / "catalog.jsonl"
    candidates = [(p, w) for p in range(*SWEEP_PRIMES) if checks.is_prime(p)
                  for w in range(3, 7) if (p - 1) % (2 * w - 2) == 0]
    alphas = {p: checks.seeded_primitive_root(p, rng) for p, _ in candidates}
    rng.shuffle(candidates)
    grid = sorted(set(candidates) | {(L, w) for L in range(*SWEEP_GRID) for w in range(3, 9)})
    rng.shuffle(grid)

    def theorem1(p, w, out):
        def call():
            params = cf.constructions.find_theorem1_params(p, w)
            if not params:
                return params, ""
            m, s, _ = params[0]
            return params, run_cli(cf, ["construct", "theorem1", "--p", str(p), "--w", str(w),
                                        "--m", str(m), "--s", str(s), "--alpha", str(alphas[p]),
                                        "--out", str(out)])
        return call

    ops = []
    for p, w in candidates:
        out = certs / f"{p}-{w}.json"
        ops.append(Op(f"theorem1 {p} {w}", theorem1(p, w, out), 1,
                      lambda r: wrote_codewords(r[1]), [out]))

    def update():
        files = sorted(str(f) for f in certs.glob("*.json"))
        return run_cli(cf, ["catalog", "update", *files, "--catalog", str(catalog)])

    ops.append(Op("catalog update", update, 0, lambda s: 0, [catalog]))
    ops.append(cli_op(cf, ["catalog", "check", "--catalog", catalog], 0,
                      lambda s: sum(len(json.loads(line)["generators"])
                                    for line in catalog.read_text().splitlines())))
    ops += [cli_op(cf, ["bound", L, w, "--all", "--json"], 1, lambda s: 0) for L, w in grid]

    def check(outputs):
        n = len(candidates)
        kept = {}
        for (p, w), (params, stdout) in zip(candidates, outputs[:n]):
            expected = checks.theorem1_divisors(p, w)
            require([s for _, s, _ in params] == expected,
                    f"({p},{w}): find_theorem1_params gives s = {[s for _, s, _ in params]}, "
                    f"recomputed {expected}")
            if params:
                size = checks.prime_length_optimum(p, w)
                cert = read_json(certs / f"{p}-{w}.json")
                checks.check_certificate(cert, size)
                kept[(p, w)] = cert["code"]["generators"]
        require(bool(kept), "the sweep kept no code")
        entries = [json.loads(line) for line in catalog.read_text().splitlines()]
        require(sorted((e["L"], e["w"]) for e in entries) == sorted(kept),
                "catalog entries differ from the codes kept")
        for e in entries:
            require(e["exact"] and sorted(e["generators"]) == sorted(kept[(e["L"], e["w"])]),
                    f"catalog entry ({e['L']},{e['w']}) differs from its certificate")
        require(f"ok, {len(kept)} entries" in outputs[n + 1], f"catalog check: {outputs[n + 1]!r}")
        for (L, w), report in zip(grid, outputs[n + 2:]):
            best = len(kept[(L, w)]) if (L, w) in kept else 0
            checks.check_bound_report(L, w, json.loads(report), best)

    return Plan(ops, check)


# search: the oracle on instances with a construction and on reference instances

SEARCH_TIGHT = [(181, 4), (197, 3), (229, 3), (241, 4)]  # theorem 1 meets the bound
SEARCH_GAP = [(157, 4), (193, 4), (205, 4), (355, 6)]  # no construction; networkx reference


def load_reference() -> dict[tuple[int, int], int]:
    data = json.loads(REFERENCE_FILE.read_text())
    return {(e["L"], e["w"]): e["max"] for e in data["instances"]}


def search(cf, seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    reference = load_reference()
    expected = {}
    for L, w in SEARCH_TIGHT:
        m, s, alpha = cf.find_theorem1_params(L, w)[0]
        expected[(L, w)] = len(cf.construct_theorem1(cf.Theorem1Params(L, w, m, s, alpha)).code)
    for key in SEARCH_GAP:
        expected[key] = reference[key]
    floors = {key: cf.new_bound(*key).floor_value for key in expected}
    instances = SEARCH_TIGHT + SEARCH_GAP
    rng.shuffle(instances)
    ops = [cli_op(cf, ["search", L, w, "--cap", L, "--json"], 1, lambda s: json.loads(s)["max"])
           for L, w in instances]

    def check(outputs):
        for (L, w), stdout in zip(instances, outputs):
            checks.check_search(json.loads(stdout), L, w, floors[(L, w)], expected[(L, w)])
        for L, w in SEARCH_TIGHT:
            require(expected[(L, w)] == checks.prime_length_optimum(L, w),
                    f"({L},{w}): construction size {expected[(L, w)]} is not the optimum")

    return Plan(ops, check)


# channel: the bit-mask slot loops

CHANNEL_SIMULATE = (919, 4, 51, 3)  # theorem-1 code (p, w, m, s)
CHANNEL_TRIALS = 20_000
CHANNEL_IRREPRESSIBLE = ((5, 3), (13, 3))  # theorem-2 inputs for the (65, 3) code


def channel(cf, seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    p, w, m, s = CHANNEL_SIMULATE
    alpha = checks.seeded_primitive_root(p, rng)
    cert = cf.construct_theorem1(cf.Theorem1Params(p, w, m, s, alpha))
    sim_gens = list(cert.code.generators)
    scenario = work / "scenario.json"
    scenario.write_text(json.dumps({"code": {"L": p, "w": w, "generators": sim_gens},
                                    "seed": seed, "trials": CHANNEL_TRIALS}))
    inputs = [cf.construct_lemma1(q, wq, checks.seeded_primitive_root(q, rng))
              for q, wq in CHANNEL_IRREPRESSIBLE]
    code = cf.construct_theorem2(*inputs).code
    gens = list(code.generators)

    # negative control: replace one codeword by twice another, which shares +-2g with it
    i, j = rng.sample(range(len(gens)), 2)
    clash = list(gens)
    clash[i] = 2 * gens[j] % code.length

    sim = cli_op(cf, ["simulate", scenario, "--json"], 1, lambda s: len(sim_gens))
    irr = Op("irrepressibility k=3", lambda: cf.verify_irrepressibility_exhaustive(code, 3),
             1, lambda r: len(gens))
    ops = [sim, irr]
    rng.shuffle(ops)

    def check(outputs):
        out = dict(zip((op.label for op in ops), outputs))
        checks.check_simulation(json.loads(out[sim.label]), p, w, sim_gens, seed, CHANNEL_TRIALS)
        require(out[irr.label] is True,
                f"({code.length},{w}): exhaustive irrepressibility is not True on a CAC")
        try:
            checks.check_code(code.length, code.weight, clash)
        except CheckFailed:
            pass
        else:
            raise CheckFailed("negative control: the clashing copy passed the code check")
        bad = cf.Code.from_generators(code.length, code.weight, clash)
        require(cf.verify_irrepressibility_exhaustive(bad, 3) is False,
                "exhaustive irrepressibility is True on a code with a clashing codeword")

    return Plan(ops, check)


WORKLOADS = {"certify": certify, "sweep": sweep, "search": search, "channel": channel}
