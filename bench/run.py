"""Benchmark runner for cacforge.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Runs one workload in this process, on the cacforge sources under
`src/` next to this directory, with the standard library only. Set-up
(import of cacforge plus generation of the workload's inputs) is done
SETUP_REPEATS times and its median reported. Then whole passes over the
workload's operations repeat until their summed time reaches --seconds;
`wall_s` is their mean, the summed time over the number of passes. On a
shared 2-CPU machine the speed drifts between fast and slow spells of
about ten seconds; a median over passes jumps between spells, while the
mean weighs them by how long they last and varies less from run to run.
The first pass's outputs are checked against computations made apart
from cacforge; every later pass must reproduce them exactly.

With --trace 0 the last line of stdout is one JSON object holding the
end-to-end metrics; with --trace 1 the tracer wraps cacforge's public
functions and the line holds the per-layer metrics instead, and the
spans of the last pass go to bench/out/. Exit code 0 means the run
finished; `correct` says whether every output passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5


def fresh_import():
    """Import cacforge and its CLI from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "cacforge" or n.startswith("cacforge.")]:
        del sys.modules[name]
    cf = importlib.import_module("cacforge")
    importlib.import_module("cacforge.cli")
    return cf


FAILED = object()  # the output of an operation that raised


def fingerprint(op, value) -> str:
    h = hashlib.sha256(repr(value).encode())
    for path in op.files:
        h.update(path.read_bytes() if path.exists() else b"<absent>")
    return h.hexdigest()


def run_pass(plan, failed: set[int]) -> tuple[float, list]:
    """One timed pass; returns its time and each operation's output, FAILED if it raised.

    Indices of failed operations are added to `failed`; each failure's
    traceback is printed the first time it happens.
    """
    for op in plan.ops:
        for path in op.files:
            path.unlink(missing_ok=True)
    outputs = []
    t0 = perf_counter()
    for i, op in enumerate(plan.ops):
        try:
            outputs.append(op.call())
        except Exception:  # an operation that fails is counted, not fatal
            if i not in failed:
                traceback.print_exc(file=sys.stderr)
            failed.add(i)
            outputs.append(FAILED)
    return perf_counter() - t0, outputs


def measure(plan, seconds: float, tracer) -> dict:
    """Whole passes until their summed time reaches `seconds`; checks the first pass.

    Later passes must reproduce the first pass's outputs exactly. With a
    tracer, each pass's spans are summarised and the last pass's kept.
    """
    failed: set[int] = set()
    m = {"pass_s": [], "summaries": [], "failed": 0, "correct": True, "spans": None}
    prints = set()
    while sum(m["pass_s"]) < seconds or not m["pass_s"]:
        if tracer:
            tracer.reset()
        dt, outputs = run_pass(plan, failed)
        m["pass_s"].append(dt)
        m["failed"] += sum(out is FAILED for out in outputs)
        if tracer:
            m["summaries"].append(tracer.summary())
            m["spans"] = tracer.snapshot()
        done = [(op, out) for op, out in zip(plan.ops, outputs) if out is not FAILED]
        prints.add(tuple(fingerprint(op, out) for op, out in done))
        if len(m["pass_s"]) == 1:
            m["instances"] = sum(op.instances for op, _ in done)
            m["codewords"] = sum(op.codewords(out) for op, out in done)
            try:
                if failed:
                    raise RuntimeError(f"{len(failed)} operations failed; outputs unchecked")
                plan.check(outputs)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                m["correct"] = False
    if len(prints) != 1:
        print("bench: a later pass did not reproduce the first pass's outputs", file=sys.stderr)
        m["correct"] = False
    return m


def layer_metrics(summaries: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: times are medians over passes, counts come from one pass."""
    first = summaries[0]
    calls, counts = first["calls"], first["counts"]
    if any(s["calls"] != calls or s["counts"] != counts for s in summaries):
        print("bench: traced counts differ between passes; reporting the first", file=sys.stderr)

    def med(f):
        return statistics.median(f(s) for s in summaries)

    def self_s(layer):
        return med(lambda s: s["layer_self_s"][layer])

    def total_s(name):
        return med(lambda s: s["total_s"][name])

    constructs = sum(n for name, n in calls.items() if name.startswith("constructions.construct_"))
    emitted = counts["codewords.emitted"]
    simulate_s = total_s("channel.simulate")
    return {
        "numtheory.self_s": (self_s("numtheory"), "s"),
        "numtheory.is_prime.calls": (calls["numtheory.is_prime"], "count"),
        "numtheory.factorize.calls": (calls["numtheory.factorize"], "count"),
        "numtheory.multiplicative_order.calls": (calls["numtheory.multiplicative_order"], "count"),
        "numtheory.cosets.s": (total_s("numtheory.cosets"), "s"),
        "codes.self_s": (self_s("codes"), "s"),
        "codes.difference_set.calls": (calls["codes.difference_set"], "count"),
        "codes.verify_cac.calls": (calls["codes.verify_cac"], "count"),
        "codes.difference_sets_per_codeword": (
            calls["codes.difference_set"] / emitted if emitted else 0.0, "ratio"),
        "bounds.self_s": (self_s("bounds"), "s"),
        "bounds.new_bound.calls": (calls["bounds.new_bound"], "count"),
        "constructions.self_s": (self_s("constructions"), "s"),
        "constructions.construct.calls": (constructs, "count"),
        "constructions.certificates": (counts["constructions.certificates"], "count"),
        "constructions.kept_per_construct": (
            counts["certificates.kept"] / constructs if constructs else 0.0, "ratio"),
        "oracle.build_graph.s": (total_s("oracle.build_graph"), "s"),
        "oracle.search.s": (med(lambda s: s["self_s"]["oracle.max_equi_diff_cac"]), "s"),
        "oracle.nodes": (counts["oracle.nodes"], "count"),
        "oracle.vertices": (counts["oracle.vertices"], "count"),
        "channel.simulate.s": (simulate_s, "s"),
        "channel.trials": (counts["channel.trials"], "count"),
        "channel.trials_per_s": (
            counts["channel.trials"] / simulate_s if simulate_s else 0.0, "1/s"),
        "channel.irrepressibility.s": (total_s("channel.verify_irrepressibility_exhaustive"), "s"),
        "channel.combinations": (counts["channel.combinations"], "count"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.bytes_io": (counts["cli.bytes_io"], "bytes"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cacforge" / "__init__.py").is_file():
        print(f"bench: no cacforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    build = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            t0 = perf_counter()
            cf = fresh_import()
            plan = build(cf, args.seed, work)
            setup_s.append(perf_counter() - t0)

        tracer = Tracer().install() if args.trace else None
        m = measure(plan, args.seconds, tracer)
        wall = statistics.fmean(m["pass_s"])
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "passes": m["pass_s"], "setup_s": setup_s}
        if tracer:
            tracer.uninstall()
            metrics = layer_metrics(m["summaries"])
            record["traced_wall_s"] = wall
            tracer.write(m["spans"], OUT / f"trace-{tag}.jsonl")
        else:
            metrics = {
                "setup_s": (statistics.median(setup_s), "s"),
                "wall_s": (wall, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "codewords_per_s": (m["codewords"] / wall, "codewords/s"),
                "instances_per_s": (m["instances"] / wall, "instances/s"),
            }
        result = {
            "correct": m["correct"],
            "attempted": len(plan.ops) * len(m["pass_s"]),
            "failed": m["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        record["result"] = result
        (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
        print(f"bench: {args.workload} seed {args.seed}: {len(m['pass_s'])} passes of "
              f"{len(plan.ops)} operations, mean {wall:.4f} s", file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
