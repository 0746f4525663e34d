"""Single-run timings of the starting figures listed in ROADMAP.md.

    python3 bench/roadmap.py

Each line is one call, timed once with perf_counter in this process;
they are reference points for the README, not benchmark metrics.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cacforge as cf  # noqa: E402


def timed(label: str, fn, note=lambda r: ""):
    t0 = perf_counter()
    result = fn()
    dt = perf_counter() - t0
    print(f"| {label} | {dt:.3f} s | {note(result)} |", flush=True)
    return result


def main() -> int:
    print("| call | time | notes |\n|---|---|---|")
    cert919 = timed("construct_theorem1(919, 4, 51, 3, 7)",
                    lambda: cf.construct_theorem1(cf.Theorem1Params(919, 4, 51, 3, 7)))
    timed("build_graph(671, 11)", lambda: cf.build_graph(671, 11),
          lambda g: f"{len(g.vertices)} vertices")
    timed("max_equi_diff_cac(671, 11)", lambda: cf.max_equi_diff_cac(671, 11, cap=671),
          lambda r: f"max {r.size}, {r.nodes} nodes")
    timed("simulate, (919, 4), 10k trials",
          lambda: cf.simulate(cf.Scenario(cert919.code, seed=7, trials=10_000)),
          lambda r: f"{len(r.violations)} violations")
    c65 = cf.construct_theorem2(cf.construct_lemma1(5, 3), cf.construct_lemma1(13, 3)).code
    timed("verify_irrepressibility_exhaustive((65, 3) code, 3)",
          lambda: cf.verify_irrepressibility_exhaustive(c65, 3))
    grid = [(L, w) for w in range(3, 9) for L in range(w, 10_001)]
    timed("new_bound, w = 3..8, L <= 10^4", lambda: [cf.new_bound(L, w) for L, w in grid],
          lambda r: f"{len(r)} calls")
    timed("prime_divisor_bound, same grid",
          lambda: [cf.prime_divisor_bound(L, w) for L, w in grid])
    timed("subset_excess_bound, same grid",
          lambda: [cf.subset_excess_bound(L, w) for L, w in grid])
    big = None
    for p in (10_037, 100_069, 1_000_037):
        big = timed(f"construct_lemma1({p}, 3)", lambda: cf.construct_lemma1(p, 3),
                    lambda c: f"{len(c.code)} codewords")
    timed("JSON round-trip of the p = 1,000,037 certificate",
          lambda: cf.Certificate.from_json(json.loads(json.dumps(big.to_json()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
