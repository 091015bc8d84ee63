"""Survey the certification pipeline over a small corpus.

Runs is_transitive_pipeline at increasing refutation depth and reports,
per map, the verdict, the depth that settled it, and wall time.  Useful
for picking a default depth budget: a refutation level reads f in one
walk over its breakpoints and the 2^level + 1 grid points, so each extra
level doubles the grid points the walk visits; the search from each of
the 2^level seeds over the 2^(level+1) + 1 grid points and cells is
integer work that at worst quadruples, and a seed stops once it holds a
seed already known to reach every node.

    python3 scripts/refuter_survey.py --max-level 8
"""
import argparse
import random
import time

from transmaps.corpus import random_pl_map
from transmaps.homotopy import apply_homotopy
from transmaps.rational import Q
from transmaps.spaces import (
    identity_map,
    ladder_map,
    nowhere_dense_perturbation,
    sawtooth,
    square_map,
)
from transmaps.transitivity import PipelineBudget, is_transitive_pipeline


def corpus(seed: int):
    rng = random.Random(seed)
    yield "identity", identity_map()
    yield "square", square_map()
    yield "sawtooth3", sawtooth(3)
    yield "ladder7", ladder_map(7)
    yield "deformed random", apply_homotopy(random_pl_map(rng), Q(1, 4), Q(20))
    yield "perturbed sawtooth3", nowhere_dense_perturbation(sawtooth(3), Q(1, 10))
    yield "perturbed ladder6", nowhere_dense_perturbation(ladder_map(6), Q(1, 10))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-level", type=int, default=8)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    if args.max_level < 1:
        ap.error("need a positive depth")

    print(f"{'map':22} {'verdict':>13} {'depth':>6} {'time':>8}")
    for name, f in corpus(args.seed):
        start = time.monotonic()
        verdict, settled = None, None
        for level in range(1, args.max_level + 1):
            budget = PipelineBudget(refute_levels=tuple(range(1, level + 1)))
            verdict = is_transitive_pipeline(f, budget)
            if verdict.status != "inconclusive":
                settled = level
                break
        took = time.monotonic() - start
        depth = str(settled) if settled else f">{args.max_level}"
        print(f"{name:22} {verdict.status:>13} {depth:>6} {took:7.2f}s")
        if verdict.is_refuted:
            print(f"  invariant region: {verdict.witness}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
