"""Profile segment extensions between pairs of stock maps.

For each pair: the step height, window count, hull band height, the
diameter bound against its allowance, and how many probe chains carry a
transitivity certificate.

    python3 scripts/extension_profile.py --epsilon 1/2 --probes 16
"""
import argparse
import time

from transmaps.exact import sup_distance
from transmaps.extension import (
    SimplexSpec,
    chain_certified,
    segment_boundary,
    simplex_extend,
)
from transmaps.rational import ONE, Q, ZERO
from transmaps.spaces import ladder_map, one_minus, sawtooth

PAIRS = [
    ("sawtooth3", "reflected", lambda: (sawtooth(3), one_minus(sawtooth(3)))),
    ("sawtooth3", "sawtooth5", lambda: (sawtooth(3), sawtooth(5))),
    ("sawtooth5", "reflected", lambda: (sawtooth(5), one_minus(sawtooth(5)))),
    ("sawtooth4", "reflected", lambda: (sawtooth(4), one_minus(sawtooth(4)))),
    ("ladder5", "sawtooth3", lambda: (ladder_map(5), sawtooth(3))),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epsilon", default="1/2", help="relative diameter allowance")
    ap.add_argument("--probes", type=int, default=16, help="heights per endpoint")
    args = ap.parse_args()
    eps = Q(args.epsilon)
    if args.probes < 1:
        ap.error("need at least one probe height")

    header = f"{'pair':28} {'step':>8} {'windows':>8} {'hull':>10} {'bound':>12} {'allowed':>10} {'chains':>7}"
    print(header)
    print("-" * len(header))
    for a, b, make in PAIRS:
        f0, f1 = make()
        start = time.monotonic()
        ext = simplex_extend(segment_boundary(f0, f1), SimplexSpec(1), eps)
        diam = sup_distance(f0, f1)
        # below the step, t0 halved; any height there is certified too: a
        # step that does not divide 1 only leaves a shorter final window
        heights = [ext.t0 * Q(1, 1 << k) for k in range(5)]
        heights += [ext.t0 + (ONE - ext.t0) * Q(j, args.probes) for j in range(1, args.probes + 1)]
        certified = sum(
            chain_certified(ext.evaluate_chain(x, t))
            for x in (ZERO, ONE)
            for t in heights
        )
        hull = max(h.width for h in ext.hull_bands)
        line = (
            f"{a + ' / ' + b:28} {str(ext.t0):>8} {len(ext.windows):>8} "
            f"{str(hull):>10} {str(ext.diameter_bound()):>12} "
            f"{str((ONE + eps) * diam):>10} {certified:>3}/{2 * len(heights):>3}"
        )
        print(line)
        assert ext.diameter_bound() <= (ONE + eps) * diam
        assert certified == 2 * len(heights)
        print(f"  ok in {time.monotonic() - start:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
