"""Seeded generators of exact test maps.

Everything here is deterministic given the ``random.Random`` instance and
emits rationals with modest denominators, so downstream exact arithmetic
stays cheap.  These are test/experiment helpers, not part of the
mathematical core.
"""
from __future__ import annotations

import random

from .exact import CurveMap, Interval, PLMap, Piece, evaluate, pl_from_vertices
from .rational import ONE, Q, ZERO

__all__ = [
    "rational_in",
    "random_partition",
    "random_pl_map",
    "random_surjective_pl",
    "random_gentle_pl",
    "random_curve_map",
]


def rational_in(rng: random.Random, lo: Q, hi: Q, denom: int = 64) -> Q:
    """Uniform rational k/denom inside [lo, hi] (inclusive)."""
    n_lo = -((-lo.numerator * denom) // lo.denominator)  # ceil
    n_hi = (hi.numerator * denom) // hi.denominator  # floor
    if n_lo > n_hi:
        return lo
    return Q(rng.randint(int(n_lo), int(n_hi)), denom)


def random_partition(rng: random.Random, n_pieces: int, denom: int = 64) -> list[Q]:
    """0 = x_0 < ... < x_n = 1 on the 1/denom grid (n <= denom)."""
    if n_pieces > denom:
        raise ValueError("partition finer than the grid")
    cuts = rng.sample(range(1, denom), n_pieces - 1)
    return [ZERO] + [Q(c, denom) for c in sorted(cuts)] + [ONE]


def random_pl_map(
    rng: random.Random, n_pieces: int = 6, denom: int = 64
) -> PLMap:
    xs = random_partition(rng, n_pieces, denom)
    ys = [rational_in(rng, ZERO, ONE, denom) for _ in xs]
    # Collinear neighbours are merged by the constructor, so the piece
    # count may come out lower than requested.  That is fine for tests.
    return pl_from_vertices(list(zip(xs, ys)))


def random_surjective_pl(
    rng: random.Random, n_pieces: int = 6, denom: int = 64
) -> PLMap:
    """Random PL map forced to attain both 0 and 1."""
    xs = random_partition(rng, max(n_pieces, 3), denom)
    ys = [rational_in(rng, ZERO, ONE, denom) for _ in xs]
    interior = list(range(1, len(xs) - 1))
    i, j = rng.sample(interior, 2)
    ys[i] = ZERO
    ys[j] = ONE
    return pl_from_vertices(list(zip(xs, ys)))


def random_gentle_pl(
    rng: random.Random,
    n_pieces: int = 5,
    max_slope: Q = Q(1, 2),
    denom: int = 64,
) -> PLMap:
    """Random PL map with every |slope| <= max_slope.

    Used where a tame modulus of continuity keeps downstream parameter
    searches shallow.
    """
    xs = random_partition(rng, n_pieces, denom)
    y = rational_in(rng, Q(1, 4), Q(3, 4), denom)
    ys = [y]
    for x0, x1 in zip(xs, xs[1:]):
        reach = max_slope * (x1 - x0)
        lo = max(ZERO, y - reach)
        hi = min(ONE, y + reach)
        y = rational_in(rng, lo, hi, denom * 8)
        ys.append(y)
    return pl_from_vertices(list(zip(xs, ys)))


def perturb_pl(rng: random.Random, f: PLMap, radius: Q) -> PLMap:
    """A PL map with sup distance to f strictly below radius.

    Keeps every knot of f, adds a few dyadic knots, and offsets values by
    at most 7/8 of the radius.  The difference is PL with extremes at the
    shared knots, so the distance bound is exact by construction.
    """
    xs = set(f.breakpoints)
    for _ in range(3):
        xs.add(Q(rng.randint(1, 63), 64))
    pts = []
    cap = radius * 7 / 8
    for x in sorted(xs):
        off = rational_in(rng, -cap, cap, 256)
        y = evaluate(f, x) + off
        pts.append((x, min(ONE, max(ZERO, y))))
    return pl_from_vertices(pts)


def random_curve_map(
    rng: random.Random, n_pieces: int = 5, denom: int = 32
) -> CurveMap:
    """Random continuous map with some genuinely quadratic pieces.

    Each segment between consecutive vertices is bent by the largest
    curvature from a fixed menu that keeps its values inside [0, 1]; a
    segment that tolerates none stays affine.
    """
    xs = random_partition(rng, n_pieces, denom)
    ys = [rational_in(rng, ZERO, ONE, denom) for _ in xs]
    pieces: list[Piece] = []
    for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        slope = (y1 - y0) / (x1 - x0)
        bend_sign = rng.choice([-1, 1])
        piece = None
        for mag in (Q(1, 2), Q(1, 4), Q(1, 8), ZERO):
            # Quadratic through both endpoints: coefficients solve
            # c2 x0^2 + c1 x0 + c0 = y0 and same at x1, c2 prescribed.
            c2 = bend_sign * mag
            c1 = slope - c2 * (x0 + x1)
            c0 = y0 - c1 * x0 - c2 * x0 * x0
            try:
                piece = Piece(Interval(x0, x1), c0, c1, c2)
            except Exception:
                continue
            break
        assert piece is not None  # mag == 0 always succeeds
        pieces.append(piece)
    return CurveMap(tuple(pieces))
