"""The transitivizing deformation and its quantitative companions.

``apply_homotopy(f, t, gamma)`` deforms any map ``f`` into a steep
piecewise-linear map: cut [0, 1] into windows of length ``t``, read off
where ``f`` sends each window, widen that value range into a band, and
fill every window with a box map onto its band.  At ``t = 0`` the
deformation is the identity on maps; for small ``t`` the output tracks
``f`` closely because the bands are built from ``f``'s local behaviour.
The window ranges of a map, and its values at the window edges, come
from one walk over its pieces with the edges as integers over the
step's denominator (``exact._partition_ranges``), and ``_window_band``
alone turns ranges into a band, both for one map (``box_data``) and
jointly for a family (``FamilyBoxBounds``).  ``uniform_modulus`` reads
one ``exact.range_on`` per candidate window.

The companions quantify that closeness:

* ``uniform_modulus`` -- the exact modulus of continuity of a map,
  computed as the worst oscillation over a sliding window;
* ``stability_window`` -- a radius/step pair (eta, t) such that every map
  within eta of ``f`` stays within 27*eta of its own deformation for any
  step up to t;
* ``family_box_bounds`` -- a step t0 below which the bands built jointly
  over a finite family exceed the family's diameter by less than a
  prescribed epsilon;
* ``separate_family`` -- deformations of a finite list of maps with
  pairwise-distinct expansion factors 20+1, 20+2, ..., so equal inputs
  yield provably distinct outputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .boxmap import BoxParams, concat_box_maps
from .errors import DomainError, ParameterError, PreconditionError
from .exact import CurveMap, Interval, _MAX_PIECES, _partition_ranges, range_on, sup_distance
from .rational import ONE, Q, ZERO, as_scalar, largest_dyadic_where

__all__ = [
    "PartitionData",
    "BoxData",
    "partition",
    "box_data",
    "apply_homotopy",
    "uniform_modulus",
    "family_modulus",
    "family_diameter",
    "FamilyBoxBounds",
    "family_box_bounds",
    "StabilityWindow",
    "stability_window",
    "separate_family",
]


@dataclass(frozen=True)
class PartitionData:
    """Windows [0,t], [t,2t], ..., with a final short window ending at 1.

    ``count`` is the largest integer with count * t < 1, so there are
    count + 1 windows and the last one has width 1 - count*t in (0, t].
    """

    t: Q
    count: int
    windows: tuple[Interval, ...]


def partition(t) -> PartitionData:
    """The windows of step t.

    The grid is pure and frozen, and every deformation at step t asks for
    it again, so the grids of the last 16 steps asked for are kept.
    Steps below ``_MIN_STEP`` raise PreconditionError.
    """
    return _partition(as_scalar(t))


_MIN_STEP = Q(1, _MAX_PIECES)  # finer steps tile [0, 1] with more windows


@lru_cache(maxsize=16)
def _partition(t: Q) -> PartitionData:
    if not (ZERO < t <= ONE):
        raise DomainError(f"window length {t} outside (0,1]")
    if t < _MIN_STEP:
        raise PreconditionError(f"window length {t} below the cap {_MIN_STEP}")
    # largest s with s*t < 1; when 1/t is an integer this is 1/t - 1
    s = int(ONE.numerator * t.denominator // (t.numerator * ONE.denominator))
    if Q(s) * t >= ONE:
        s -= 1
    windows = tuple(
        Interval(Q(i) * t, Q(i + 1) * t) for i in range(s)
    ) + (Interval(Q(s) * t, ONE),)
    return PartitionData(t, s, windows)


def _edges(grid: PartitionData) -> tuple[list[int], int]:
    """The window edges 0, t, 2t, ..., count*t, 1 of a grid as integer
    numerators over the one denominator of t, with that denominator."""
    n, d = int(grid.t.numerator), int(grid.t.denominator)
    return [*range(0, grid.count * n + 1, n), d], d


@dataclass(frozen=True)
class BoxData:
    """Per-window box parameters for one (f, t, gamma) deformation."""

    grid: PartitionData
    alphas: tuple[Q, ...]
    boxes: tuple[BoxParams, ...]

    @property
    def bands(self) -> tuple[Interval, ...]:
        return tuple(Interval(b.bottom, b.top) for b in self.boxes)

    def items(self) -> list[tuple[Interval, BoxParams]]:
        return list(zip(self.grid.windows, self.boxes))


def _window_band(ranges: Sequence[Interval], width: Q) -> tuple[Q, Interval]:
    """(alpha, band) for one window from the value ranges of one or more
    maps on it: alpha is the window width or the tallest range, whichever
    is larger, and the band is the ranges' hull widened by 4*alpha on
    each side, clipped to [0, 1]."""
    alpha = max(width, max(r.width for r in ranges))
    lo = min(r.lo for r in ranges) - 4 * alpha
    hi = max(r.hi for r in ranges) + 4 * alpha
    return alpha, Interval(max(ZERO, lo), min(ONE, hi))


def box_data(f: CurveMap, t, gamma) -> BoxData:
    gamma = as_scalar(gamma)
    grid = partition(t)
    ys, ranges = _partition_ranges(f, *_edges(grid))
    alphas: list[Q] = []
    boxes: list[BoxParams] = []
    for k, w in enumerate(grid.windows):
        alpha, band = _window_band([ranges[k]], w.width)
        alphas.append(alpha)
        boxes.append(
            BoxParams(
                left_value=ys[k],
                right_value=ys[k + 1],
                bottom=band.lo,
                top=band.hi,
                expansion=gamma,
            )
        )
    return BoxData(grid, tuple(alphas), tuple(boxes))


def apply_homotopy(f: CurveMap, t, gamma) -> CurveMap:
    """Deform f with window length t and expansion gamma.

    t = 0 returns f itself.  For t > 0 the result is piecewise linear,
    agrees with f at every window boundary, and every lap is at least
    gamma steep (the band is at least as tall as the window is wide).
    The map holds its box chain as its ``_chain``, not its ``provenance``.
    """
    t = as_scalar(t)
    if t < ZERO or t > ONE:
        raise DomainError(f"deformation step {t} outside [0,1]")
    if t == ZERO:
        return f
    return concat_box_maps(box_data(f, t, gamma).items())


# -- exact modulus of continuity -------------------------------------------


def uniform_modulus(f: CurveMap, delta) -> Q:
    """Exact sup of |f(x) - f(y)| over |x - y| <= delta.

    Equals the maximum oscillation of f over a sliding window of width
    delta.  Candidate window positions: the two ends of [0,1], every
    critical point (breakpoint or interior quadratic vertex) as either
    window edge, and, per ordered pair of pieces with distinct curvature,
    the stationary point of f(x) - f(x+delta).  Between consecutive
    candidates both window-edge tracks are monotone and the interior
    extrema over the window are frozen constants, so the oscillation is a
    maximum of monotone-or-stationary pairwise differences and cannot
    exceed its value at the candidates.
    """
    delta = as_scalar(delta)
    if delta < ZERO:
        raise DomainError("negative window width")
    if delta == ZERO:
        return ZERO
    if delta >= ONE:
        return range_on(f, Interval(ZERO, ONE)).width

    crit: set[Q] = set(f.breakpoints)
    for p in f.pieces:
        v = p.vertex()
        if v is not None:
            crit.add(v)
    top = ONE - delta
    xs = {ZERO, top}
    for c in crit:
        if ZERO <= c <= top:
            xs.add(c)
        cm = c - delta
        if ZERO <= cm <= top:
            xs.add(cm)
    curved = [p for p in f.pieces if p.c2 != 0]
    if curved:
        for p in f.pieces:
            for q in f.pieces:
                if p.c2 == q.c2:
                    continue
                x = (q.c1 + 2 * q.c2 * delta - p.c1) / (2 * (p.c2 - q.c2))
                if (
                    p.domain.lo <= x <= p.domain.hi
                    and q.domain.lo <= x + delta <= q.domain.hi
                    and ZERO <= x <= top
                ):
                    xs.add(x)
    best = ZERO
    for x in xs:
        r = range_on(f, Interval(x, x + delta))
        osc = r.width
        if osc > best:
            best = osc
    return best


def family_modulus(maps: Sequence[CurveMap], delta) -> Q:
    if not maps:
        raise ParameterError("empty family")
    return max(uniform_modulus(f, delta) for f in maps)


def family_diameter(maps: Sequence[CurveMap]) -> Q:
    if not maps:
        raise ParameterError("empty family")
    best = ZERO
    for i, f in enumerate(maps):
        for g in maps[i + 1 :]:
            d = sup_distance(f, g)
            if d > best:
                best = d
    return best


# -- quantitative companions -----------------------------------------------


@dataclass(frozen=True)
class FamilyBoxBounds:
    """Step threshold t0 plus the joint band of a family per window.

    For every step t <= t0 and every window, the joint band built over
    the family is at most diameter + epsilon tall: the band adds 8*alpha
    to the family's value hull, alpha <= max(t, modulus) < epsilon/10,
    and the hull itself exceeds the diameter by at most one oscillation.
    """

    maps: tuple[CurveMap, ...]
    epsilon: Q
    t0: Q

    def all_bands(self, t) -> list[Interval]:
        grid = partition(t)
        edges, d = _edges(grid)
        per_map = [_partition_ranges(f, edges, d)[1] for f in self.maps]
        return [
            _window_band(ranges, w.width)[1]
            for w, ranges in zip(grid.windows, zip(*per_map))
        ]


def family_box_bounds(maps: Sequence[CurveMap], epsilon) -> FamilyBoxBounds:
    epsilon = as_scalar(epsilon)
    if not maps:
        raise ParameterError("empty family")
    if epsilon <= ZERO:
        raise ParameterError("epsilon must be positive")
    eta = epsilon / 10
    t0 = largest_dyadic_where(
        lambda t: t < eta and family_modulus(maps, t) < eta
    )
    return FamilyBoxBounds(maps=tuple(maps), epsilon=epsilon, t0=t0)


@dataclass(frozen=True)
class StabilityWindow:
    """Radius and step below which the deformation moves nobody far.

    Every g within ``radius`` of the base map, deformed with any step in
    (0, step] and any expansion >= 20, stays within 27 * radius of
    itself: g's window ranges are at most 3*radius tall (base oscillation
    under radius plus twice the perturbation), so the bands are under
    27*radius tall, and both g and its deformation live in the bands.
    """

    radius: Q
    step: Q


def stability_window(f: CurveMap, epsilon) -> StabilityWindow:
    epsilon = as_scalar(epsilon)
    if not (ZERO < epsilon <= ONE):
        raise ParameterError(f"epsilon {epsilon} outside (0,1]")
    eta = epsilon / 28
    step = largest_dyadic_where(
        lambda t: t < eta and uniform_modulus(f, t) < eta
    )
    return StabilityWindow(radius=eta, step=step)


def separate_family(items: Sequence[tuple[CurveMap, object]]) -> list[CurveMap]:
    """Deform each (map, step) pair with expansion 20 + position.

    Distinct expansions force distinct slopes, so even identical input
    pairs produce pairwise-distinct outputs.
    """
    out = []
    for j, (f, t) in enumerate(items, start=1):
        t = as_scalar(t)
        if not (ZERO < t <= ONE):
            raise DomainError(f"step {t} outside (0,1]")
        out.append(apply_homotopy(f, t, Q(20 + j)))
    return out
