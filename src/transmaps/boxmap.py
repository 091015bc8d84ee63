"""Steep sawtooth fillers ("box maps") on a window of the interval.

A box map on a window K = [k0, k1] is the piecewise-linear map of constant
absolute slope determined by five parameters: the values at the two window
edges, the bottom and top of the target band, and an expansion factor.
Its graph zigzags between the bottom and the top of the band as many times
as the slope budget allows, so it is onto the band and strongly expanding.

Layout, fixed once and for all so the construction is a function of the
parameters alone:

* total variation is exactly ``expansion * (top - bottom)``, which forces
  the constant absolute slope ``expansion * (top - bottom) / (k1 - k0)``;
* from the left edge value the graph runs to the top of the band first
  (to the bottom if it already sits at the top), then alternates full
  sweeps between top and bottom;
* the number of full extrema is the largest count whose variation fits
  the budget; any remainder is burnt just before the right edge by one
  short overshoot past the right edge value, split evenly so the total
  variation comes out exact.

The remainder overshoot never leaves the open band: if it did, one more
full sweep would have fit, contradicting maximality of the sweep count.
With expansion >= 20 the sweep count is at least 18, so both band edges
are attained and the map is onto the band.

The layout is integer work over one scaling per box.  Write the
expansion as en / ed, let V be the least common multiple of the
denominators of the edge values and the band, and h the band height
over V.  Over V the edge values and the band are integers, so the sweep
count is one floor division per parity class and the remainder an
integer over ed * V.  Over U = 2 * ed * V half the remainder is an
integer too, and with it the overshoot, every turning value and the
variation c used up to each turning point: c grows by integer steps,
and the budget expansion * height is 2 * en * h over U.  The slope is
constant, so the turning point at variation c sits at
lo + width * c / (2 * en * h): all abscissae are integers over one
denominator.  The sweeps, the tail and the remainder, split over the
overshoot's two legs, use the budget exactly, so the last c is
2 * en * h and the last vertex is the window's right edge exactly.
A leg of slope s from (x, y) has s * (x - lo) = c / U, so its
intercept y - s * x is (y * U - c) / U - s * lo when it rises and
(y * U + c) / U + s * lo when it falls: integers over one denominator
too.  Each abscissa and intercept is one exact integer fraction
brought to lowest terms once, so it is the very rational the per-leg
walk, which divides each leg's variation by the slope, computes.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from math import gcd, lcm

from .errors import ParameterError
from .exact import (
    FULL,
    CurveMap,
    Interval,
    Piece,
    _MAX_PIECES,
    _frozen,
    _walk_gap,
)
from .rational import ONE, Q, ZERO, as_scalar

__all__ = [
    "BoxParams",
    "MIN_EXPANSION",
    "box_values",
    "box_vertices",
    "build_box_map",
    "BoxChain",
    "concat_box_maps",
]

MIN_EXPANSION = Q(20)


@dataclass(frozen=True)
class BoxParams:
    """Parameters of one box map; the admissible set requires
    0 <= bottom < top <= 1, edge values inside the band, expansion >= 20."""

    left_value: Q
    right_value: Q
    bottom: Q
    top: Q
    expansion: Q

    def __post_init__(self):
        for name in ("left_value", "right_value", "bottom", "top", "expansion"):
            object.__setattr__(self, name, as_scalar(getattr(self, name)))
        if not (ZERO <= self.bottom < self.top <= ONE):
            raise ParameterError(
                f"band [{self.bottom}, {self.top}] is not a nondegenerate "
                "subinterval of [0,1]"
            )
        for v in (self.left_value, self.right_value):
            if not (self.bottom <= v <= self.top):
                raise ParameterError(f"edge value {v} outside band")
        if self.expansion < MIN_EXPANSION:
            raise ParameterError(f"expansion {self.expansion} < {MIN_EXPANSION}")

    @property
    def height(self) -> Q:
        return self.top - self.bottom


def _floor(x: Q) -> int:
    return int(x.numerator // x.denominator)


def _max_legs(expansion: Q) -> int:
    """The most legs a box of this expansion can have: k + 2, its sweep
    count k being at most floor(expansion) + 1, since k - 1 full sweeps
    fit the budget expansion * height."""
    return _floor(expansion) + 3


def _turns(p: BoxParams) -> tuple[list[Q], list[int], list[int], int, int]:
    """The box's turning points on integers: ``(values, yu, cu, u, k)``.

    ``values`` is ``box_values(p)`` and k its full extremum count: entries
    1..k are the extrema, alternating between top and bottom; after them
    come the optional overshoot and the right value, the latter dropped
    when it equals the last extremum.  ``yu[j]`` is values[j] and
    ``cu[j]`` the variation used up to turning point j, both as integers
    over the box's scaling u, so ``cu[-1]`` is the whole budget.
    """
    l, r, b, t = p.left_value, p.right_value, p.bottom, p.top
    en, ed = p.expansion.numerator, p.expansion.denominator
    v = lcm(l.denominator, r.denominator, b.denominator, t.denominator)
    L, R, B, T = (x.numerator * (v // x.denominator) for x in (l, r, b, t))
    h = T - B
    if L < T:  # the first extremum is the top
        d, odd, even, pair = T - L, T, B, (t, b)
    else:
        d, odd, even, pair = L - B, B, T, (b, t)

    # Largest k with d + (k-1)*h + |R - extremum(k)| <= en*h/ed, solved per
    # parity class (variation steps by 2h inside a class).
    k = 0
    for parity, ext in ((1, odd), (0, even)):
        bound = (en * h - ed * (d + abs(R - ext))) // (ed * h) + 1
        if bound % 2 != parity:
            bound -= 1
        if bound > k:
            k = bound
    if k < 18:  # expansion >= 20 guarantees this; a failure is a bug here
        raise AssertionError(f"sweep count {k} impossibly small")
    last = odd if k % 2 else even
    remainder = en * h - ed * (d + (k - 1) * h + abs(R - last))  # over ed * v

    # The first extremum is the band edge the left value is not at, the
    # extrema alternate, and the overshoot lies strictly inside the band,
    # so the one possible repeat is a right value equal to the last
    # extremum.  Over u = 2 * ed * v half the remainder is an integer.
    s = 2 * ed
    full, right, end = s * h, s * R, s * last
    values = [l, *(pair * (k // 2 + 1))[:k]]
    yu = [s * L, *((s * odd, s * even) * (k // 2 + 1))[:k]]
    cu = [0, *range(s * d, s * d + k * full, full)]
    c = cu[-1]
    if remainder:
        # after the top the final leg dips below the right value, after
        # the bottom it rises above it
        over = right - remainder if last == T else right + remainder
        values += (Q(over, s * v), r)
        yu += (over, right)
        c += abs(over - end)
        cu += (c, c + remainder)
    elif right != end:
        values.append(r)
        yu.append(right)
        cu.append(c + abs(right - end))
    assert cu[-1] == 2 * en * h  # the increments sum to the exact budget
    return values, yu, cu, s * v, k


def box_values(p: BoxParams) -> list[Q]:
    """The sequence of values at the turning points, edges included.

    Consecutive entries always differ, and the absolute increments sum to
    exactly expansion * height.  After the first leg come k - 1 full
    sweeps between top and bottom, each of variation height; only the
    first leg and the one or two legs after the last extremum are partial.
    """
    return _turns(p)[0]


def box_vertices(window: Interval, p: BoxParams) -> list[tuple[Q, Q]]:
    """Graph vertices of the box map on the window, exact abscissae.

    The vertex that has used the variation c of the budget B sits at
    lo + width * c / B.  Over the box's one scaling c and B are integers
    (see the module docstring), so every abscissa is one integer fraction
    over one denominator, and the last, c = B, is the right edge itself.
    """
    xs, values, _, _ = _legs(window, p)
    return list(zip(xs, values))


def _legs(window: Interval, p: BoxParams) -> tuple[list[Q], list[Q], list[Q], tuple[Q, Q]]:
    """``(xs, values, c0s, slopes)``: the box's vertices on the window, the
    intercept of the leg from each vertex but the last, and the slopes of
    the first two legs, +-expansion * height / width, which the later legs
    repeat in turn.  Each rational is one integer fraction built once."""
    if window.is_degenerate():
        raise ParameterError("box window must be nondegenerate")
    values, yu, cu, u, _ = _turns(p)
    lo, hi = window.lo, window.hi
    dl, dh = lo.denominator, hi.denominator
    dw = dl // gcd(dl, dh) * dh
    a = lo.numerator * (dw // dl)
    w = hi.numerator * (dw // dh) - a  # lo = a / dw, width = w / dw
    total = cu[-1]
    xs = [lo, *[Q(a * total + w * c, dw * total) for c in cu[1:-1]], hi]
    # the leg of slope +-up from vertex j has intercept
    # values[j] -+ up * xs[j] = (yu[j] -+ cu[j]) / u -+ up * lo,
    # and up * lo = total * a / (u * w)
    shift, d = total * a, u * w
    c0s = [
        Q((y - c) * w - shift, d) if y < y1 else Q((y + c) * w + shift, d)
        for y, y1, c in zip(yu, yu[1:], cu)
    ]
    up = Q(total * dw, d)
    return xs, values, c0s, (up, -up) if yu[0] < yu[1] else (-up, up)


def build_box_map(p: BoxParams) -> CurveMap:
    """The box map on the full window as a standalone piecewise-linear
    self-map: the one-box chain ``concat_box_maps`` builds, so, like
    every other concatenation, its chain is its trusted ``_chain``.

    The package's map type is a self-map of [0, 1], so a box on a proper
    subwindow exists only as a vertex list (``box_vertices``) and
    participates in concatenations.
    """
    return concat_box_maps([(FULL, p)])


@dataclass(frozen=True)
class BoxChain:
    """A concatenation of box maps as its parameters only, validated once
    here: the windows tile [0, 1] and adjacent boxes agree at junctions.

    The map ``concat_box_maps`` builds is its chain by construction and
    holds it as its trusted ``_chain``, which ``sup_distance`` and
    ``transitivity.box_chain_certify`` read without a check:
    ``_distance`` measures a chain map against any map without a chain,
    and ``_paired_distance`` measures two chain maps whose chains pass
    ``_steps_match``.
    """

    boxes: tuple[tuple[Interval, BoxParams], ...]

    def __post_init__(self):
        if not self.boxes:
            raise ParameterError("empty box chain")
        windows = [w for w, _ in self.boxes]
        if windows[0].lo != ZERO or windows[-1].hi != ONE:
            raise ParameterError("box windows do not tile [0,1]")
        for (wa, pa), (wb, pb) in zip(self.boxes, self.boxes[1:]):
            if wa.hi != wb.lo:
                raise ParameterError("box windows do not tile [0,1]")
            if pa.right_value != pb.left_value:
                raise ParameterError(
                    f"edge value mismatch at x={wa.hi}: "
                    f"{pa.right_value} != {pb.left_value}"
                )

    def _steps_match(self, other: "BoxChain") -> bool:
        """Whether ``other`` has this chain's windows and, box by box, its
        expansion, so that the two chains' boxes sweep with equal steps."""
        return len(self.boxes) == len(other.boxes) and all(
            w == v and p.expansion == q.expansion
            for (w, p), (v, q) in zip(self.boxes, other.boxes)
        )

    def _paired_distance(self, f: CurveMap, g: CurveMap) -> Q:
        """``sup_distance(f, g)`` for f this chain's map and g a chain map
        whose chain passes ``_steps_match``.

        On a window [a, b] both boxes sweep with the step s = width /
        expansion.  Let X be the later of the two first extrema and Y the
        earlier of the two maps' second-to-last breakpoints strictly below
        b.  Each map's breakpoints below b end with its last extremum, or
        with it and the remainder overshoot, so Y is at or before both
        last extrema.  Each map is a triangle wave of period 2s between
        its first and last extrema, so f - g has period 2s on [X, Y], and
        its maximum there is its maximum on [X, X + 2s].  Hence the
        maximum of |f - g| on [a, b] is the one on [a, X + 2s] and
        [Y, b], the box's head and tail.  X + 2s is the third extremum of
        the map whose first extremum is X, so it is a breakpoint.  A box
        has at least 18 extrema, so X + 2s <= a + 3s lies well before Y;
        were it past Y, the tail would start where the head stopped and
        the box would be walked whole.

        f - g is affine between consecutive breakpoints of f and g, so
        each span reads |f - g| only there, each map's value from its
        own table at its own breakpoints.  Running indices into both
        breakpoint tables carry from span to span, and each bisect spans
        at most one box's legs.
        """
        fb, gb = f._lows + _ENDS, g._lows + _ENDS
        fv, gv, fp, gp = f._values, g._values, f.pieces, g.pieces
        best = fv[0] - gv[0]
        if best < 0:
            best = -best
        p = q = 1  # the first breakpoints of f and g right of the box's left edge
        for w, params in self.boxes:
            b = w.hi
            legs = _max_legs(params.expansion)
            # the first breakpoints at or right of b
            jf = bisect.bisect_left(fb, b, p, min(p + legs, len(fb)))
            jg = bisect.bisect_left(gb, b, q, min(q + legs, len(gb)))
            head = fb[p + 2] if fb[p] >= gb[q] else gb[q + 2]
            tail = min(fb[jf - 2], gb[jg - 2])
            for end, skip in ((head, tail), (b, None)):
                while True:
                    x, y = fb[p], gb[q]
                    if x < y:
                        if x > end:
                            break
                        pg = gp[q - 1]
                        d = fv[p] - pg.c0 - pg.c1 * x
                        p += 1
                    elif y < x:
                        if y > end:
                            break
                        pf = fp[p - 1]
                        d = pf.c0 + pf.c1 * y - gv[q]
                        q += 1
                    else:
                        if x > end:
                            break
                        d = fv[p] - gv[q]
                        p += 1
                        q += 1
                    if d < 0:
                        d = -d
                    if d > best:
                        best = d
                if skip is not None:
                    p = bisect.bisect_right(fb, skip, p, jf)
                    q = bisect.bisect_right(gb, skip, q, jg)
        return best

    def _distance(self, f: CurveMap, g: CurveMap) -> Q:
        """``sup_distance(f, g)`` for g this chain's map and f any map.

        f - g is continuous, so after |f(0) - g(0)| only e and g's
        breakpoints in each stretch (a, e] count, a stretch being the part
        of one box's window under one piece of f.  Under a curved piece f
        walks g's pieces.  Under an affine piece the breakpoints are box
        extrema, alternating between top and bottom one step apart, then
        at most two tail vertices; f - g at the extrema of one parity is
        affine in their index, so only the first two breakpoints and the
        last four count.  g(e) is evaluated only when e is no breakpoint.
        """
        boxes = self.boxes
        lows, gv, gp = g._lows, g._values, g.pieces
        n = len(lows)
        best = f._values[0] - gv[0]
        if best < 0:
            best = -best
        b = 0
        i = 1  # g's first breakpoint right of the last stretch
        for fi, pf in enumerate(f.pieces):
            lo, hi = pf.domain.lo, pf.domain.hi
            if pf.c2:
                gap = _walk_gap(f, g, fi, fi + 1, i - 1)
                if gap > best:
                    best = gap
                i = bisect.bisect_right(lows, hi, i)
                continue
            c0, c1 = pf.c0, pf.c1
            while boxes[b][0].hi <= lo:
                b += 1
            while True:
                w, p = boxes[b]
                whi = w.hi
                e = hi if hi < whi else whi
                # a stretch holds no more breakpoints than its box has legs
                j = bisect.bisect_right(lows, e, i, min(i + _max_legs(p.expansion), n))
                ts = range(i, j) if j - i <= 6 else (i, i + 1, *range(j - 4, j))
                for t in ts:
                    d = c0 + c1 * lows[t] - gv[t]
                    if d < 0:
                        d = -d
                    if d > best:
                        best = d
                if lows[j - 1] != e:
                    d = c0 + c1 * e - gp[j - 1].value_at(e)
                    if d < 0:
                        d = -d
                    if d > best:
                        best = d
                i = j
                if whi >= hi:
                    break
                b += 1
        return best


# appended to a map's piece lows: the breakpoint 1, then a stop above
# every window's right edge
_ENDS = (ONE, ONE + ONE)


def _check_size(boxes) -> None:
    """Refuse a chain of more than ``_MAX_PIECES`` legs, before any vertex
    is built."""
    legs = sum(_max_legs(p.expansion) for _, p in boxes)
    if legs > _MAX_PIECES:
        raise ParameterError(f"box chain of up to {legs} pieces above the cap {_MAX_PIECES}")


def concat_box_maps(boxes: list[tuple[Interval, BoxParams]]) -> CurveMap:
    """Concatenate box maps on a tiling of [0, 1] into one map.

    Continuity at the junctions is exact because adjacent boxes share the
    junction value by the chain validity check.  The chain is the map's
    trusted ``_chain`` (its ``provenance`` stays None), which
    ``sup_distance`` and ``transitivity.box_chain_certify`` read; no
    other construction sets it.  Each box is laid out once, here, and its
    vertices are kept only as the map's ``_lows`` and ``_values``.  A
    chain that could have more than ``exact._MAX_PIECES`` pieces is
    refused before any vertex is built.

    The pieces are built straight from the box vertices, without the
    checks of ``pl_from_vertices``, which gives the same map.  That is
    safe: the windows tile [0, 1] and every box's parameters were
    validated, so each leg steps right by a positive amount, its ends lie
    in the box's band inside [0, 1], and its slope is exactly
    +-expansion * height / width.  Inside a box the legs alternate up and
    down, so only the first leg's two values are compared, only a
    junction can join two collinear legs, and only there are slopes
    compared.

    Every leg's abscissae and intercept come from the box's integer
    layout (see the module docstring), the first leg and the tail legs
    as well as the full sweeps; a merge across a junction keeps the
    widened piece's intercept.
    """
    chain = BoxChain(tuple(boxes))
    _check_size(chain.boxes)
    new, put = object.__new__, object.__setattr__
    pieces: list[Piece] = []
    lows: list[Q] = []
    values: list[Q] = []
    for w, p in chain.boxes:
        xs, ys, c0s, slopes = _legs(w, p)
        if pieces and pieces[-1].c1 == slopes[0]:
            # collinear across the junction: widen the last piece
            xs[0], ys[0], c0s[0] = lows.pop(), values.pop(), pieces.pop().c0
        lows += xs[:-1]
        values += ys[:-1]
        for i in range(len(xs) - 1):
            domain = new(Interval)
            put(domain, "lo", xs[i])
            put(domain, "hi", xs[i + 1])
            piece = new(Piece)
            put(piece, "domain", domain)
            put(piece, "c0", c0s[i])
            put(piece, "c1", slopes[i % 2])
            put(piece, "c2", ZERO)
            pieces.append(piece)
    values.append(chain.boxes[-1][1].right_value)
    return _frozen(
        CurveMap,
        pieces=tuple(pieces),
        _lows=tuple(lows),
        _values=tuple(values),
        _chain=chain,
    )
