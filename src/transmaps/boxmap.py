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

Every full sweep covers the band's height at the box's slope, so it
moves x by the same step, width / expansion, and the full-sweep legs
differ only by whole steps.  The builder uses that: the extrema's
abscissae are one arithmetic progression of integers over one
denominator, and so are the intercepts of the legs that start at an
extremum, split into the up legs and the down legs.  Each such number
is one normalisation of an exact integer fraction, so it equals the
rational the per-leg walk would compute.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from math import gcd

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


def _sweeps(p: BoxParams) -> tuple[list[Q], int]:
    """``box_values(p)`` and its full extremum count k.

    Entries 1..k of the list are the extrema, alternating between top and
    bottom; after them come the optional overshoot and the right value,
    the latter dropped when it equals the last extremum.
    """
    h = p.height
    budget = p.expansion * h
    first_top = p.left_value < p.top
    d_first = (p.top - p.left_value) if first_top else (p.left_value - p.bottom)

    def extremum(i: int) -> Q:
        odd = i % 2 == 1
        return p.top if odd == first_top else p.bottom

    # Largest k with d_first + (k-1)*h + |right - extremum(k)| <= budget,
    # solved per parity class (variation steps by 2h inside a class).
    best_k = 0
    for parity in (0, 1):
        tail = abs(p.right_value - (p.top if (parity == 1) == first_top else p.bottom))
        bound = _floor((budget - d_first - tail) / h) + 1
        k = bound if bound % 2 == parity else bound - 1
        if k >= 1 and k > best_k:
            best_k = k
    k = best_k
    if k < 18:  # expansion >= 20 guarantees this; a failure is a bug here
        raise AssertionError(f"sweep count {k} impossibly small")
    last = extremum(k)
    remainder = budget - (d_first + (k - 1) * h + abs(p.right_value - last))

    # The first extremum is the band edge the left value is not at, the
    # extrema alternate, and the overshoot lies strictly inside the band,
    # so the one possible repeat is a right value equal to the last extremum.
    values = [p.left_value] + [extremum(i) for i in range(1, k + 1)]
    if remainder > 0:
        if last == p.top:  # final leg descends: dip below right_value
            values.append(p.right_value - remainder / 2)
        else:
            values.append(p.right_value + remainder / 2)
        values.append(p.right_value)
    elif p.right_value != last:
        values.append(p.right_value)
    return values, k


def box_values(p: BoxParams) -> list[Q]:
    """The sequence of values at the turning points, edges included.

    Consecutive entries always differ, and the absolute increments sum to
    exactly expansion * height.  After the first leg come k - 1 full
    sweeps between top and bottom, each of variation height; only the
    first leg and the one or two legs after the last extremum are partial.
    """
    return _sweeps(p)[0]


def box_vertices(window: Interval, p: BoxParams) -> list[tuple[Q, Q]]:
    """Graph vertices of the box map on the window, exact abscissae.

    Every full sweep moves x by the same step, width / expansion (a
    height's worth of variation at slope expansion * height / width).
    So extremum i (1 <= i <= k) sits at x1 + (i - 1) * step, x1 the end
    of the first leg.  With D the least common multiple of the
    denominators of x1 and step, x1 = X1 / D and step = S / D, and the
    extremum is the integer fraction (X1 + (i - 1) * S) / D brought to
    lowest terms: exactly the sum the per-leg walk would form.  Only the
    first leg and the partial legs after the last extremum divide by
    the slope, and they must end exactly on the window's right edge.
    """
    return _layout(window, p)[0]


def _layout(window: Interval, p: BoxParams) -> tuple[list[tuple[Q, Q]], Q]:
    """``box_vertices(window, p)`` and the slope expansion * height / width."""
    if window.is_degenerate():
        raise ParameterError("box window must be nondegenerate")
    values, k = _sweeps(p)
    slope = p.expansion * p.height / window.width
    step = window.width / p.expansion
    x = window.lo + abs(values[1] - values[0]) / slope
    # extremum i at x1 + (i - 1) * step, both written over one denominator d
    dx, ds = x.denominator, step.denominator
    d = dx // gcd(dx, ds) * ds
    first, s = x.numerator * (d // dx), step.numerator * (d // ds)
    verts = [(window.lo, values[0]), (x, values[1])]
    verts += [(Q(n, d), v) for n, v in zip(range(first + s, first + k * s, s), values[2 : k + 1])]
    x = verts[-1][0]
    for a, b in zip(values[k:], values[k + 1 :]):
        x = x + abs(b - a) / slope
        verts.append((x, b))
    assert verts[-1][0] == window.hi  # increments sum to the exact budget
    return verts, slope


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

    A leg that starts at extremum i (1 <= i <= k) starts at
    x1 + (i - 1) * step, and slope * step is the band height h.  So an up
    leg from the bottom has intercept (bottom - slope * x1) - (i - 1) * h
    and a down leg from the top (top + slope * x1) + (i - 1) * h: two
    progressions of integers over one denominator per box, each term
    brought to lowest terms once.  The first leg, the leg from the
    remainder overshoot and a merge across a junction take
    y0 - slope * x0 as it stands.
    """
    chain = BoxChain(tuple(boxes))
    _check_size(chain.boxes)
    new, put = object.__new__, object.__setattr__

    def add_leg(x0, y0, x1, c0, slope):
        lows.append(x0)
        values.append(y0)
        domain = new(Interval)
        put(domain, "lo", x0)
        put(domain, "hi", x1)
        piece = new(Piece)
        put(piece, "domain", domain)
        put(piece, "c0", c0)
        put(piece, "c1", slope)
        put(piece, "c2", ZERO)
        pieces.append(piece)

    pieces: list[Piece] = []
    lows: list[Q] = []
    values: list[Q] = []
    for w, p in chain.boxes:
        verts, up = _layout(w, p)
        down = -up
        (x0, y0), (x1, y1) = verts[0], verts[1]
        rising = y0 < y1
        slope = up if rising else down
        if pieces and pieces[-1].c1 == slope:
            # collinear across the junction: widen the last piece
            c0 = pieces.pop().c0
            x0, y0 = lows.pop(), values.pop()
        else:
            c0 = y0 - slope * x0
        add_leg(x0, y0, x1, c0, slope)

        # legs 2.. start at the extrema, except a last leg from the
        # remainder overshoot, which lies strictly inside the band
        n = len(verts) - 1
        if p.bottom != verts[n - 1][1] != p.top:
            n -= 1
        from_bottom = p.bottom - up * x1
        from_top = p.top + up * x1
        h = p.height
        db, dt, dh = from_bottom.denominator, from_top.denominator, h.denominator
        d = db // gcd(db, dt) * dt
        d = d // gcd(d, dh) * dh
        # numerators over d of the next up leg's and down leg's intercepts
        ups, downs = from_bottom.numerator * (d // db), from_top.numerator * (d // dt)
        hn = h.numerator * (d // dh)
        for i in range(1, n):
            x0, y0 = verts[i]
            rising = not rising
            if rising:
                slope, c0 = up, Q(ups, d)
            else:
                slope, c0 = down, Q(downs, d)
            ups -= hn
            downs += hn
            add_leg(x0, y0, verts[i + 1][0], c0, slope)
        if n < len(verts) - 1:
            x0, y0 = verts[n]
            slope = down if rising else up
            add_leg(x0, y0, verts[n + 1][0], y0 - slope * x0, slope)
    values.append(chain.boxes[-1][1].right_value)
    return _frozen(
        CurveMap,
        pieces=tuple(pieces),
        _lows=tuple(lows),
        _values=tuple(values),
        _chain=chain,
    )
