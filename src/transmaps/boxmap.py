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
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

from .errors import ParameterError
from .exact import (
    FULL,
    CurveMap,
    Interval,
    Piece,
    PLMap,
    _frozen,
    _piece_range,
    _walk_gap,
    pl_from_vertices,
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
    height's worth of variation at slope expansion * height / width), so
    the extrema after the first sit one addition apart.  Only the first
    leg and the partial legs after the last extremum divide by the slope.
    """
    return _layout(window, p)[0]


def _layout(window: Interval, p: BoxParams) -> tuple[list[tuple[Q, Q]], int, Q]:
    """``box_vertices(window, p)``, its full extremum count k and the
    sweep step width / expansion.  Vertices 1..k are the extrema, the
    i-th at x_1 + (i - 1) * step."""
    if window.is_degenerate():
        raise ParameterError("box window must be nondegenerate")
    values, k = _sweeps(p)
    slope = p.expansion * p.height / window.width
    step = window.width / p.expansion
    x = window.lo + abs(values[1] - values[0]) / slope
    verts = [(window.lo, values[0]), (x, values[1])]
    for v in values[2 : k + 1]:
        x = x + step
        verts.append((x, v))
    for a, b in zip(values[k:], values[k + 1 :]):
        x = x + abs(b - a) / slope
        verts.append((x, b))
    assert verts[-1][0] == window.hi  # increments sum to the exact budget
    return verts, k, step


def build_box_map(p: BoxParams) -> PLMap:
    """The box map on the full window as a standalone piecewise-linear
    self-map.

    The package's map type is a self-map of [0, 1], so a box on a proper
    subwindow exists only as a vertex list (``box_vertices``) and
    participates in concatenations.
    """
    return pl_from_vertices(box_vertices(FULL, p))


@dataclass(frozen=True)
class BoxChain:
    """Construction record for a concatenation of box maps.

    Stored as map provenance.  A record attached from outside, by a
    caller's ``PLMap(pieces, provenance=chain)`` or a document read back,
    is not trusted: the certificate code derives each box's vertices from
    its parameters and checks the map passes through them before using
    any of it.  Only the map ``concat_box_maps`` builds is its chain by
    construction; it carries a private link to it (``_ChainLink``) that
    the exact queries and the certificate read without that check.
    ``_vertices`` is each box's ``box_vertices`` list, computed once from
    the frozen items and shared by the map build and that check.
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

    @cached_property
    def _layouts(self) -> tuple[tuple[list[tuple[Q, Q]], int, Q], ...]:
        return tuple(_layout(w, p) for w, p in self.boxes)

    @cached_property
    def _vertices(self) -> tuple[list[tuple[Q, Q]], ...]:
        return tuple(verts for verts, _, _ in self._layouts)


def _ceil(x: Q) -> int:
    return -int(-x.numerator // x.denominator)


class _ChainLink:
    """The box chain of a map built by ``concat_box_maps``, laid out for
    the exact queries; held as the map's ``_chain``.

    Per box: its vertices, its full extremum count k, its sweep step and
    its slope.  Vertices 1..k are the extrema, alternating between top
    and bottom, the i-th at x_1 + (i - 1) * step; only vertex 0 and the
    one or two tail vertices after vertex k lie off that lattice.
    """

    __slots__ = ("chain", "los", "his", "boxes")

    def __init__(self, chain: BoxChain, slopes: list[Q]):
        self.chain = chain
        self.los = tuple(w.lo for w, _ in chain.boxes)
        self.his = tuple(w.hi for w, _ in chain.boxes)
        self.boxes = tuple(
            (verts, k, step, up)
            for (verts, k, step), up in zip(chain._layouts, slopes)
        )

    def range_on(self, g: CurveMap, j: Interval) -> Interval:
        """``range_on(g, J)`` for g this chain's map.  Every box whose
        window J holds attains its whole band (k >= 18 extrema reach top
        and bottom); the at most two partly covered windows read g's
        pieces on their part of J, and so does a J without a whole box."""
        a = bisect.bisect_left(self.los, j.lo)
        z = bisect.bisect_right(self.his, j.hi)
        if a >= z:
            return _piece_range(g, j)
        whole = self.chain.boxes[a:z]
        lows = [p.bottom for _, p in whole]
        highs = [p.top for _, p in whole]
        for x0, x1 in ((j.lo, self.los[a]), (self.his[z - 1], j.hi)):
            if x0 < x1:
                r = _piece_range(g, _frozen(Interval, lo=x0, hi=x1))
                lows.append(r.lo)
                highs.append(r.hi)
        return _frozen(Interval, lo=min(lows), hi=max(highs))

    def distance(self, f: CurveMap, g: CurveMap) -> Q:
        """``sup_distance(f, g)`` for g this chain's map and f any map.

        f - g is continuous, so after |f(0) - g(0)| only each stretch's
        right end and the vertices of g inside it count, a stretch being
        the part of one box's window under one piece of f.  Under a
        curved piece f walks g's pieces.  Under an affine piece f(x_i) -
        g(x_i) is affine in the extremum index i within each parity class,
        so of the extrema in a stretch only the first two and the last two
        count; the off-lattice vertices are read one by one.
        """
        his, boxes = self.his, self.boxes
        best = f._values[0] - g._values[0]
        if best < 0:
            best = -best
        b = 0
        for fi, pf in enumerate(f.pieces):
            lo, hi = pf.domain.lo, pf.domain.hi
            if pf.c2:
                gap = _walk_gap(f, g, fi, fi + 1, g._piece_index(lo))
                if gap > best:
                    best = gap
                continue
            while his[b] <= lo:
                b += 1
            while True:
                whi = his[b]
                gap = _stretch_gap(pf.c0, pf.c1, *boxes[b], lo, hi if hi < whi else whi)
                if gap > best:
                    best = gap
                if whi >= hi:
                    break
                b += 1
        return best


def _stretch_gap(c0: Q, c1: Q, verts, k: int, step: Q, up: Q, lo: Q, e: Q) -> Q:
    """Largest |f - g| over g's vertices in [lo, e] and at e, where g is
    the box with these vertices, extremum count, step and slope, and f is
    c0 + c1 * x on [lo, e], a part of the window from lo or earlier."""
    x1, xk = verts[1][0], verts[k][0]
    n = len(verts)
    # the first and the last extremum index inside [lo, e]
    if lo <= x1:
        first = 1
    elif lo > xk:
        first = k + 1
    else:
        first = 1 + _ceil((lo - x1) / step)
    if e >= xk:
        last = k
    elif e < x1:
        last = 0
    else:
        last = 1 + _floor((e - x1) / step)
    if last - first >= 3:
        idx = [first, first + 1, last - 1, last]
    else:
        idx = list(range(first, last + 1))
    idx += [i for i in range(k + 1, n) if lo <= verts[i][0] <= e]
    best = ZERO
    for i in idx:
        x, y = verts[i]
        d = c0 + c1 * x - y
        if d < 0:
            d = -d
        if d > best:
            best = d
    if e < verts[-1][0]:
        # g(e) on the leg from the last vertex at or before e
        j = last if e >= x1 else 0
        while verts[j + 1][0] <= e:
            j += 1
        xj, yj = verts[j]
        ge = yj + (e - xj) * up if verts[j + 1][1] > yj else yj - (e - xj) * up
        d = c0 + c1 * e - ge
        if d < 0:
            d = -d
        if d > best:
            best = d
    return best


def concat_box_maps(boxes: list[tuple[Interval, BoxParams]]) -> PLMap:
    """Concatenate box maps on a tiling of [0, 1] into one map.

    Continuity at the junctions is exact because adjacent boxes share the
    junction value by the chain validity check.  The chain is attached as
    provenance, and as the trusted link ``_chain`` that ``range_on``,
    ``sup_distance`` and ``transitivity.box_chain_certify`` read.

    The pieces are built straight from the box vertices, without the
    checks of ``pl_from_vertices``, which gives the same map.  That is
    safe: the windows tile [0, 1] and every box's parameters were
    validated, so each leg steps right by a positive amount, its ends lie
    in the box's band inside [0, 1], and its slope is exactly
    +-expansion * height / width.  Inside a box the legs alternate up and
    down, so only a junction can join two collinear legs, and only there
    are slopes compared.
    """
    chain = BoxChain(tuple(boxes))
    pieces: list[Piece] = []
    lows: list[Q] = []
    values: list[Q] = []
    slopes: list[Q] = []
    for (window, p), verts in zip(chain.boxes, chain._vertices):
        up = p.expansion * p.height / window.width
        down = -up
        slopes.append(up)
        for k in range(1, len(verts)):
            x0, y0 = verts[k - 1]
            x1, y1 = verts[k]
            slope = up if y0 < y1 else down
            if k == 1 and pieces and pieces[-1].c1 == slope:
                # collinear across the junction: widen the last piece
                last = pieces.pop()
                x0, c0 = last.domain.lo, last.c0
            else:
                c0 = y0 - slope * x0
                lows.append(x0)
                values.append(y0)
            pieces.append(
                _frozen(
                    Piece,
                    domain=_frozen(Interval, lo=x0, hi=x1),
                    c0=c0,
                    c1=slope,
                    c2=ZERO,
                )
            )
    values.append(chain.boxes[-1][1].right_value)
    return _frozen(
        PLMap,
        pieces=tuple(pieces),
        provenance=chain,
        _lows=tuple(lows),
        _values=tuple(values),
        _chain=_ChainLink(chain, slopes),
    )
