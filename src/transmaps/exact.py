"""Exact piecewise-polynomial self-maps of the unit interval.

The objects here are closed under every operation the package performs:

* ``Interval`` / ``IntervalSet`` -- closed subintervals of [0, 1] and
  finite unions of them, kept sorted, disjoint and maximally merged.
* ``Piece`` -- one polynomial piece of degree <= 2 with an explicit
  domain; its values on the domain must stay inside [0, 1].
* ``CurveMap`` -- a continuous self-map of [0, 1] given by pieces that
  tile the interval, the one map class; ``is_pl`` tests affinity.

Degree is capped at two because every curved piece the package builds
is a parabola (the square map, the fixed-point perturbation's tangent
parabola, the random curved maps of ``corpus``); nothing needs more.

All min/max/sup computations are exact: extrema of a quadratic on a
rational interval occur at rational points (endpoints or the vertex), so
every predicate is decided by rational comparison, never by sampling.
``range_on`` computes a map's range over one interval; it bisects on the
piece lows, so a query reads only the pieces the interval meets, and
``image_set`` is one ``range_on`` per component.  ``range_on`` reads
its window through ``_window_range``, the one-window rule for an exact
range.  A caller that needs the range on every window of a partition of
[0, 1] (the grid stages of ``transitivity``, ``homotopy.box_data`` and
``FamilyBoxBounds.all_bands``) calls ``_partition_ranges`` instead, with
the window edges as integer numerators over the one denominator the
partition already has: 2^level for a dyadic grid, the step's denominator
for ``homotopy.partition``.  It walks the pieces once, places each
breakpoint among the edges by integer cross-multiplication, writes f at
an edge inside a piece as one rational, and compares values only in the
windows that hold a breakpoint or a parabola vertex; see its docstring.

Construction validates once.  The public constructors (``Interval``,
``Piece``, ``CurveMap``) check everything, because their input
may come from outside: documents, the CLI, hand-built pieces.
``pl_from_vertices`` is the one vertex-level path: it checks the vertex
list once, at the vertices, with the same checks and messages, and then
assembles pieces and map without validating them a second time; it
attaches no construction record.

Every map keeps ``_values``, its values at its breakpoints, in the order
of ``breakpoints``.  Each construction path fills it once, from numbers
it has anyway: ``CurveMap`` from its continuity check, ``pl_from_vertices``
from the vertex list, ``boxmap.concat_box_maps`` from the box vertices.
The routines that walk pieces read piece-end values from it instead of
evaluating the piece there: ``range_on`` and ``_partition_ranges`` (only
window ends inside a piece and parabola vertices are evaluated,
``_partition_ranges`` from integers),
``sup_distance`` (a refinement point takes its value from the map whose
breakpoint it is), ``total_variation`` and ``svg.render_svg`` (a plot
starts at f(0) and appends each piece's right end, after a parabola's
interior samples).  Like ``_lows`` it is not a field, so equality and
hashing ignore it.

A map's ``provenance`` is its construction record, which no constructor
accepts; only ``spaces.nowhere_dense_perturbation`` sets it, to its
``PerturbationRecord``.  A map built by ``boxmap.concat_box_maps`` holds
its ``BoxChain``, box parameters only, as its trusted ``_chain``, which
no other construction sets.  ``sup_distance`` against a map without one
reads from the table only the first two and the last four breakpoints
of each box's zigzag under an affine piece; between two such maps whose
chains have the same windows and expansions it reads only each box's
head and tail; and ``transitivity.box_chain_certify`` decides from the
chain alone.  Everything else reads the pieces.  ``copy.deepcopy``
keeps both records; ``dataclasses.replace`` drops them.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import DomainError
from .rational import ONE, Q, ZERO, as_scalar

__all__ = [
    "Interval",
    "IntervalSet",
    "Piece",
    "CurveMap",
    "FULL",
    "evaluate",
    "range_on",
    "image_set",
    "sup_distance",
    "total_variation",
    "pl_from_vertices",
    "affine_transform",
]

# no construction builds a map of more pieces (about a million); each
# builder checks its count before it builds a vertex
_MAX_PIECES = 1 << 20


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with 0 <= lo <= hi <= 1.

    Degenerate (lo == hi) intervals are allowed; they arise naturally as
    images of constant pieces and as refutation-witness fragments.
    """

    lo: Q
    hi: Q

    def __post_init__(self):
        lo, hi = as_scalar(self.lo), as_scalar(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not (ZERO <= lo <= hi <= ONE):
            raise DomainError(f"not a subinterval of [0,1]: [{lo}, {hi}]")

    @property
    def width(self) -> Q:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other: "Interval") -> "Interval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


FULL = Interval(ZERO, ONE)


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of closed intervals, canonical form.

    Components are sorted, pairwise disjoint and non-adjacent: touching or
    overlapping inputs are merged on construction, so equality of interval
    sets is equality of component tuples.
    """

    components: tuple[Interval, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        for a, b in zip(comps, comps[1:]):
            if not a.hi < b.lo:
                raise DomainError("components not sorted/disjoint; use from_intervals")
        object.__setattr__(self, "components", comps)

    @staticmethod
    def from_intervals(intervals: Iterable[Interval]) -> "IntervalSet":
        items = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
        merged: list[Interval] = []
        for iv in items:
            if merged and iv.lo <= merged[-1].hi:
                if iv.hi > merged[-1].hi:
                    merged[-1] = Interval(merged[-1].lo, iv.hi)
            else:
                merged.append(iv)
        return IntervalSet(tuple(merged))

    def is_empty(self) -> bool:
        return not self.components

    def intersects_interval(self, iv: Interval) -> bool:
        return any(c.intersect(iv) is not None for c in self.components)

    def contains_set(self, other: "IntervalSet") -> bool:
        return all(
            any(c.contains_interval(o) for c in self.components)
            for o in other.components
        )

    def __str__(self) -> str:
        return " u ".join(str(c) for c in self.components) or "(empty)"


FULL_SET = IntervalSet((FULL,))


@dataclass(frozen=True)
class Piece:
    """One polynomial piece x -> c0 + c1*x + c2*x^2 on a nondegenerate domain."""

    domain: Interval
    c0: Q
    c1: Q
    c2: Q

    def __post_init__(self):
        object.__setattr__(self, "c0", as_scalar(self.c0))
        object.__setattr__(self, "c1", as_scalar(self.c1))
        object.__setattr__(self, "c2", as_scalar(self.c2))
        if self.domain.is_degenerate():
            raise DomainError("zero-length piece domain")
        lo, hi = self.range_over(self.domain.lo, self.domain.hi)
        if lo < ZERO or hi > ONE:
            raise DomainError(
                f"piece values leave [0,1] on {self.domain}: range [{lo}, {hi}]"
            )

    def value_at(self, x) -> Q:
        if self.c2:
            return self.c0 + x * (self.c1 + x * self.c2)
        return self.c0 + x * self.c1

    @property
    def is_affine(self) -> bool:
        return not self.c2

    def vertex(self) -> "Q | None":
        """Abscissa of the parabola vertex, if quadratic and interior."""
        if not self.c2:
            return None
        v = -self.c1 / (2 * self.c2)
        if self.domain.lo < v < self.domain.hi:
            return v
        return None

    def range_over(self, lo, hi) -> tuple[Q, Q]:
        """(min, max) of the piece over [lo, hi] subset of its domain."""
        a = self.value_at(lo)
        b = self.value_at(hi)
        vlo, vhi = (a, b) if a <= b else (b, a)
        if self.c2 != 0:
            v = -self.c1 / (2 * self.c2)
            if lo < v < hi:
                fv = self.value_at(v)
                if fv < vlo:
                    vlo = fv
                elif fv > vhi:
                    vhi = fv
        return vlo, vhi


def _merge_pieces(pieces: Sequence[Piece]) -> tuple[Piece, ...]:
    """Fuse adjacent pieces with identical coefficients.

    For affine pieces this is exactly the collinearity merge; identical
    quadratics fuse for the same reason.  Needed so the piece tuple is
    canonical and structural equality of maps is well defined.
    """
    out: list[Piece] = []
    for p in pieces:
        if out:
            q = out[-1]
            if (q.c0, q.c1, q.c2) == (p.c0, p.c1, p.c2) and q.domain.hi == p.domain.lo:
                out[-1] = Piece(Interval(q.domain.lo, p.domain.hi), p.c0, p.c1, p.c2)
                continue
        out.append(p)
    return tuple(out)


@dataclass(frozen=True)
class CurveMap:
    """Continuous piecewise-polynomial self-map of [0, 1].

    Pieces tile [0, 1] exactly and agree at shared endpoints.  The piece
    tuple is canonical (adjacent identical pieces merged), so two maps are
    equal, with equal hashes, exactly when their pieces are.  Equality
    and hashing ignore ``provenance`` and ``_chain``, which only the
    builders named in the module docstring set.
    ``_values`` holds the map's value at each of its ``breakpoints``.
    """

    pieces: tuple[Piece, ...]
    provenance: object = field(default=None, init=False, compare=False, repr=False, hash=False)
    # the trusted box chain; only boxmap.concat_box_maps sets it
    _chain = None

    def __post_init__(self):
        pieces = _merge_pieces(tuple(self.pieces))
        if not pieces:
            raise DomainError("a map needs at least one piece")
        if pieces[0].domain.lo != ZERO or pieces[-1].domain.hi != ONE:
            raise DomainError("pieces do not tile [0,1]")
        values = [pieces[0].value_at(ZERO)]
        for a, b in zip(pieces, pieces[1:]):
            if a.domain.hi != b.domain.lo:
                raise DomainError("gap or overlap between piece domains")
            ya, yb = a.value_at(a.domain.hi), b.value_at(b.domain.lo)
            if ya != yb:
                raise DomainError(f"discontinuity at x={a.domain.hi}: {ya} != {yb}")
            values.append(ya)
        values.append(pieces[-1].value_at(ONE))
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "_lows", tuple(p.domain.lo for p in pieces))
        object.__setattr__(self, "_values", tuple(values))

    # -- point access -----------------------------------------------------

    def _piece_index(self, x) -> int:
        """Index of the last piece whose domain starts at or before x."""
        return max(bisect.bisect_right(self._lows, x) - 1, 0)

    def piece_at(self, x) -> Piece:
        if not (ZERO <= x <= ONE):
            raise DomainError(f"point {x} outside [0,1]")
        return self.pieces[self._piece_index(x)]

    def value_at(self, x) -> Q:
        return self.piece_at(x).value_at(x)

    @property
    def breakpoints(self) -> tuple[Q, ...]:
        return self._lows + (ONE,)

    @property
    def is_pl(self) -> bool:
        return all(p.is_affine for p in self.pieces)


def _frozen(cls, **fields):
    """Instance of the frozen dataclass ``cls`` with ``fields`` set as given,
    skipping ``__post_init__``; only for values the caller has already
    checked or that hold by construction.

    Fields go through ``object.__setattr__``, as in ``__init__``: writing
    to ``obj.__dict__`` would give every instance a dict of its own and
    make a built map about half again as large.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def pl_from_vertices(points: Sequence[tuple]) -> CurveMap:
    """PL map through (x_i, y_i) vertices; x strictly increasing, 0 to 1.

    The vertex list is validated once, segment by segment, with the checks
    and messages of ``Interval``, ``Piece`` and ``CurveMap``: on an affine
    segment [min(y0, y1), max(y0, y1)] is the exact range, and a segment
    drawn between two vertices meets its neighbours there, so continuity
    holds by construction.  A vertex with equal slopes on both sides is
    dropped, which is the collinearity merge ``_merge_pieces`` performs.
    """
    pts = [(as_scalar(x), as_scalar(y)) for x, y in points]
    if len(pts) < 2:
        raise DomainError("need at least two vertices")
    runs: list[list] = []  # [x0, x1, c0, slope, y0] of each maximal collinear run
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if not x0 < x1:
            raise DomainError("vertex abscissae must strictly increase")
        if not (ZERO <= x0 and x1 <= ONE):
            raise DomainError(f"not a subinterval of [0,1]: [{x0}, {x1}]")
        lo, hi = (y0, y1) if y0 <= y1 else (y1, y0)
        if lo < ZERO or hi > ONE:
            raise DomainError(
                f"piece values leave [0,1] on [{x0}, {x1}]: range [{lo}, {hi}]"
            )
        slope = (y1 - y0) / (x1 - x0)
        if runs and runs[-1][3] == slope:
            runs[-1][1] = x1
        else:
            runs.append([x0, x1, y0 - slope * x0, slope, y0])
    if runs[0][0] != ZERO or runs[-1][1] != ONE:
        raise DomainError("pieces do not tile [0,1]")
    pieces = tuple(
        _frozen(Piece, domain=_frozen(Interval, lo=x0, hi=x1), c0=c0, c1=slope, c2=ZERO)
        for x0, x1, c0, slope, _ in runs
    )
    return _frozen(
        CurveMap,
        pieces=pieces,
        _lows=tuple(run[0] for run in runs),
        _values=tuple(run[4] for run in runs) + (pts[-1][1],),
    )


def evaluate(f: CurveMap, x) -> Q:
    """f(x), exact.  At a breakpoint both neighbouring pieces agree."""
    return f.value_at(as_scalar(x))


def range_on(f: CurveMap, j: Interval) -> Interval:
    """Exact [min f(J), max f(J)] for a subinterval J.

    The image of a closed interval under a continuous map is the closed
    interval between the exact extrema, which occur at endpoints of the
    intersection with a piece or at an interior quadratic vertex.  This
    is the one-window case of ``_window_range``: bisection finds the
    piece holding J.lo, so a query costs O(log pieces + pieces meeting J).
    """
    i = f._piece_index(j.lo)
    ya = f._values[i] if f._lows[i] == j.lo else f.pieces[i].value_at(j.lo)
    return _window_range(f, i, j.lo, ya, j.hi)[0]


def _partition_ranges(
    f: CurveMap, edges: Sequence[int], d: int
) -> tuple[list[Q], list[Interval]]:
    """f at every edge E / d and the exact range of f on every window
    between consecutive edges, for integer numerators
    0 = E_0 < E_1 < ... < E_n = d over one denominator d > 0.

    Every caller has such a denominator: 2^level for a dyadic grid and
    the step's denominator for the windows of ``homotopy.partition``.
    One walk over f's pieces places each breakpoint p / q among the
    edges by integers: p / q < E / d exactly when floor(p * d / q) < E,
    and p / q is the edge E exactly when q divides p * d with quotient E.
    An edge that is a breakpoint takes its value from ``_values``.  An
    edge E inside an affine piece a / b + (c / e) x takes the one rational
    (a * e * d + c * b * E) / (b * e * d), and inside a parabola its
    quadratic counterpart over b * e * h * d^2, c2 = g / h; each is one
    normalisation where ``Piece.value_at(E / d)`` makes several.

    A window inside one affine piece has the range (f(a), f(b)) when the
    slope's numerator c is at least 0 and (f(b), f(a)) otherwise, since
    an affine piece is monotone: no value is compared.  A window inside
    one parabola compares its two end values once.  Only a window that
    holds a breakpoint or a parabola vertex strictly inside compares
    those table or vertex values with its end values, as
    ``_window_range`` does for one window.  A whole partition costs
    O(pieces + windows), and the integers are built per call: nothing is
    cached on the map.
    """
    pieces, values = f.pieces, f._values
    last = len(pieces) - 1
    ys = [values[0]]
    ranges: list[Interval] = []
    # the open window, from edge len(ranges): the hull of the values read
    # in it so far, and whether a breakpoint lies strictly inside it
    lo = hi = values[0]
    held = False
    for k, p in enumerate(pieces):
        s = len(ranges)
        if k < last:
            x = p.domain.hi
            fl, rem = divmod(x.numerator * d, x.denominator)
            # the edges strictly inside piece k are edges[s + 1:stop]
            if rem:
                stop, ends = bisect.bisect_right(edges, fl, s + 1), False
            else:
                stop = bisect.bisect_left(edges, fl, s + 1)
                ends = edges[stop] == fl
        else:
            stop, ends = len(edges) - 1, True
        a, b = p.c0.numerator, p.c0.denominator
        c, e = p.c1.numerator, p.c1.denominator
        if p.c2:
            g, h = p.c2.numerator, p.c2.denominator
            den = b * e * h * d * d
            n0, n1, n2 = a * e * h * d * d, c * b * h * d, g * b * e
            ys += [Q(n0 + E * (n1 + E * n2), den) for E in edges[s + 1 : stop]]
        else:
            den = b * e * d
            n0, n1 = a * e * d, c * b
            ys += [Q(n0 + n1 * E, den) for E in edges[s + 1 : stop]]
        if ends:
            ys.append(values[k + 1])
        top = len(ys) - 1  # the last edge read; windows s .. top - 1 close
        first = s
        if held and top > s:
            # the open window holds a breakpoint and closes inside piece k
            lo, hi = _hull(lo, hi, ys[s + 1])
            ranges.append(_frozen(Interval, lo=lo, hi=hi))
            first = s + 1
        seg = ys[first : top + 1]
        if p.c2:
            ranges += [
                _frozen(Interval, lo=y0, hi=y1) if y0 <= y1 else _frozen(Interval, lo=y1, hi=y0)
                for y0, y1 in zip(seg, seg[1:])
            ]
        elif c >= 0:
            ranges += [_frozen(Interval, lo=y0, hi=y1) for y0, y1 in zip(seg, seg[1:])]
        else:
            ranges += [_frozen(Interval, lo=y1, hi=y0) for y0, y1 in zip(seg, seg[1:])]
        if ends:
            lo = hi = values[k + 1]
            held = False
        else:
            # piece k ends strictly inside the open window
            y = values[k + 1]
            if held and top == s:
                lo, hi = _hull(lo, hi, y)
            else:
                # the open window starts at edge top, in piece k
                v = ys[top]
                if p.c2:
                    lo, hi = (v, y) if v <= y else (y, v)
                else:
                    lo, hi = (v, y) if c >= 0 else (y, v)
            held = True
        vx = p.vertex()
        if vx is not None:
            fl, rem = divmod(vx.numerator * d, vx.denominator)
            w = bisect.bisect_right(edges, fl, s, top + 1) - 1
            if rem or edges[w] != fl:
                # the vertex lies strictly inside window w
                y = p.value_at(vx)
                if w < len(ranges):
                    r = ranges[w]
                    wlo, whi = _hull(r.lo, r.hi, y)
                    ranges[w] = _frozen(Interval, lo=wlo, hi=whi)
                else:
                    lo, hi = _hull(lo, hi, y)
    return ys, ranges


def _hull(lo: Q, hi: Q, y: Q) -> tuple[Q, Q]:
    """The ends of the closed hull of [lo, hi] and y, for lo <= hi."""
    if y < lo:
        return y, hi
    if y > hi:
        return lo, y
    return lo, hi


def _window_range(f: CurveMap, i: int, a, ya: Q, b) -> tuple[Interval, Q, int]:
    """The exact range of f on [a, b], f(b), and the piece a window
    starting at b starts in; a <= b, a lies in piece i and ya = f(a).

    Only the pieces that meet [a, b] are read.  The range comes from the
    two end values, the table values of the breakpoints strictly inside
    and any parabola vertex strictly inside; f(b) is read from the table
    when b ends a piece and evaluated otherwise.
    """
    pieces, lows, values = f.pieces, f._lows, f._values
    m = i  # the piece holding b from the left
    last = len(lows) - 1
    while m < last and lows[m + 1] < b:
        m += 1
    if pieces[m].domain.hi == b:
        # b ends piece m, so a window starting at b starts in piece m + 1
        yb, nxt = values[m + 1], m + 1
    else:
        yb, nxt = pieces[m].value_at(b), m
    lo, hi = (ya, yb) if ya <= yb else (yb, ya)
    for k in range(i, m + 1):
        if k > i:
            y = values[k]
            if y < lo:
                lo = y
            elif y > hi:
                hi = y
        v = pieces[k].vertex()
        if v is not None and a < v < b:
            y = pieces[k].value_at(v)
            if y < lo:
                lo = y
            elif y > hi:
                hi = y
    # a valid map's values lie in [0, 1], and lo <= hi by construction
    return _frozen(Interval, lo=lo, hi=hi), yb, nxt


def image_set(f: CurveMap, u: IntervalSet) -> IntervalSet:
    """Exact image f(U) of a finite union of closed intervals."""
    return IntervalSet.from_intervals(range_on(f, c) for c in u.components)


def sup_distance(f: CurveMap, g: CurveMap) -> Q:
    """Exact sup-metric distance max_x |f(x) - g(x)|.

    On the common refinement the difference is a single quadratic, whose
    maximum absolute value occurs at a refinement endpoint or its vertex.
    When exactly one of the maps was built by ``boxmap.concat_box_maps``,
    its box chain answers without walking its legs one by one.  When both
    were, and their chains have the same windows and, box by box, the
    same expansion, the two zigzags sweep with equal steps, and only the
    head and the tail of each box are read (``BoxChain._paired_distance``).
    Any other pair walks the refinement.
    """
    if f is g:
        return ZERO
    fc, gc = f._chain, g._chain
    if fc is None:
        if gc is not None:
            return gc._distance(f, g)
    elif gc is None:
        return fc._distance(g, f)
    elif fc._steps_match(gc):
        return fc._paired_distance(f, g)
    # f - g is continuous, so a segment's start value is the previous
    # segment's end value: start from |f(0) - g(0)| and read only right
    # ends and interior vertices
    best = f._values[0] - g._values[0]
    if best < 0:
        best = -best
    gap = _walk_gap(f, g, 0, len(f.pieces), 0)
    return gap if gap > best else best


def _walk_gap(f: CurveMap, g: CurveMap, fi: int, stop: int, gi: int) -> Q:
    """Largest |f - g| at the right ends and the interior vertices of the
    common refinement over f's pieces fi .. stop - 1; g's piece gi must
    hold the start of piece fi.  A right end is a breakpoint of f, of g
    or of both, and each map's value there is read from its own table
    when the end is its breakpoint."""
    fp, gp, fv, gv = f.pieces, g.pieces, f._values, g._values
    best = ZERO
    x = fp[fi].domain.lo
    while fi < stop:
        pf, pg = fp[fi], gp[gi]
        fh, gh = pf.domain.hi, pg.domain.hi
        if fh < gh:
            x1, vb = fh, fv[fi + 1] - pg.value_at(fh)
            fi += 1
        elif gh < fh:
            x1, vb = gh, pf.value_at(gh) - gv[gi + 1]
            gi += 1
        else:
            x1, vb = fh, fv[fi + 1] - gv[gi + 1]
            fi += 1
            gi += 1
        if (pf.c2 or pg.c2) and pf.c2 != pg.c2:
            # the vertex of the difference, when inside the segment
            d1 = pf.c1 - pg.c1
            d2 = pf.c2 - pg.c2
            v = -d1 / (2 * d2)
            if x < v < x1:
                vv = pf.c0 - pg.c0 + v * (d1 + v * d2)
                if vv < 0:
                    vv = -vv
                if vv > best:
                    best = vv
        if vb < 0:
            vb = -vb
        if vb > best:
            best = vb
        x = x1
    return best


def total_variation(f: CurveMap) -> Q:
    """Exact total variation: per piece, split at an interior vertex."""
    tv = ZERO
    values = f._values
    for i, p in enumerate(f.pieces):
        a, b = values[i], values[i + 1]
        v = p.vertex()
        if v is None:
            tv += b - a if b >= a else a - b
        else:
            fv = p.value_at(v)
            tv += (fv - a if fv >= a else a - fv) + (b - fv if b >= fv else fv - b)
    return tv


def affine_transform(f: CurveMap, scale, shift) -> CurveMap:
    """The map x -> scale * f(x) + shift, when its values stay in [0,1]."""
    s, t = as_scalar(scale), as_scalar(shift)
    return CurveMap(
        tuple(Piece(p.domain, s * p.c0 + t, s * p.c1, s * p.c2) for p in f.pieces)
    )
