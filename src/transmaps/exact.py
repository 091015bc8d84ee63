"""Exact piecewise-polynomial self-maps of the unit interval.

The objects here are closed under every operation the package performs:

* ``Interval`` / ``IntervalSet`` -- closed subintervals of [0, 1] and
  finite unions of them, kept sorted, disjoint and maximally merged.
* ``Piece`` -- one polynomial piece of degree <= 2 with an explicit
  domain; its values on the domain must stay inside [0, 1].
* ``CurveMap`` -- a continuous self-map of [0, 1] given by pieces that
  tile the interval.  ``PLMap`` restricts to degree <= 1.

Degree is capped at two because composition is only ever taken of
piecewise-linear maps; a quadratic piece composed with a linear one stays
quadratic, and nothing in the package needs more.

All min/max/sup computations are exact: extrema of a quadratic on a
rational interval occur at rational points (endpoints or the vertex), so
every predicate is decided by rational comparison, never by sampling.
``range_on`` is the one routine that computes a map's range over an
interval; it bisects on the piece lows, so a query reads only the pieces
the interval meets, and ``image_set`` is one ``range_on`` per component.

Construction validates once.  The public constructors (``Interval``,
``Piece``, ``CurveMap``, ``PLMap``) check everything, because their input
may come from outside: documents, the CLI, hand-built pieces.
``pl_from_vertices`` is the one vertex-level path: it checks the vertex
list once, at the vertices, with the same checks and messages, and then
assembles pieces and map without validating them a second time.
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
    "PLMap",
    "FULL",
    "evaluate",
    "range_on",
    "image_set",
    "sup_distance",
    "compose_pl",
    "modality",
    "total_variation",
    "pl_from_vertices",
    "affine_transform",
]


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

    @staticmethod
    def single(lo, hi) -> "IntervalSet":
        return IntervalSet((Interval(as_scalar(lo), as_scalar(hi)),))

    def is_empty(self) -> bool:
        return not self.components

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.from_intervals(self.components + other.components)

    def intersects_interval(self, iv: Interval) -> bool:
        return any(c.intersect(iv) is not None for c in self.components)

    def contains_point(self, x) -> bool:
        return any(c.contains(x) for c in self.components)

    def contains_set(self, other: "IntervalSet") -> bool:
        return all(
            any(c.contains_interval(o) for c in self.components)
            for o in other.components
        )

    def measure(self) -> Q:
        return sum((c.width for c in self.components), ZERO)

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
        return self.c0 + x * (self.c1 + x * self.c2)

    @property
    def is_affine(self) -> bool:
        return self.c2 == 0

    def vertex(self) -> "Q | None":
        """Abscissa of the parabola vertex, if quadratic and interior."""
        if self.c2 == 0:
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
    quadratics fuse for the same reason.  Needed so lap counts and
    modality are well defined.
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
    tuple is canonical (adjacent identical pieces merged), so structural
    equality is well defined.  ``provenance`` is an optional construction
    record (ignored by equality and hashing) that certificate routines may
    consult after independently re-verifying it.
    """

    pieces: tuple[Piece, ...]
    provenance: object = field(default=None, compare=False, repr=False, hash=False)

    def __post_init__(self):
        pieces = _merge_pieces(tuple(self.pieces))
        if not pieces:
            raise DomainError("a map needs at least one piece")
        if pieces[0].domain.lo != ZERO or pieces[-1].domain.hi != ONE:
            raise DomainError("pieces do not tile [0,1]")
        for a, b in zip(pieces, pieces[1:]):
            if a.domain.hi != b.domain.lo:
                raise DomainError("gap or overlap between piece domains")
            if a.value_at(a.domain.hi) != b.value_at(b.domain.lo):
                raise DomainError(
                    f"discontinuity at x={a.domain.hi}: "
                    f"{a.value_at(a.domain.hi)} != {b.value_at(b.domain.lo)}"
                )
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "_lows", tuple(p.domain.lo for p in pieces))

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


@dataclass(frozen=True)
class PLMap(CurveMap):
    """CurveMap whose pieces are all affine."""

    def __post_init__(self):
        super().__post_init__()
        for p in self.pieces:
            if not p.is_affine:
                raise DomainError("PLMap requires affine pieces")


def _frozen(cls, **fields):
    """Instance of the frozen dataclass ``cls`` with ``fields`` set as given,
    skipping ``__post_init__``; only for values ``pl_from_vertices`` has
    already checked.

    Fields go through ``object.__setattr__``, as in ``__init__``: writing
    to ``obj.__dict__`` would give every instance a dict of its own and
    make a built map about half again as large.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def pl_from_vertices(points: Sequence[tuple], provenance=None) -> PLMap:
    """PL map through (x_i, y_i) vertices; x strictly increasing, 0 to 1.

    ``provenance`` is stored on the map as its construction record.

    The vertex list is validated once, segment by segment, with the checks
    and messages of ``Interval``, ``Piece`` and ``PLMap``: on an affine
    segment [min(y0, y1), max(y0, y1)] is the exact range, and a segment
    drawn between two vertices meets its neighbours there, so continuity
    holds by construction.  A vertex with equal slopes on both sides is
    dropped, which is the collinearity merge ``_merge_pieces`` performs.
    """
    pts = [(as_scalar(x), as_scalar(y)) for x, y in points]
    if len(pts) < 2:
        raise DomainError("need at least two vertices")
    runs: list[list] = []  # [x0, x1, c0, slope] of each maximal collinear run
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
            runs.append([x0, x1, y0 - slope * x0, slope])
    if runs[0][0] != ZERO or runs[-1][1] != ONE:
        raise DomainError("pieces do not tile [0,1]")
    pieces = tuple(
        _frozen(Piece, domain=_frozen(Interval, lo=x0, hi=x1), c0=c0, c1=slope, c2=ZERO)
        for x0, x1, c0, slope in runs
    )
    return _frozen(
        PLMap,
        pieces=pieces,
        provenance=provenance,
        _lows=tuple(run[0] for run in runs),
    )


# -- the seven core operations --------------------------------------------


def evaluate(f: CurveMap, x) -> Q:
    """f(x), exact.  At a breakpoint both neighbouring pieces agree."""
    return f.value_at(as_scalar(x))


def range_on(f: CurveMap, j: Interval) -> Interval:
    """Exact [min f(J), max f(J)] for a subinterval J.

    The image of a closed interval under a continuous map is the closed
    interval between the exact extrema, which occur at endpoints of the
    intersection with a piece or at an interior quadratic vertex.  Only
    the pieces that meet J are read: bisection finds the one holding
    J.lo, so a query costs O(log pieces + pieces meeting J).
    """
    pieces = f.pieces
    lo = hi = None
    for i in range(f._piece_index(j.lo), len(pieces)):
        p = pieces[i]
        if p.domain.lo > j.hi:
            break
        a = max(p.domain.lo, j.lo)
        b = min(p.domain.hi, j.hi)
        if a == b:
            plo = phi = p.value_at(a)
        else:
            plo, phi = p.range_over(a, b)
        if lo is None or plo < lo:
            lo = plo
        if hi is None or phi > hi:
            hi = phi
    return Interval(lo, hi)


def image_set(f: CurveMap, u: IntervalSet) -> IntervalSet:
    """Exact image f(U) of a finite union of closed intervals."""
    return IntervalSet.from_intervals(range_on(f, c) for c in u.components)


def sup_distance(f: CurveMap, g: CurveMap) -> Q:
    """Exact sup-metric distance max_x |f(x) - g(x)|.

    On the common refinement the difference is a single quadratic, whose
    maximum absolute value occurs at a refinement endpoint or its vertex.
    """
    if f is g:
        return ZERO
    fi = gi = 0
    fp, gp = f.pieces, g.pieces
    # f - g is continuous, so a segment's start value is the previous
    # segment's end value: start from |f(0) - g(0)| and read only right
    # ends and interior vertices.
    best = fp[0].c0 - gp[0].c0
    if best < 0:
        best = -best
    x = ZERO
    while True:
        pf, pg = fp[fi], gp[gi]
        fh, gh = pf.domain.hi, pg.domain.hi
        x1 = fh if fh <= gh else gh
        d0 = pf.c0 - pg.c0
        d1 = pf.c1 - pg.c1
        d2 = pf.c2 - pg.c2
        if d2 == 0:
            vb = d0 + x1 * d1
        else:
            vb = d0 + x1 * (d1 + x1 * d2)
            v = -d1 / (2 * d2)
            if x < v < x1:
                vv = d0 + v * (d1 + v * d2)
                if vv < 0:
                    vv = -vv
                if vv > best:
                    best = vv
        if vb < 0:
            vb = -vb
        if vb > best:
            best = vb
        if x1 == ONE:
            break
        x = x1
        if fh == x1:
            fi += 1
        if gh == x1:
            gi += 1
    return best


def compose_pl(f: PLMap, g: PLMap) -> PLMap:
    """Exact composition x -> g(f(x)) of piecewise-linear maps.

    Breakpoints of the result are f's breakpoints together with the
    f-preimages of g's breakpoints, all rational.
    """
    if not (f.is_pl and g.is_pl):
        raise DomainError("compose_pl is defined for piecewise-linear maps only")
    g_breaks = [p.domain.lo for p in g.pieces[1:]]
    pieces: list[Piece] = []
    for p in f.pieces:
        cuts = {p.domain.lo, p.domain.hi}
        if p.c1 != 0:
            for b in g_breaks:
                x = (b - p.c0) / p.c1
                if p.domain.lo < x < p.domain.hi:
                    cuts.add(x)
        xs = sorted(cuts)
        for x0, x1 in zip(xs, xs[1:]):
            mid = (x0 + x1) / 2
            y = p.value_at(mid)
            q = g.piece_at(y)
            # g(f(x)) = q.c0 + q.c1 * (p.c0 + p.c1 x)
            pieces.append(
                Piece(
                    Interval(x0, x1),
                    q.c0 + q.c1 * p.c0,
                    q.c1 * p.c1,
                    ZERO,
                )
            )
    return PLMap(tuple(pieces))


def _lap_slopes(f: PLMap) -> list[Q]:
    if not f.is_pl:
        raise DomainError("lap analysis is defined for piecewise-linear maps")
    return [p.c1 for p in f.pieces]


def modality(f: PLMap) -> int:
    """Number of strict interior local extrema (lap count minus one).

    Plateaus (zero-slope pieces) do not contribute extrema themselves;
    direction changes are counted across them.
    """
    slopes = [s for s in _lap_slopes(f) if s != 0]
    count = 0
    for a, b in zip(slopes, slopes[1:]):
        if (a > 0) != (b > 0):
            count += 1
    return count


def total_variation(f: CurveMap) -> Q:
    """Exact total variation: per piece, split at an interior vertex."""
    tv = ZERO
    for p in f.pieces:
        a = p.value_at(p.domain.lo)
        b = p.value_at(p.domain.hi)
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
    pieces = tuple(
        Piece(p.domain, s * p.c0 + t, s * p.c1, s * p.c2) for p in f.pieces
    )
    cls = PLMap if f.is_pl else CurveMap
    return cls(pieces)
