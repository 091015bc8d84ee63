"""Sound certification and refutation of topological transitivity.

Nothing here guesses.  ``Certified`` is backed by an argument that forces
every open interval's forward images to fill [0, 1]; ``Refuted`` carries a
proper closed invariant window with interior, re-verified exactly; when
neither argument lands within budget the verdict is ``Inconclusive``.

Three certificate/refuter mechanisms plus a combining pipeline:

* ``leo_certify`` -- for piecewise-linear maps with every |slope| > 2:
  exact image iteration of every dyadic grid cell.  Any open interval
  grows under iteration (its largest breakpoint-free part is at least
  half of it and stretches by more than 2) until it swallows a grid cell,
  whose forward images provably reach [0, 1].
* ``chain_certified`` -- the one certificate for concatenations of box
  maps, decided from the (window, parameters) chain alone: a slope floor
  against the longest run of legs that are not full sweeps, plus band
  coverage.  Coverage holds when the bands of every sink component of
  "box i reaches the boxes whose windows its band contains" fill [0, 1],
  since every box reaches a sink component and a sink component reaches
  only itself; one Tarjan pass over the window runs finds the sinks.
  Both tests run on integers, exactly: the window cuts and the band ends
  get integer keys in their exact order, so a box's window run is two
  bisects of integer lists and a sink's cover is one sweep over its
  bands in key order; the slope floor is a cross-multiplication per box.
  Nothing builds a map, so the certificate scales to chains with
  thousands of laps where grid iteration would not.  ``box_chain_certify``
  applies it to a map built by ``boxmap.concat_box_maps``, which is its
  chain by construction.
* ``invariant_region_refute`` / ``ball_refute`` -- search for invariant
  windows, the latter robust under a sup-metric perturbation radius.

The grid stages read f through ``_cell_ranges``: one walk over f's
pieces, with the grid points as integers over 2^level, gives f at every
grid point and its exact range on every dyadic cell
(``exact._partition_ranges``).  ``is_transitive_pipeline`` reads f once
for all of them, at its finest refute level, and derives each coarser
grid by pairing sibling cells (``_coarsen``): every other point and
value, and the hull of the two ranges, which is exact because two
adjacent closed cells share an endpoint.  The rest is integer and set
work that reproduces the exact queries it replaces.  The range of a
union of adjacent closed cells is the hull of their ranges, so
``ball_refute`` keeps a running hull.  Rounding a union outward to the
grid is the union of the roundings, so ``invariant_region_refute`` is
breadth-first reachability on the grid points and open cells; a seed
that holds a seed already known to reach every node stops there.  ``leo_certify``
propagates every settled depth back over "the range of cell i holds
cell j whole" and iterates exact images only for the cells no settled
depth reaches.  The cells form the set-oriented outer approximation of
Dellnitz and Hohmann (Numer. Math. 75, 1997), used here only where it
provably gives the exact answer.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from .boxmap import BoxChain, BoxParams, box_values
from .errors import ParameterError, PreconditionError
from .exact import (
    FULL,
    FULL_SET,
    CurveMap,
    Interval,
    IntervalSet,
    _MAX_PIECES,
    _frozen,
    _partition_ranges,
    image_set,
    range_on,
)
from .rational import ONE, Q, ZERO, _MAX_BITS, as_scalar

__all__ = [
    "Verdict",
    "reach_image",
    "leo_certify",
    "invariant_region_refute",
    "ball_refute",
    "box_chain_certify",
    "chain_certified",
    "PipelineBudget",
    "is_transitive_pipeline",
    "min_abs_slope",
    "min_breakpoint_gap",
]

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: Optional[IntervalSet] = None
    budget: Optional[int] = None

    def __post_init__(self):
        if self.status not in (CERTIFIED, INCONCLUSIVE):
            raise ParameterError(
                f"verdict status {self.status!r} is not 'certified' or 'inconclusive';"
                " build a refuted verdict with Verdict.refuted(f, witness)"
            )
        if self.witness is not None:
            raise ParameterError("witness present iff refuted")
        if (self.budget is None) != (self.status == CERTIFIED):
            raise ParameterError("budget present iff inconclusive")

    @staticmethod
    def certified() -> "Verdict":
        return Verdict(CERTIFIED)

    @staticmethod
    def refuted(f: CurveMap, witness: IntervalSet) -> "Verdict":
        """A refutation of f whose witness passes ``_check_witness``; the
        only way to build a refuted verdict."""
        _check_witness(f, witness)
        return _frozen(Verdict, status=REFUTED, witness=witness, budget=None)

    @staticmethod
    def inconclusive(budget: int) -> "Verdict":
        return Verdict(INCONCLUSIVE, budget=budget)

    @property
    def is_certified(self) -> bool:
        return self.status == CERTIFIED

    @property
    def is_refuted(self) -> bool:
        return self.status == REFUTED


def _check_witness(f: CurveMap, c: IntervalSet) -> None:
    """A refutation witness must be proper, fat, and exactly invariant."""
    if c.is_empty() or c == FULL_SET:
        raise ParameterError("witness must be a proper nonempty region")
    if all(comp.is_degenerate() for comp in c.components):
        raise ParameterError("witness needs nonempty interior")
    if not c.contains_set(image_set(f, c)):
        raise ParameterError("witness is not invariant")


def reach_image(f: CurveMap, u: Interval, v: Interval, n: int) -> IntervalSet:
    """The n-th forward image of u, exactly, for the caller to meet with
    the target v.  Raises ParameterError when n is below 1, when u or v
    is degenerate, and, at once, when an image endpoint's denominator,
    in [0, 1] no shorter than its numerator, has more than
    ``rational._MAX_BITS`` bits: on a curved map the bit count can
    double at every step.  An image equal to the one before it is the
    image at every later step, so the iteration stops there."""
    if n < 1:
        raise ParameterError("need at least one iteration")
    if u.is_degenerate() or v.is_degenerate():
        raise ParameterError("need nondegenerate intervals")
    s = IntervalSet((u,))
    for step in range(1, n + 1):
        image = image_set(f, s)
        if image == s:
            break
        ends = [x for c in image.components for x in (c.lo, c.hi)]
        bits = max(int(x.denominator).bit_length() for x in ends)
        if bits > _MAX_BITS:
            raise ParameterError(f"image {step} endpoint of {bits} bits above the cap {_MAX_BITS}")
        s = image
    return s


def min_abs_slope(f: CurveMap) -> Q:
    if not f.is_pl:
        raise PreconditionError("slope floor defined for piecewise-linear maps")
    return min(abs(p.c1) for p in f.pieces)


def min_breakpoint_gap(f: CurveMap) -> Q:
    return min(p.domain.width for p in f.pieces)


_MAX_GRID_LEVEL = _MAX_PIECES.bit_length() - 1  # finer grids hold more cells


def _check_grid_level(grid_level: int) -> None:
    """Refuse a grid level outside 1.._MAX_GRID_LEVEL; every grid stage
    calls this before it computes anything with the level."""
    if grid_level < 1:
        raise ParameterError("grid level must be positive")
    if grid_level > _MAX_GRID_LEVEL:
        raise ParameterError(f"grid level {grid_level} above the cap {_MAX_GRID_LEVEL}")


def _cell_ranges(f: CurveMap, grid_level: int) -> tuple[list[Q], list[Interval]]:
    """f at each grid point k/2^level, k = 0..2^level, and the exact range
    of f on each closed cell between consecutive points, from one walk
    over f's pieces with the grid points as integers over 2^level
    (``exact._partition_ranges``), for a level ``_check_grid_level``
    passed."""
    cells = 1 << grid_level
    return _partition_ranges(f, range(cells + 1), cells)


def _coarsen(ys: list[Q], ranges: list[Interval]) -> tuple[list[Q], list[Interval]]:
    """The grid one level coarser than the grid (ys, ranges) of
    ``_cell_ranges``: every other point and value, and the hull of the
    ranges of each pair of sibling cells.  Two adjacent closed cells share
    an endpoint, so the range of their union is the hull of their ranges,
    and this is exactly ``_cell_ranges`` one level coarser."""
    hulls = [
        _frozen(
            Interval,
            lo=a.lo if a.lo <= b.lo else b.lo,
            hi=a.hi if a.hi >= b.hi else b.hi,
        )
        for a, b in zip(ranges[0::2], ranges[1::2])
    ]
    return ys[0::2], hulls


def _floor_index(x: Q, cells: int) -> int:
    """floor(x * cells)."""
    return int(x.numerator) * cells // int(x.denominator)


def _ceil_index(x: Q, cells: int) -> int:
    """ceil(x * cells)."""
    return -(-int(x.numerator) * cells // int(x.denominator))


def leo_certify(f: CurveMap, grid_level: int, n_max: int) -> Verdict:
    """Certify transitivity by iterating every dyadic grid cell to [0, 1].

    Preconditions (violations raise, they are not verdicts): the map is
    piecewise linear with every |slope| > 2, and two grid cells fit in the
    narrowest lap.  Under those, any open interval U either contains a
    breakpoint-free half of length |U|/2 or is breakpoint-free itself, so
    its image is longer by a factor slope/2 > 1; lengths grow until U
    contains a whole grid cell, and every grid cell is checked to reach
    image [0, 1] within n_max exact iterations.

    Each cell gets a depth: a number of steps within which its images
    reach [0, 1].  A cell whose range is [0, 1] has depth 1.  When the
    k-th image of cell i holds a whole cell j of depth d_j, then
    f^(k + d_j)(cell i) contains f^(d_j)(cell j) = [0, 1], so i gets depth
    k + d_j, but only when that is at most n_max.  Every depth settled
    propagates breadth-first back over "the range of cell i holds cell j
    whole", the case k = 1, and only cells that no settled depth reaches
    iterate exact images, in index order, each stopping at the first
    image that is [0, 1] or holds a settled cell within the remaining
    budget.  A depth is never below the true number of steps, and a cell
    that iterates fails only when n_max exact images miss [0, 1], so the
    verdict is the one full iteration of every cell gives.
    """
    _check_grid_level(grid_level)
    if n_max < 1:
        raise ParameterError("need a positive iteration budget")
    if not f.is_pl:
        raise PreconditionError("certificate requires a piecewise-linear map")
    floor = min_abs_slope(f)
    if floor <= 2:
        raise PreconditionError(f"slope floor {floor} is not > 2")
    gap = min_breakpoint_gap(f)
    if Q(2, 1 << grid_level) > gap:
        raise PreconditionError(
            f"grid too coarse: need 2^(1-level) <= {gap}, level {grid_level}"
        )
    return _leo_on_grid(f, _cell_ranges(f, grid_level)[1], n_max)


def _leo_on_grid(f: CurveMap, ranges: list[Interval], n_max: int) -> Verdict:
    """``leo_certify`` on the cell ranges of a grid whose level passed its
    checks."""
    cells = len(ranges)
    depths: list = [None] * cells
    # the cells whose range holds a cell whole, in a segment tree
    holders: dict[int, list[int]] = {}
    settled = []
    for i, r in enumerate(ranges):
        if r == FULL:
            depths[i] = 1
            settled.append(i)
        else:
            _file_run(holders, cells, _ceil_index(r.lo, cells), _floor_index(r.hi, cells), i)
    _propagate(settled, depths, holders, n_max)
    for i, r in enumerate(ranges):
        if depths[i] is not None:
            continue
        s, k = IntervalSet((r,)), 1
        while True:
            if s == FULL_SET:
                depths[i] = k
                break
            d = _depth_within(s, depths, cells, n_max - k)
            if d is not None:
                depths[i] = k + d
                break
            if k == n_max:
                return Verdict.inconclusive(n_max)
            s, k = image_set(f, s), k + 1
        _propagate([i], depths, holders, n_max)
    return Verdict.certified()


def _file_run(holders: dict, cells: int, a: int, z: int, i: int) -> None:
    """File cell i, whose range holds cells a .. z - 1 whole, in the
    segment tree ``holders`` over the cells: node 1 is the root, node n
    has children 2n and 2n + 1, and cell j is leaf cells + j.  The run is
    filed at the at most 2 log2(cells) nodes that tile it, so the cells
    whose range holds cell j are those filed on j's path to the root."""
    a += cells
    z += cells
    while a < z:
        if a & 1:
            holders.setdefault(a, []).append(i)
            a += 1
        if z & 1:
            z -= 1
            holders.setdefault(z, []).append(i)
        a >>= 1
        z >>= 1


def _propagate(queue: list[int], depths: list, holders: dict, n_max: int) -> None:
    """Give every cell without a depth whose range holds a queued cell
    whole the depth one more than that cell's, breadth-first, while that
    is at most n_max.  Every cell filed at a node on the queued cell's
    path holds it, so the node is emptied once it is read."""
    cells = len(depths)
    for j in queue:
        d = depths[j] + 1
        if d > n_max:
            continue
        node = j + cells
        while node:
            for i in holders.pop(node, ()):
                if depths[i] is None:
                    depths[i] = d
                    queue.append(i)
            node >>= 1


def _depth_within(s: IntervalSet, depths: list, cells: int, spare: int):
    """The depth of some cell with a settled depth of at most ``spare``
    that lies wholly inside s, or None."""
    for c in s.components:
        for j in range(_ceil_index(c.lo, cells), _floor_index(c.hi, cells)):
            d = depths[j]
            if d is not None and d <= spare:
                return d
    return None


def invariant_region_refute(f: CurveMap, grid_level: int, n_max: int) -> Verdict:
    """Hunt for a proper closed invariant region with interior.

    From each grid-cell seed, grow C by unioning its exact image and
    rounding outward to the grid.  C is always a union of grid points and
    closed cells, and growth can add a single grid point, so a fixpoint
    arrives within 2^(level+1) + 1 steps, the number of points and open
    cells.  A proper fixpoint reached within n_max steps is re-verified
    exactly (no rounding) before it is returned as a witness; the
    interior of such a C traps every orbit entering it, so no orbit is
    dense.

    Seeds are tried in a deterministic order that puts cells with the
    narrowest images first, since contraction is where invariant regions
    live.

    The growth runs on nodes p0, c0, p1, c1, ..., pN: the grid points and
    the open cells between them.  The rounded image of a node is one run
    of nodes, [2 floor(lo N), 2 ceil(hi N)] for an image [lo, hi], so one
    growth step is one breadth-first layer from the seed's three nodes.
    A grid point is a node of its own because a region can hold an
    isolated point.
    """
    _check_grid_level(grid_level)
    if n_max < 1:
        raise ParameterError("need a positive iteration budget")
    return _refute_on_grid(f, *_cell_ranges(f, grid_level), n_max)


def _refute_on_grid(f: CurveMap, ys: list[Q], ranges: list[Interval], n_max: int) -> Verdict:
    """``invariant_region_refute`` on the grid (ys, ranges) of
    ``_cell_ranges``."""
    cells = len(ranges)

    def node_run(u: int) -> tuple[int, int]:
        # node u is the point or cell from grid point u // 2 to (u + 1) // 2
        if u % 2:
            lo, hi = ranges[u // 2].lo, ranges[u // 2].hi
        else:
            lo = hi = ys[u // 2]
        return 2 * _floor_index(lo, cells), 2 * _ceil_index(hi, cells)

    runs: list = [None] * (2 * cells + 1)
    full = [False] * cells
    # the step that finds the fixpoint may come one after the budget
    layers = n_max + 1
    for k in sorted(range(cells), key=lambda k: ranges[k].width):
        reached = _reach(runs, node_run, full, k, layers)
        if reached is not None:
            witness = IntervalSet.from_intervals(
                Interval(Q(u // 2, cells), Q((u + 1) // 2, cells))
                for u, flag in enumerate(reached)
                if flag
            )
            return Verdict.refuted(f, witness)
    return Verdict.inconclusive(n_max)


def _reach(runs: list, node_run, full: list[bool], k: int, layers: int):
    """Breadth-first reach from cell k's three nodes for at most
    ``layers`` layers, a node reaching every node of its run.  When a
    layer adds nothing before every node is reached, which nodes were
    reached; otherwise None.  ``runs`` keeps each run ``node_run`` gives,
    across seeds, so f is read only at nodes some seed reaches.

    ``full`` marks the cells whose reach is every node, and a seed whose
    reach is every node is marked.  A seed that holds all three nodes of
    a marked cell reaches every node too, so it stops there, marked, and
    gives None, as the whole search would.  It holds them once it holds
    the open cell: a run starts and ends at a point, so it holds both
    points of every open cell it holds.  A seed that only runs out of
    layers is not marked: its reach may still stop short of every node.

    ``nxt`` skips reached nodes: following it from u leads to the first
    unreached node at or after u, so each node is taken once, and a node
    u is reached exactly when nxt[u] != u.
    """
    n = len(runs)
    nxt = list(range(n + 1))
    frontier = [2 * k, 2 * k + 1, 2 * k + 2]
    for u in frontier:
        nxt[u] = u + 1
    count = len(frontier)
    for _ in range(layers):
        grown = []
        for v in frontier:
            run = runs[v]
            if run is None:
                run = runs[v] = node_run(v)
            a, b = run
            u = _next_unreached(nxt, a)
            while u <= b:
                nxt[u] = u + 1
                grown.append(u)
                if u % 2 and full[u // 2]:
                    full[k] = True
                    return None
                u = _next_unreached(nxt, u + 1)
        if not grown:
            return [nxt[u] != u for u in range(n)]
        count += len(grown)
        if count == n:
            full[k] = True
            return None
        frontier = grown
    return None


def _next_unreached(nxt: list[int], u: int) -> int:
    while nxt[u] != u:
        nxt[u] = nxt[nxt[u]]
        u = nxt[u]
    return u


def ball_refute(
    f: CurveMap, rho, grid_level: int
) -> Optional[tuple[Interval, Q]]:
    """A window that stays invariant for every map rho-close to f.

    Returns a proper dyadic-endpoint window J with
    [max(0, min f(J) - rho), min(1, max f(J) + rho)] inside J and positive
    slack on every side that is not already an endpoint of [0, 1]; any g
    within rho of f then maps J into J, so the whole closed rho-ball
    around f misses the transitive maps.  Among admissible windows the
    first one attaining the maximal slack (scan order: left endpoint, then
    right) is returned; None when no window qualifies.

    The range of f on a window of whole cells is the hull of the cell
    ranges, kept running as the right endpoint moves.
    """
    rho = as_scalar(rho)
    if rho <= ZERO:
        raise ParameterError("perturbation radius must be positive")
    _check_grid_level(grid_level)
    return _ball_on_grid(_cell_ranges(f, grid_level)[1], rho)


def _ball_on_grid(ranges: list[Interval], rho: Q) -> Optional[tuple[Interval, Q]]:
    """``ball_refute`` on the cell ranges of a grid, for rho > 0."""
    cells = len(ranges)
    xs = [Q(k, cells) for k in range(cells + 1)]
    best: Optional[tuple[Interval, Q]] = None
    for i in range(cells):
        lo, hi = ONE, ZERO
        for j in range(i + 1, cells + 1):
            r = ranges[j - 1]
            if r.lo < lo:
                lo = r.lo
            if r.hi > hi:
                hi = r.hi
            if i == 0 and j == cells:
                continue
            slacks = []
            if i > 0:
                left = lo - rho - xs[i]
                # the left slack only shrinks as j grows: no later window wins
                if left <= ZERO or (best is not None and left <= best[1]):
                    break
                slacks.append(left)
            if j < cells:
                slacks.append(xs[j] - (hi + rho))
            margin = min(slacks)
            if margin > ZERO and (best is None or margin > best[1]):
                best = (Interval(xs[i], xs[j]), margin)
    return best


# -- the box-chain certificate ------------------------------------------------


def _longest_partial_run(boxes) -> int:
    """Longest run of consecutive legs that are not full band sweeps,
    counted across box junctions, read from the turning-point values."""
    longest = run = 0
    for _, p in boxes:
        values = box_values(p)
        for a, b in zip(values, values[1:]):
            if abs(b - a) == p.height:
                run = 0
            else:
                run += 1
                if run > longest:
                    longest = run
    return longest


def chain_certified(items: Sequence[tuple[Interval, BoxParams]]) -> bool:
    """Transitivity certificate for a box-map concatenation, decided
    from its (window, BoxParams) items alone, without building the map.

    Chain validity (tiling plus junction agreement) is checked first and
    raises ParameterError if violated.  Certification then needs

    1. slope floor: the least box slope expansion * height / width
       exceeds M + 2, where M is the longest run of consecutive legs
       that are not full band sweeps.  An interval without a complete
       full sweep inside spans at most M complete legs, hence at most
       M + 2 laps, so its longest lap-free part is |U|/(M+2) and its
       image grows by slope/(M+2) > 1; growth cannot continue forever,
       so some forward image contains a full sweep and therefore a
       whole band.  Expansion at least 20 gives every box at least 18
       full sweeps, so M <= 3 (one box's final pair plus the next box's
       first leg) and M is only computed when the floor is at most 5.
       Whether every slope exceeds 5 is decided on integers, box by
       box.  With the window as [l / ld, h / hd], the band as
       [b / bd, t / td] and the expansion as en / ed, a box's slope is
       (en / ed) * ((t * bd - b * td) / (td * bd))
       / ((h * ld - l * hd) / (ld * hd)).  Every denominator is
       positive, so the slope exceeds 5 exactly when
       en * (t * bd - b * td) * ld * hd > 5 * ed * td * bd * (h * ld - l * hd).
       Only when some box fails that are the exact floor and M computed.
    2. coverage: from every box, repeatedly adding the bands of all boxes
       whose windows a collected band covers must reach all of [0, 1].
       Once an image contains band J, later images contain every band
       collected from J, so the union of forward images is [0, 1].  What
       a box collects contains a sink component of the relation "box i
       reaches the boxes whose windows its band contains", and a box in
       a sink component collects exactly its component, so the test is
       that each sink component's bands fill [0, 1]; see
       ``_sink_coverage`` for how that is decided exactly on integers.
    """
    return _chain_certificate(BoxChain(tuple(items)).boxes)


def _chain_certificate(boxes: Sequence[tuple[Interval, BoxParams]]) -> bool:
    """``chain_certified`` on the boxes of a chain already validated."""
    for w, p in boxes:
        e, b, t, lo, hi = p.expansion, p.bottom, p.top, w.lo, w.hi
        bd, td, ld, hd = b.denominator, t.denominator, lo.denominator, hi.denominator
        if e.numerator * (t.numerator * bd - b.numerator * td) * ld * hd <= (
            5 * e.denominator * td * bd * (hi.numerator * ld - lo.numerator * hd)
        ):
            # a slope of at most 5 puts the floor at most 5, so M decides
            floor = min(q.expansion * q.height / v.width for v, q in boxes)
            if floor <= _longest_partial_run(boxes) + 2:
                return False
            break
    return _sink_coverage([w for w, _ in boxes], [(p.bottom, p.top) for _, p in boxes])


def box_chain_certify(f: CurveMap) -> Verdict:
    """Certify a concatenation of box maps from its construction record.

    A map built by ``boxmap.concat_box_maps`` is its chain by
    construction, and its trusted ``_chain``, validated when built, is
    certified without a second check.  Inconclusive when
    the map has no ``_chain`` or the certificate fails; never Refuted
    (this routine has no refutation power).
    """
    chain = f._chain
    if chain is None or not _chain_certificate(chain.boxes):
        return Verdict.inconclusive(0)
    return Verdict.certified()


def _order_keys(xs: Sequence[Q]) -> tuple[list[int], int]:
    """Integer keys floor(x * 2^k) of rationals x in [0, 1] that order
    them exactly, and the key 2^k of 1.

    k is twice the bit length m of the largest denominator.  Two
    distinct xs p / q and r / s differ by at least 1 / (q * s), which is
    more than 2^-k since q, s < 2^m, so their multiples by 2^k differ by
    more than 1 and their floors keep their order; equal xs get equal
    keys.  Unlike a common denominator, k grows only with the longest
    denominator, not with the number of distinct ones."""
    k = 2 * max(x.denominator for x in xs).bit_length()
    return [(x.numerator << k) // x.denominator for x in xs], 1 << k


def _covers(bands, one: int) -> bool:
    """Whether closed bands (B, T), integer keys in the exact order of
    the band ends (``_order_keys``), fill [0, one]: a sweep in order of
    B that carries the reach, the largest T so far.  Every
    point up to the reach is covered; a band starting past the reach
    leaves the points between uncovered, while one starting at the
    reach, touching, continues the cover, so this is exactly the
    union's test."""
    reach = 0
    for b, t in sorted(bands):
        if b > reach:
            return False
        if t > reach:
            reach = t
    return reach >= one


def _sink_coverage(windows: Sequence[Interval], bands: Sequence[tuple[Q, Q]]) -> bool:
    """Whether the band-coverage closure from every box fills [0, 1], for
    windows that tile [0, 1] and the bands as (bottom, top) pairs.

    Box i reaches the boxes whose windows its band contains; a start is
    good when the bands of every box it reaches union to all of [0, 1].
    What a start reaches always contains a sink component of this
    relation (a strongly connected component that no run leaves), and a
    start inside a sink component reaches exactly that component.  So
    all starts are good exactly when the bands of every sink component
    fill [0, 1].

    Every decision is on integers and exact.  One ``_order_keys`` call
    over the n + 1 window cuts and the 2n band ends orders all of them
    exactly, equal values with equal keys.  The window lows are the
    cuts but the last and the highs the cuts but the first, both
    increasing, so the windows a band contains, those with a low at
    least its bottom and a high at most its top, are the run from
    ``bisect_left`` of the bottom's key in the low keys to
    ``bisect_right`` of the top's key in the high keys.  A sink
    component's bands cover [0, 1] exactly when one sweep over them in
    order of their bottoms never finds a bottom past the reach
    (``_covers``).

    One iterative Tarjan pass (Tarjan, SIAM J. Comput. 1, 1972) over the
    window runs finds the components in O(n + E), E the total run
    length.  An edge to a node whose component is already closed leaves
    the current component; an edge to a visited node with no component
    yet stays inside it, since such a node is still on the stack.  A
    node walks its run past the visited nodes in one inner loop and
    descends into the first unvisited one.
    """
    n = len(windows)
    cuts = [w.lo for w in windows] + [windows[-1].hi]
    keys, one = _order_keys(cuts + [x for band in bands for x in band])
    lows, highs = keys[:n], keys[1 : n + 1]
    bottoms, tops = keys[n + 1 :: 2], keys[n + 2 :: 2]
    nxt = [bisect_left(lows, b) for b in bottoms]
    ends = [bisect_right(highs, t) for t in tops]
    index = [-1] * n
    low = [0] * n
    closed = [False] * n
    leaves = [False] * n
    stack: list[int] = []
    at = [0] * n
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [root]
        while work:
            v = work[-1]
            if index[v] < 0:
                index[v] = low[v] = count
                count += 1
                at[v] = len(stack)
                stack.append(v)
            k, end, lv = nxt[v], ends[v], low[v]
            while k < end and index[k] >= 0:
                if closed[k]:
                    leaves[v] = True
                elif low[k] < lv:
                    lv = low[k]
                k += 1
            nxt[v], low[v] = k, lv
            if k < end:
                work.append(k)
                continue
            work.pop()
            if low[v] != index[v]:
                continue
            members = stack[at[v]:]
            del stack[at[v]:]
            for m in members:
                closed[m] = True
            if not any(leaves[m] for m in members) and not _covers(
                [(bottoms[m], tops[m]) for m in members], one
            ):
                return False
    return True


# -- combining pipeline ------------------------------------------------------


@dataclass(frozen=True)
class PipelineBudget:
    """The pipeline's search budget: the invariant-region grid levels
    tried and the growth steps each may take, and the finest grid level
    and the iteration count of the grid certificate.  A level or a count
    below 1, and a grid level above ``_MAX_GRID_LEVEL``, raise
    ParameterError when the budget is built, before any stage runs on
    it, so whether a budget is admissible does not depend on the map."""

    refute_levels: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    refute_steps: int = 200
    leo_max_level: int = 12
    leo_steps: int = 400

    def __post_init__(self):
        for name in ("refute_steps", "leo_max_level", "leo_steps"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} {getattr(self, name)} is below 1")
        for level in self.refute_levels:
            if level < 1:
                raise ParameterError(f"refute level {level} is below 1")
        for level in (*self.refute_levels, self.leo_max_level):
            _check_grid_level(level)


def _non_surjective_witness(f: CurveMap) -> Optional[IntervalSet]:
    r = range_on(f, FULL)
    if r == FULL:
        return None
    if r.is_degenerate():
        pad = Q(1, 4)
        c = Interval(max(ZERO, r.lo - pad), min(ONE, r.hi + pad))
    else:
        c = r
    return IntervalSet((c,))


def is_transitive_pipeline(
    f: CurveMap, budget: PipelineBudget = PipelineBudget()
) -> Verdict:
    """Combine the certificates and refuters soundly.

    Order: the construction-record certificate, non-surjectivity
    (instant refutation), invariant-region search at escalating grid
    levels, then the grid certificate for steep piecewise-linear maps
    whose lap widths admit an affordable grid.  Certified and Refuted
    cannot both occur: certificates prove every open region spreads
    everywhere, refuters exhibit a region that never leaves itself.  A
    certified chain is onto (each box attains its band, and the bands of
    a sink component fill [0, 1]), so the first two stages commute; the
    record certificate goes first because it answers a chain map without
    reading its range, and a map without a chain at once.

    The grid stages share one read of f: the grid at the finest refute
    level comes from ``_cell_ranges``, and each coarser level from the
    one above it by ``_coarsen``, exactly.  The grid certificate runs on
    that grid when its level is at most the finest refute level, and
    reads its own grid otherwise.  So no grid finer than the finest
    level of the budget's stages is read, though a map that a coarser
    level refutes has been read at the finest refute level.
    """
    verdict = box_chain_certify(f)
    if verdict.is_certified:
        return verdict

    witness = _non_surjective_witness(f)
    if witness is not None:
        return Verdict.refuted(f, witness)

    top = max(budget.refute_levels, default=0)
    # ladder[i] is the grid at level top - i
    ladder = [_cell_ranges(f, top)] if top else []
    for level in budget.refute_levels:
        verdict = _refute_on_grid(f, *_ladder_grid(ladder, top - level), budget.refute_steps)
        if verdict.is_refuted:
            return verdict

    if f.is_pl and min_abs_slope(f) > 2:
        gap = min_breakpoint_gap(f)
        level = 1
        while Q(2, 1 << level) > gap:
            level += 1
        if level <= budget.leo_max_level:
            if level <= top:
                ranges = _ladder_grid(ladder, top - level)[1]
            else:
                ranges = _cell_ranges(f, level)[1]
            return _leo_on_grid(f, ranges, budget.leo_steps)
    return Verdict.inconclusive(budget.refute_steps)


def _ladder_grid(ladder: list, depth: int) -> tuple[list[Q], list[Interval]]:
    """The grid ``depth`` levels coarser than ``ladder[0]``, coarsening
    the last grid of ``ladder`` and keeping each new one until it is
    there."""
    while len(ladder) <= depth:
        ladder.append(_coarsen(*ladder[-1]))
    return ladder[depth]
