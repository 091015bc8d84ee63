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

from dataclasses import dataclass

from .errors import ParameterError
from .exact import FULL, Interval, PLMap, pl_from_vertices
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


def box_values(p: BoxParams) -> list[Q]:
    """The sequence of values at the turning points, edges included.

    Consecutive entries always differ, and the absolute increments sum to
    exactly expansion * height.
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
    used = d_first + (k - 1) * h + abs(p.right_value - extremum(k))
    remainder = budget - used

    values = [p.left_value] + [extremum(i) for i in range(1, k + 1)]
    if remainder > 0:
        if extremum(k) == p.top:  # final leg descends: dip below right_value
            values.append(p.right_value - remainder / 2)
        else:
            values.append(p.right_value + remainder / 2)
    values.append(p.right_value)

    out = [values[0]]
    for v in values[1:]:
        if v != out[-1]:
            out.append(v)
    return out


def box_vertices(window: Interval, p: BoxParams) -> list[tuple[Q, Q]]:
    """Graph vertices of the box map on the window, exact abscissae."""
    if window.is_degenerate():
        raise ParameterError("box window must be nondegenerate")
    values = box_values(p)
    slope = p.expansion * p.height / window.width
    verts = [(window.lo, values[0])]
    x = window.lo
    for a, b in zip(values, values[1:]):
        x = x + abs(b - a) / slope
        verts.append((x, b))
    assert verts[-1][0] == window.hi  # increments sum to the exact budget
    return verts


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

    Stored as map provenance.  Consumers must not trust it blindly: the
    certificate code derives each box's vertices from its parameters and
    checks the map passes through them before using any of it.
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


def concat_box_maps(boxes: list[tuple[Interval, BoxParams]]) -> PLMap:
    """Concatenate box maps on a tiling of [0, 1] into one map.

    Continuity at the junctions is exact because adjacent boxes share the
    junction value by the chain validity check.  The chain is attached as
    provenance.
    """
    chain = BoxChain(tuple(boxes))
    verts: list[tuple[Q, Q]] = []
    for window, p in chain.boxes:
        vs = box_vertices(window, p)
        if verts:
            vs = vs[1:]  # junction vertex already present
        verts.extend(vs)
    return pl_from_vertices(verts, provenance=chain)
