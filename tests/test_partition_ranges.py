"""The ordered-partition range kernel against one exact read per window.

``exact._partition_ranges(f, edges)`` walks f's breakpoints and the edges
of a partition together once and gives f at every edge and f's exact
range on every window.  The grid stages, ``box_data`` and
``FamilyBoxBounds.all_bands`` read f through it.  The read it replaced,
one ``value_at`` per edge and one ``range_on`` per window, is kept here
as the oracle.
"""
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from transmaps.corpus import random_curve_map, random_pl_map
from transmaps.exact import (
    FULL,
    CurveMap,
    Interval,
    Piece,
    PLMap,
    _partition_ranges,
    range_on,
)
from transmaps.homotopy import apply_homotopy, partition
from transmaps.rational import ONE, Q, ZERO
from transmaps.spaces import (
    constant_map,
    identity_map,
    ladder_map,
    nowhere_dense_perturbation,
    phase_sawtooth,
    sawtooth,
    square_map,
)


def range_on_per_window(f, edges):
    """f at every edge and one exact ``range_on`` per window."""
    return [f.value_at(x) for x in edges], [
        range_on(f, Interval(a, b)) for a, b in zip(edges, edges[1:])
    ]


# 4(x - 1/2)^2: its vertex 1/2 is an edge of every dyadic grid
VALLEY = CurveMap((Piece(FULL, ONE, Q(-4), Q(4)),))
# a bump whose vertex 5/12 is inside a window of every dyadic grid
BUMP = CurveMap(
    (
        Piece(Interval(ZERO, Q(5, 6)), ZERO, Q(12, 5), Q(-72, 25)),
        Piece(Interval(Q(5, 6), ONE), Q(-5), Q(6), ZERO),
    )
)

# affine up to 3/4, then a parabola peaking at 3/4 over x = 7/8: the peak
# is inside [1/2, 1] but in the window's second piece
LATE_PEAK = CurveMap(
    (
        Piece(Interval(ZERO, Q(3, 4)), ZERO, Q(2, 3), ZERO),
        Piece(Interval(Q(3, 4), ONE), Q(-23, 2), Q(28), Q(-16)),
    )
)

STOCK = (
    identity_map(),
    constant_map(Q(1, 3)),
    square_map(),
    VALLEY,
    BUMP,
    LATE_PEAK,
    sawtooth(3),
    sawtooth(4),
    ladder_map(5),
    ladder_map(7),
    phase_sawtooth(3, Q(5, 16)),
)

PERTURBED = tuple(
    nowhere_dense_perturbation(g, Q(1, 10)) for g in (sawtooth(3), sawtooth(4), ladder_map(5))
)


@st.composite
def maps(draw):
    """Random PL and curved maps, stock maps and nowhere-dense
    perturbations of stock maps."""
    kind = draw(st.sampled_from(("pl", "curve", "stock", "perturbed")))
    if kind == "stock":
        return draw(st.sampled_from(STOCK))
    if kind == "perturbed":
        return draw(st.sampled_from(PERTURBED))
    rng = random.Random(draw(st.integers(0, 10_000)))
    return random_pl_map(rng) if kind == "pl" else random_curve_map(rng)


def dyadic_edges(level):
    cells = 1 << level
    return [Q(k, cells) for k in range(cells + 1)]


def partition_edges(t):
    return [w.lo for w in partition(t).windows] + [ONE]


def critical_points(f):
    """f's breakpoints and the vertices of its curved pieces."""
    xs = set(f.breakpoints)
    xs.update(v for v in (p.vertex() for p in f.pieces) if v is not None)
    return xs


@st.composite
def edges_for(draw, f):
    """Sorted edges from 0 to 1: a dyadic grid, the windows of a step t,
    or random points mixed with f's breakpoints and parabola vertices."""
    kind = draw(st.sampled_from(("dyadic", "partition", "critical")))
    if kind == "dyadic":
        return dyadic_edges(draw(st.integers(1, 9)))
    if kind == "partition":
        # steps that do not divide 1 leave a short last window
        return partition_edges(Q(draw(st.integers(1, 24)), draw(st.integers(24, 200))))
    points = draw(st.lists(st.integers(1, 255).map(lambda k: Q(k, 256)), max_size=12))
    critical = sorted(critical_points(f))
    kept = draw(st.lists(st.sampled_from(critical), max_size=len(critical)))
    return sorted({ZERO, ONE, *points, *kept})


@st.composite
def cases(draw):
    f = draw(maps())
    return f, draw(edges_for(f))


@given(cases())
@example((VALLEY, dyadic_edges(1)))
@example((BUMP, dyadic_edges(3)))
@example((sawtooth(4), partition_edges(Q(3, 10))))
@example((ladder_map(7), dyadic_edges(9)))
@example((PERTURBED[0], dyadic_edges(9)))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_the_per_window_read(case):
    f, edges = case
    assert _partition_ranges(f, edges) == range_on_per_window(f, edges)


def test_edges_on_every_breakpoint():
    for f in STOCK + PERTURBED:
        edges = sorted(critical_points(f) | {ZERO, ONE})
        assert _partition_ranges(f, edges) == range_on_per_window(f, edges)


def test_vertex_on_an_edge_and_inside_a_window():
    ys, ranges = _partition_ranges(VALLEY, dyadic_edges(1))
    assert ys == [ONE, ZERO, ONE]
    assert ranges == [FULL, FULL]
    ys, ranges = _partition_ranges(BUMP, dyadic_edges(1))
    assert ys == [ZERO, Q(12, 25), ONE]
    # the vertex 5/12 is inside [0, 1/2], where the bump peaks at 1/2
    assert ranges == [Interval(ZERO, Q(1, 2)), FULL]
    ys, ranges = _partition_ranges(LATE_PEAK, dyadic_edges(1))
    assert ys == [ZERO, Q(1, 3), Q(1, 2)]
    assert ranges == [Interval(ZERO, Q(1, 3)), Interval(Q(1, 3), Q(3, 4))]


def test_short_last_window():
    f = ladder_map(5)
    grid = partition(Q(3, 10))
    assert grid.windows[-1] == Interval(Q(9, 10), ONE)
    edges = partition_edges(grid.t)
    ys, ranges = _partition_ranges(f, edges)
    assert len(ys) == len(grid.windows) + 1 and len(ranges) == len(grid.windows)
    assert ranges[-1] == range_on(f, Interval(Q(9, 10), ONE))


@given(
    st.sampled_from((sawtooth(3), ladder_map(5), VALLEY, BUMP)),
    st.sampled_from((Q(1, 4), Q(1, 8), Q(1, 3))),
    st.integers(1, 9),
)
@settings(max_examples=40, deadline=None)
def test_chain_linked_map(g, t, level):
    # the kernel walks the pieces of a map built by concat_box_maps, whose
    # range_on answers from its chain; both agree, as on the same pieces
    # without the link
    f = apply_homotopy(g, t, Q(20))
    assert f._chain is not None
    plain = PLMap(f.pieces)
    assert plain._chain is None
    for edges in (dyadic_edges(level), partition_edges(t), sorted(set(f.breakpoints[::7]) | {ONE})):
        expected = range_on_per_window(f, edges)
        assert _partition_ranges(f, edges) == expected
        assert _partition_ranges(plain, edges) == expected
