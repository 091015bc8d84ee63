"""The ordered-partition range kernel against one exact read per window,
and the grid the pipeline shares between its stages.

``exact._partition_ranges(f, edges, d)`` takes the edges of a partition
as integer numerators over one denominator d, walks f's pieces once and
gives f at every edge and f's exact range on every window.  The grid
stages, ``box_data`` and ``FamilyBoxBounds.all_bands`` read f through
it.  Two reads it replaced are kept here as oracles: one ``value_at``
per edge and one ``range_on`` per window, and the walk over rational
edges that reads each window through ``exact._window_range``.

``is_transitive_pipeline`` reads the grid once, at its finest refute
level, and derives the coarser levels by ``transitivity._coarsen``; the
coarsened grid must be the grid read at that level, and the pipeline
must give the verdicts of its stages called one by one.
"""
import random
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transmaps import transitivity
from transmaps.corpus import random_curve_map, random_pl_map, random_surjective_pl
from transmaps.exact import (
    FULL,
    CurveMap,
    Interval,
    Piece,
    _partition_ranges,
    _window_range,
    pl_from_vertices,
    range_on,
)
from transmaps.homotopy import apply_homotopy, partition
from transmaps.rational import ONE, Q, ZERO
from transmaps.serialize import map_from_document, map_to_document
from transmaps.spaces import (
    constant_map,
    identity_map,
    ladder_map,
    nowhere_dense_perturbation,
    phase_sawtooth,
    sawtooth,
    square_map,
)
from transmaps.transitivity import PipelineBudget, is_transitive_pipeline

from test_chain_queries import reference_pipeline


def range_on_per_window(f, edges):
    """f at every edge and one exact ``range_on`` per window."""
    return [f.value_at(x) for x in edges], [
        range_on(f, Interval(a, b)) for a, b in zip(edges, edges[1:])
    ]


def walk_per_window(f, edges):
    """The earlier kernel: one walk over f's breakpoints and the rational
    edges together, each window read by ``_window_range`` from the piece
    where the last one ended."""
    a = edges[0]
    i = f._piece_index(a)
    ya = f._values[i] if f._lows[i] == a else f.pieces[i].value_at(a)
    ys, ranges = [ya], []
    for b in edges[1:]:
        r, ya, i = _window_range(f, i, a, ya, b)
        ranges.append(r)
        ys.append(ya)
        a = b
    return ys, ranges


def kernel(f, edges):
    """``_partition_ranges`` on rational edges from 0 to 1, written as
    integers over the least common multiple of their denominators."""
    d = lcm(*(int(x.denominator) for x in edges))
    return _partition_ranges(f, [int(x.numerator) * (d // int(x.denominator)) for x in edges], d)


def assert_kernel_exact(f, edges):
    """The kernel equals both oracles, value for value, in the scalar type."""
    got = kernel(f, edges)
    assert got == range_on_per_window(f, edges)
    assert got == walk_per_window(f, edges)
    ys, ranges = got
    assert all(type(y) is Q for y in ys)
    assert all(type(r.lo) is Q and type(r.hi) is Q for r in ranges)


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
def signed_pl_maps(draw):
    """PL maps on breakpoints k/48 whose pieces are drawn constant,
    increasing or decreasing; every third breakpoint is dyadic."""
    cuts = draw(st.lists(st.integers(1, 47), max_size=8, unique=True))
    xs = [ZERO, *(Q(k, 48) for k in sorted(cuts)), ONE]
    k = draw(st.integers(0, 12))
    ys = [Q(k, 12)]
    for _ in xs[1:]:
        slope = draw(st.sampled_from(("constant", "increasing", "decreasing")))
        if slope == "increasing" and k < 12:
            k = draw(st.integers(k + 1, 12))
        elif slope == "decreasing" and k > 0:
            k = draw(st.integers(0, k - 1))
        ys.append(Q(k, 12))
    return pl_from_vertices(list(zip(xs, ys)))


@st.composite
def maps(draw):
    """Random PL and curved maps, PL maps of drawn slope signs, stock
    maps and nowhere-dense perturbations of stock maps, whose pieces
    include parabolas."""
    kind = draw(st.sampled_from(("pl", "curve", "signed", "stock", "perturbed")))
    if kind == "stock":
        return draw(st.sampled_from(STOCK))
    if kind == "perturbed":
        return draw(st.sampled_from(PERTURBED))
    if kind == "signed":
        return draw(signed_pl_maps())
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


# non-dyadic steps: 1/3 and 1/7 divide 1, 2/9 leaves a short last window
NON_DYADIC_STEPS = (Q(1, 3), Q(2, 9), Q(1, 7))


@st.composite
def edges_for(draw, f):
    """Sorted edges from 0 to 1: a dyadic grid, the windows of a step t,
    or random points mixed with f's breakpoints and parabola vertices."""
    kind = draw(st.sampled_from(("dyadic", "partition", "critical")))
    if kind == "dyadic":
        return dyadic_edges(draw(st.integers(1, 10)))
    if kind == "partition":
        # steps that do not divide 1 leave a short last window
        t = draw(
            st.one_of(
                st.sampled_from(NON_DYADIC_STEPS),
                st.builds(Q, st.integers(1, 24), st.integers(24, 200)),
            )
        )
        return partition_edges(t)
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
@example((PERTURBED[1], dyadic_edges(10)))
@example((constant_map(Q(1, 3)), partition_edges(Q(2, 9))))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_the_per_window_read(case):
    f, edges = case
    assert_kernel_exact(f, edges)


def test_edges_on_every_breakpoint():
    for f in STOCK + PERTURBED:
        edges = sorted(critical_points(f) | {ZERO, ONE})
        assert_kernel_exact(f, edges)
        # an edge that is a breakpoint takes its value from the table
        at = dict(zip(edges, kernel(f, edges)[0]))
        assert all(at[x] is y for x, y in zip(f.breakpoints, f._values))


@pytest.mark.parametrize("t", NON_DYADIC_STEPS)
def test_non_dyadic_steps(t):
    for f in STOCK + PERTURBED:
        assert_kernel_exact(f, partition_edges(t))


def test_vertex_on_an_edge_and_inside_a_window():
    ys, ranges = kernel(VALLEY, dyadic_edges(1))
    assert ys == [ONE, ZERO, ONE]
    assert ranges == [FULL, FULL]
    ys, ranges = kernel(BUMP, dyadic_edges(1))
    assert ys == [ZERO, Q(12, 25), ONE]
    # the vertex 5/12 is inside [0, 1/2], where the bump peaks at 1/2
    assert ranges == [Interval(ZERO, Q(1, 2)), FULL]
    ys, ranges = kernel(LATE_PEAK, dyadic_edges(1))
    assert ys == [ZERO, Q(1, 3), Q(1, 2)]
    assert ranges == [Interval(ZERO, Q(1, 3)), Interval(Q(1, 3), Q(3, 4))]


def test_short_last_window():
    f = ladder_map(5)
    grid = partition(Q(3, 10))
    assert grid.windows[-1] == Interval(Q(9, 10), ONE)
    edges = partition_edges(grid.t)
    ys, ranges = kernel(f, edges)
    assert len(ys) == len(grid.windows) + 1 and len(ranges) == len(grid.windows)
    assert ranges[-1] == range_on(f, Interval(Q(9, 10), ONE))


@given(
    st.sampled_from((sawtooth(3), ladder_map(5), VALLEY, BUMP)),
    st.sampled_from((Q(1, 4), Q(1, 8), Q(1, 3))),
    st.integers(1, 9),
)
@settings(max_examples=40, deadline=None)
def test_chain_linked_map(g, t, level):
    # the kernel walks the pieces of a map built by concat_box_maps and
    # gives what it gives on the same pieces without the chain link
    f = apply_homotopy(g, t, Q(20))
    assert f._chain is not None
    plain = CurveMap(f.pieces)
    assert plain._chain is None
    for edges in (dyadic_edges(level), partition_edges(t), sorted(set(f.breakpoints[::7]) | {ONE})):
        assert_kernel_exact(f, edges)
        assert kernel(plain, edges) == kernel(f, edges)


# -- the grid the pipeline shares -----------------------------------------------


@given(maps(), st.integers(2, 10))
@example(square_map(), 2)
@example(PERTURBED[2], 9)
@settings(max_examples=60, deadline=None)
def test_coarsened_grid_is_the_grid_one_level_coarser(f, level):
    ys, ranges = transitivity._coarsen(*transitivity._cell_ranges(f, level))
    assert (ys, ranges) == transitivity._cell_ranges(f, level - 1)
    assert all(type(y) is Q for y in ys)
    assert all(type(r.lo) is Q and type(r.hi) is Q for r in ranges)


# budgets of every refute depth 0 .. 7; the step counts and leo's level
# cap are constants, so leo's level falls below, at or above the finest
# refute level as the map's narrowest lap decides
pipeline_budgets = st.builds(PipelineBudget, st.integers(0, 7))


@st.composite
def non_chain_maps(draw):
    """Maps without a box-chain record: random, surjective, stock and
    perturbed maps, and deformations read back from their documents."""
    kind = draw(st.sampled_from(("maps", "surjective", "deformed")))
    if kind == "maps":
        return draw(maps())
    rng = random.Random(draw(st.integers(0, 10_000)))
    if kind == "surjective":
        return random_surjective_pl(rng)
    g = apply_homotopy(random_surjective_pl(rng), draw(st.sampled_from((Q(1, 4), Q(1, 3)))), Q(20))
    return map_from_document(map_to_document(g))


PIPELINE_BUDGETS = tuple(PipelineBudget(refute_max_level=L) for L in (3, 6, 5, 1, 7, 0))

# 336 pieces whose narrowest lap needs leo level 14, above the cap 12: the
# pipeline skips leo, and no refute level up to 7 refutes it
ABOVE_LEO_CAP = map_from_document(
    map_to_document(apply_homotopy(sawtooth(3), Q(1, 16), Q(20)))
)


# leo certifies sawtooth(3) at level 3 and ladder_map(5) at level 6: the
# examples run it on a grid coarsened from the finest refute level (below
# it and at it) and on a grid of its own (above it), and skip it on a map
# whose level is above the cap
@given(non_chain_maps(), st.one_of(st.sampled_from(PIPELINE_BUDGETS), pipeline_budgets))
@example(sawtooth(3), PipelineBudget(refute_max_level=6))
@example(sawtooth(3), PipelineBudget(refute_max_level=3))
@example(ladder_map(5), PipelineBudget(refute_max_level=3))
@example(ladder_map(5), PipelineBudget(refute_max_level=7))
@example(square_map(), PipelineBudget(refute_max_level=5))
@example(ABOVE_LEO_CAP, PipelineBudget())
@settings(max_examples=80, deadline=None)
def test_pipeline_matches_its_stages_called_one_by_one(f, budget):
    assert f._chain is None
    got = is_transitive_pipeline(f, budget)
    want = reference_pipeline(f, budget)
    assert (got.status, got.witness, got.budget) == (want.status, want.witness, want.budget)


@pytest.mark.parametrize("budget", PIPELINE_BUDGETS)
def test_the_pipeline_reads_one_grid(budget, monkeypatch):
    # no refute level refutes ladder_map(5), and leo certifies it on the
    # grid at level 6: the refute stages and leo read f once between them,
    # at the depth, when 6 is at most the depth, and leo reads its own
    # grid otherwise; either way leo runs on the 2^6 cells of level 6.
    # ABOVE_LEO_CAP needs level 14, so leo neither reads nor runs on it
    reads, leo_cells = [], []
    read, leo_on_grid = transitivity._cell_ranges, transitivity._leo_on_grid
    monkeypatch.setattr(
        transitivity, "_cell_ranges", lambda f, level: reads.append(level) or read(f, level)
    )
    monkeypatch.setattr(
        transitivity,
        "_leo_on_grid",
        lambda f, ranges, n: leo_cells.append(len(ranges)) or leo_on_grid(f, ranges, n),
    )
    top = budget.refute_max_level
    for f, leo in ((ladder_map(5), True), (ABOVE_LEO_CAP, False)):
        reads.clear()
        leo_cells.clear()
        verdict = is_transitive_pipeline(f, budget)
        assert (verdict.status, verdict.budget) == (
            ("certified", None) if leo else ("inconclusive", 200)
        )
        assert reads == [top] * bool(top) + [6] * (leo and 6 > top)
        assert leo_cells == [64] * leo


@given(non_chain_maps(), st.lists(st.integers(1, 7), unique=True, max_size=7))
@example(identity_map(), [7, 1])
@example(ladder_map(5), [3])
@settings(max_examples=40, deadline=None)
def test_a_depth_decides_whatever_its_level_sets_decide(f, levels):
    # a depth-L budget tries every level of any set S with max(S) = L on
    # the same exact grid, and certified and refuted exclude each other,
    # so it decides whenever the stages over S, in S's order, decide
    depth = max(levels, default=0)
    budget = PipelineBudget(refute_max_level=depth)
    got = is_transitive_pipeline(f, budget)
    want = reference_pipeline(f, budget, levels)
    if want.status != "inconclusive":
        assert got.status == want.status
