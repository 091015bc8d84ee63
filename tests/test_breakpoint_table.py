"""The breakpoint-value table and its readers, against the bodies they replaced.

Every map keeps ``_values``, its value at each breakpoint, filled once by
each construction path.  ``range_on``, ``sup_distance``,
``total_variation`` and ``render_svg`` read piece-end values from it; the
earlier bodies, which evaluated every piece end, are kept here as
oracles, and so is an evaluating record check for ``box_chain_certify``.
``concat_box_maps`` builds its pieces straight from each box's integer
layout, every abscissa and intercept one integer fraction, and is checked
against ``pl_from_vertices`` on the vertices of the per-leg walk.
"""
import random
from unittest import mock

import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

from transmaps import boxmap, svg, transitivity
from transmaps.boxmap import BoxChain, BoxParams, box_vertices, concat_box_maps
from transmaps.corpus import random_curve_map, random_pl_map, random_surjective_pl
from transmaps.errors import DomainError, PreconditionError
from transmaps.exact import (
    FULL,
    CurveMap,
    Interval,
    affine_transform,
    pl_from_vertices,
    range_on,
    sup_distance,
    total_variation,
)
from transmaps.homotopy import apply_homotopy, box_data
from transmaps.rational import ONE, Q, ZERO
from transmaps.serialize import map_from_document, map_to_document
from transmaps.spaces import (
    identity_map,
    ladder_map,
    nowhere_dense_perturbation,
    phase_sawtooth,
    sawtooth,
    square_map,
)
from transmaps.transitivity import Verdict, box_chain_certify, chain_certified

from test_exact import vertex_lists
from test_output_arithmetic import extension_chain
from test_spaces import STOCK_SEEDS
from test_transitivity import (
    COLLINEAR_JUNCTION,
    LOW_SLOPE_CHAINS,
    chain_vertices,
    two_box_chain,
    valid_chains,
)


def poly(p, x):
    """A piece's value by its full formula, not through ``Piece.value_at``."""
    return p.c0 + x * (p.c1 + x * p.c2)


def assert_table(f):
    assert f._lows == tuple(p.domain.lo for p in f.pieces)
    assert len(f._values) == len(f.pieces) + 1
    for i, p in enumerate(f.pieces):
        assert f._values[i] == poly(p, p.domain.lo)
        assert f._values[i + 1] == poly(p, p.domain.hi)
        for x in (p.domain.lo, (p.domain.lo + p.domain.hi) / 3, p.domain.hi):
            assert p.value_at(x) == poly(p, x)


# -- the earlier bodies, kept as oracles --------------------------------------


def range_on_evaluated(f, j):
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


def sup_distance_evaluated(f, g):
    if f is g:
        return ZERO
    fi = gi = 0
    fp, gp = f.pieces, g.pieces
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


def total_variation_evaluated(f):
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


def plot_points_evaluated(f):
    points = []
    for p in f.pieces:
        if p.is_affine:
            xs = (p.domain.lo, p.domain.hi)
        else:
            w = p.domain.width
            xs = tuple(
                p.domain.lo + w * Q(j, svg.QUAD_SAMPLES - 1)
                for j in range(svg.QUAD_SAMPLES)
            )
        for x in xs:
            pt = (x, p.value_at(x))
            if not points or points[-1] != pt:
                points.append(pt)
    return points


def plot_points_deduplicated(f):
    # reference: both ends of every piece from the table, keeping each
    # point that differs from the one before it
    points = []
    values = f._values
    for i, p in enumerate(f.pieces):
        if p.is_affine:
            pts = ((p.domain.lo, values[i]), (p.domain.hi, values[i + 1]))
        else:
            w = p.domain.width
            xs = (p.domain.lo + w * Q(j, svg.QUAD_SAMPLES - 1) for j in range(svg.QUAD_SAMPLES))
            pts = [(x, p.value_at(x)) for x in xs]
        for pt in pts:
            if not points or points[-1] != pt:
                points.append(pt)
    return points


def render_svg_evaluated(f):
    with mock.patch.object(svg, "_plot_points", plot_points_evaluated):
        return svg.render_svg(f)


def reproduces_evaluated(f, chain):
    if not f.is_pl:
        return False
    pieces = f.pieces
    i = 0
    for window, params in chain.boxes:
        for x, y in box_vertices(window, params):
            piece = pieces[i]
            if x > piece.domain.hi or piece.value_at(x) != y:
                return False
            if x == piece.domain.hi and i + 1 < len(pieces):
                i += 1
    return True


def box_chain_certify_evaluated(f):
    chain = f._chain
    if not isinstance(chain, BoxChain) or not reproduces_evaluated(f, chain):
        return Verdict.inconclusive(0)
    if not chain_certified(chain.boxes):
        return Verdict.inconclusive(0)
    return Verdict.certified()


# -- chains whose junction legs can be collinear ------------------------------

EIGHTHS = [Q(k, 8) for k in range(9)]


@st.composite
def equal_slope_chains(draw):
    """Boxes of one width, band height and expansion: every leg has the
    same slope up to sign, so a junction is collinear whenever the legs on
    its two sides run the same way."""
    n = draw(st.integers(2, 4))
    height = draw(st.sampled_from([Q(1, 4), Q(3, 8), Q(1, 2)]))
    expansion = draw(st.sampled_from([Q(20), Q(21)]))
    junctions = [draw(st.sampled_from(EIGHTHS))]
    for _ in range(n):
        prev = junctions[-1]
        junctions.append(
            draw(st.sampled_from([y for y in EIGHTHS if abs(y - prev) <= height]))
        )
    boxes = []
    for i in range(n):
        lo, hi = sorted(junctions[i : i + 2])
        bottom = draw(
            st.sampled_from(
                [b for b in EIGHTHS if max(ZERO, hi - height) <= b <= min(lo, ONE - height)]
            )
        )
        params = BoxParams(junctions[i], junctions[i + 1], bottom, bottom + height, expansion)
        boxes.append((Interval(Q(i, n), Q(i + 1, n)), params))
    return tuple(boxes)


def merged_junctions(boxes):
    return len(chain_vertices(boxes)) - 1 - len(pl_from_vertices(chain_vertices(boxes)).pieces)


def test_equal_slope_chains_reach_collinear_junctions():
    # the strategy is only useful if it merges legs at junctions
    assert merged_junctions(COLLINEAR_JUNCTION) == 1
    boxes = find(
        equal_slope_chains(),
        lambda b: merged_junctions(b) > 0,
        settings=settings(max_examples=200, database=None),
    )
    assert merged_junctions(boxes) > 0


# -- every construction path fills the table ----------------------------------


def constructed_maps(rng):
    pl, curve = random_pl_map(rng), random_curve_map(rng)
    onto = random_surjective_pl(rng)
    yield curve  # CurveMap(...)
    yield CurveMap(pl.pieces)
    yield pl  # pl_from_vertices
    yield apply_homotopy(curve, Q(1, 8), Q(20))  # concat_box_maps
    yield affine_transform(curve, Q(1, 2), Q(1, 4))
    yield affine_transform(pl, -1, 1)
    yield map_from_document(map_to_document(curve))
    yield map_from_document(map_to_document(pl))
    try:
        h = nowhere_dense_perturbation(onto, Q(1, 10))
    except PreconditionError:  # no dyadic fixed point; the stock seeds cover the path
        return
    yield h


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_every_construction_path_fills_the_table(seed):
    for f in constructed_maps(random.Random(seed)):
        assert_table(f)


@pytest.mark.parametrize("name", sorted(STOCK_SEEDS))
def test_perturbations_fill_the_table(name):
    assert_table(nowhere_dense_perturbation(STOCK_SEEDS[name](), Q(1, 10)))


@settings(max_examples=200, deadline=None)
@given(vertex_lists())
def test_pl_from_vertices_fills_the_table(points):
    try:
        f = pl_from_vertices(points)
    except DomainError:
        return
    assert_table(f)


# -- concat_box_maps builds what pl_from_vertices builds ----------------------


def assert_direct_build_matches(boxes):
    g = concat_box_maps(list(boxes))
    direct = pl_from_vertices(chain_vertices(boxes))
    assert g.provenance is None and g._chain == BoxChain(tuple(boxes))
    assert (g.pieces, g._lows, g._values) == (direct.pieces, direct._lows, direct._values)
    assert g == direct and hash(g) == hash(direct)
    assert_table(g)
    # the integer build stores rationals of the scalar type only, never
    # an int (or an mpz) that compares equal
    scalars = [*g._lows, *g._values]
    for p in g.pieces:
        scalars += (p.domain.lo, p.domain.hi, p.c0, p.c1, p.c2)
    for w, p in boxes:
        xs, ys, c0s, slopes = boxmap._legs(w, p)
        scalars += [*xs, *ys, *c0s, *slopes]
    assert all(type(v) is Q for v in scalars)


# expansion 41/2 on [1/3, 1]: x1 = 209/574 and step 4/123, so their
# common denominator 1722 is neither of them
THIRDS = (
    (Interval(ZERO, Q(1, 3)), BoxParams(Q(1, 2), Q(1, 7), ZERO, ONE, Q(41, 2))),
    (Interval(Q(1, 3), ONE), BoxParams(Q(1, 7), Q(5, 8), Q(1, 10), Q(9, 10), Q(41, 2))),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(valid_chains(), equal_slope_chains()))
@example(boxes=extension_chain(ladder_map(6), sawtooth(3), ZERO, Q(1, 3)))
@example(boxes=extension_chain(sawtooth(5), phase_sawtooth(3, Q(5, 64)), ONE, Q(1, 2)))
@example(boxes=THIRDS)
def test_concat_box_maps_matches_pl_from_vertices(boxes):
    assert_direct_build_matches(boxes)


@pytest.mark.parametrize("boxes", [COLLINEAR_JUNCTION] + [b for b, _ in LOW_SLOPE_CHAINS])
def test_concat_box_maps_fixed_chains(boxes):
    assert_direct_build_matches(boxes)


def test_box_layouts_are_computed_once():
    # the builder lays out each box once; the chain keeps no copy of the
    # vertices, so the distance and the certificate lay out none, and the
    # certificate takes the built chain without validating it again
    boxes = list(box_data(sawtooth(3), Q(1, 8), Q(41, 2)).items())
    layout = mock.Mock(wraps=boxmap._legs)
    with mock.patch.object(boxmap, "_legs", layout):
        g = concat_box_maps(boxes)
        assert layout.call_args_list == [mock.call(w, p) for w, p in boxes]
        layout.reset_mock()
        f = random_pl_map(random.Random(5))
        assert sup_distance(f, g) == sup_distance(g, f) == sup_distance_evaluated(f, g)
        with mock.patch.object(BoxChain, "__post_init__", side_effect=AssertionError):
            assert box_chain_certify(g).is_certified
    assert layout.call_count == 0


# -- the readers against the evaluating bodies --------------------------------


def query_points(f):
    pts = set(f.breakpoints)
    for p in f.pieces:
        lo, hi = p.domain.lo, p.domain.hi
        pts.update((lo + (hi - lo) / 3, hi - (hi - lo) / 3))
        if p.vertex() is not None:
            pts.update((p.vertex(), (p.vertex() + lo) / 2))
    return sorted(pts)


def reader_maps(rng):
    pl, curve = random_pl_map(rng), random_curve_map(rng)
    return [pl, curve, apply_homotopy(curve, Q(1, 8), Q(20)), square_map()]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_range_on_matches_evaluated(seed, data):
    for f in reader_maps(random.Random(seed)):
        pts = query_points(f)
        piece = data.draw(st.sampled_from(f.pieces))
        lo, hi = piece.domain.lo, piece.domain.hi
        a, b = sorted(data.draw(st.lists(st.sampled_from(pts), min_size=2, max_size=2)))
        queries = [
            FULL,
            Interval(a, b),
            Interval(a, a),
            Interval(lo + (hi - lo) / 4, hi - (hi - lo) / 4),  # inside one piece
            Interval(lo + (hi - lo) / 4, hi),
            Interval(lo, hi - (hi - lo) / 4),
        ]
        for j in queries:
            assert range_on(f, j) == range_on_evaluated(f, j), (f, j)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_sup_distance_and_variation_match_evaluated(seed):
    rng = random.Random(seed)
    maps = reader_maps(rng) + [identity_map(), random_curve_map(rng)]
    for f in maps:
        assert total_variation(f) == total_variation_evaluated(f)
        for g in maps:
            assert sup_distance(f, g) == sup_distance_evaluated(f, g), (f, g)


def test_sup_distance_reads_parabola_vertices():
    # x - x^2 peaks at the vertex 1/2, away from every breakpoint
    assert sup_distance(square_map(), identity_map()) == Q(1, 4)
    assert sup_distance(identity_map(), square_map()) == Q(1, 4)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_render_svg_matches_evaluated(seed):
    rng = random.Random(seed)
    for f in reader_maps(rng) + [random_curve_map(rng), random_curve_map(rng)]:
        points = svg._plot_points(f)
        assert points == plot_points_evaluated(f) == plot_points_deduplicated(f)
        assert all(a[0] < b[0] for a, b in zip(points, points[1:]))
        assert svg.render_svg(f) == render_svg_evaluated(f)


@settings(max_examples=100, deadline=None)
@given(st.one_of(valid_chains(), equal_slope_chains()))
def test_box_chain_certify_matches_evaluated(boxes):
    f = concat_box_maps(list(boxes))
    assert reproduces_evaluated(f, f._chain)
    assert box_chain_certify(f) == box_chain_certify_evaluated(f)


def test_stale_vertex_merged_away_is_caught():
    # the junction vertex of COLLINEAR_JUNCTION is no breakpoint of the map;
    # the evaluated rebuild takes the true chain and refuses a valid chain
    # whose junction value is moved
    f = concat_box_maps(list(COLLINEAR_JUNCTION))
    x, y = box_vertices(*COLLINEAR_JUNCTION[0])[-1]
    assert x not in f.breakpoints
    (w1, p1), (w2, p2) = COLLINEAR_JUNCTION
    moved = y + Q(1, 64)
    stale = BoxChain((
        (w1, BoxParams(p1.left_value, moved, p1.bottom, p1.top, p1.expansion)),
        (w2, BoxParams(moved, p2.right_value, p2.bottom, moved, p2.expansion)),
    ))
    assert reproduces_evaluated(f, BoxChain(COLLINEAR_JUNCTION))
    assert not reproduces_evaluated(f, stale)
    # with the chain certificate forced to pass, only the chain's own map
    # passes, not a map built from its pieces
    with mock.patch.object(transitivity, "_chain_certificate", return_value=True):
        assert box_chain_certify(f) == Verdict.certified()
        assert box_chain_certify(CurveMap(f.pieces)) == Verdict.inconclusive(0)


def test_dropped_vertex_is_caught():
    # the map skips one turning point of a certified chain, so each of its
    # breakpoints is a chain vertex with the right value, yet it is not
    # the chain's map
    chain = two_box_chain(True)._chain
    assert box_chain_certify(two_box_chain(True)).is_certified
    verts = chain_vertices(chain.boxes)
    f = pl_from_vertices(verts[:5] + verts[6:])
    assert set(f.breakpoints) < {x for x, _ in verts}
    assert not reproduces_evaluated(f, chain)
    assert box_chain_certify(f) == Verdict.inconclusive(0)
