"""The breakpoint-value table and its readers, against the bodies they replaced.

Every map keeps ``_values``, its value at each breakpoint, filled once by
each construction path.  ``range_on``, ``sup_distance``,
``total_variation``, ``render_svg`` and the record check of
``box_chain_certify`` read piece-end values from it; the earlier bodies,
which evaluated every piece end, are kept here as oracles.
``concat_box_maps`` builds its pieces straight from the box vertices and
is checked against ``pl_from_vertices`` on the same vertices.
"""
import random
from unittest import mock

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from transmaps import svg
from transmaps.boxmap import BoxChain, BoxParams, box_vertices, concat_box_maps
from transmaps.corpus import random_curve_map, random_pl_map, random_surjective_pl
from transmaps.errors import DomainError, PreconditionError
from transmaps.exact import (
    FULL,
    CurveMap,
    Interval,
    PLMap,
    affine_transform,
    pl_from_vertices,
    range_on,
    sup_distance,
    total_variation,
)
from transmaps.homotopy import apply_homotopy
from transmaps.rational import ONE, Q, ZERO
from transmaps.serialize import map_from_document, map_to_document
from transmaps.spaces import identity_map, nowhere_dense_perturbation, square_map
from transmaps.transitivity import Verdict, _reproduces, box_chain_certify, chain_certified

from test_exact import vertex_lists
from test_spaces import STOCK_SEEDS
from test_transitivity import (
    COLLINEAR_JUNCTION,
    LOW_SLOPE_CHAINS,
    chain_vertices,
    record_variants,
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
    chain = f.provenance
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
    yield PLMap(pl.pieces)  # PLMap(...)
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
    want = pl_from_vertices(chain_vertices(boxes), provenance=g.provenance)
    assert type(g) is PLMap
    assert g.provenance == BoxChain(tuple(boxes))
    assert (g.pieces, g._lows, g._values) == (want.pieces, want._lows, want._values)
    assert want.provenance is g.provenance
    assert_table(g)


@settings(max_examples=150, deadline=None)
@given(st.one_of(valid_chains(), equal_slope_chains()))
def test_concat_box_maps_matches_pl_from_vertices(boxes):
    assert_direct_build_matches(boxes)


@pytest.mark.parametrize("boxes", [COLLINEAR_JUNCTION] + [b for b, _ in LOW_SLOPE_CHAINS])
def test_concat_box_maps_fixed_chains(boxes):
    assert_direct_build_matches(boxes)


def test_chain_vertices_are_computed_once():
    g = concat_box_maps(list(COLLINEAR_JUNCTION))
    lists = g.provenance._vertices
    assert g.provenance._vertices is lists
    assert list(lists) == [box_vertices(w, p) for w, p in COLLINEAR_JUNCTION]
    # the map's breakpoints are the chain's own vertex objects
    assert g._lows[0] is lists[0][0][0] and g._values[-1] is lists[-1][-1][1]


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
    for f in reader_maps(random.Random(seed)):
        assert svg._plot_points(f) == plot_points_evaluated(f)
        assert svg.render_svg(f) == render_svg_evaluated(f)


@settings(max_examples=100, deadline=None)
@given(st.one_of(valid_chains(), equal_slope_chains()), valid_chains())
def test_box_chain_certify_matches_evaluated(boxes, other):
    variants = list(record_variants(boxes, other))
    assert len(variants) == 6
    for f in variants:
        assert box_chain_certify(f) == box_chain_certify_evaluated(f)


def test_stale_vertex_merged_away_is_caught():
    # the junction vertex of COLLINEAR_JUNCTION is no breakpoint of the map;
    # vertex lists that differ from the chain's only there must not pass
    f = concat_box_maps(list(COLLINEAR_JUNCTION))
    first, second = (list(vs) for vs in f.provenance._vertices)
    x, y = first[-1]
    assert x not in f.breakpoints
    assert _reproduces(f, (first, second))
    moved = y + Q(1, 64)
    assert not _reproduces(f, (first[:-1] + [(x, moved)], [(x, moved)] + second[1:]))


def test_dropped_vertex_is_caught():
    # the map skips one turning point of a certified chain, so each of its
    # breakpoints is a chain vertex with the right value, yet it is not
    # the chain's map
    chain = two_box_chain(True).provenance
    assert box_chain_certify(two_box_chain(True)).is_certified
    verts = chain_vertices(chain.boxes)
    f = pl_from_vertices(verts[:5] + verts[6:], provenance=chain)
    assert set(f.breakpoints) < {x for x, _ in verts}
    assert box_chain_certify(f) == box_chain_certify_evaluated(f) == Verdict.inconclusive(0)
