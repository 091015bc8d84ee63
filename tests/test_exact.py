"""Core exact-arithmetic layer: construction guards and the map operations.

Frozen expected values were derived by hand from the closed forms (vertex
of the difference quadratic, lap decompositions) before the implementation
existed; property tests then cross-check the operations against pointwise
sampling on seeded random maps.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transmaps.boxmap import box_vertices, concat_box_maps
from transmaps.corpus import random_curve_map, random_pl_map, random_surjective_pl
from transmaps.errors import DomainError
from transmaps.exact import (
    FULL,
    CurveMap,
    Interval,
    IntervalSet,
    Piece,
    affine_transform,
    evaluate,
    image_set,
    pl_from_vertices,
    range_on,
    sup_distance,
    total_variation,
)
from transmaps.homotopy import apply_homotopy, box_data
from transmaps.rational import ONE, Q, ZERO, as_scalar
from transmaps.serialize import map_from_document, map_to_document
from transmaps.spaces import ladder_map, nowhere_dense_perturbation, phase_sawtooth, sawtooth


def tent() -> CurveMap:
    return pl_from_vertices([(0, 0), (Q(1, 2), 1), (1, 0)])


def square() -> CurveMap:
    # x -> x^2 as a single quadratic piece
    return CurveMap((Piece(FULL, ZERO, ZERO, ONE),))


def identity() -> CurveMap:
    return pl_from_vertices([(0, 0), (1, 1)])


def seeded_maps(seed: int, surjective: bool = False):
    rng = random.Random(seed)
    make = random_surjective_pl if surjective else random_pl_map
    return make(rng), random_curve_map(rng)


# -- interval plumbing -----------------------------------------------------


class TestIntervals:
    def test_rejects_points_outside_unit(self):
        with pytest.raises(DomainError):
            Interval(Q(-1, 2), Q(1, 2))
        with pytest.raises(DomainError):
            Interval(Q(1, 2), Q(3, 2))
        with pytest.raises(DomainError):
            Interval(Q(2, 3), Q(1, 3))

    def test_merge_of_touching_components(self):
        s = IntervalSet.from_intervals(
            [Interval(ZERO, Q(1, 2)), Interval(Q(1, 2), ONE)]
        )
        assert s == IntervalSet((FULL,))

    def test_merge_keeps_gaps(self):
        s = IntervalSet.from_intervals(
            [Interval(Q(3, 4), ONE), Interval(ZERO, Q(1, 4))]
        )
        assert len(s.components) == 2
        assert s.components[0].hi == Q(1, 4)

    def test_overlap_is_absorbed(self):
        s = IntervalSet.from_intervals(
            [Interval(ZERO, Q(2, 3)), Interval(Q(1, 3), Q(3, 4))]
        )
        assert s == IntervalSet((Interval(ZERO, Q(3, 4)),))

    def test_containment(self):
        s = IntervalSet.from_intervals(
            [Interval(ZERO, Q(1, 4)), Interval(Q(1, 2), ONE)]
        )
        assert s.contains_set(IntervalSet((Interval(Q(1, 8), Q(1, 4)),)))
        assert not s.contains_set(IntervalSet((Interval(Q(1, 8), Q(1, 2)),)))
        assert sum(c.width for c in s.components) == Q(3, 4)


class TestConstructionGuards:
    def test_piece_must_stay_inside_unit_square(self):
        with pytest.raises(DomainError):
            Piece(FULL, ZERO, Q(2), ZERO)  # reaches 2 at x=1

    def test_quadratic_vertex_is_checked(self):
        # endpoints give 0 and 1 but the dip at the vertex goes below 0
        with pytest.raises(DomainError):
            Piece(FULL, ZERO, -ONE, Q(2))

    def test_discontinuity_rejected(self):
        a = Piece(Interval(ZERO, Q(1, 2)), ZERO, ONE, ZERO)
        b = Piece(Interval(Q(1, 2), ONE), ZERO, ZERO, ZERO)
        with pytest.raises(DomainError):
            CurveMap((a, b))

    def test_gap_rejected(self):
        a = Piece(Interval(ZERO, Q(1, 4)), ZERO, ONE, ZERO)
        b = Piece(Interval(Q(1, 2), ONE), Q(1, 4), ZERO, ZERO)
        with pytest.raises(DomainError):
            CurveMap((a, b))

    def test_collinear_pieces_merge(self):
        split = pl_from_vertices([(0, 0), (Q(1, 3), Q(1, 3)), (1, 1)])
        assert len(split.pieces) == 1
        assert split == identity()

    def test_provenance_ignored_by_equality(self):
        # a chain map carries its chain; the same map from its vertices
        # carries none, and the two are equal
        g = apply_homotopy(tent(), Q(1, 4), Q(20))
        f = pl_from_vertices(list(zip(g.breakpoints, g._values)))
        assert g._chain is not None and f._chain is None
        assert f == g
        assert hash(f) == hash(g)
        # a perturbation carries its record, and equals its pieces' map
        h = nowhere_dense_perturbation(sawtooth(3), Q(1, 10))
        assert h.provenance is not None and CurveMap(h.pieces) == h

    def test_no_constructor_takes_a_record(self):
        with pytest.raises(TypeError):
            CurveMap(identity().pieces, provenance={"note": "anything"})


# -- frozen values ---------------------------------------------------------


class TestFrozenValues:
    def test_sup_distance_square_vs_identity(self):
        # max (x - x^2) = 1/4 at the interior vertex x = 1/2
        assert sup_distance(square(), identity()) == Q(1, 4)

    def test_sup_distance_tent_vs_identity(self):
        # the gap at the right endpoint (|0 - 1|) beats the 1/2 at the peak
        assert sup_distance(tent(), identity()) == ONE

    def test_total_variation_splits_at_vertex(self):
        # (2x-1)^2 descends 1 then climbs 1
        bowl = CurveMap((Piece(FULL, ONE, Q(-4), Q(4)),))
        assert total_variation(bowl) == Q(2)

    def test_range_on_square(self):
        r = range_on(square(), Interval(Q(1, 4), Q(1, 2)))
        assert (r.lo, r.hi) == (Q(1, 16), Q(1, 4))

    def test_range_on_sees_interior_vertex(self):
        bowl = CurveMap((Piece(FULL, ONE, Q(-4), Q(4)),))
        r = range_on(bowl, Interval(Q(1, 4), Q(3, 4)))
        assert (r.lo, r.hi) == (ZERO, Q(1, 4))

    def test_image_set_tent(self):
        u = IntervalSet.from_intervals(
            [Interval(ZERO, Q(1, 4)), Interval(Q(3, 8), Q(5, 8))]
        )
        img = image_set(tent(), u)
        assert img == IntervalSet.from_intervals(
            [Interval(ZERO, Q(1, 2)), Interval(Q(3, 4), ONE)]
        )


# -- range_on against the linear scan it replaced ---------------------------


def range_on_scan(f, j):
    """Reference: the min/max over every piece's intersection with J."""
    lo = hi = None
    for p in f.pieces:
        a = max(p.domain.lo, j.lo)
        b = min(p.domain.hi, j.hi)
        if a > b:
            continue
        if a == b:
            v = p.value_at(a)
            plo = phi = v
        else:
            plo, phi = p.range_over(a, b)
        if lo is None or plo < lo:
            lo = plo
        if hi is None or phi > hi:
            hi = phi
    if lo is None:
        raise DomainError("interval does not meet [0,1]")
    return Interval(lo, hi)


def query_points(p):
    """Ends, thirds and interior vertex of one piece's domain."""
    lo, hi = p.domain.lo, p.domain.hi
    pts = {lo, lo + (hi - lo) / 3, hi - (hi - lo) / 3, hi}
    if p.vertex() is not None:
        pts.add(p.vertex())
    return sorted(pts)


def draw_interval(data, points):
    a, b = data.draw(st.lists(st.sampled_from(points), min_size=2, max_size=2))
    return Interval(min(a, b), max(a, b))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_range_on_matches_linear_scan(seed, data):
    rng = random.Random(seed)
    for f in (random_pl_map(rng), random_curve_map(rng)):
        piece = data.draw(st.sampled_from(f.pieces))
        inner = query_points(piece)
        anywhere = sorted({x for p in f.pieces for x in query_points(p)})
        x = data.draw(st.sampled_from(anywhere))
        queries = [
            FULL,
            Interval(ZERO, ZERO),
            Interval(ONE, ONE),
            Interval(x, x),
            draw_interval(data, list(f.breakpoints)),
            draw_interval(data, inner),
            Interval(inner[1], inner[-2]),
            draw_interval(data, anywhere),
        ]
        for j in queries:
            assert range_on(f, j) == range_on_scan(f, j), (f, j)


# -- pl_from_vertices against the validating constructors it bypasses ------


def pl_from_vertices_oracle(points):
    """Reference: a validated ``Piece`` per segment, then ``CurveMap(...)``."""
    pts = [(as_scalar(x), as_scalar(y)) for x, y in points]
    if len(pts) < 2:
        raise DomainError("need at least two vertices")
    pieces = []
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if not x0 < x1:
            raise DomainError("vertex abscissae must strictly increase")
        slope = (y1 - y0) / (x1 - x0)
        pieces.append(Piece(Interval(x0, x1), y0 - slope * x0, slope, ZERO))
    return CurveMap(tuple(pieces))


def construction_outcome(build, points):
    try:
        f = build(points)
    except DomainError as e:
        return "error", str(e)
    assert type(f) is CurveMap
    assert f.provenance is None
    return "map", f.pieces, f._lows


GRID = 16


@st.composite
def valid_vertices(draw):
    cuts = draw(st.lists(st.integers(1, GRID - 1), max_size=8, unique=True))
    xs = [ZERO] + [Q(c, GRID) for c in sorted(cuts)] + [ONE]
    ys = [Q(draw(st.integers(0, GRID)), GRID) for _ in xs]
    return list(zip(xs, ys))


def with_collinear_runs(draw, pts):
    """Split segments at points on them, and flatten some into plateaus."""
    out = [pts[0]]
    for x1, y1 in pts[1:]:
        x0, y0 = out[-1]
        if draw(st.booleans()):
            y1 = y0
        for k in sorted(draw(st.sets(st.integers(1, 3), max_size=3))):
            r = Q(k, 4)
            out.append((x0 + r * (x1 - x0), y0 + r * (y1 - y0)))
        out.append((x1, y1))
    return out


def as_text_or_int(draw, pts):
    def encode(q):
        if draw(st.booleans()):
            return q
        if q.denominator == 1 and draw(st.booleans()):
            return int(q)
        return f"{q.numerator}/{q.denominator}"
    return [(encode(x), encode(y)) for x, y in pts]


@st.composite
def vertex_lists(draw):
    pts = draw(valid_vertices())
    kind = draw(st.sampled_from([
        "valid", "collinear", "text", "single", "x not increasing",
        "x outside", "y outside", "not tiling",
    ]))
    i = draw(st.integers(0, len(pts) - 1))
    if kind == "collinear":
        pts = with_collinear_runs(draw, pts)
    elif kind == "text":
        pts = as_text_or_int(draw, with_collinear_runs(draw, pts))
    elif kind == "single":
        pts = pts[:draw(st.integers(0, 1))]
    elif kind == "x not increasing":
        j = draw(st.integers(0, len(pts) - 1))
        x = pts[j][0] - Q(draw(st.integers(0, GRID)), GRID)
        pts.insert(j + 1, (x, pts[i][1]))
    elif kind == "x outside":
        step = Q(draw(st.integers(1, GRID)), GRID)
        if draw(st.booleans()):
            pts.insert(0, (-step, pts[0][1]))
        else:
            pts.append((ONE + step, pts[-1][1]))
    elif kind == "y outside":
        out = Q(draw(st.integers(1, GRID)), GRID)
        pts[i] = (pts[i][0], -out if draw(st.booleans()) else ONE + out)
    elif kind == "not tiling":
        if draw(st.booleans()) and len(pts) > 2:
            pts = pts[1:] if draw(st.booleans()) else pts[:-1]
        else:
            shift = Q(draw(st.integers(1, GRID)), 4 * GRID)
            lo = shift if draw(st.booleans()) else ZERO
            pts = [(lo + (1 - shift) * x, y) for x, y in pts]
    return pts


@settings(max_examples=400, deadline=None)
@given(vertex_lists())
def test_pl_from_vertices_matches_validating_constructors(points):
    outcome = construction_outcome(pl_from_vertices, points)
    assert outcome == construction_outcome(pl_from_vertices_oracle, points), points


@st.composite
def rebuilt_maps(draw):
    """A map from a small pool, built again along one construction path."""
    rng = random.Random(draw(st.integers(0, 3)))
    source = draw(st.sampled_from(["pl", "curve", "chain"]))
    f = random_curve_map(rng) if source == "curve" else random_pl_map(rng)
    if source == "chain":
        f = apply_homotopy(f, Q(1, 4), Q(20))
    paths = ["pieces", "affine", "document"]
    paths += ["vertices"] if f.is_pl else []
    paths += ["chain"] if f._chain is not None else []
    path = draw(st.sampled_from(paths))
    if path == "pieces":
        return CurveMap(f.pieces)
    if path == "affine":
        return affine_transform(f, 1, 0)
    if path == "document":
        return map_from_document(map_to_document(f))
    if path == "vertices":
        return pl_from_vertices(list(zip(f.breakpoints, f._values)))
    return concat_box_maps(list(f._chain.boxes))


@settings(max_examples=200, deadline=None)
@given(rebuilt_maps(), rebuilt_maps())
def test_maps_are_equal_exactly_when_their_pieces_are(f, g):
    assert type(f) is type(g) is CurveMap
    assert (f == g) == (f.pieces == g.pieces)
    if f == g:
        assert hash(f) == hash(g)


def test_pl_from_vertices_error_messages():
    cases = [
        ([(0, 0)], "need at least two vertices"),
        ([(0, 0), (0, 1), (1, 0)], "vertex abscissae must strictly increase"),
        ([("-1/4", 0), (1, 1)], "not a subinterval of [0,1]: [-1/4, 1]"),
        ([(0, 0), ("1/2", "3/2"), (1, 0)],
         "piece values leave [0,1] on [0, 1/2]: range [0, 3/2]"),
        ([(0, 0), ("1/2", 1)], "pieces do not tile [0,1]"),
    ]
    for points, message in cases:
        with pytest.raises(DomainError) as new:
            pl_from_vertices(points)
        with pytest.raises(DomainError) as old:
            pl_from_vertices_oracle(points)
        assert str(new.value) == str(old.value) == message


def deform_family_seeds():
    rng = random.Random(4)
    yield random_surjective_pl(rng, 5)
    yield phase_sawtooth(3, Q(5, 64))
    yield ladder_map(5)
    yield nowhere_dense_perturbation(sawtooth(3), Q(1, 10))


@pytest.mark.parametrize("t, gamma", [(Q(1, 16), Q(20)), (Q(1, 32), Q(25))])
def test_concat_box_maps_matches_validated_pieces(t, gamma):
    for f in deform_family_seeds():
        items = list(box_data(f, t, gamma).items())
        verts = []
        for window, p in items:
            vs = box_vertices(window, p)
            verts.extend(vs[1:] if verts else vs)
        g = concat_box_maps(items)
        assert g.pieces == pl_from_vertices_oracle(verts).pieces
        assert g._lows == tuple(p.domain.lo for p in g.pieces)


# -- sup_distance against the routine that evaluated both segment ends -----


def sup_distance_both_ends(f, g):
    """Reference: both ends and the vertex of every refinement segment."""
    if f is g:
        return ZERO
    best = ZERO
    fi = gi = 0
    fp, gp = f.pieces, g.pieces
    x = ZERO
    while True:
        pf, pg = fp[fi], gp[gi]
        x1 = min(pf.domain.hi, pg.domain.hi)
        d0 = pf.c0 - pg.c0
        d1 = pf.c1 - pg.c1
        d2 = pf.c2 - pg.c2
        best = max(best, abs(d0 + x * (d1 + x * d2)), abs(d0 + x1 * (d1 + x1 * d2)))
        if d2 != 0:
            v = -d1 / (2 * d2)
            if x < v < x1:
                best = max(best, abs(d0 + v * (d1 + v * d2)))
        if x1 == ONE:
            return best
        x = x1
        if pf.domain.hi == x1:
            fi += 1
        if pg.domain.hi == x1:
            gi += 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([Q(1, 8), Q(1, 16)]))
def test_sup_distance_matches_both_ends_routine(seed, t):
    rng = random.Random(seed)
    f, g = random_pl_map(rng), random_curve_map(rng)
    h = random_curve_map(rng)
    pairs = [(f, g), (g, f), (g, h), (f, f), (g, g), (f, apply_homotopy(f, t, Q(20)))]
    for a, b in pairs:
        assert sup_distance(a, b) == sup_distance_both_ends(a, b), (a, b)
    same = pl_from_vertices([(x, f.value_at(x)) for x in f.breakpoints])
    assert same is not f and sup_distance(f, same) == 0


# -- properties on seeded random maps --------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_evaluation_agrees_with_piece_formula(seed):
    f, g = seeded_maps(seed)
    for m in (f, g):
        for p in m.pieces:
            for x in (p.domain.lo, (p.domain.lo + p.domain.hi) / 2, p.domain.hi):
                assert evaluate(m, x) == p.value_at(x)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_sup_distance_is_a_metric(seed):
    rng = random.Random(seed)
    f, g, h = (random_pl_map(rng) for _ in range(3))
    assert sup_distance(f, f) == 0
    d_fg = sup_distance(f, g)
    assert d_fg == sup_distance(g, f)
    assert d_fg <= sup_distance(f, h) + sup_distance(h, g)
    if f != g:
        assert d_fg > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_sup_distance_dominates_pointwise_gap(seed):
    f, g = seeded_maps(seed)
    d = sup_distance(f, g)
    for k in range(0, 33):
        x = Q(k, 32)
        gap = evaluate(f, x) - evaluate(g, x)
        assert abs(gap) <= d


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_image_contains_pointwise_images(seed):
    f, q = seeded_maps(seed)
    for m in (f, q):
        u = IntervalSet.from_intervals(
            [Interval(ZERO, Q(1, 3)), Interval(Q(1, 2), Q(7, 8))]
        )
        img = image_set(m, u)
        for k in range(0, 25):
            x = Q(k, 24)
            if any(c.contains(x) for c in u.components):
                y = evaluate(m, x)
                assert any(c.contains(y) for c in img.components)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_image_endpoints_are_attained(seed):
    f, _ = seeded_maps(seed)
    r = range_on(f, FULL)
    candidates = set(f.breakpoints)
    for p in f.pieces:
        v = p.vertex()
        if v is not None:
            candidates.add(v)
    values = {evaluate(f, x) for x in candidates}
    assert r.lo in values and r.hi in values


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_total_variation_dominates_sampled_variation(seed):
    f, q = seeded_maps(seed)
    for m in (f, q):
        tv = total_variation(m)
        sampled = sum(
            abs(evaluate(m, Q(k + 1, 64)) - evaluate(m, Q(k, 64))) for k in range(64)
        )
        assert sampled <= tv
    # for PL maps sampling at breakpoints is exact
    xs = sorted(set(f.breakpoints))
    exact = sum(abs(evaluate(f, b) - evaluate(f, a)) for a, b in zip(xs, xs[1:]))
    assert exact == total_variation(f)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_affine_transform_pointwise(seed):
    f, _ = seeded_maps(seed)
    g = affine_transform(f, Q(1, 2), Q(1, 4))
    for k in range(9):
        x = Q(k, 8)
        assert evaluate(g, x) == evaluate(f, x) / 2 + Q(1, 4)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_surjective_corpus_covers_unit_interval(seed):
    rng = random.Random(seed)
    f = random_surjective_pl(rng)
    r = range_on(f, FULL)
    assert (r.lo, r.hi) == (ZERO, ONE)


def test_float_inputs_are_rejected():
    with pytest.raises(DomainError):
        Interval(0.25, 0.5)
    with pytest.raises(DomainError):
        pl_from_vertices([(0, 0), (0.5, 1.0), (1, 0)])
