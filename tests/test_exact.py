"""Core exact-arithmetic layer: construction guards and the seven operations.

Frozen expected values were derived by hand from the closed forms (vertex
of the difference quadratic, lap decompositions) before the implementation
existed; property tests then cross-check the operations against pointwise
sampling on seeded random maps.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transmaps.corpus import random_curve_map, random_pl_map, random_surjective_pl
from transmaps.errors import DomainError
from transmaps.exact import (
    FULL,
    CurveMap,
    Interval,
    IntervalSet,
    Piece,
    PLMap,
    affine_transform,
    compose_pl,
    evaluate,
    image_set,
    modality,
    pl_from_vertices,
    range_on,
    sup_distance,
    total_variation,
)
from transmaps.rational import ONE, Q, ZERO


def tent() -> PLMap:
    return pl_from_vertices([(0, 0), (Q(1, 2), 1), (1, 0)])


def square() -> CurveMap:
    # x -> x^2 as a single quadratic piece
    return CurveMap((Piece(FULL, ZERO, ZERO, ONE),))


def identity() -> PLMap:
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
        assert s == IntervalSet.single(0, Q(3, 4))

    def test_containment(self):
        s = IntervalSet.from_intervals(
            [Interval(ZERO, Q(1, 4)), Interval(Q(1, 2), ONE)]
        )
        assert s.contains_set(IntervalSet.single(Q(1, 8), Q(1, 4)))
        assert not s.contains_set(IntervalSet.single(Q(1, 8), Q(1, 2)))
        assert s.measure() == Q(3, 4)


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

    def test_plmap_rejects_quadratic_piece(self):
        with pytest.raises(DomainError):
            PLMap((Piece(FULL, ZERO, ZERO, ONE),))

    def test_provenance_ignored_by_equality(self):
        f = pl_from_vertices([(0, 0), (1, 1)])
        g = PLMap(f.pieces, provenance={"note": "anything"})
        assert f == g
        assert hash(f) == hash(g)


# -- frozen values ---------------------------------------------------------


class TestFrozenValues:
    def test_sup_distance_square_vs_identity(self):
        # max (x - x^2) = 1/4 at the interior vertex x = 1/2
        assert sup_distance(square(), identity()) == Q(1, 4)

    def test_sup_distance_tent_vs_identity(self):
        # the gap at the right endpoint (|0 - 1|) beats the 1/2 at the peak
        assert sup_distance(tent(), identity()) == ONE

    def test_tent_composed_with_itself(self):
        t2 = compose_pl(tent(), tent())
        assert t2.breakpoints == (ZERO, Q(1, 4), Q(1, 2), Q(3, 4), ONE)
        assert modality(t2) == 3
        assert total_variation(t2) == Q(4)
        assert evaluate(t2, Q(1, 8)) == Q(1, 2)

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

    def test_modality_of_tent(self):
        assert modality(tent()) == 1
        assert modality(identity()) == 0

    def test_plateaus_do_not_count_as_extrema(self):
        f = pl_from_vertices([(0, 0), (Q(1, 4), Q(1, 2)), (Q(3, 4), Q(1, 2)), (1, 1)])
        assert modality(f) == 0
        g = pl_from_vertices([(0, 0), (Q(1, 4), Q(1, 2)), (Q(3, 4), Q(1, 2)), (1, 0)])
        assert modality(g) == 1


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
def test_composition_agrees_pointwise(seed):
    rng = random.Random(seed)
    f, g = random_pl_map(rng), random_pl_map(rng)
    gf = compose_pl(f, g)
    xs = {Q(k, 16) for k in range(17)} | set(f.breakpoints) | set(gf.breakpoints)
    for x in xs:
        assert evaluate(gf, x) == evaluate(g, evaluate(f, x))


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
            if u.contains_point(x):
                assert img.contains_point(evaluate(m, x))


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
