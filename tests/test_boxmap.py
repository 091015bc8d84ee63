"""Box map layout: frozen leg structures plus parameter-space properties.

The frozen cases were worked out by hand from the layout rules (budget,
parity of the final sweep, remainder overshoot) before implementation.
"""
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transmaps import boxmap
from transmaps.boxmap import (
    BoxChain,
    BoxParams,
    box_values,
    box_vertices,
    build_box_map,
    concat_box_maps,
)
from transmaps.errors import ParameterError
from transmaps.exact import (
    FULL,
    Interval,
    evaluate,
    pl_from_vertices,
    range_on,
    sup_distance,
    total_variation,
)
from transmaps.rational import ONE, Q, ZERO


class TestParamGuards:
    def test_band_must_be_nondegenerate(self):
        with pytest.raises(ParameterError):
            BoxParams(Q(1, 2), Q(1, 2), Q(1, 2), Q(1, 2), Q(20))

    def test_edge_values_must_sit_in_band(self):
        with pytest.raises(ParameterError):
            BoxParams(Q(3, 4), Q(1, 4), Q(0), Q(1, 2), Q(20))

    def test_expansion_floor(self):
        with pytest.raises(ParameterError):
            BoxParams(Q(0), Q(1), Q(0), Q(1), Q(19))

    def test_floats_rejected(self):
        with pytest.raises(Exception):
            BoxParams(0.1, 0.2, 0.0, 1.0, 20.0)


class TestFrozenLayouts:
    def test_narrow_band_with_remainder(self):
        # band [0, 1/5], edges 3/20 and 1/10, expansion 20 on [0,1]:
        # slope 4, twenty full sweeps, remainder 1/20 burnt at value 1/8
        p = BoxParams(Q(3, 20), Q(1, 10), ZERO, Q(1, 5), Q(20))
        f = build_box_map(p)
        assert len(f.pieces) == 22
        assert total_variation(f) == Q(4)
        assert all(abs(pc.c1) == Q(4) for pc in f.pieces)
        assert evaluate(f, ZERO) == Q(3, 20)
        assert evaluate(f, ONE) == Q(1, 10)
        vals = box_values(p)
        assert vals[-2] == Q(1, 8)
        assert range_on(f, FULL) == Interval(ZERO, Q(1, 5))

    def test_full_band_expansion_20(self):
        p = BoxParams(ZERO, ONE, ZERO, ONE, Q(20))
        f = build_box_map(p)
        assert len(f.pieces) == 21
        assert total_variation(f) == Q(20)
        assert box_values(p)[-2] == Q(1, 2)

    def test_full_band_expansion_21_exact_fit(self):
        # budget fits an odd sweep count exactly: no remainder vertex
        p = BoxParams(ZERO, ONE, ZERO, ONE, Q(21))
        f = build_box_map(p)
        assert len(f.pieces) == 21
        assert total_variation(f) == Q(21)

    def test_full_band_expansion_22(self):
        p = BoxParams(ZERO, ONE, ZERO, ONE, Q(22))
        f = build_box_map(p)
        assert len(f.pieces) == 23
        assert total_variation(f) == Q(22)

    def test_left_edge_at_top_dives_first(self):
        p = BoxParams(ONE, ONE, ZERO, ONE, Q(20))
        vals = box_values(p)
        assert vals[0] == ONE and vals[1] == ZERO

    def test_layout_is_continuous_across_sweep_count_jump(self):
        # at expansion 21 the sweep count jumps 19 -> 21; the two sides of
        # the jump degenerate into the same map, so nearby parameters stay
        # close in the sup metric
        lo = build_box_map(BoxParams(ZERO, ONE, ZERO, ONE, Q(21) - Q(1, 1000)))
        hi = build_box_map(BoxParams(ZERO, ONE, ZERO, ONE, Q(21) + Q(1, 1000)))
        assert sup_distance(lo, hi) < Q(1, 50)


def modality(f) -> int:
    """Strict interior local extrema of a PL map: sign changes of its
    nonzero slopes."""
    slopes = [p.c1 for p in f.pieces if p.c1 != 0]
    return sum((a > 0) != (b > 0) for a, b in zip(slopes, slopes[1:]))


def random_params(rng: random.Random) -> BoxParams:
    grid = 40
    b = rng.randint(0, grid - 2)
    t = rng.randint(b + 1, grid)
    bottom, top = Q(b, grid), Q(t, grid)
    lv = Q(rng.randint(b, t), grid)
    rv = Q(rng.randint(b, t), grid)
    exp = Q(20) + Q(rng.randint(0, 80), 4)
    return BoxParams(lv, rv, bottom, top, exp)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_box_map_invariants(seed):
    rng = random.Random(seed)
    p = random_params(rng)
    f = build_box_map(p)
    width = ONE
    slope = p.expansion * p.height / width
    # constant absolute slope, exact variation budget, onto the band
    assert all(abs(pc.c1) == slope for pc in f.pieces)
    assert total_variation(f) == p.expansion * p.height
    assert range_on(f, FULL) == Interval(p.bottom, p.top)
    assert evaluate(f, ZERO) == p.left_value
    assert evaluate(f, ONE) == p.right_value
    # slopes strictly alternate, so every interior vertex is an extremum
    assert modality(f) == len(f.pieces) - 1
    vals = box_values(p)
    assert all(p.bottom <= v <= p.top for v in vals)
    assert sum(abs(b - a) for a, b in zip(vals, vals[1:])) == p.expansion * p.height


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_box_map_sweep_floor(seed):
    # expansion >= 20 forces at least 18 full sweeps, hence many pieces
    rng = random.Random(seed)
    f = build_box_map(random_params(rng))
    assert len(f.pieces) >= 19


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_vertices_on_subwindow_scale(seed):
    rng = random.Random(seed)
    p = random_params(rng)
    window = Interval(Q(1, 4), Q(3, 8))
    verts = box_vertices(window, p)
    assert verts[0] == (window.lo, p.left_value)
    assert verts[-1] == (window.hi, p.right_value)
    xs = [x for x, _ in verts]
    assert all(a < b for a, b in zip(xs, xs[1:]))
    slope = p.expansion * p.height / window.width
    for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
        assert abs(y1 - y0) == slope * (x1 - x0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_build_box_map_matches_the_vertex_build(seed):
    # the one-box chain against the vertex-list build it replaced
    p = random_params(random.Random(seed))
    f = build_box_map(p)
    want = pl_from_vertices(box_vertices(FULL, p))
    assert (f.pieces, f._values) == (want.pieces, want._values)
    assert f.provenance is None
    assert f._chain == BoxChain(((FULL, p),))


class TestConcatenation:
    def test_two_box_chain(self):
        left = BoxParams(ZERO, Q(1, 2), ZERO, ONE, Q(20))
        right = BoxParams(Q(1, 2), ONE, ZERO, ONE, Q(24))
        f = concat_box_maps([
            (Interval(ZERO, Q(1, 2)), left),
            (Interval(Q(1, 2), ONE), right),
        ])
        assert evaluate(f, Q(1, 2)) == Q(1, 2)
        assert range_on(f, Interval(ZERO, Q(1, 2))) == Interval(ZERO, ONE)
        assert total_variation(f) == Q(44)
        assert isinstance(f._chain, BoxChain)
        assert len(f._chain.boxes) == 2

    def test_junction_value_mismatch_rejected(self):
        left = BoxParams(ZERO, Q(1, 2), ZERO, ONE, Q(20))
        right = BoxParams(Q(1, 4), ONE, ZERO, ONE, Q(20))
        with pytest.raises(ParameterError):
            concat_box_maps([
                (Interval(ZERO, Q(1, 2)), left),
                (Interval(Q(1, 2), ONE), right),
            ])

    def test_windows_must_tile(self):
        p = BoxParams(ZERO, ONE, ZERO, ONE, Q(20))
        with pytest.raises(ParameterError):
            concat_box_maps([(Interval(ZERO, Q(1, 2)), p)])


class TestPieceCap:
    CHAINS = [
        [(FULL, BoxParams(ZERO, ONE, ZERO, ONE, Q(20)))],
        [(FULL, BoxParams(Q(1, 3), Q(2, 5), ZERO, Q(3, 4), Q(41, 2)))],
        [
            (Interval(ZERO, Q(1, 3)), BoxParams(ZERO, Q(1, 2), ZERO, ONE, Q(30))),
            (Interval(Q(1, 3), ONE), BoxParams(Q(1, 2), ONE, Q(1, 4), ONE, Q(20))),
        ],
    ]

    @pytest.mark.parametrize("boxes", CHAINS)
    def test_the_cap_counts_floor_expansion_plus_three_legs_a_box(self, boxes):
        # a cap at the bound admits the chain, one below refuses it
        bound = sum(p.expansion.numerator // p.expansion.denominator + 3 for _, p in boxes)
        with mock.patch.object(boxmap, "_MAX_PIECES", bound):
            pieces = len(concat_box_maps(boxes).pieces)
        assert bound - 6 * len(boxes) <= pieces <= bound
        with mock.patch.object(boxmap, "_MAX_PIECES", bound - 1):
            with pytest.raises(ParameterError, match="above the cap"):
                concat_box_maps(boxes)

    def test_a_chain_past_the_cap_is_refused_before_any_vertex(self):
        # the patch makes a missing cap fail at once instead of building
        # millions of vertices
        half = Interval(ZERO, Q(1, 2)), Interval(Q(1, 2), ONE)
        with mock.patch.object(boxmap, "_turns", side_effect=AssertionError):
            with pytest.raises(ParameterError, match="above the cap"):
                build_box_map(BoxParams(ZERO, ONE, ZERO, ONE, Q(2_000_000)))
            # each box alone is under the cap, the two together are not
            with pytest.raises(ParameterError, match="above the cap"):
                concat_box_maps([
                    (half[0], BoxParams(ZERO, Q(1, 2), ZERO, ONE, Q(600_000))),
                    (half[1], BoxParams(Q(1, 2), ONE, ZERO, ONE, Q(600_000))),
                ])
