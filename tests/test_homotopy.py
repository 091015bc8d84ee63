"""Deformation machinery: partitions, box data, the exact modulus, and the
quantitative closeness guarantees.

Frozen values derived by hand: partition layouts, the identity's
deformation at full step, moduli of the identity/tent/bowl/square maps,
and the stability step 1/128 for the identity at radius 1/100.
"""
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transmaps import homotopy
from transmaps.boxmap import BoxChain, BoxParams, build_box_map
from transmaps.corpus import (
    perturb_pl,
    random_curve_map,
    random_gentle_pl,
    random_pl_map,
)
from transmaps.errors import DomainError, ParameterError
from transmaps.exact import (
    FULL,
    CurveMap,
    Interval,
    Piece,
    evaluate,
    pl_from_vertices,
    range_on,
    sup_distance,
)
from transmaps.homotopy import (
    FamilyBoxBounds,
    apply_homotopy,
    box_data,
    family_box_bounds,
    family_diameter,
    family_modulus,
    partition,
    separate_family,
    stability_window,
    uniform_modulus,
)
from transmaps.rational import ONE, Q, ZERO


def identity():
    return pl_from_vertices([(0, 0), (1, 1)])


def constant(c):
    return pl_from_vertices([(0, c), (1, c)])


def tent():
    return pl_from_vertices([(0, 0), (Q(1, 2), 1), (1, 0)])


def bowl():
    return CurveMap((Piece(FULL, ONE, Q(-4), Q(4)),))


def square():
    return CurveMap((Piece(FULL, ZERO, ZERO, ONE),))


class TestPartition:
    def test_full_step(self):
        grid = partition(1)
        assert grid.count == 0
        assert grid.windows == (FULL,)

    def test_half_step(self):
        grid = partition(Q(1, 2))
        assert grid.count == 1
        assert grid.windows == (Interval(ZERO, Q(1, 2)), Interval(Q(1, 2), ONE))

    def test_step_two_fifths(self):
        grid = partition(Q(2, 5))
        assert [w.hi for w in grid.windows] == [Q(2, 5), Q(4, 5), ONE]

    def test_rejects_bad_step(self):
        with pytest.raises(DomainError):
            partition(0)
        with pytest.raises(DomainError):
            partition(Q(3, 2))

    def test_cached_grid_equals_a_fresh_build(self):
        for t in (Q(1, 3), Q(2, 5), Q(1, 64)):
            cached = partition(t)
            assert partition(t) is cached
            assert cached == homotopy._partition.__wrapped__(t)

    def test_equal_steps_share_one_grid(self):
        grids = [partition(t) for t in ("1/4", Q(1, 4), Fraction(1, 4), "0.25")]
        assert all(g is grids[0] for g in grids)
        assert grids[0].windows[-1] == Interval(Q(3, 4), ONE)

    def test_bad_step_raises_on_every_call(self):
        for t in (0, Q(3, 2), 0.25):
            for _ in range(3):
                with pytest.raises(DomainError):
                    partition(t)


def window_ranges_sweep(f, windows):
    """Reference: the value range of f over each window in one sweep."""
    out_lo = [None] * len(windows)
    out_hi = [None] * len(windows)
    pi = 0
    pieces = f.pieces
    for wi, w in enumerate(windows):
        while pieces[pi].domain.hi <= w.lo and pi + 1 < len(pieces):
            pi += 1
        j = pi
        while True:
            p = pieces[j]
            a = max(p.domain.lo, w.lo)
            b = min(p.domain.hi, w.hi)
            if a <= b:
                if a == b:
                    lo = hi = p.value_at(a)
                else:
                    lo, hi = p.range_over(a, b)
                if out_lo[wi] is None or lo < out_lo[wi]:
                    out_lo[wi] = lo
                if out_hi[wi] is None or hi > out_hi[wi]:
                    out_hi[wi] = hi
            if p.domain.hi >= w.hi or j + 1 == len(pieces):
                break
            j += 1
    return [Interval(lo, hi) for lo, hi in zip(out_lo, out_hi)]


def reference_bands(maps, grid):
    """(alpha, band) per window: hull of the swept ranges, widened by
    4*alpha each side with alpha = max(width, tallest range), clipped."""
    per_map = [window_ranges_sweep(f, grid.windows) for f in maps]
    out = []
    for i, w in enumerate(grid.windows):
        lo = min(r[i].lo for r in per_map)
        hi = max(r[i].hi for r in per_map)
        alpha = max(w.width, max(r[i].width for r in per_map))
        out.append(
            (alpha, Interval(max(ZERO, lo - 4 * alpha), min(ONE, hi + 4 * alpha)))
        )
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_box_data_matches_window_sweep(seed):
    rng = random.Random(seed)
    f = random_curve_map(rng)
    grid = partition(Q(rng.randint(1, 16), rng.choice((16, 48, 64))))
    data = box_data(f, grid.t, 20)
    want = reference_bands([f], grid)
    assert data.alphas == tuple(alpha for alpha, _ in want)
    assert data.bands == tuple(band for _, band in want)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_family_bands_match_window_sweep(seed):
    rng = random.Random(seed)
    maps = [random_curve_map(rng) for _ in range(rng.randint(1, 3))]
    maps += [random_pl_map(rng)]
    fb = FamilyBoxBounds(maps=tuple(maps), epsilon=ONE, t0=Q(1, 16))
    grid = partition(Q(rng.randint(1, 16), rng.choice((16, 48, 64))))
    bands = fb.all_bands(grid.t)
    assert bands == [band for _, band in reference_bands(maps, grid)]


class TestBoxData:
    def test_identity_full_step(self):
        data = box_data(identity(), 1, 20)
        assert data.alphas == (ONE,)
        b = data.boxes[0]
        assert (b.left_value, b.right_value, b.bottom, b.top) == (ZERO, ONE, ZERO, ONE)

    def test_constant_half_step(self):
        data = box_data(constant(Q(1, 2)), Q(1, 2), 20)
        assert data.alphas == (Q(1, 2), Q(1, 2))
        for b in data.boxes:
            assert (b.left_value, b.right_value, b.bottom, b.top) == (
                Q(1, 2),
                Q(1, 2),
                ZERO,
                ONE,
            )

    def test_identity_half_step(self):
        data = box_data(identity(), Q(1, 2), 20)
        assert [
            (b.left_value, b.right_value, b.bottom, b.top) for b in data.boxes
        ] == [(ZERO, Q(1, 2), ZERO, ONE), (Q(1, 2), ONE, ZERO, ONE)]


class TestApplyHomotopy:
    def test_zero_step_is_identity_on_maps(self):
        for f in (identity(), tent(), square()):
            assert apply_homotopy(f, 0, 20) is f

    def test_identity_full_step_equals_standalone_box(self):
        got = apply_homotopy(identity(), 1, 20)
        want = build_box_map(BoxParams(ZERO, ONE, ZERO, ONE, Q(20)))
        assert sup_distance(got, want) == ZERO
        assert got.pieces == want.pieces

    def test_constant_half_step_is_surjective(self):
        got = apply_homotopy(constant(Q(1, 2)), Q(1, 2), 20)
        assert range_on(got, FULL) == FULL

    def test_provenance_attached(self):
        got = apply_homotopy(tent(), Q(1, 4), 20)
        assert isinstance(got.provenance, BoxChain)
        assert len(got.provenance.boxes) == 4


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_window_fits_inside_band(seed):
    # every window is at most as wide as its band is tall
    rng = random.Random(seed)
    f = random_curve_map(rng) if rng.random() < 0.5 else random_pl_map(rng)
    t = Q(rng.randint(1, 16), 16)
    gamma = Q(rng.choice([20, 25, 100]))
    data = box_data(f, t, gamma)
    for w, band in zip(data.grid.windows, data.bands):
        assert w.width <= band.width


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_junction_fidelity_and_slope_floor(seed):
    rng = random.Random(seed)
    f = random_pl_map(rng)
    t = Q(rng.randint(1, 8), 8)
    gamma = Q(rng.choice([20, 30]))
    h = apply_homotopy(f, t, gamma)
    grid = partition(t)
    for w in grid.windows:
        assert evaluate(h, w.lo) == evaluate(f, w.lo)
        assert evaluate(h, w.hi) == evaluate(f, w.hi)
    for p in h.pieces:
        assert abs(p.c1) >= gamma


class TestUniformModulus:
    def test_identity(self):
        for d in (Q(1, 7), Q(1, 128), Q(3, 4)):
            assert uniform_modulus(identity(), d) == d

    def test_constant(self):
        assert uniform_modulus(constant(Q(1, 3)), Q(1, 5)) == ZERO

    def test_tent_doubles(self):
        assert uniform_modulus(tent(), Q(1, 4)) == Q(1, 2)
        assert uniform_modulus(tent(), Q(3, 4)) == ONE

    def test_square_steepest_at_right_edge(self):
        # osc over [x, x+d] is 2xd + d^2, maximal at x = 1-d
        assert uniform_modulus(square(), Q(1, 2)) == Q(3, 4)
        assert uniform_modulus(square(), Q(1, 10)) == Q(19, 100)

    def test_bowl_window_missing_the_vertex_wins(self):
        # (2x-1)^2: at width 1/4 the steep monotone run [0,1/4] gives 3/4,
        # beating any window that straddles the vertex
        assert uniform_modulus(bowl(), Q(1, 4)) == Q(3, 4)
        assert uniform_modulus(bowl(), Q(1, 2)) == ONE

    def test_degenerate_widths(self):
        assert uniform_modulus(tent(), 0) == ZERO
        assert uniform_modulus(tent(), 2) == ONE
        with pytest.raises(DomainError):
            uniform_modulus(tent(), Q(-1, 2))

    @pytest.mark.parametrize("delta, full_reads", [(Q(1, 8), 0), (Q(3, 4), 0), (ONE, 1), (2, 1)])
    def test_full_range_read_only_for_the_whole_interval(self, delta, full_reads):
        with mock.patch.object(homotopy, "range_on", wraps=range_on) as read:
            uniform_modulus(tent(), delta)
        assert sum(call.args[1] == FULL for call in read.call_args_list) == full_reads


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_modulus_dominates_sampled_oscillation(seed):
    rng = random.Random(seed)
    f = random_curve_map(rng) if rng.random() < 0.5 else random_pl_map(rng)
    d = Q(rng.randint(1, 32), 64)
    w = uniform_modulus(f, d)
    for _ in range(25):
        x = Q(rng.randint(0, 256), 256)
        if x + d > ONE:
            continue
        r = range_on(f, Interval(x, x + d))
        assert r.width <= w
    d2 = d * 2
    assert uniform_modulus(f, d2) >= w  # monotone in the width


class TestStabilityWindow:
    def test_identity_frozen(self):
        win = stability_window(identity(), Q(28, 100))
        assert win.radius == Q(1, 100)
        assert win.step == Q(1, 128)

    def test_constant_map(self):
        win = stability_window(constant(Q(1, 2)), Q(28, 64))
        assert win.radius == Q(1, 64)
        assert win.step == Q(1, 128)

    def test_bound_instance_identity(self):
        win = stability_window(identity(), Q(28, 100))
        g = identity()
        moved = sup_distance(g, apply_homotopy(g, win.step, 20))
        assert moved <= Q(9, 128)
        assert moved < 27 * win.radius

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ParameterError):
            stability_window(identity(), 0)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_stability_ball_bound(seed):
    # maps in the radius-ball stay within 27*radius of their deformations
    rng = random.Random(seed)
    f = random_gentle_pl(rng, max_slope=Q(1, 2))
    win = stability_window(f, Q(28, 100))
    for g in (f, perturb_pl(rng, f, win.radius)):
        assert sup_distance(f, g) < win.radius
        for t in (win.step, win.step / 2):
            for gamma in (20, 30):
                moved = sup_distance(g, apply_homotopy(g, t, gamma))
                assert moved < 27 * win.radius


class TestFamilyBoxBounds:
    def test_two_reflections(self):
        fam = [identity(), pl_from_vertices([(0, 1), (1, 0)])]
        fb = family_box_bounds(fam, 1)
        assert family_diameter(fam) == ONE
        band = fb.all_bands(1)[0]
        assert band == FULL
        assert band.width <= family_diameter(fam) + fb.epsilon

    def test_singleton_bands_are_small(self):
        f = random_gentle_pl(random.Random(7), max_slope=Q(1, 4))
        fb = family_box_bounds([f], Q(1, 10))
        assert family_diameter([f]) == ZERO
        for band in fb.all_bands(fb.t0):
            assert band.width <= fb.epsilon

    def test_duplicates_match_singleton(self):
        f = random_gentle_pl(random.Random(11), max_slope=Q(1, 4))
        fb1 = family_box_bounds([f], Q(1, 10))
        fb2 = family_box_bounds([f, f], Q(1, 10))
        assert fb1.t0 == fb2.t0
        assert family_diameter([f, f]) == ZERO
        assert fb1.all_bands(fb1.t0) == fb2.all_bands(fb2.t0)

    def test_rejects_empty_family(self):
        with pytest.raises(ParameterError):
            family_box_bounds([], Q(1, 10))


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10_000))
def test_family_band_height_bound(seed):
    rng = random.Random(seed)
    fam = [random_gentle_pl(rng, max_slope=Q(1, 2)) for _ in range(3)]
    fb = family_box_bounds(fam, Q(1, 10))
    cap = family_diameter(fam) + fb.epsilon
    for t in (fb.t0, fb.t0 / 2):
        for band in fb.all_bands(t):
            assert band.width <= cap


class TestSeparateFamily:
    def test_three_identity_copies(self):
        out = separate_family([(identity(), 1)] * 3)
        for j, psi in enumerate(out, start=1):
            assert all(abs(p.c1) == 20 + j for p in psi.pieces)
        assert sup_distance(out[0], out[1]) > ZERO
        assert sup_distance(out[0], out[2]) > ZERO
        assert sup_distance(out[1], out[2]) > ZERO

    def test_singleton(self):
        f = tent()
        out = separate_family([(f, Q(1, 2))])
        assert out == [apply_homotopy(f, Q(1, 2), 21)]

    def test_amplitude_of_first_window(self):
        # the deformation is onto its first band, which spans [0,1] here
        (psi,) = separate_family([(identity(), 1)])
        assert range_on(psi, FULL).width == ONE


class TestAmplitude:
    def test_identity_prefix(self):
        assert range_on(identity(), Interval(ZERO, Q(1, 4))).width == Q(1, 4)

    def test_constant(self):
        assert range_on(constant(Q(2, 7)), Interval(Q(1, 8), Q(5, 8))).width == ZERO

    def test_narrow_band_box(self):
        f = build_box_map(BoxParams(Q(3, 20), Q(1, 10), ZERO, Q(1, 5), Q(20)))
        assert range_on(f, FULL).width == Q(1, 5)


def test_family_modulus_and_diameter_basics():
    fam = [identity(), tent()]
    assert family_modulus(fam, Q(1, 4)) == Q(1, 2)  # tent dominates
    assert family_diameter(fam) == ONE  # gap at x = 1
    with pytest.raises(ParameterError):
        family_diameter([])
