import dataclasses
import functools
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from transmaps import exact, transitivity
from transmaps.boxmap import BoxChain, BoxParams, concat_box_maps
from transmaps.corpus import (
    perturb_pl,
    random_curve_map,
    random_pl_map,
    random_surjective_pl,
)
from transmaps.errors import ParameterError, PreconditionError
from transmaps.exact import (
    FULL,
    FULL_SET,
    Interval,
    IntervalSet,
    image_set,
    pl_from_vertices,
    range_on,
)
from transmaps.extension import SimplexSpec, segment_boundary, simplex_extend
from transmaps.homotopy import apply_homotopy, box_data
from transmaps.rational import ONE, Q, ZERO, as_scalar
from transmaps.serialize import map_from_document, map_to_document
from transmaps.spaces import (
    ladder_map,
    nowhere_dense_perturbation,
    one_minus,
    phase_sawtooth,
    sawtooth,
)
from transmaps.transitivity import (
    PipelineBudget,
    Verdict,
    ball_refute,
    _covers,
    _longest_partial_run,
    _order_keys,
    _sink_coverage,
    box_chain_certify,
    chain_certified,
    invariant_region_refute,
    is_transitive_pipeline,
    leo_certify,
    min_abs_slope,
    min_breakpoint_gap,
    reach_image,
)

from test_output_arithmetic import box_vertices_per_leg


def identity_map():
    return pl_from_vertices([(ZERO, ZERO), (ONE, ONE)])


def constant_half():
    return pl_from_vertices([(ZERO, Q(1, 2)), (ONE, Q(1, 2))])


def tent():
    return pl_from_vertices([(ZERO, ZERO), (Q(1, 2), ONE), (ONE, ZERO)])


def steep_invariant_half():
    # slopes +-4, and [0, 1/2] maps into itself: leo's preconditions hold,
    # but no grid cell of the left half ever reaches [0, 1]
    ys = (0, Q(1, 2), 0, Q(1, 2), 0, 1, Q(1, 2), 1, Q(1, 2))
    return pl_from_vertices([(Q(k, 8), y) for k, y in enumerate(ys)])


def saw(m):
    return pl_from_vertices(
        [(Q(k, m), ZERO if k % 2 == 0 else ONE) for k in range(m + 1)]
    )


def square_map():
    from transmaps.exact import CurveMap, Piece

    return CurveMap((Piece(FULL, ZERO, ZERO, ONE),))


def iv(a, b):
    return Interval(Q(a), Q(b))


def one_set(a, b):
    """The interval set of the one component [a, b]."""
    return IntervalSet((iv(a, b),))


class TestVerdict:
    def test_constructors(self):
        assert Verdict.certified().is_certified
        w = one_set(ZERO, Q(1, 2))
        v = Verdict.refuted(identity_map(), w)
        assert v.is_refuted and v.witness == w
        assert Verdict.inconclusive(7).budget == 7

    def test_refuted_checks_its_witness(self):
        # [0, 3/100] is not invariant under sawtooth(3): f(3/100) = 9/100
        with pytest.raises(ParameterError):
            Verdict.refuted(sawtooth(3), one_set(ZERO, Q(3, 100)))

    def test_witness_only_when_refuted(self):
        w = one_set(ZERO, Q(1, 2))
        with pytest.raises(ParameterError):
            Verdict("certified", witness=w)
        with pytest.raises(ParameterError):
            Verdict("refuted")
        with pytest.raises(ParameterError):
            Verdict("maybe")

    def test_budget_only_when_inconclusive(self):
        with pytest.raises(ParameterError):
            Verdict("certified", budget=7)
        with pytest.raises(ParameterError):
            Verdict("inconclusive")
        assert Verdict.certified().budget is None
        # a negative step budget is still a budget that ran out
        assert Verdict("inconclusive", budget=-3) == Verdict.inconclusive(-3)

    def test_refuted_only_through_its_check(self):
        # an exactly invariant witness still needs Verdict.refuted(f, w)
        w = one_set(ZERO, Q(1, 2))
        with pytest.raises(ParameterError):
            Verdict("refuted", witness=w)
        assert Verdict.refuted(identity_map(), w) == Verdict.refuted(identity_map(), w)


def reaches(f, u, v, n):
    """Whether f^n(u) meets v, as the ``reach`` command answers it."""
    return reach_image(f, u, n).intersects_interval(v)


class TestReachCheck:
    def test_tent_frozen(self):
        f = tent()
        assert reaches(f, iv(0, "1/4"), iv("3/8", "1/2"), 1)
        assert not reaches(f, iv(0, "1/4"), iv("3/5", "7/10"), 1)
        assert reaches(f, iv(0, "1/4"), iv("3/5", "7/10"), 2)

    def test_identity_never_moves(self):
        f = identity_map()
        for n in (1, 3, 9):
            assert not reaches(f, iv(0, "1/4"), iv("1/2", "3/4"), n)
            assert reaches(f, iv(0, "1/4"), iv("1/8", "3/8"), n)

    def test_guards(self):
        f = tent()
        with pytest.raises(ParameterError):
            reaches(f, iv(0, "1/4"), iv("1/2", 1), 0)
        with pytest.raises(ParameterError):
            reaches(f, iv("1/4", "1/4"), iv("1/2", 1), 1)

    def test_fixed_image_stops_iterating(self):
        # f([0, 1/3]) = [0, 1] and f([0, 1]) = [0, 1]: fixed after one step
        calls = mock.Mock(wraps=transitivity.image_set)
        with mock.patch.object(transitivity, "image_set", calls):
            image = reach_image(saw(3), iv(0, "1/3"), 1000)
        assert image == FULL_SET
        assert calls.call_count <= 3

    def test_orbit_past_the_bit_cap_raises(self):
        # the square map doubles an endpoint's bit count at every step:
        # 8,193 bits at n = 12, 16,385 at n = 13
        u, v = iv("1/4", "1/2"), iv("3/4", 1)
        image = reach_image(square_map(), u, 12)
        assert max(int(c.lo.denominator).bit_length() for c in image.components) == 8193
        calls = mock.Mock(wraps=transitivity.image_set)
        with mock.patch.object(transitivity, "image_set", calls):
            with pytest.raises(ParameterError, match="image 13 .* above the cap"):
                reach_image(square_map(), u, 30)
        assert calls.call_count == 13

    @given(st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_reach_image_is_the_nth_image(self, seed, n):
        rng = random.Random(seed)
        f = rng.choice([random_pl_map, random_curve_map])(rng)
        u = iv(0, "1/8") if seed % 2 else iv("7/16", "1/2")
        s = IntervalSet((u,))
        for _ in range(n):
            s = image_set(f, s)
        assert reach_image(f, u, n) == s

    @given(st.integers(0, 10_000), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_sampled_orbit_implies_reach(self, seed, n):
        # a concrete orbit landing in V is a lower bound for the exact check
        rng = random.Random(seed)
        f = random_pl_map(rng)
        u, v = iv(0, "1/8"), iv("1/2", "5/8")
        x = Q(1, 16)
        for _ in range(n):
            x = f.value_at(x)
        if v.contains(x):
            assert reaches(f, u, v, n)


class TestLeoCertify:
    def test_sawtooth3_certified(self):
        assert leo_certify(saw(3), 3, 10).is_certified

    def test_sawtooth_family(self):
        for m, level in ((4, 3), (5, 4), (6, 4)):
            assert leo_certify(saw(m), level, 40).is_certified, m

    def test_budget_exhaustion(self):
        v = leo_certify(saw(3), 3, 1)
        assert v.status == "inconclusive" and v.budget == 1

    def test_shallow_slope_rejected(self):
        with pytest.raises(PreconditionError):
            leo_certify(identity_map(), 2, 10)
        with pytest.raises(PreconditionError):
            leo_certify(tent(), 2, 10)  # slope exactly 2 is not enough

    def test_coarse_grid_rejected(self):
        # narrowest lap of saw(5) is 1/5 < 2^(1-2)
        with pytest.raises(PreconditionError):
            leo_certify(saw(5), 2, 10)

    def test_curved_map_rejected(self):
        with pytest.raises(PreconditionError):
            leo_certify(square_map(), 2, 10)

    def test_slope_helpers(self):
        assert min_abs_slope(saw(3)) == Q(3)
        assert min_breakpoint_gap(saw(5)) == Q(1, 5)


class TestInvariantRegionRefute:
    def test_identity_level1(self):
        v = invariant_region_refute(identity_map(), 1, 50)
        assert v.is_refuted
        assert v.witness == one_set(ZERO, Q(1, 2))

    def test_square_level2(self):
        v = invariant_region_refute(square_map(), 2, 50)
        assert v.is_refuted
        assert v.witness == one_set(ZERO, Q(1, 4))

    def test_transitive_maps_unrefuted(self):
        for f in (saw(3), tent()):
            for level in (1, 2, 3):
                v = invariant_region_refute(f, level, 60)
                assert v.status == "inconclusive"

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_witness_is_exactly_invariant(self, seed):
        rng = random.Random(seed)
        f = random_pl_map(rng)
        v = invariant_region_refute(f, 2, 50)
        if v.is_refuted:
            c = v.witness
            assert c != FULL_SET and not c.is_empty()
            assert sum(x.width for x in c.components) > ZERO
            assert c.contains_set(image_set(f, c))


def test_grid_levels_above_the_cap_are_refused():
    # Q is patched where the grid stages and the range kernel build
    # rationals, so a missing cap fails at the first grid value instead
    # of reading 2^40 of them, and so leo_certify fails if it computes
    # with the level, as in its coarseness check, before the cap refuses it
    f = saw(3)
    with mock.patch.object(transitivity, "Q", side_effect=AssertionError), mock.patch.object(
        exact, "Q", side_effect=AssertionError
    ):
        for level in (21, 40):
            with pytest.raises(ParameterError):
                invariant_region_refute(f, level, 10)
            with pytest.raises(ParameterError):
                ball_refute(f, Q(1, 100), level)
        with pytest.raises(ParameterError):
            leo_certify(f, 10**7, 10)
        with pytest.raises(AssertionError):  # level 20 passes the cap
            invariant_region_refute(f, 20, 10)


class TestBallRefute:
    def test_square_frozen(self):
        for level in (2, 3, 4, 5, 6):
            got = ball_refute(square_map(), Q(1, 100), level)
            assert got is not None
            window, margin = got
            assert window == iv(0, "1/2")
            assert margin == Q(6, 25)
            assert window.contains_interval(iv(0, "1/3"))

    def test_one_third_slack_value(self):
        # the window [0, 1/3] is admissible too, with a smaller slack
        r = range_on(square_map(), iv(0, "1/3"))
        slack = Q(1, 3) - (r.hi + Q(1, 100))
        assert slack == Q(191, 900)

    def test_constant_frozen(self):
        got = ball_refute(constant_half(), Q(1, 8), 2)
        assert got == (iv(0, "3/4"), Q(1, 8))

    def test_no_window_for_expansive_maps(self):
        for f in (identity_map(), saw(3)):
            for level in (1, 2, 3):
                assert ball_refute(f, Q(1, 100), level) is None

    def test_guards(self):
        with pytest.raises(ParameterError):
            ball_refute(square_map(), Q(0), 2)
        with pytest.raises(Exception):
            ball_refute(square_map(), 0.01, 2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_window_traps_every_nearby_map(self, seed):
        rng = random.Random(seed)
        f = random_pl_map(rng)
        rho = Q(1, 32)
        got = ball_refute(f, rho, 3)
        if got is None:
            return
        window, margin = got
        assert margin > ZERO
        r = range_on(f, window)
        if window.lo > ZERO:
            assert r.lo - rho - window.lo >= margin
        if window.hi < ONE:
            assert window.hi - (r.hi + rho) >= margin
        for _ in range(3):
            g = perturb_pl(rng, f, rho)
            rg = range_on(g, window)
            assert window.lo <= rg.lo and rg.hi <= window.hi


# -- the grid stages against the image-iterating references --------------------


def reference_leo_certify(f, grid_level, n_max):
    """The earlier leo_certify: iterate every cell's exact images until
    they fill [0, 1] or the budget runs out."""
    if grid_level < 1:
        raise ParameterError("grid level must be positive")
    if n_max < 1:
        raise ParameterError("need a positive iteration budget")
    if not f.is_pl:
        raise PreconditionError("certificate requires a piecewise-linear map")
    if min_abs_slope(f) <= 2:
        raise PreconditionError("slope floor is not > 2")
    if Q(2, 1 << grid_level) > min_breakpoint_gap(f):
        raise PreconditionError("grid too coarse")
    cells = 1 << grid_level
    for k in range(cells):
        s = one_set(Q(k, cells), Q(k + 1, cells))
        for _ in range(n_max):
            if s == FULL_SET:
                break
            s = image_set(f, s)
        if s != FULL_SET:
            return Verdict.inconclusive(n_max)
    return Verdict.certified()


def floor_to_grid(x, level):
    """Largest multiple of 2^-level that is <= x."""
    scale = 1 << level
    v = Q(x) * scale
    return Q(int(v.numerator) // int(v.denominator), scale)


def ceil_to_grid(x, level):
    """Smallest multiple of 2^-level that is >= x."""
    scale = 1 << level
    v = Q(x) * scale
    return Q(-((-int(v.numerator)) // int(v.denominator)), scale)


def reference_round_outward(s, level):
    return IntervalSet.from_intervals(
        Interval(floor_to_grid(c.lo, level), ceil_to_grid(c.hi, level))
        for c in s.components
    )


def reference_invariant_region_refute(f, grid_level, n_max):
    """The earlier invariant_region_refute: grow each seed by exact images
    rounded outward to the grid, then re-check the fixpoint."""
    if grid_level < 1:
        raise ParameterError("grid level must be positive")
    cells = 1 << grid_level
    seeds = []
    for k in range(cells):
        cell = Interval(Q(k, cells), Q(k + 1, cells))
        seeds.append((range_on(f, cell).width, k, cell))
    seeds.sort(key=lambda item: (item[0], item[1]))

    def with_image(c):
        """c and its image, rounded outward to the grid."""
        return reference_round_outward(
            IntervalSet.from_intervals(c.components + image_set(f, c).components), grid_level
        )

    for _, _, cell in seeds:
        c = IntervalSet((cell,))
        for _ in range(n_max):
            grown = with_image(c)
            if grown == c:
                break
            c = grown
            if c == FULL_SET:
                break
        if c != FULL_SET and c == with_image(c):
            return Verdict.refuted(f, c)
    return Verdict.inconclusive(n_max)


def reference_ball_refute(f, rho, grid_level):
    """The earlier ball_refute: one exact range per window."""
    rho = as_scalar(rho)
    if rho <= ZERO:
        raise ParameterError("perturbation radius must be positive")
    if grid_level < 1:
        raise ParameterError("grid level must be positive")
    cells = 1 << grid_level
    best = None
    for i in range(cells):
        for j in range(i + 1, cells + 1):
            if i == 0 and j == cells:
                continue
            window = Interval(Q(i, cells), Q(j, cells))
            r = range_on(f, window)
            slacks = []
            if window.lo > ZERO:
                slacks.append(r.lo - rho - window.lo)
            if window.hi < ONE:
                slacks.append(window.hi - (r.hi + rho))
            margin = min(slacks)
            if margin > ZERO and (best is None or margin > best[1]):
                best = (window, margin)
    return best


STOCK_MAPS = (
    identity_map(),
    square_map(),
    constant_half(),
    tent(),
    saw(3),
    saw(4),
    ladder_map(5),
    ladder_map(7),
    phase_sawtooth(3, Q(5, 16)),
)

STEEP_STOCK_MAPS = (
    saw(3),
    saw(4),
    saw(5),
    saw(6),
    ladder_map(5),
    ladder_map(6),
    phase_sawtooth(3, Q(1, 16)),
    phase_sawtooth(4, Q(3, 16)),
)


@functools.cache
def perturbed_maps():
    return tuple(
        nowhere_dense_perturbation(g, Q(1, 10)) for g in (saw(3), saw(4), ladder_map(5))
    )


@st.composite
def grid_maps(draw):
    """Random PL and curved maps, stock maps and nowhere-dense
    perturbations of stock maps."""
    kind = draw(st.sampled_from(("pl", "curve", "stock", "perturbed")))
    if kind == "stock":
        return draw(st.sampled_from(STOCK_MAPS))
    if kind == "perturbed":
        return perturbed_maps()[draw(st.integers(0, 2))]
    rng = random.Random(draw(st.integers(0, 10_000)))
    return random_pl_map(rng) if kind == "pl" else random_curve_map(rng)


@st.composite
def steep_cases(draw):
    """A map with every |slope| > 2 and a grid level from the coarsest
    that ``leo_certify`` admits up to 6: stock maps, and random zigzags
    on a 1/32 grid whose laps are narrower than 1/4 and alternate between
    values in [0, 1/4] and in [3/4, 1], mostly onto [0, 1]."""
    f = draw(st.one_of(st.sampled_from(STEEP_STOCK_MAPS), zigzags()))
    coarsest = 1
    while Q(2, 1 << coarsest) > min_breakpoint_gap(f):
        coarsest += 1
    return f, draw(st.integers(coarsest, 6))


@st.composite
def zigzags(draw):
    gaps = []
    while sum(gaps) < 32:
        gaps.append(draw(st.integers(1, 7)))
    gaps[-1] -= sum(gaps) - 32
    xs = [ZERO]
    for g in gaps:
        xs.append(xs[-1] + Q(g, 32))
    low = st.integers(0, 8).map(lambda k: Q(k, 32))
    high = st.integers(24, 32).map(lambda k: Q(k, 32))
    start = draw(st.booleans())
    ys = [draw(high if (k % 2 == 0) == start else low) for k in range(len(xs))]
    if draw(st.integers(0, 3)):
        ys[ys.index(min(ys))], ys[ys.index(max(ys))] = ZERO, ONE
    return pl_from_vertices(list(zip(xs, ys)))


# At level 2 the narrowest cell [1/4, 1/2] is the first seed.  Its reach
# closes only in the third layer, so with budget 1 (two layers) it stops
# on the budget, short of every node.  The next seed [0, 1/4] reaches all
# three of its nodes in the first layer and closes at [0, 3/4] in the
# second, which the reference returns as the witness.
BUDGET_STOPPED_SEED = pl_from_vertices(
    [
        (ZERO, Q(3, 8)),
        (Q(1, 4), Q(5, 8)),
        (Q(1, 2), Q(9, 16)),
        (Q(5, 8), Q(1, 8)),
        (Q(3, 4), Q(5, 8)),
        (ONE, ONE),
    ]
)

# At level 2 the first seed [3/4, 1] reaches every node.  The next seed
# [1/4, 1/2] reaches the point 3/4, a node of the first seed, and closes
# at [0, 3/4] without its open cell (3/4, 1).
SHARED_POINT = pl_from_vertices(
    [(ZERO, ZERO), (Q(1, 4), Q(3, 8)), (Q(1, 2), Q(5, 8)), (Q(3, 4), ZERO), (ONE, Q(1, 8))]
)


class TestGridStagesAgainstReferences:
    @given(grid_maps(), st.integers(1, 6), st.sampled_from([-1, 0, 1, 2, 3, 5, 200]))
    @example(BUDGET_STOPPED_SEED, 2, 1)
    @example(SHARED_POINT, 2, 200)
    @settings(max_examples=150, deadline=None)
    def test_invariant_region_refute(self, f, level, budget):
        if budget < 1:
            with pytest.raises(ParameterError, match="positive iteration budget"):
                invariant_region_refute(f, level, budget)
            return
        assert invariant_region_refute(f, level, budget) == (
            reference_invariant_region_refute(f, level, budget)
        )

    @given(grid_maps(), st.integers(1, 6), st.sampled_from([Q(1, 100), Q(1, 32), Q(1, 8)]))
    @settings(max_examples=100, deadline=None)
    def test_ball_refute(self, f, level, rho):
        assert ball_refute(f, rho, level) == reference_ball_refute(f, rho, level)

    @given(steep_cases(), st.one_of(st.sampled_from([1, 2, 3, 400]), st.integers(4, 12)))
    @settings(max_examples=150, deadline=None)
    def test_leo_certify(self, case, budget):
        f, level = case
        assert leo_certify(f, level, budget) == reference_leo_certify(f, level, budget)


# 1/2 on [0, 1/4], and 1/2 is a fixed point: from the seed [0, 1/4] growth
# adds the single point 1/2 and then stops, one step after a budget of 1
ISOLATED_POINT = pl_from_vertices(
    [
        (ZERO, Q(1, 2)),
        (Q(1, 4), Q(1, 2)),
        (Q(3, 8), ONE),
        (Q(1, 2), Q(1, 2)),
        (Q(5, 8), ZERO),
        (Q(3, 4), ONE),
        (ONE, ZERO),
    ]
)


# at level 4, budget 5 is the least that certifies it
PHASE_SAWTOOTH = phase_sawtooth(3, Q(17, 32))

ZIGZAG = pl_from_vertices(
    [
        (Q(x), Q(y))
        for x, y in [
            (0, 1), ("1/8", 0), ("1/4", 1), ("3/8", "1/32"), ("1/2", 1),
            ("5/8", "5/32"), ("3/4", "7/8"), ("7/8", "3/16"), (1, "3/4"),
        ]
    ]
)


def images(f, cell, n):
    """The first n forward images of a cell, exactly."""
    out = [IntervalSet((cell,))]
    for _ in range(n):
        out.append(image_set(f, out[-1]))
    return out[1:]


class TestGridEdgeCases:
    def test_isolated_point_witness_at_the_budget_edge(self):
        v = invariant_region_refute(ISOLATED_POINT, 2, 1)
        assert v.is_refuted
        assert v.witness == IntervalSet((iv(0, "1/4"), iv("1/2", "1/2")))
        assert v == reference_invariant_region_refute(ISOLATED_POINT, 2, 1)

    def test_budget_stopped_seed_prunes_no_later_seed(self):
        # a seed that ran out of layers is not known to reach every node,
        # so a later seed that holds its three nodes must still run
        f = BUDGET_STOPPED_SEED
        assert reference_invariant_region_refute(f, 2, 1) == Verdict.refuted(
            f, one_set(0, Q(3, 4))
        )
        assert invariant_region_refute(f, 2, 1) == reference_invariant_region_refute(f, 2, 1)
        # with a larger budget the first seed closes at [0, 3/4] itself
        assert invariant_region_refute(f, 2, 2).witness == one_set(0, Q(3, 4))

    def test_a_shared_point_prunes_no_seed(self):
        # only a seed's open cell says that its whole reach is held
        f = SHARED_POINT
        assert invariant_region_refute(f, 2, 200) == Verdict.refuted(
            f, one_set(0, Q(3, 4))
        )
        assert reference_invariant_region_refute(f, 2, 200) == invariant_region_refute(f, 2, 200)

    def test_leo_depth_shortcut_at_the_budget(self, monkeypatch):
        # cell 5 reaches [0, 1] in 3 steps, and cell 7's second image holds
        # cell 5, so cell 7 gets depth 2 + 3 = 5, the budget, without its
        # second image being iterated
        f, level = PHASE_SAWTOOTH, 4
        assert images(f, iv("5/16", "3/8"), 3)[-1] == FULL_SET
        second = images(f, iv("7/16", "1/2"), 2)[-1]
        assert second == one_set(Q(5, 16), Q(19, 32))
        iterated = []

        def recording(g, s):
            iterated.append(s)
            return image_set(g, s)

        monkeypatch.setattr(transitivity, "image_set", recording)
        assert leo_certify(f, level, 5).is_certified
        assert iterated and second not in iterated

    def test_leo_one_below_the_shortcut_budget(self):
        # cell 7 truly needs 5 steps, so a budget of 4 is inconclusive
        f, level = PHASE_SAWTOOTH, 4
        assert images(f, iv("7/16", "1/2"), 4)[-1] != FULL_SET
        assert leo_certify(f, level, 4) == Verdict.inconclusive(4)
        assert reference_leo_certify(f, level, 4) == Verdict.inconclusive(4)

    @pytest.mark.parametrize("source, level", [(sawtooth(4), 9), (ladder_map(5), 8)])
    def test_leo_images_on_re_read_deformations(self, source, level, monkeypatch):
        # settled depths propagate back over "the range of cell i holds cell
        # j whole", so almost no cell of these 512 and 256 iterates images
        f = map_from_document(map_to_document(apply_homotopy(source, Q(1, 4), Q(20))))
        assert f.provenance is None
        gap = min_breakpoint_gap(f)
        assert Q(2, 1 << level) <= gap < Q(2, 1 << (level - 1))
        iterated = []

        def recording(g, s):
            iterated.append(s)
            return image_set(g, s)

        monkeypatch.setattr(transitivity, "image_set", recording)
        assert leo_certify(f, level, PipelineBudget().leo_steps).is_certified
        assert len(iterated) <= 8

    @given(st.integers(1, 10**12), st.integers(0, 10**12))
    @example(1, 24)
    @example(1, 0)
    @example(2**40, 0)
    @settings(max_examples=200, deadline=None)
    def test_leo_level_is_the_least_fitting_level(self, p, extra):
        # the least level with 2^(1 - level) <= gap, as a loop would find
        # it; ladder_map(5)'s gap 1/25 gives 6
        gap = Q(p, p + extra)
        level = transitivity._leo_level(gap)
        assert type(level) is int and level >= 1
        assert Q(2, 1 << level) <= gap
        assert level == 1 or Q(2, 1 << (level - 1)) > gap

    def test_leo_partly_covered_cell_gives_no_depth(self):
        # a wrong depth from a cell an image only partly covers certifies
        # this map at level 5 with budget 4
        assert leo_certify(ZIGZAG, 5, 4) == Verdict.inconclusive(4)
        assert reference_leo_certify(ZIGZAG, 5, 4) == Verdict.inconclusive(4)


def two_box_chain(covering):
    if covering:
        boxes = [
            (iv(0, "1/2"), BoxParams(ZERO, Q(1, 2), ZERO, ONE, Q(22))),
            (iv("1/2", 1), BoxParams(Q(1, 2), ONE, ZERO, ONE, Q(22))),
        ]
    else:
        boxes = [
            (iv(0, "1/2"), BoxParams(ZERO, Q(1, 2), ZERO, Q(1, 2), Q(20))),
            (iv("1/2", 1), BoxParams(Q(1, 2), ONE, Q(1, 2), ONE, Q(20))),
        ]
    return concat_box_maps(boxes)


class TestBoxChainCertify:
    def test_homotopy_output_certified(self):
        f = tent()
        g = apply_homotopy(f, Q(1, 4), Q(20))
        assert box_chain_certify(g).is_certified

    def test_hand_built_chain_certified(self):
        assert box_chain_certify(two_box_chain(covering=True)).is_certified

    def test_split_band_chain_not_certified(self):
        # bands [0,1/2] and [1/2,1] never exchange mass; coverage fails
        g = two_box_chain(covering=False)
        assert box_chain_certify(g).status == "inconclusive"
        v = is_transitive_pipeline(g)
        assert v.is_refuted
        assert v.witness == one_set(ZERO, Q(1, 2))

    def test_no_record_inconclusive(self):
        assert box_chain_certify(tent()).status == "inconclusive"

    def test_certified_chain_spreads(self):
        g = two_box_chain(covering=True)
        s = one_set(Q(3, 8), Q(7, 16))
        for _ in range(8):
            if s == FULL_SET:
                break
            s = image_set(g, s)
        assert s == FULL_SET


# -- the box-chain certificate against the map-rebuilding reference -----------


def reference_box_chain_certify(f):
    """The earlier box_chain_certify: rebuild the whole map from the record,
    compare it piece for piece, classify every leg and take the longest
    run of legs that are not full sweeps.  The oracle for a chain's own
    map, the only map whose record the certificate reads."""
    chain = f._chain
    if not isinstance(chain, BoxChain):
        return Verdict.inconclusive(0)
    per_box = []
    all_verts = []
    for window, params in chain.boxes:
        verts = box_vertices_per_leg(window, params)
        per_box.append(verts)
        all_verts.extend(verts if not all_verts else verts[1:])
    if not f.is_pl or pl_from_vertices(all_verts).pieces != f.pieces:
        return Verdict.inconclusive(0)
    run = longest = 0
    min_slope = None
    for verts, (window, params) in zip(per_box, chain.boxes):
        height = params.top - params.bottom
        slope = params.expansion * height / window.width
        if min_slope is None or slope < min_slope:
            min_slope = slope
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            if abs(y1 - y0) == height:
                run = 0
            else:
                run += 1
                longest = max(longest, run)
    if min_slope <= longest + 2:
        return Verdict.inconclusive(0)
    windows = [w for w, _ in chain.boxes]
    bands = [Interval(p.bottom, p.top) for _, p in chain.boxes]
    if not per_start_closure(windows, bands):
        return Verdict.inconclusive(0)
    return Verdict.certified()


def reference_partial_run(boxes):
    run = longest = 0
    for window, params in boxes:
        verts = box_vertices_per_leg(window, params)
        for (_, y0), (_, y1) in zip(verts, verts[1:]):
            run = 0 if abs(y1 - y0) == params.height else run + 1
            longest = max(longest, run)
    return longest


SIXTEENTHS = st.integers(0, 16).map(lambda k: Q(k, 16))
BAND_SLACK = st.sampled_from([ZERO, Q(1, 64), Q(1, 16), Q(1, 4), ONE, ONE, ONE])


@st.composite
def valid_chains(draw, like=None):
    """Tiling, bands and shared junction values; slopes range from far
    below the certificate's floor to far above it.  Given a chain
    ``like``, the tiling and the expansions are its own."""
    if like is None:
        n = draw(st.integers(1, 4))
        cuts = sorted(draw(st.sets(st.integers(1, 15), min_size=n - 1, max_size=n - 1)))
        xs = [ZERO] + [Q(c, 16) for c in cuts] + [ONE]
    else:
        n = len(like)
        xs = [w.lo for w, _ in like] + [ONE]
    junctions = [draw(SIXTEENTHS) for _ in range(n + 1)]
    boxes = []
    for i in range(n):
        lo, hi = sorted(junctions[i : i + 2])
        bottom = max(ZERO, lo - draw(BAND_SLACK))
        top = min(ONE, hi + draw(BAND_SLACK))
        if bottom == top:
            if top < ONE:
                top += Q(1, 64)
            else:
                bottom -= Q(1, 64)
        if like is None:
            expansion = draw(st.sampled_from([Q(20), Q(41, 2), Q(21), Q(30)]))
        else:
            expansion = like[i][1].expansion
        params = BoxParams(junctions[i], junctions[i + 1], bottom, top, expansion)
        boxes.append((Interval(xs[i], xs[i + 1]), params))
    return tuple(boxes)


def chain_vertices(boxes):
    """The chain's vertices from the per-leg walk, independent of the
    builder's integer layout."""
    verts = []
    for window, params in boxes:
        vs = box_vertices_per_leg(window, params)
        verts.extend(vs if not verts else vs[1:])
    return verts


# two boxes whose legs meet collinearly at the junction: 44 vertices, 42 pieces
COLLINEAR_JUNCTION = (
    (Interval(ZERO, Q(1, 2)), BoxParams(Q(3, 8), Q(1, 4), Q(1, 4), Q(1, 2), Q(20))),
    (Interval(Q(1, 2), ONE), BoxParams(Q(1, 4), Q(1, 8), ZERO, Q(1, 4), Q(20))),
)


def two_boxes(cut, first, second):
    return (
        (Interval(ZERO, cut), BoxParams(*(Q(v) for v in first))),
        (Interval(cut, ONE), BoxParams(*(Q(v) for v in second))),
    )


# slope floor at most 5, so the run length M decides; every closure is full
LOW_SLOPE_CHAINS = [
    (two_boxes(Q(1, 16), (0, 0, 0, 1, 20), (0, 0, 0, "3/32", 22)), True),  # 11/5, M=0
    (two_boxes(Q(1, 16), (0, 0, 0, 1, 21), (0, 0, 0, "11/64", 22)), True),  # 121/30, M=2
    (two_boxes(Q(1, 16), (0, 0, 0, 1, 21), (0, 0, 0, "3/16", 20)), False),  # 4, M=2
    (two_boxes(Q(1, 16), (0, "1/16", 0, 1, 20), ("1/16", 0, 0, "15/64", 20)), False),  # 5, M=3
    (two_boxes(Q(1, 16), (0, 0, 0, 1, 20), (0, 0, 0, "1/16", 20)), False),  # 4/3, M=0
]


class TestChainCertificate:
    @pytest.mark.parametrize("boxes, certified", LOW_SLOPE_CHAINS)
    def test_low_slope_chains_decided_by_run_length(self, boxes, certified):
        f = concat_box_maps(list(boxes))
        assert chain_certified(boxes) == certified
        assert box_chain_certify(f) == reference_box_chain_certify(f)
        assert reference_box_chain_certify(f).is_certified == certified

    @given(valid_chains())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_the_rebuilding_reference(self, boxes):
        f = concat_box_maps(list(boxes))
        assert box_chain_certify(f) == reference_box_chain_certify(f)
        assert chain_certified(boxes) == reference_box_chain_certify(f).is_certified

    def test_collinear_junction_chain(self):
        f = concat_box_maps(list(COLLINEAR_JUNCTION))
        assert len(chain_vertices(COLLINEAR_JUNCTION)) == 44
        assert len(f.pieces) == 42
        assert box_chain_certify(f) == reference_box_chain_certify(f)

    @given(valid_chains())
    @settings(max_examples=150, deadline=None)
    def test_partial_runs_never_exceed_three(self, boxes):
        assert _longest_partial_run(boxes) == reference_partial_run(boxes) <= 3

    @given(st.integers(0, 10_000), st.integers(1, 64), st.sampled_from([20, 25, 100]))
    @settings(max_examples=30, deadline=None)
    def test_box_data_slopes_reach_gamma(self, seed, k, gamma):
        # every band is at least as tall as its window, so no chain built by
        # box_data comes near the floor of 5 where the run length matters
        rng = random.Random(seed)
        f = random_curve_map(rng) if seed % 2 else random_pl_map(rng)
        for w, p in box_data(f, Q(k, 64), Q(gamma)).items():
            assert p.expansion * p.height / w.width >= gamma >= 20

    def test_zero_width_window_is_refused(self):
        # the chain validation refuses it before the certificate runs, as
        # the map build does
        items = [
            (Interval(ZERO, ZERO), BoxParams(ZERO, Q(1, 2), ZERO, ONE, Q(20))),
            (FULL, BoxParams(Q(1, 2), Q(1, 2), ZERO, ONE, Q(20))),
        ]
        with pytest.raises(ParameterError, match="nondegenerate"):
            chain_certified(items)
        with pytest.raises(ParameterError, match="nondegenerate"):
            concat_box_maps(items)

    def test_extension_chains_keep_slopes_of_twenty(self):
        saw3 = sawtooth(3)
        ext = simplex_extend(segment_boundary(saw3, one_minus(saw3)), SimplexSpec(1), 2)
        for x in (ZERO, ONE):
            for t in (ext.t0, Q(1, 3), Q(1, 2), ONE):
                for w, p in ext.evaluate_chain(x, t):
                    assert p.expansion * p.height / w.width >= 20


# -- the coverage closure against the per-start search ------------------------


def per_start_closure(windows, bands):
    """The earlier fallback: from every start, collect the boxes whose
    windows a collected band contains, then require the collected bands
    to union to [0, 1]."""
    n = len(windows)
    for start in range(n):
        reached = {start}
        frontier = [start]
        while frontier:
            band = bands[frontier.pop()]
            for k in range(n):
                if k not in reached and band.contains_interval(windows[k]):
                    reached.add(k)
                    frontier.append(k)
        if IntervalSet.from_intervals(bands[k] for k in reached) != FULL_SET:
            return False
    return True


def closure_input(items):
    items = list(items)
    return [w for w, _ in items], [Interval(p.bottom, p.top) for _, p in items]


def reference_window_runs(windows, bands):
    """The earlier window runs: per band, two bisects of the rational
    window lows and highs."""
    los = [w.lo for w in windows]
    his = [w.hi for w in windows]
    return [(bisect_left(los, b.lo), bisect_right(his, b.hi)) for b in bands]


def reference_covers(bands):
    """The earlier sink test: the bands' union as an IntervalSet."""
    return IntervalSet.from_intervals(bands) == FULL_SET


def reference_chain_certified(boxes):
    """The earlier certificate on rationals: the exact slope floor
    against the partial runs, then the per-start closure."""
    BoxChain(tuple(boxes))
    floor = min(p.expansion * p.height / w.width for w, p in boxes)
    if floor <= 5 and floor <= reference_partial_run(boxes) + 2:
        return False
    return per_start_closure(*closure_input(boxes))


def kernel_covers(bands):
    if not bands:
        return _covers([], 1)
    keys, one = _order_keys([x for b in bands for x in (b.lo, b.hi)])
    return _covers(list(zip(keys[0::2], keys[1::2])), one)


def kernel_closure(windows, bands):
    return _sink_coverage(windows, [(b.lo, b.hi) for b in bands])


def kernel_runs(windows, bands):
    """Per band, the window run ``_sink_coverage`` computes: what its two
    bisects return when the band is given to every box."""
    n, runs = len(windows), []
    for band in bands:
        seen = []

        def recording(bisect):
            def recorded(*args):
                seen.append(bisect(*args))
                return seen[-1]

            return recorded

        with mock.patch.object(transitivity, "bisect_left", recording(bisect_left)), mock.patch.object(
            transitivity, "bisect_right", recording(bisect_right)
        ):
            kernel_closure(windows, [band] * n)
        assert len(seen) == 2 * n
        runs.append((seen[0], seen[n]))
    return runs


GRID = st.integers(0, 64).map(lambda k: Q(k, 64))
SLACK = st.sampled_from([ZERO, Q(1, 64), Q(1, 16), Q(1, 4), Q(1, 2), ONE])
# cut points with mixed denominators: thirds, fifths, sevenths and 1/64ths
MIXED_CUTS = sorted({Q(k, q) for q in (3, 5, 7, 64) for k in range(1, q)})
# steps whose last window is short, as in homotopy.partition(3/10)
PARTITION_STEPS = [Q(3, 10), Q(2, 7), Q(3, 8), Q(2, 5), Q(1, 3)]
NEAR = Q(1, 10**6)


@st.composite
def tilings(draw):
    """Window edges tiling [0, 1]: cuts on a 1/64 grid, cuts with mixed
    denominators, or the windows of a step whose last window is short."""
    kind = draw(st.sampled_from(["grid", "mixed", "partition"]))
    if kind == "partition":
        t = draw(st.sampled_from(PARTITION_STEPS))
        xs = [ZERO]
        while xs[-1] + t < ONE:
            xs.append(xs[-1] + t)
        return xs + [ONE]
    n = draw(st.integers(1, 10))
    if kind == "grid":
        cuts = sorted(draw(st.sets(st.integers(1, 63), min_size=n - 1, max_size=n - 1)))
        return [ZERO] + [Q(c, 64) for c in cuts] + [ONE]
    cuts = draw(st.sets(st.sampled_from(MIXED_CUTS), min_size=n - 1, max_size=n - 1))
    return [ZERO] + sorted(cuts) + [ONE]


@st.composite
def band_end(draw, xs):
    """A point of [0, 1]: on the 1/64 grid, with a denominator of 3, 5
    or 7, on a window edge, or a millionth either side of one."""
    kind = draw(st.sampled_from(["grid", "mixed", "edge", "near"]))
    if kind == "grid":
        return draw(GRID)
    if kind == "mixed":
        return draw(st.sampled_from([ZERO, ONE] + MIXED_CUTS))
    x = draw(st.sampled_from(xs))
    if kind == "near":
        x += draw(st.sampled_from([-NEAR, NEAR]))
    return min(ONE, max(ZERO, x))


@st.composite
def windows_and_bands(draw):
    """Windows tiling [0, 1] (``tilings``).  A band is either around its
    box's two junction values with independent slack below and above, or
    has both ends drawn by ``band_end``: on an edge, near one, or on a
    grid of 64ths, thirds, fifths or sevenths.  Small slack and ends
    near one edge leave bands that contain no window and adjacent runs
    that share none; ends on a shared edge make touching bands."""
    xs = draw(tilings())
    n = len(xs) - 1
    junctions = [draw(GRID) for _ in range(n + 1)]
    windows, bands = [], []
    for i in range(n):
        windows.append(Interval(xs[i], xs[i + 1]))
        if draw(st.booleans()):
            lo, hi = sorted(junctions[i : i + 2])
            lo, hi = max(ZERO, lo - draw(SLACK)), min(ONE, hi + draw(SLACK))
        else:
            lo, hi = sorted((draw(band_end(xs)), draw(band_end(xs))))
        bands.append(Interval(lo, hi))
    return windows, bands


def boxes_at(cuts, values, bands):
    xs = [ZERO] + [Q(c) for c in cuts] + [ONE]
    ys = [Q(v) for v in values]
    return tuple(
        (Interval(xs[i], xs[i + 1]), BoxParams(ys[i], ys[i + 1], Q(lo), Q(hi), Q(20)))
        for i, (lo, hi) in enumerate(bands)
    )


# boxes 0 and 2 hold each other's windows and their bands fill [0, 1]; box
# 1 holds only its own window.  Sink {0, 2} covers, sink {1} does not, and
# the covering one is closed first.
TWO_SINKS = boxes_at(
    ["1/4", "1/2"], ["1/2", "3/8", "1/4", 0], [("3/8", 1), ("1/4", "1/2"), (0, "3/8")]
)

# the cycle 0 -> 2 -> 4 -> 0 is the only sink and its bands fill [0, 1]; 1
# and 3 hold each other's windows, only 3 also holds box 2's, and their
# bands leave (1/2, 1] uncovered.  The DFS root of {1, 3} is 1, which has
# no edge out of the component.
LEAVING_COMPONENT = boxes_at(
    ["1/8", "1/4", "3/8", "1/2"],
    ["1/4", "3/8", "7/16", "7/16", "1/8", 0],
    [
        ("3/16", "7/16"),
        ("5/16", "1/2"),
        ("7/16", 1),
        ("1/16", "15/32"),
        (0, "3/16"),
    ],
)


def wide_chain(seed, n=24, bits=1000):
    """n boxes whose window cuts have distinct random denominators of
    ``bits`` bits, junction values on a 1/16 grid, and each band running
    from the cut at or below its junction values to the cut at or above
    them, so band ends fall exactly on window edges."""
    rng = random.Random(seed)
    cuts = set()
    while len(cuts) < n - 1:
        d = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        cuts.add(Q(rng.randrange(1, d), d))
    xs = [ZERO, *sorted(cuts), ONE]
    ys = [Q(rng.randint(0, 16), 16) for _ in range(n + 1)]
    boxes = []
    for i in range(n):
        lo, hi = sorted(ys[i : i + 2])
        lo, hi = xs[min(bisect_right(xs, lo), n) - 1], xs[max(bisect_left(xs, hi), 1)]
        boxes.append((Interval(xs[i], xs[i + 1]), BoxParams(ys[i], ys[i + 1], lo, hi, Q(20))))
    return tuple(boxes)


class TestCoverageClosure:
    def test_two_sinks_one_covering(self):
        windows, bands = closure_input(TWO_SINKS)
        assert not per_start_closure(windows, bands)
        assert not kernel_closure(windows, bands)
        assert not chain_certified(TWO_SINKS)

    def test_component_that_leaves_need_not_cover(self):
        windows, bands = closure_input(LEAVING_COMPONENT)
        assert per_start_closure(windows, bands)
        assert kernel_closure(windows, bands)
        assert chain_certified(LEAVING_COMPONENT)

    @given(windows_and_bands())
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_per_start_search(self, case):
        windows, bands = case
        assert kernel_closure(windows, bands) == per_start_closure(windows, bands)

    @given(st.integers(0, 10_000), st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_box_data_chains(self, seed, k):
        rng = random.Random(seed)
        f = random_curve_map(rng) if seed % 2 else random_pl_map(rng)
        windows, bands = closure_input(box_data(f, Q(k, 64), Q(20)).items())
        assert kernel_closure(windows, bands) == per_start_closure(windows, bands)

    def test_extension_chains(self):
        saw3 = sawtooth(3)
        ext = simplex_extend(segment_boundary(saw3, one_minus(saw3)), SimplexSpec(1), 2)
        for x in (ZERO, ONE):
            for t in (ext.t0, Q(1, 2), ONE):
                windows, bands = closure_input(ext.evaluate_chain(x, t))
                assert kernel_closure(windows, bands)
                assert per_start_closure(windows, bands)


class TestIntegerKernel:
    """The integer window runs, sink sweep and slope test against the
    rational routines they replace."""

    @given(windows_and_bands())
    @settings(max_examples=300, deadline=None)
    def test_window_runs_match_the_bisects(self, case):
        windows, bands = case
        assert kernel_runs(windows, bands) == reference_window_runs(windows, bands)

    @given(windows_and_bands(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_sweep_matches_the_union(self, case, data):
        _, bands = case
        chosen = [b for b in bands if data.draw(st.booleans())]
        assert kernel_covers(chosen) == reference_covers(chosen)

    @given(st.lists(st.fractions(0, 1, max_denominator=2**40), min_size=1, max_size=8))
    @example([Fraction(1, 2**40 - 1), Fraction(1, 2**40), Fraction(1, 2**40 - 2)])
    @example([Fraction(2**39 - 1, 2**40 - 3), Fraction(1, 2), Fraction(2**39 + 1, 2**40 + 1)])
    @settings(max_examples=200, deadline=None)
    def test_order_keys_order_exactly(self, fractions):
        xs = [Q(x.numerator, x.denominator) for x in fractions] + [ONE]
        keys, one = _order_keys(xs)
        assert keys[-1] == one
        for x, kx in zip(xs, keys):
            for y, ky in zip(xs, keys):
                assert (kx < ky) == (x < y) and (kx == ky) == (x == y)

    def test_band_ends_on_and_near_window_edges(self):
        windows = [iv(0, "1/3"), iv("1/3", "2/3"), iv("2/3", 1)]
        third, two_thirds = Q(1, 3), Q(2, 3)
        cases = [
            (Interval(third, two_thirds), (1, 2)),
            (Interval(third - NEAR, two_thirds + NEAR), (1, 2)),
            (Interval(third + NEAR, ONE), (2, 3)),
            (Interval(ZERO, two_thirds - NEAR), (0, 1)),
            (Interval(third + NEAR, two_thirds - NEAR), (2, 1)),  # holds no window
        ]
        bands = [b for b, _ in cases]
        assert kernel_runs(windows, bands) == [run for _, run in cases]
        assert reference_window_runs(windows, bands) == [run for _, run in cases]

    def test_touching_bands_cover(self):
        halves = [iv(0, "1/2"), iv("1/2", 1)]
        assert kernel_covers(halves) and reference_covers(halves)
        gap = [iv(0, "1/2"), Interval(Q(1, 2) + NEAR, ONE)]
        assert not kernel_covers(gap) and not reference_covers(gap)
        assert not kernel_covers([iv("1/2", 1)])
        # each half's band holds the other's window: one sink, covered
        assert kernel_closure(halves, halves[::-1])
        assert per_start_closure(halves, halves[::-1])

    def test_windows_of_distinct_thousand_bit_denominators(self):
        # band ends fall exactly on cuts of distinct 1000-bit
        # denominators; the keys grow with the longest denominator, not
        # with the number of distinct ones
        verdicts = []
        for seed in range(6):
            boxes = wide_chain(seed)
            windows, bands = closure_input(boxes)
            assert kernel_closure(windows, bands) == per_start_closure(windows, bands)
            verdicts.append(chain_certified(boxes))
            assert verdicts[-1] == reference_chain_certified(boxes)
        assert verdicts == [True, True, True, False, False, False]

    @given(valid_chains())
    @settings(max_examples=200, deadline=None)
    def test_certificate_matches_the_rational_one(self, boxes):
        assert chain_certified(boxes) == reference_chain_certified(boxes)

    def test_slopes_at_and_either_side_of_five(self):
        # box 1's band [0, 1] holds every window; box 2's band holds box 1's
        # window, so the closure is full and the slope floor decides
        for cut in (Q(1, 16), Q(1, 8), Q(3, 16)):
            for delta, steep in ((-NEAR, False), (ZERO, False), (NEAR, True)):
                top = (ONE - cut) / 4 + delta
                for y0 in (ZERO, Q(1, 2), ONE):
                    for y1 in (ZERO, top / 2, top):
                        for y2 in (ZERO, top):
                            boxes = two_boxes(cut, (y0, y1, 0, 1, 20), (y1, y2, 0, top, 20))
                            slope = boxes[1][1].expansion * top / boxes[1][0].width
                            assert (slope > 5) == steep and (slope == 5) == (delta == 0)
                            certified = chain_certified(boxes)
                            assert certified == reference_chain_certified(boxes)
                            if steep:
                                assert certified
                            elif reference_partial_run(boxes) >= 3:
                                assert not certified


class TestPipeline:
    def test_identity_refuted(self):
        v = is_transitive_pipeline(identity_map())
        assert v.is_refuted
        assert v.witness == one_set(ZERO, Q(1, 2))

    def test_square_refuted(self):
        v = is_transitive_pipeline(square_map())
        assert v.is_refuted
        assert v.witness == one_set(ZERO, Q(1, 2))

    def test_constant_refuted_without_search(self):
        v = is_transitive_pipeline(constant_half())
        assert v.is_refuted
        assert v.witness == one_set(Q(1, 4), Q(3, 4))

    def test_sawtooth_certified(self):
        assert is_transitive_pipeline(saw(3)).is_certified

    def test_homotopy_output_certified(self):
        g = apply_homotopy(saw(3), Q(1, 4), Q(20))
        assert is_transitive_pipeline(g).is_certified

    def test_tent_out_of_reach(self):
        # slope exactly 2: no certificate applies, nothing refutes
        assert is_transitive_pipeline(tent()).status == "inconclusive"

    @pytest.mark.parametrize("field", ["refute_steps", "leo_max_level", "leo_steps"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_budget_counts_below_one_refused(self, field, value):
        # the step counts and leo's level cap are constants, not fields: a
        # budget that names one is refused whatever the value
        with pytest.raises(TypeError):
            PipelineBudget(**{field: value})
        constant = {"refute_steps": 200, "leo_max_level": 12, "leo_steps": 400}[field]
        assert getattr(PipelineBudget, field) == getattr(PipelineBudget(), field) == constant
        assert [f.name for f in dataclasses.fields(PipelineBudget)] == ["refute_max_level"]

    @pytest.mark.parametrize("levels", [-1, -3], ids=["levels0", "levels1"])
    def test_budget_levels_below_one_refused(self, levels):
        # a depth below 0 is refused; depth 0 tries no refute level
        with pytest.raises(ParameterError, match="below 0"):
            PipelineBudget(refute_max_level=levels)
        assert PipelineBudget(refute_max_level=0).refute_levels == ()

    @pytest.mark.parametrize(
        "fields", [{"refute_max_level": 25}, {"refute_max_level": 21}, {"refute_max_level": 40}]
    )
    def test_budget_levels_above_the_cap_refused(self, fields):
        # a depth of 25 used to refute the identity at level 1 and raise on
        # ladder_map(5) at level 25: the budget is now refused for every map
        with pytest.raises(ParameterError, match="above the cap 20"):
            PipelineBudget(**fields)
        assert PipelineBudget(refute_max_level=20).refute_levels == tuple(range(1, 21))

    def test_budget_takes_a_depth_not_a_level_set(self):
        # the levels are 1 .. refute_max_level, read-only
        with pytest.raises(TypeError):
            PipelineBudget(refute_levels=(1, 16))
        assert PipelineBudget().refute_levels == (1, 2, 3, 4, 5, 6)

    @pytest.mark.parametrize("bad", [Q(5, 2), 2.0, True], ids=["fraction", "float", "bool"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda f, bad: leo_certify(f, bad, 3),
            lambda f, bad: leo_certify(f, 4, bad),
            lambda f, bad: invariant_region_refute(f, bad, 3),
            lambda f, bad: invariant_region_refute(f, 3, bad),
            lambda f, bad: ball_refute(f, Q(1, 100), bad),
            lambda f, bad: PipelineBudget(refute_max_level=bad),
        ],
        ids=["leo-level", "leo-steps", "refute-level", "refute-steps", "ball-level", "depth"],
    )
    def test_a_level_or_count_that_is_not_an_int_is_refused(self, call, bad):
        # leo_certify(f, 4, 5/2) used to iterate forever on this map, True
        # ran as level 1, and 2.0 failed with a bare TypeError; each is now
        # refused before any grid is read
        f = steep_invariant_half()
        with mock.patch.object(transitivity, "_cell_ranges", side_effect=AssertionError):
            with pytest.raises(ParameterError, match="is not an int"):
                call(f, bad)

    def test_budgets_that_used_to_pass(self):
        # the first certified a chain map and crashed on the square map; the
        # second certified sawtooth(3) with a negative step count; the third
        # never returned on a steep map that a depth-1 budget refutes
        with pytest.raises(TypeError):
            PipelineBudget(refute_steps=0, leo_steps=0)
        with pytest.raises(TypeError):
            PipelineBudget(refute_max_level=0, refute_steps=-3)
        with pytest.raises(TypeError):
            PipelineBudget(refute_max_level=0, leo_steps=2.5)
        least = PipelineBudget(refute_max_level=0)
        assert is_transitive_pipeline(square_map(), least).status == "inconclusive"
        assert is_transitive_pipeline(constant_half(), least).is_refuted
        depth_one = PipelineBudget(refute_max_level=1)
        assert is_transitive_pipeline(steep_invariant_half(), depth_one).is_refuted

    def test_deterministic(self):
        budget = PipelineBudget(refute_max_level=2)
        rng = random.Random(5)
        f = random_surjective_pl(rng)
        assert is_transitive_pipeline(f, budget) == is_transitive_pipeline(f, budget)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_soundness_on_corpus(self, seed):
        rng = random.Random(seed)
        f = random_surjective_pl(rng)
        budget = PipelineBudget(refute_max_level=3)
        v = is_transitive_pipeline(f, budget)
        if v.is_refuted:
            c = v.witness
            assert c != FULL_SET and sum(x.width for x in c.components) > ZERO
            assert c.contains_set(image_set(f, c))
        elif v.is_certified:
            # spot-check: a small cell's forward images reach everywhere
            s = one_set(Q(3, 8), Q(7, 16))
            for _ in range(60):
                if s == FULL_SET:
                    break
                s = image_set(f, s)
            assert s == FULL_SET
