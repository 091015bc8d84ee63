import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from transmaps.corpus import random_curve_map, random_pl_map, random_surjective_pl
from transmaps.errors import DomainError, ParameterError, PreconditionError
from transmaps.exact import (
    FULL,
    CurveMap,
    Interval,
    IntervalSet,
    Piece,
    affine_transform,
    evaluate,
    pl_from_vertices,
    range_on,
    sup_distance,
)
from transmaps import spaces
from transmaps.rational import ONE, Q, ZERO, is_dyadic, largest_dyadic_where
from transmaps.spaces import (
    PerturbationRecord,
    constant_map,
    fixed_points,
    identity_map,
    is_surjective,
    ladder_map,
    nonconvexity_witness,
    normalize_to_surjection,
    nowhere_dense_perturbation,
    one_minus,
    phase_sawtooth,
    sawtooth,
    square_map,
)
from transmaps.transitivity import (
    PipelineBudget,
    ball_refute,
    invariant_region_refute,
    is_transitive_pipeline,
    leo_certify,
)


def iv(a, b):
    return Interval(Q(a), Q(b))


def modality(f) -> int:
    """Strict interior local extrema of a PL map: sign changes of its
    nonzero slopes, so plateaus count no extremum of their own."""
    slopes = [p.c1 for p in f.pieces if p.c1 != 0]
    return sum((a > 0) != (b > 0) for a, b in zip(slopes, slopes[1:]))


def reference_is_surjective(f):
    """The earlier piece scan: a piecewise quadratic takes its extrema at
    piece ends or interior parabola vertices, so f is onto [0, 1] exactly
    when those values reach both 0 and 1."""
    values = []
    for p in f.pieces:
        xs = [p.domain.lo, p.domain.hi]
        v = p.vertex()
        if v is not None:
            xs.append(v)
        values += [p.value_at(x) for x in xs]
    return min(values) == ZERO and max(values) == ONE


# -- the earlier perturbation: three-branch builder, pipeline self-check -----


def _reference_trimmed(g, lo, hi):
    out = []
    window = Interval(lo, hi)
    for p in g.pieces:
        d = p.domain.intersect(window)
        if d is not None and not d.is_degenerate():
            out.append(Piece(d, p.c0, p.c1, p.c2))
    return out


def _reference_build(g, x0, delta):
    pieces = []
    if x0 == ZERO:
        pieces.append(Piece(Interval(ZERO, delta / 2), ZERO, ZERO, 2 / delta))
        y0, y1 = delta / 2, g.value_at(delta)
        slope = (y1 - y0) / (delta / 2)
        pieces.append(
            Piece(Interval(delta / 2, delta), y0 - slope * (delta / 2), slope, ZERO)
        )
        pieces += _reference_trimmed(g, delta, ONE)
    elif x0 == ONE:
        pieces += _reference_trimmed(g, ZERO, 1 - delta)
        y0, y1 = g.value_at(1 - delta), 1 - delta / 2
        slope = (y1 - y0) / (delta / 2)
        pieces.append(
            Piece(Interval(1 - delta, 1 - delta / 2), y0 - slope * (1 - delta), slope, ZERO)
        )
        c2 = -2 / delta
        pieces.append(Piece(Interval(1 - delta / 2, ONE), ONE + c2, -2 * c2, c2))
    else:
        a = x0 - delta / 2
        pieces += _reference_trimmed(g, ZERO, x0 - delta)
        y0 = g.value_at(x0 - delta)
        slope = (a - y0) / (delta / 2)
        pieces.append(
            Piece(Interval(x0 - delta, a), y0 - slope * (x0 - delta), slope, ZERO)
        )
        pieces.append(
            Piece(Interval(a, x0 + delta / 2), a * a / delta + a, -2 * a / delta, 1 / delta)
        )
        y1 = g.value_at(x0 + delta)
        slope = (y1 - (x0 + delta / 2)) / (delta / 2)
        pieces.append(
            Piece(Interval(x0 + delta / 2, x0 + delta), y1 - slope * (x0 + delta), slope, ZERO)
        )
        pieces += _reference_trimmed(g, x0 + delta, ONE)
    return CurveMap(tuple(pieces))


def _reference_core(x0, delta):
    if x0 == ZERO:
        return Interval(ZERO, delta / 2)
    if x0 == ONE:
        return Interval(1 - delta / 2, ONE)
    return Interval(x0 - delta / 2, x0 + delta / 2)


def _reference_window(x0, delta):
    if x0 == ZERO:
        return Interval(ZERO, delta)
    if x0 == ONE:
        return Interval(1 - delta, ONE)
    return Interval(x0 - delta, x0 + delta)


def _reference_ball(h, core, delta):
    s = delta / 8
    for _ in range(8):
        lo = max(ZERO, core.lo - s) if core.lo > ZERO else ZERO
        hi = min(ONE, core.hi + s) if core.hi < ONE else ONE
        w = Interval(lo, hi)
        r = range_on(h, w)
        ok = True
        if w.lo > ZERO and r.lo - s / 2 < w.lo:
            ok = False
        if w.hi < ONE and w.hi < r.hi + s / 2:
            ok = False
        if ok:
            sides = []
            if w.lo > ZERO:
                sides.append(r.lo - w.lo)
            if w.hi < ONE:
                sides.append(w.hi - r.hi)
            return w, s / 2, min(sides)
        s = s / 2
    return None, None, None


def reference_perturbation(g, epsilon):
    """The earlier nowhere_dense_perturbation: one builder branch per
    place of the fixed point, and a witness found by running the pipeline
    at the grid level of the core's endpoints.  Returns (h, record)."""
    epsilon = Q(epsilon)
    if epsilon <= ZERO:
        raise ParameterError("perturbation size must be positive")
    if not g.is_pl:
        raise PreconditionError("perturbation seed must be piecewise linear")
    if not is_surjective(g):
        raise DomainError("perturbation seed must be onto [0,1]")
    cands = sorted(fixed_points(g), key=lambda x: (-min(x, 1 - x), x))
    if not cands:
        raise PreconditionError("no fixed point")
    quarter = epsilon / 4
    for x0 in cands:
        if not is_dyadic(x0):
            continue
        if x0 == ZERO or x0 == ONE:
            bound = min(quarter, ONE)
        else:
            bound = min(quarter, x0, 1 - x0)

        def small_enough(d):
            if d >= bound:
                return False
            r = range_on(g, _reference_window(x0, d))
            return x0 - quarter < r.lo and r.hi < x0 + quarter

        try:
            delta = largest_dyadic_where(small_enough, k_max=60)
        except DomainError:
            continue
        for _ in range(7):
            h = _reference_build(g, x0, delta)
            core = _reference_core(x0, delta)
            dist = sup_distance(g, h)
            level = max(
                int(core.lo.denominator).bit_length() - 1,
                int(core.hi.denominator).bit_length() - 1,
            )
            if dist < epsilon and is_surjective(h) and level >= 1:
                verdict = invariant_region_refute(h, level, PipelineBudget().refute_steps)
                if verdict.is_refuted:
                    bw, br, bs = _reference_ball(h, core, delta)
                    record = PerturbationRecord(
                        fixed_point=x0,
                        delta=delta,
                        window=_reference_window(x0, delta),
                        core=core,
                        distance=dist,
                        verdict=verdict,
                        refute_level=level,
                        ball_window=bw,
                        ball_radius=br,
                        ball_slack=bs,
                    )
                    return h, record
            delta = delta / 2
    raise PreconditionError("no refutable perturbation window")


STOCK_SEEDS = {
    "saw3": lambda: sawtooth(3),
    "saw4": lambda: sawtooth(4),
    "saw5": lambda: sawtooth(5),
    "ladder5": lambda: ladder_map(5),
    "ladder6": lambda: ladder_map(6),
}


def assert_matches_reference(g, eps):
    try:
        want, ref = reference_perturbation(g, eps)
    except Exception as exc:
        with pytest.raises(type(exc)):
            nowhere_dense_perturbation(g, eps)
        return
    got = nowhere_dense_perturbation(g, eps)
    assert got.pieces == want.pieces
    assert got == want and hash(got) == hash(want)
    rec = got.provenance
    for name in (
        "fixed_point", "delta", "window", "core", "distance",
        "refute_level", "ball_window", "ball_radius", "ball_slack",
    ):
        assert getattr(rec, name) == getattr(ref, name), name
    assert rec.verdict.status == ref.verdict.status
    assert rec.verdict.budget == ref.verdict.budget
    assert rec.verdict.witness == IntervalSet((rec.core,))


class TestCatalog:
    def test_identity(self):
        f = identity_map()
        assert f.value_at(Q(3, 7)) == Q(3, 7)
        assert len(f.pieces) == 1

    def test_constant_bounds(self):
        assert constant_map(Q(1, 2)).value_at(ZERO) == Q(1, 2)
        with pytest.raises(ParameterError):
            constant_map(Q(3, 2))

    def test_square_map_values(self):
        f = square_map()
        assert f.value_at(Q(1, 2)) == Q(1, 4)
        # squaring [0,1/3] lands exactly on [0,1/9]
        assert range_on(f, iv("0", "1/3")) == iv("0", "1/9")

    def test_sawtooth_vertices(self):
        f = sawtooth(3)
        assert f.value_at(ZERO) == ZERO
        assert f.value_at(Q(1, 3)) == ONE
        assert f.value_at(Q(2, 3)) == ZERO
        assert f.value_at(ONE) == ONE
        assert len(f.pieces) == 3

    def test_sawtooth_two_is_tent(self):
        tent = pl_from_vertices([(ZERO, ZERO), (Q(1, 2), ONE), (ONE, ZERO)])
        assert sawtooth(2).pieces == tent.pieces

    def test_sawtooth_needs_teeth(self):
        with pytest.raises(ParameterError):
            sawtooth(1)

    def test_one_minus_reflects(self):
        g = one_minus(sawtooth(3))
        assert g.value_at(ZERO) == ONE
        assert g.value_at(Q(1, 3)) == ZERO
        assert g.is_pl


class TestPhaseSawtooth:
    def test_zero_phase_is_plain(self):
        assert phase_sawtooth(3, ZERO).pieces == sawtooth(3).pieces

    def test_half_period_is_reflection(self):
        assert phase_sawtooth(3, Q(1, 3)).pieces == one_minus(sawtooth(3)).pieces

    def test_full_period_wraps(self):
        assert phase_sawtooth(3, Q(2, 3)).pieces == sawtooth(3).pieces
        assert phase_sawtooth(3, Q(5, 3)).pieces == one_minus(sawtooth(3)).pieces

    def test_generic_phase_frozen(self):
        f = phase_sawtooth(3, Q(1, 8))
        expected = pl_from_vertices(
            [
                (ZERO, Q(3, 8)),
                (Q(5, 24), ONE),
                (Q(13, 24), ZERO),
                (Q(7, 8), ONE),
                (ONE, Q(5, 8)),
            ]
        )
        assert f.pieces == expected.pieces

    @given(st.integers(0, 127), st.integers(0, 127))
    @settings(max_examples=30, deadline=None)
    def test_phase_modulus_and_onto(self, a, b):
        ta, tb = Q(a, 192), Q(b, 192)
        fa, fb = phase_sawtooth(3, ta), phase_sawtooth(3, tb)
        assert is_surjective(fa)
        for p in fa.pieces:
            assert abs(p.c1) == 3
        shift = abs(ta - tb)
        period = Q(2, 3)
        shift = min(shift, period - shift)
        assert sup_distance(fa, fb) <= 3 * shift


class TestLadder:
    def test_minimum_size(self):
        with pytest.raises(ParameterError):
            ladder_map(4)

    def test_shape_frozen(self):
        f = ladder_map(5)
        assert len(f.pieces) == 13
        assert modality(f) == 12
        for p in f.pieces:
            assert abs(p.c1) == 5

    def test_rung_fixed_points(self):
        f = ladder_map(5)
        for k in range(6):
            assert f.value_at(Q(k, 5)) == Q(k, 5)
        pts = fixed_points(f)
        for k in range(6):
            assert Q(k, 5) in pts
        for x in pts:
            assert f.value_at(x) == x

    def test_identity_distance_exact(self):
        assert sup_distance(ladder_map(5), identity_map()) == Q(8, 25)
        last = None
        for n in range(5, 10):
            d = sup_distance(ladder_map(n), identity_map())
            assert d == Q(8, 5 * n)
            assert d <= Q(3, n)
            if last is not None:
                assert d < last
            last = d

    def test_cell_images_overlap_neighbours(self):
        for n in (5, 7):
            f = ladder_map(n)
            for k in range(n):
                cell = Interval(Q(k, n), Q(k + 1, n))
                lo = max(ZERO, Q(k - 1, n))
                hi = min(ONE, Q(k + 2, n))
                assert range_on(f, cell) == Interval(lo, hi)

    def test_certified_transitive(self):
        assert leo_certify(ladder_map(5), 6, 60).is_certified
        assert is_surjective(ladder_map(5))


class TestStockSizeCap:
    def test_sizes_past_the_cap_are_refused(self):
        # the builders are patched so a missing cap fails at once instead
        # of building millions of vertices
        cap = 1 << 20
        with mock.patch.object(spaces, "Q", side_effect=AssertionError), mock.patch.object(
            spaces, "pl_from_vertices", side_effect=AssertionError
        ):
            for make in (
                lambda: sawtooth(cap + 1),
                lambda: sawtooth(2_000_000),
                lambda: phase_sawtooth(cap, Q(1, 3 * cap)),
                lambda: phase_sawtooth(10**9, ZERO),
                lambda: ladder_map((cap - 2) // 2),
                lambda: ladder_map(10**9),
            ):
                with pytest.raises(ParameterError, match="above the cap"):
                    make()
            # phase 0, or any on the 1/cap grid, keeps cap laps: that passes
            with pytest.raises(AssertionError):
                phase_sawtooth(cap, Q(5, cap))

    @pytest.mark.parametrize(
        "make, size",
        [
            (sawtooth, 7),
            (lambda m: phase_sawtooth(m, ZERO), 7),
            (lambda m: phase_sawtooth(m, Q(2, 7)), 7),
            (lambda m: phase_sawtooth(m, Q(1, 8)), 7),
            (lambda m: phase_sawtooth(m, Q(-3, 5)), 6),
            (ladder_map, 5),
            (ladder_map, 6),
            (ladder_map, 11),
        ],
    )
    def test_the_cap_counts_the_pieces_built(self, make, size):
        # a cap at the piece count admits the map, one below refuses it
        pieces = len(make(size).pieces)
        with mock.patch.object(spaces, "_MAX_PIECES", pieces):
            assert len(make(size).pieces) == pieces
        with mock.patch.object(spaces, "_MAX_PIECES", pieces - 1):
            with pytest.raises(ParameterError):
                make(size)


class TestSurjectivity:
    def test_frozen_witnesses(self):
        # the witness of surjectivity is the exact range, all of [0, 1]
        for f in (
            identity_map(),
            sawtooth(2),
            sawtooth(3),
            one_minus(sawtooth(3)),
            square_map(),
        ):
            assert is_surjective(f) is True

    def test_not_onto(self):
        # exactly False: a leftover `is_surjective(f) is not None` would hold on it
        assert is_surjective(constant_map(Q(1, 2))) is False
        shrunk = pl_from_vertices([(ZERO, Q(1, 4)), (ONE, Q(3, 4))])
        assert is_surjective(shrunk) is False

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_witness_attains(self, seed):
        f = random_surjective_pl(random.Random(seed))
        assert is_surjective(f) is True
        # a PL map takes its extrema at vertices
        values = {f.value_at(x) for x in f.breakpoints}
        assert ZERO in values and ONE in values


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_is_surjective_matches_piece_scan(seed):
    rng = random.Random(seed)
    maps = [random_pl_map(rng), random_curve_map(rng), random_surjective_pl(rng)]
    # shrinks that keep the bottom, the top or neither
    maps += [
        affine_transform(f, scale, shift)
        for f in list(maps)
        for scale, shift in ((Q(3, 4), ZERO), (Q(3, 4), Q(1, 4)), (Q(1, 2), Q(1, 4)))
    ]
    maps.append(constant_map(Q(1, 2)))
    for f in maps:
        assert is_surjective(f) is reference_is_surjective(f)


class TestNormalize:
    def test_affine_seed_recovers_identity(self):
        f = pl_from_vertices([(ZERO, Q(1, 4)), (ONE, Q(3, 4))])
        (a, b), g = normalize_to_surjection(f)
        assert (a, b) == (Q(1, 4), Q(3, 4))
        assert g.pieces == identity_map().pieces

    def test_surjection_unchanged(self):
        (a, b), g = normalize_to_surjection(square_map())
        assert (a, b) == (ZERO, ONE)
        assert g.pieces == square_map().pieces

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            normalize_to_surjection(constant_map(Q(2, 5)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_output_is_onto(self, seed):
        f = random_pl_map(random.Random(seed))
        r = range_on(f, FULL)
        if r.is_degenerate():
            return
        (a, b), g = normalize_to_surjection(f)
        assert (a, b) == (r.lo, r.hi)
        assert is_surjective(g)
        assert g.is_pl


class TestFixedPoints:
    def test_diagonal_crossings(self):
        assert fixed_points(sawtooth(3)) == (ZERO, Q(1, 2), ONE)
        assert fixed_points(sawtooth(2)) == (ZERO, Q(2, 3))

    def test_diagonal_plateau_midpoint(self):
        assert fixed_points(identity_map()) == (Q(1, 2),)

    def test_requires_pl(self):
        with pytest.raises(PreconditionError):
            fixed_points(square_map())


class TestPerturbation:
    def test_sawtooth_seed_frozen(self):
        g = sawtooth(3)
        h = nowhere_dense_perturbation(g, Q(1, 10))
        rec = h.provenance
        assert isinstance(rec, PerturbationRecord)
        assert rec.fixed_point == Q(1, 2)
        assert rec.delta == Q(1, 128)
        assert rec.window == iv("63/128", "65/128")
        assert rec.core == iv("127/256", "129/256")
        # untouched outside the window
        for x in (ZERO, Q(1, 4), Q(63, 128), Q(65, 128), Q(3, 4), ONE):
            assert h.value_at(x) == g.value_at(x)
        # parabola values on the core
        assert h.value_at(Q(127, 256)) == Q(127, 256)
        assert h.value_at(Q(129, 256)) == Q(129, 256)
        assert h.value_at(Q(1, 2)) == Q(255, 512)
        for x in (Q(255, 512), Q(1, 2), Q(257, 512)):
            assert h.value_at(x) < x
        assert not h.is_pl

    def test_sawtooth_seed_certificates(self):
        h = nowhere_dense_perturbation(sawtooth(3), Q(1, 10))
        rec = h.provenance
        assert rec.distance == Q(1, 64)
        assert sup_distance(sawtooth(3), h) == Q(1, 64)
        assert rec.verdict.is_refuted
        assert rec.refute_level == 8
        assert rec.verdict.witness == IntervalSet((rec.core,))
        # the refuter at the core's grid level finds a smaller invariant region
        assert invariant_region_refute(h, 8, 200).witness == IntervalSet(
            (iv(Q(127, 256), Q(1, 2)),)
        )
        assert rec.ball_window == iv("507/1024", "517/1024")
        assert rec.ball_radius == Q(1, 2048)
        assert rec.ball_slack == Q(1, 1024)
        assert is_surjective(h)
        # the core really is invariant for h
        assert range_on(h, rec.core) == rec.core

    def test_endpoint_fixed_point(self):
        # only dyadic fixed point of this seed is x = 0
        g = pl_from_vertices([(ZERO, ZERO), (Q(1, 3), ONE), (ONE, ZERO)])
        h = nowhere_dense_perturbation(g, Q(1, 5))
        rec = h.provenance
        assert rec.fixed_point == ZERO
        assert rec.core.lo == ZERO
        assert h.value_at(ZERO) == ZERO
        assert rec.verdict.is_refuted
        assert is_surjective(h)
        assert sup_distance(g, h) < Q(1, 5)

    def test_right_endpoint_fixed_point(self):
        # only dyadic fixed point of this seed is x = 1
        g = pl_from_vertices([(ZERO, Q(1, 2)), (Q(1, 4), ZERO), (ONE, ONE)])
        h = nowhere_dense_perturbation(g, Q(1, 10))
        rec = h.provenance
        assert rec.fixed_point == ONE
        assert rec.delta == Q(1, 64)
        assert rec.window == iv("63/64", "1")
        assert rec.core == iv("127/128", "1")
        assert rec.distance == Q(1, 288)
        assert sup_distance(g, h) == Q(1, 288)
        assert rec.refute_level == 7
        assert rec.ball_window is None
        assert rec.ball_radius is None and rec.ball_slack is None
        assert rec.verdict.witness == IntervalSet((rec.core,))
        assert range_on(h, rec.core) == rec.core
        # the mirrored parabola lies above the diagonal inside the core
        for x in (Q(255, 256), Q(511, 512)):
            assert x < h.value_at(x) < ONE
        assert is_surjective(h)

    @pytest.mark.parametrize("eps", [Q(1, 10), Q(1, 4)])
    @pytest.mark.parametrize("seed_name", sorted(STOCK_SEEDS))
    def test_stock_seeds_match_reference(self, seed_name, eps):
        assert_matches_reference(STOCK_SEEDS[seed_name](), eps)

    @given(
        st.one_of(
            st.integers(0, 10_000).map(lambda s: random_surjective_pl(random.Random(s))),
            # (0, a/8), (b/8, 0), (1, 1): 1 is the only fixed point on the rising leg
            st.tuples(st.integers(1, 8), st.integers(1, 7)).map(
                lambda ab: pl_from_vertices(
                    [(ZERO, Q(ab[0], 8)), (Q(ab[1], 8), ZERO), (ONE, ONE)]
                )
            ),
            st.sampled_from(sorted(STOCK_SEEDS)).map(lambda name: STOCK_SEEDS[name]()),
        ),
        st.sampled_from([Q(1, 10), Q(1, 4), Q(1, 2)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, g, eps):
        assert_matches_reference(g, eps)

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            nowhere_dense_perturbation(sawtooth(3), ZERO)
        with pytest.raises(DomainError):
            nowhere_dense_perturbation(constant_map(Q(1, 2)), Q(1, 10))
        with pytest.raises(PreconditionError):
            nowhere_dense_perturbation(square_map(), Q(1, 10))

    @pytest.mark.parametrize("eps", [Q(1, 10), Q(1, 4)])
    @pytest.mark.parametrize(
        "seed_name", ["saw3", "saw4", "saw5", "ladder"]
    )
    def test_guarantees_across_seeds(self, seed_name, eps):
        g = {
            "saw3": sawtooth(3),
            "saw4": sawtooth(4),
            "saw5": sawtooth(5),
            "ladder": ladder_map(5),
        }[seed_name]
        h = nowhere_dense_perturbation(g, eps)
        rec = h.provenance
        assert sup_distance(g, h) < eps
        assert is_surjective(h)
        assert rec.verdict.is_refuted
        assert range_on(h, rec.core) == rec.core
        # agreement outside the window
        w = rec.window
        if w.lo > ZERO:
            assert h.value_at(w.lo / 2) == g.value_at(w.lo / 2)
        if w.hi < ONE:
            x = (w.hi + ONE) / 2
            assert h.value_at(x) == g.value_at(x)
        if rec.ball_window is not None:
            r = range_on(h, rec.ball_window)
            assert rec.ball_slack >= rec.ball_radius
            if rec.ball_window.lo > ZERO:
                assert r.lo - rec.ball_window.lo >= rec.ball_slack
            if rec.ball_window.hi < ONE:
                assert rec.ball_window.hi - r.hi >= rec.ball_slack


def test_stock_seed_balls_at_one_tenth():
    """A ball is recorded only where the certificate finds one: the radii
    criterion 10 reports, and no ball for the other three seeds."""
    radii = {
        name: nowhere_dense_perturbation(make(), Q(1, 10)).provenance.ball_radius
        for name, make in STOCK_SEEDS.items()
    }
    assert radii == {
        "saw3": Q(1, 2048),
        "saw4": None,
        "saw5": None,
        "ladder5": None,
        "ladder6": Q(1, 8192),
    }
    for name in ("saw4", "saw5", "ladder5"):
        rec = nowhere_dense_perturbation(STOCK_SEEDS[name](), Q(1, 10)).provenance
        assert rec.ball_window is None and rec.ball_slack is None


class TestNonconvexity:
    def test_witness_triple(self):
        f, g, mid = nonconvexity_witness()
        # mid is the pointwise average of f and g
        for x in (ZERO, Q(1, 6), Q(1, 3), Q(1, 2), ONE):
            assert (f.value_at(x) + g.value_at(x)) / 2 == mid.value_at(x)
        assert is_transitive_pipeline(f).is_certified
        assert is_transitive_pipeline(g).is_certified
        v = is_transitive_pipeline(mid)
        assert v.is_refuted
        assert v.witness == IntervalSet((iv(Q(1, 4), Q(3, 4)),))
        assert ball_refute(mid, Q(1, 8), 2) == (iv("0", "3/4"), Q(1, 8))
