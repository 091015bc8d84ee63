"""Box layouts, SVG coordinates and scalar text against the bodies they replaced.

The box layout (``box_values``, the vertices ``boxmap._legs`` lays out
and the pieces ``concat_box_maps`` builds) is integer work over one
scaling per box; ``svg._px``/``_py`` format a coordinate from one
integer division;
``scalar_str`` prints a rational of the scalar type without copying it.
The earlier bodies, which computed the sweeps in rationals and walked
every leg with a division, formatted the float of a rational product and
copied every rational, are kept here as oracles.
"""
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transmaps import boxmap, svg
from transmaps.boxmap import BoxParams, box_values, concat_box_maps
from transmaps.corpus import random_curve_map
from transmaps.exact import FULL, Interval, pl_from_vertices
from transmaps.extension import SimplexSpec, segment_boundary, simplex_extend
from transmaps.homotopy import box_data
from transmaps.rational import ONE, Q, ZERO, scalar_str
from transmaps.spaces import ladder_map, phase_sawtooth, sawtooth


# -- the earlier bodies, kept as oracles --------------------------------------


def _floor(x):
    return int(x.numerator // x.denominator)


def box_values_deduped(p):
    """The earlier ``box_values``: every extremum listed, then repeats dropped."""
    return sweeps_deduped(p)[0]


def sweeps_deduped(p):
    """``box_values_deduped(p)`` and its full extremum count k."""
    h = p.height
    budget = p.expansion * h
    first_top = p.left_value < p.top
    d_first = (p.top - p.left_value) if first_top else (p.left_value - p.bottom)

    def extremum(i):
        odd = i % 2 == 1
        return p.top if odd == first_top else p.bottom

    best_k = 0
    for parity in (0, 1):
        tail = abs(p.right_value - (p.top if (parity == 1) == first_top else p.bottom))
        bound = _floor((budget - d_first - tail) / h) + 1
        k = bound if bound % 2 == parity else bound - 1
        if k >= 1 and k > best_k:
            best_k = k
    k = best_k
    used = d_first + (k - 1) * h + abs(p.right_value - extremum(k))
    remainder = budget - used

    values = [p.left_value] + [extremum(i) for i in range(1, k + 1)]
    if remainder > 0:
        if extremum(k) == p.top:
            values.append(p.right_value - remainder / 2)
        else:
            values.append(p.right_value + remainder / 2)
    values.append(p.right_value)

    out = [values[0]]
    for v in values[1:]:
        if v != out[-1]:
            out.append(v)
    return out, k


def box_vertices_per_leg(window, p):
    """The box's vertices as the earlier layout walked them: one division
    by the slope per leg."""
    values = box_values_deduped(p)
    slope = p.expansion * p.height / window.width
    verts = [(window.lo, values[0])]
    x = window.lo
    for a, b in zip(values, values[1:]):
        x = x + abs(b - a) / slope
        verts.append((x, b))
    assert verts[-1][0] == window.hi
    return verts


def px_float(x):
    return f"{float(svg.MARGIN + svg.SPAN * x):.3f}"


def py_float(y):
    return f"{float(svg.SIZE - svg.MARGIN - svg.SPAN * y):.3f}"


def scalar_str_copied(x):
    return str(Q(x))


# -- box layouts ----------------------------------------------------------------

DENOMS = st.sampled_from([1, 2, 3, 7, 8, 40, 64, 96, 1000, 2**20 + 1])


@st.composite
def unit_fractions(draw, lo=0, hi=1):
    """A rational in [lo, hi] with a denominator from DENOMS."""
    d = draw(DENOMS)
    return Q(draw(st.integers(lo * d, hi * d)), d)


@st.composite
def windows(draw):
    a, b = draw(unit_fractions()), draw(unit_fractions())
    if a == b:
        b = ONE if a < ONE else ZERO
    return Interval(min(a, b), max(a, b))


@st.composite
def box_params(draw):
    """Box parameters across the layout's corner cases.

    ``free`` draws every field; ``edge`` puts both edge values on band
    edges; ``exact`` sets the expansion so that the sweeps use the whole
    budget, leaving no remainder overshoot; ``last`` makes the right value
    the last extremum as well, so the layout ends on that extremum.
    """
    mode = draw(st.sampled_from(["free", "edge", "exact", "last"]))
    bottom = draw(unit_fractions(0, 1))
    top = draw(unit_fractions(0, 1))
    if bottom == top:
        bottom, top = ZERO, ONE
    bottom, top = min(bottom, top), max(bottom, top)
    h = top - bottom

    def in_band():
        return bottom + h * draw(unit_fractions())

    if mode == "free":
        left, right = in_band(), in_band()
        expansion = Q(20) + draw(unit_fractions(0, 30))
        return mode, BoxParams(left, right, bottom, top, expansion), None
    if mode == "edge":
        left = draw(st.sampled_from([bottom, top]))
        right = draw(st.sampled_from([bottom, top]))
        expansion = Q(20) + draw(unit_fractions(0, 30))
        return mode, BoxParams(left, right, bottom, top, expansion), None
    left = draw(st.sampled_from([bottom, top, in_band()]))
    first_top = left < top
    d_first = (top - left) if first_top else (left - bottom)
    k = draw(st.integers(21, 60))
    last = top if (k % 2 == 1) == first_top else bottom
    right = last if mode == "last" else in_band()
    expansion = (d_first + (k - 1) * h + abs(right - last)) / h
    return mode, BoxParams(left, right, bottom, top, expansion), k


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.sampled_from([ONE, Q(1, 3), Q(1, 8), Q(2, 17)]))
def test_concatenation_equals_the_vertex_build(seed, t):
    f = random_curve_map(random.Random(seed), 4)
    items = box_data(f, t, Q(20) + Q(seed % 7, 3)).items()
    g = concat_box_maps(items)
    verts = [(ZERO, items[0][1].left_value)]
    for w, p in items:
        verts.extend(box_vertices_per_leg(w, p)[1:])
    assert g.pieces == pl_from_vertices(verts).pieces


# value denominators: small primes, a power of two and large odd ones
VALUE_DENOMS = st.one_of(
    st.sampled_from([1, 3, 5, 7, 2**40, 2**40 - 87]),
    st.integers(2, 2**40),
)


@st.composite
def values_in(draw, lo, hi):
    """A rational in [lo, hi], lo + (hi - lo) * n / d with d from VALUE_DENOMS."""
    d = draw(VALUE_DENOMS)
    return lo + (hi - lo) * Q(draw(st.integers(0, d)), d)


EXPANSIONS = st.one_of(
    st.sampled_from([Q(20), Q(41, 2)]),
    # non-integers with large denominators, up to 60
    st.integers(2, 2**40).flatmap(
        lambda d: st.integers(0, 40 * d).map(lambda n: Q(20) + Q(n, d))
    ),
)

LAYOUT_WINDOWS = st.one_of(
    st.sampled_from(
        [FULL, Interval(ZERO, Q(1, 7)), Interval(Q(1, 3), ONE), Interval(Q(2, 7), Q(3, 5))]
    ),
    st.tuples(values_in(ZERO, ONE), values_in(ZERO, ONE))
    .filter(lambda ab: ab[0] != ab[1])
    .map(lambda ab: Interval(min(ab), max(ab))),
)


@st.composite
def layout_boxes(draw):
    """``(window, p, mode, k)``: a box from ``box_params``, whose mode and
    k name its corner case, or, in mode "wide", a box with large
    denominators and edge values on and off the band edges."""
    if draw(st.booleans()):
        mode, p, k = draw(box_params())
        return draw(windows()), p, mode, k
    bottom = draw(values_in(ZERO, ONE))
    top = draw(values_in(bottom, ONE).filter(lambda t: t > bottom))
    edge = st.sampled_from([bottom, top])
    left = draw(st.one_of(edge, values_in(bottom, top)))
    right = draw(st.one_of(edge, values_in(bottom, top)))
    p = BoxParams(left, right, bottom, top, draw(EXPANSIONS))
    return draw(LAYOUT_WINDOWS), p, "wide", None


def padded(window, p):
    """A chain holding the box, its window padded to [0, 1] by boxes on
    the full band."""
    boxes = [(window, p)]
    if window.lo > ZERO:
        boxes.insert(0, (Interval(ZERO, window.lo), BoxParams(ZERO, p.left_value, ZERO, ONE, Q(20))))
    if window.hi < ONE:
        boxes.append((Interval(window.hi, ONE), BoxParams(p.right_value, ONE, ZERO, ONE, Q(20))))
    return tuple(boxes)


def extension_chain(f0, f1, x, u):
    """The evaluate_chain chain at boundary point x, the fraction u of the
    way from t0 to 1: every box a convex combination of a step-t0 box and
    its apex box, so its numbers carry large denominators."""
    ext = simplex_extend(segment_boundary(f0, f1), SimplexSpec(1), Q(2))
    return ext.evaluate_chain(x, ext.t0 + u * (ONE - ext.t0))


def assert_layout_matches(boxes):
    verts = [(ZERO, boxes[0][1].left_value)]
    for w, p in boxes:
        values, k = sweeps_deduped(p)
        assert box_values(p) == values and boxmap._turns(p)[4] == k
        per_leg = box_vertices_per_leg(w, p)
        xs, ys, c0s, slopes = boxmap._legs(w, p)
        assert list(zip(xs, ys)) == per_leg
        assert slopes[0] == (1 if ys[0] < ys[1] else -1) * p.expansion * p.height / w.width
        assert slopes[1] == -slopes[0]
        assert c0s == [y - s * x for (x, y), s in zip(per_leg[:-1], slopes * len(per_leg))]
        verts += per_leg[1:]
    g, want = concat_box_maps(boxes), pl_from_vertices(verts)
    assert (g.pieces, g._lows, g._values) == (want.pieces, want._lows, want._values)
    scalars = [*g._lows, *g._values]
    for piece in g.pieces:
        scalars += (piece.domain.lo, piece.domain.hi, piece.c0, piece.c1)
    assert all(type(v) is Q for v in scalars)


# the legs after the last extremum, by tail shape
TAIL_LEGS = {"no tail leg": 0, "one tail leg": 1, "overshoot": 2}


@settings(max_examples=300, deadline=None)
@given(box=layout_boxes())
# no remainder, and the right value at the last extremum or inside the band
@example(box=(FULL, BoxParams(ZERO, ZERO, ZERO, ONE, Q(20)), "no tail leg", None))
@example(box=(FULL, BoxParams(ZERO, Q(1, 2), ZERO, ONE, Q(41, 2)), "one tail leg", None))
@example(box=(FULL, BoxParams(ZERO, Q(1, 2), ZERO, ONE, Q(20)), "overshoot", None))
# the left value at the top, then at the bottom
@example(box=(Interval(Q(1, 3), ONE), BoxParams(Q(3, 4), Q(1, 3), Q(1, 5), Q(3, 4), Q(41, 2)), "top", None))
@example(box=(Interval(ZERO, Q(1, 7)), BoxParams(Q(1, 5), Q(2, 3), Q(1, 5), Q(3, 4), Q(41, 2)), "bottom", None))
def test_integer_layout_matches_the_per_leg_oracles(box):
    window, p, mode, k = box
    assert_layout_matches(padded(window, p))
    values, sweeps = sweeps_deduped(p)
    # the strategy and the examples reach the corner cases they name
    if mode in ("exact", "last"):
        assert all(v in (p.bottom, p.top) for v in values[1:-1])
    if mode == "last":  # left value, k extrema, and no separate right value
        assert len(values) == k + 1 and values[-1] == p.right_value
    if mode in TAIL_LEGS:
        assert len(values) - 1 - sweeps == TAIL_LEGS[mode]
    if mode in ("top", "bottom"):
        assert p.left_value == getattr(p, mode)


@pytest.mark.parametrize(
    "f0, f1, x, u",
    [
        (ladder_map(6), sawtooth(3), ZERO, Q(1, 3)),
        (sawtooth(5), phase_sawtooth(3, Q(5, 64)), ONE, Q(1, 2)),
    ],
    ids=["ladder_map(6) to sawtooth(3)", "sawtooth(5) to phase_sawtooth(3, 5/64)"],
)
def test_integer_layout_matches_on_extension_chains(f0, f1, x, u):
    assert_layout_matches(tuple(extension_chain(f0, f1, x, u)))


# -- SVG coordinates --------------------------------------------------------------


def near_rounding_edge(m, e, sign):
    """A scalar whose x pixel lies within 2^-e of a three-decimal tie."""
    x = (Q(2 * m + 1, 2000) - svg.MARGIN) / svg.SPAN + sign * Q(1, 2**e)
    return min(max(x, ZERO), ONE)


SVG_SCALARS = st.one_of(
    st.sampled_from([ZERO, ONE, Q(1, 2), Q(1, 3), Q(1, 2**61), ONE - Q(1, 2**61)]),
    st.builds(
        near_rounding_edge,
        st.integers(40_000, 759_999),
        st.integers(40, 70),
        st.sampled_from([-1, 0, 1]),
    ),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6).map(Q),
    st.builds(
        lambda d, m: Q(m % (d + 1), d),
        st.integers(2**60 + 1, 2**90),
        st.integers(0, 2**90),
    ),
)


@settings(max_examples=500, deadline=None)
@given(x=SVG_SCALARS)
def test_integer_coordinates_match_the_rational_float(x):
    assert svg._px(x) == px_float(x)
    assert svg._py(x) == py_float(x)


def test_render_matches_the_rational_float_coordinates():
    for f in (sawtooth(3), random_curve_map(random.Random(5), 6)):
        with mock.patch.object(svg, "_px", px_float), mock.patch.object(svg, "_py", py_float):
            expected = svg.render_svg(f)
        assert svg.render_svg(f) == expected


# -- scalar text ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    x=st.one_of(
        st.fractions().map(Q),
        st.integers(-(2**80), 2**80),
        st.builds(lambda n, d: f"{n}/{d}", st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
        st.integers(-(10**9), 10**9).map(str),
        st.sampled_from(["0.15", "-2.5", "7", "3/9"]),
    )
)
def test_scalar_text_matches_the_copied_form(x):
    assert scalar_str(x) == scalar_str_copied(x)
