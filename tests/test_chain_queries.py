"""The exact queries a map built by ``concat_box_maps`` answers from its chain.

Such a map holds its ``BoxChain``, the box parameters only, as the
trusted ``_chain``; its ``provenance`` is None.  ``sup_distance``
against a map without one, ``sup_distance`` between two such maps on
one tiling and ``box_chain_certify`` read the chain instead of walking
the legs; the piece-walking bodies are kept here as oracles, and
``range_on`` reads the pieces of every map.  A map equal to a chain map but built another
way, from its pieces or from its document, has no ``_chain``; it keeps
the piece walk, and the certificate gives it no verdict.

The two routines that produce chains, ``box_data`` and
``ExtensionResult.evaluate_chain``, work on integers and skip the
per-box validation; their rational bodies are kept here as oracles too.
"""
import bisect
import copy
import dataclasses
import functools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transmaps import boxmap, homotopy, transitivity
from transmaps.boxmap import BoxParams, concat_box_maps
from transmaps.corpus import random_curve_map, random_pl_map
from transmaps.errors import DomainError, ParameterError
from transmaps.exact import (
    FULL,
    CurveMap,
    Interval,
    IntervalSet,
    Piece,
    _frozen,
    _partition_ranges,
    pl_from_vertices,
    range_on,
    sup_distance,
)
from transmaps.extension import SimplexSpec, segment_boundary, simplex_extend
from transmaps.homotopy import apply_homotopy, box_data, partition
from transmaps.rational import ONE, Q, ZERO
from transmaps.serialize import map_from_document, map_to_document
from transmaps.spaces import (
    PerturbationRecord,
    identity_map,
    nowhere_dense_perturbation,
    sawtooth,
)
from transmaps.transitivity import (
    PipelineBudget,
    Verdict,
    box_chain_certify,
    invariant_region_refute,
    is_transitive_pipeline,
    leo_certify,
    min_abs_slope,
    min_breakpoint_gap,
)

from test_output_arithmetic import box_vertices_per_leg
from test_transitivity import COLLINEAR_JUNCTION, SIXTEENTHS, valid_chains


# -- the piece-walking bodies, as oracles --------------------------------------


def sup_distance_walk(f, g):
    """The refinement walk ``sup_distance`` does for every pair of maps."""
    if f is g:
        return ZERO
    fp, gp, fv, gv = f.pieces, g.pieces, f._values, g._values
    nf = len(fp)
    fi = gi = 0
    best = abs(fv[0] - gv[0])
    x = ZERO
    while fi < nf:
        pf, pg = fp[fi], gp[gi]
        fh, gh = pf.domain.hi, pg.domain.hi
        if fh < gh:
            x1, vb = fh, fv[fi + 1] - pg.value_at(fh)
            fi += 1
        elif gh < fh:
            x1, vb = gh, pf.value_at(gh) - gv[gi + 1]
            gi += 1
        else:
            x1, vb = fh, fv[fi + 1] - gv[gi + 1]
            fi += 1
            gi += 1
        if (pf.c2 or pg.c2) and pf.c2 != pg.c2:
            d1 = pf.c1 - pg.c1
            d2 = pf.c2 - pg.c2
            v = -d1 / (2 * d2)
            if x < v < x1:
                best = max(best, abs(pf.c0 - pg.c0 + v * (d1 + v * d2)))
        best = max(best, abs(vb))
        x = x1
    return best


def range_on_pieces(f, j):
    """The bisecting piece read ``range_on`` does for every map."""
    pieces, lows, values = f.pieces, f._lows, f._values
    i = f._piece_index(j.lo)
    m = max(bisect.bisect_left(lows, j.hi, i) - 1, i)
    ys = [
        values[i] if lows[i] == j.lo else pieces[i].value_at(j.lo),
        values[m + 1] if pieces[m].domain.hi == j.hi else pieces[m].value_at(j.hi),
    ]
    ys += values[i + 1 : m + 1]
    for p in pieces[i : m + 1]:
        v = p.vertex()
        if v is not None and j.lo < v < j.hi:
            ys.append(p.value_at(v))
    return Interval(min(ys), max(ys))


# -- chains and the maps they are measured against ------------------------------

STEPS = st.sampled_from([Q(1, 2), Q(1, 3), Q(1, 4), Q(3, 16), Q(1, 8), Q(1, 16)])
GAMMAS = st.sampled_from([Q(20), Q(41, 2), Q(25), Q(40)])


@st.composite
def chain_maps(draw):
    """(g, source): a chain map from ``valid_chains`` (source None) or the
    deformation of a random PL or curved map at a random step and
    expansion (source that map)."""
    if draw(st.booleans()):
        return concat_box_maps(list(draw(valid_chains()))), None
    rng = random.Random(draw(st.integers(0, 10_000)))
    f = random_curve_map(rng) if draw(st.booleans()) else random_pl_map(rng)
    return concat_box_maps(box_data(f, draw(STEPS), draw(GAMMAS)).items()), f


def special_points(g):
    """The lattice extrema, window edges, first-leg and tail-leg interior
    points and tail vertices of g's boxes: every kind of place a breakpoint
    of f can meet the chain."""
    lattice, edges, legs, tails = [], [], [], []
    for w, p in g._chain.boxes:
        verts, k = box_vertices_per_leg(w, p), boxmap._turns(p)[4]
        xs = [x for x, _ in verts]
        edges += [xs[0], xs[-1]]
        lattice += xs[1 : k + 1]
        tails += xs[k + 1 : -1]
        legs += [(xs[0] + xs[1]) / 2] + [(a + b) / 2 for a, b in zip(xs[k:], xs[k + 1 :])]
    return lattice, edges, legs, tails


def aligned_map(rng, g):
    """A PL map whose breakpoints sit on lattice extrema, window edges,
    tail vertices and inside the first and tail legs of g's boxes."""
    lattice, edges, legs, tails = special_points(g)
    xs = set()
    for pool in (lattice, edges, legs, tails):
        if pool:
            xs.update(rng.sample(pool, min(len(pool), rng.randint(1, 3))))
    xs = sorted(xs | {ZERO, ONE})
    return pl_from_vertices([(x, Q(rng.randint(0, 64), 64)) for x in xs])


def partners(seed, g, source):
    rng = random.Random(seed)
    fs = [random_pl_map(rng), random_curve_map(rng), aligned_map(rng, g)]
    if source is not None:
        fs.append(source)
    return fs


@settings(max_examples=120, deadline=None)
@given(chain_maps(), st.integers(0, 10_000))
def test_distance_matches_the_walk(chain, seed):
    g, source = chain
    assert g._chain is not None and g.provenance is None
    for f in partners(seed, g, source):
        want = sup_distance_walk(f, g)
        assert sup_distance(f, g) == want
        assert sup_distance(g, f) == want


@settings(max_examples=40, deadline=None)
@given(chain_maps(), chain_maps())
def test_two_chain_maps_walk_the_refinement(a, b):
    # a pair on one tiling reads each box's head and tail instead; the
    # tests below check that path on its own
    g, h = a[0], b[0]
    with mock.patch.object(boxmap.BoxChain, "_distance", side_effect=AssertionError):
        assert sup_distance(g, h) == sup_distance_walk(g, h)
        assert sup_distance(h, g) == sup_distance_walk(h, g)


# -- two chain maps on one tiling ------------------------------------------------

MIXES = st.sampled_from([Q(1, 3), Q(1, 2), Q(3, 4), Q(15, 16)])


def mix(a, b, u):
    """(1 - u) * a + u * b box by box, as ``evaluate_chain`` moves a chain
    toward its targets."""
    return [
        (w, BoxParams(*((1 - u) * x + u * y for x, y in zip(dataclasses.astuple(p), dataclasses.astuple(q)))))
        for (w, p), (_, q) in zip(a, b)
    ]


@st.composite
def paired_chains(draw):
    """(f, g): two chain maps with the same windows and, box by box, the
    same expansion.  Either both deform random maps at one step and
    expansion, or both are drawn by ``valid_chains``, g on f's tiling;
    half the time g is then a convex mix of the two."""
    if draw(st.booleans()):
        t, gamma = draw(STEPS), draw(GAMMAS)
        rng = random.Random(draw(st.integers(0, 10_000)))
        a, b = (
            list(box_data(random_curve_map(rng) if draw(st.booleans()) else random_pl_map(rng), t, gamma).items())
            for _ in range(2)
        )
    else:
        a = list(draw(valid_chains()))
        b = list(draw(valid_chains(a)))
    if draw(st.booleans()):
        b = mix(a, b, draw(MIXES))
    return concat_box_maps(a), concat_box_maps(b)


def head_and_tail(boxes):
    """Per box: the window, the step, the first extremum and the
    second-to-last vertex strictly below the window's right edge."""
    out = []
    for w, p in boxes:
        xs = [x for x, _ in box_vertices_per_leg(w, p)]
        out.append((w, w.width / p.expansion, xs[1], xs[-3]))
    return out


def assert_reads_head_and_tail(f, g):
    """Both argument orders give the walk's rational, by the paired read."""
    want = sup_distance_walk(f, g)
    with mock.patch.object(boxmap.BoxChain, "_distance", side_effect=AssertionError), mock.patch.object(
        boxmap.BoxChain, "_paired_distance", autospec=True, side_effect=boxmap.BoxChain._paired_distance
    ) as spy:
        assert sup_distance(f, g) == want
        assert sup_distance(g, f) == want
    assert spy.call_count == 2


@settings(max_examples=150, deadline=None)
@given(paired_chains())
def test_chains_on_one_tiling_read_head_and_tail(pair):
    f, g = pair
    assert f._chain._steps_match(g._chain)
    assert_reads_head_and_tail(f, g)


def test_a_peak_inside_a_tail():
    # one box each on [0, 1]: |f - g| is largest only strictly between the
    # tail's start Y and the right edge
    boxes = [
        (FULL, BoxParams(Q(3, 8), Q(5, 8), ZERO, Q(7, 8), Q(20))),
        (FULL, BoxParams(Q(7, 16), Q(13, 16), ZERO, Q(13, 16), Q(20))),
    ]
    f, g = (concat_box_maps([box]) for box in boxes)
    y = min(yb for _, _, _, yb in head_and_tail(boxes))
    xs = sorted(set(f.breakpoints) | set(g.breakpoints))
    gaps = {x: abs(f.value_at(x) - g.value_at(x)) for x in xs}
    assert max(d for x, d in gaps.items() if not y < x < ONE) < max(gaps.values())
    assert_reads_head_and_tail(f, g)


def merged_edges(f):
    lows = set(f._lows)
    return {w.lo for w, _ in f._chain.boxes[1:] if w.lo not in lows}


def test_head_and_tail_pairs_cover_every_kind_of_box():
    # box_data pairs at every step and expansion: junction merges in one
    # map or both, sweep counts of either parity, an overshoot in one map
    # or both, and each map giving the tail's start
    seen = set()
    rng = random.Random(4)
    for t in (Q(1, 3), Q(1, 4), Q(3, 16), Q(1, 8), Q(1, 16)):
        for gamma in (Q(20), Q(41, 2), Q(25), Q(40)):
            a, b = (
                box_data(random_curve_map(rng) if rng.random() < 0.5 else random_pl_map(rng), t, gamma)
                for _ in range(2)
            )
            f, g = concat_box_maps(list(a.items())), concat_box_maps(list(b.items()))
            assert_reads_head_and_tail(f, g)
            mf, mg = merged_edges(f), merged_edges(g)
            for (w, p), (_, q) in zip(f._chain.boxes, g._chain.boxes):
                kp, kq = boxmap._turns(p)[4], boxmap._turns(q)[4]
                over = [len(box_vertices_per_leg(w, r)) == k + 3 for r, k in ((p, kp), (q, kq))]
                (_, _, _, yf), (_, _, _, yg) = head_and_tail([(w, p), (w, q)])
                seen.add(("merged", (w.lo in mf) + (w.lo in mg)))
                seen.add(("parity differs", kp % 2 != kq % 2))
                seen.add(("overshoots", sum(over)))
                seen.add(("tail from", "f" if yf < yg else "g" if yg < yf else "both"))
    assert seen >= {
        ("merged", 1), ("merged", 2), ("parity differs", True),
        ("overshoots", 1), ("overshoots", 2),
        ("tail from", "f"), ("tail from", "g"),
    }


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_head_ends_before_its_tail(data):
    # every box has at least 18 extrema, so X + 2s <= a + 3s is far
    # before Y: no two boxes on one window with one expansion have a head
    # reaching past their tail, and the read never walks a box whole
    lo, hi = sorted(data.draw(st.sets(st.integers(0, 64), min_size=2, max_size=2)))
    w = Interval(Q(lo, 64), Q(hi, 64))
    expansion = data.draw(st.sampled_from([Q(20), Q(41, 2), Q(21), Q(30), Q(201, 2)]))
    boxes = []
    for _ in range(2):
        bottom, top = sorted(data.draw(st.sets(SIXTEENTHS, min_size=2, max_size=2)))
        band = st.integers(0, 32).map(lambda k: bottom + (top - bottom) * Q(k, 32))
        boxes.append((w, BoxParams(data.draw(band), data.draw(band), bottom, top, expansion)))
    (_, s, x1f, yf), (_, _, x1g, yg) = head_and_tail(boxes)
    assert max(x1f, x1g) + 2 * s <= w.lo + 3 * s < min(yf, yg)


@settings(max_examples=40, deadline=None)
@given(paired_chains(), st.integers(0, 10_000))
def test_chains_on_other_steps_walk_the_refinement(pair, seed):
    # one box's expansion changed, or the windows of another step
    f, g = pair
    rng = random.Random(seed)
    boxes = list(g._chain.boxes)
    k = rng.randrange(len(boxes))
    w, p = boxes[k]
    boxes[k] = (w, dataclasses.replace(p, expansion=p.expansion + rng.choice([Q(1, 2), ONE, Q(20)])))
    other_step = box_data(random_pl_map(rng), rng.choice([Q(1, 5), Q(1, 7), Q(3, 32)]), Q(20))
    for h in (concat_box_maps(boxes), concat_box_maps(list(other_step.items()))):
        assert not f._chain._steps_match(h._chain)
        with mock.patch.object(boxmap.BoxChain, "_paired_distance", side_effect=AssertionError):
            assert sup_distance(f, h) == sup_distance_walk(f, h)
            assert sup_distance(h, f) == sup_distance_walk(h, f)


def test_distance_from_lines_through_every_extremum():
    # f affine: |f - g| peaks at one end of a parity class, a tail vertex
    # or a stretch end; lines of many slopes through every vertex put the
    # unique peak at each kind of place in turn
    for boxes in (COLLINEAR_JUNCTION, box_data(sawtooth(3), Q(1, 3), Q(41, 2)).items()):
        g = concat_box_maps(list(boxes))
        for x, y in {v for w, p in g._chain.boxes for v in box_vertices_per_leg(w, p)}:
            for slope in (Q(-1, 2), Q(-1, 16), ZERO, Q(1, 16), Q(1, 2)):
                c0 = y - slope * x
                pts = [(ZERO, c0), (ONE, c0 + slope)]
                if all(ZERO <= v <= ONE for _, v in pts):
                    f = pl_from_vertices(pts)
                    assert sup_distance(f, g) == sup_distance_walk(f, g)
            if ZERO < x < ONE:
                kink = pl_from_vertices([(ZERO, ONE - y), (x, y), (ONE, ONE - y)])
                assert sup_distance(g, kink) == sup_distance_walk(g, kink)


def test_curved_map_against_its_deformation():
    f = nowhere_dense_perturbation(sawtooth(3), Q(1, 10))
    assert not f.is_pl
    for t, gamma in ((Q(1, 16), Q(20)), (Q(1, 32), Q(40))):
        g = apply_homotopy(f, t, gamma)
        assert sup_distance(f, g) == sup_distance(g, f) == sup_distance_walk(f, g)


def query_windows(rng, g):
    """J = [0, 1]; J inside one box; J over whole boxes with clipped ends;
    a degenerate J at a vertex and one at a window edge."""
    lattice, edges, legs, _ = special_points(g)
    los = [w.lo for w, _ in g._chain.boxes]
    his = [w.hi for w, _ in g._chain.boxes]
    b = rng.randrange(len(los))
    a, c = sorted(Q(rng.randint(0, 64), 64) for _ in range(2))
    inside = Interval(los[b] + a * (his[b] - los[b]), los[b] + c * (his[b] - los[b]))
    lo, hi = sorted(rng.sample(lattice + legs, 2))
    x, e = rng.choice(lattice), rng.choice(edges)
    return [FULL, inside, Interval(lo, hi), Interval(x, x), Interval(e, e),
            Interval(ZERO, rng.choice(legs)), Interval(rng.choice(legs), ONE)]


@settings(max_examples=120, deadline=None)
@given(chain_maps(), st.integers(0, 10_000))
def test_range_matches_the_piece_read(chain, seed):
    g, _ = chain
    rng = random.Random(seed)
    for j in query_windows(rng, g):
        assert range_on(g, j) == range_on_pieces(g, j), j


# -- chains produced on integers --------------------------------------------------


def box_data_rational(f, t, gamma):
    """The rational ``box_data``: each window's range widened by 4 * alpha
    in rational arithmetic, alpha = max(width, range height), clipped to
    [0, 1], and every box validated by ``BoxParams``."""
    grid = partition(t)
    ys, ranges = _partition_ranges(f, *homotopy._edges(grid))
    out = []
    for k, (w, r) in enumerate(zip(grid.windows, ranges)):
        alpha = max(w.width, r.width)
        band = Interval(max(ZERO, r.lo - 4 * alpha), min(ONE, r.hi + 4 * alpha))
        out.append((w, BoxParams(ys[k], ys[k + 1], band.lo, band.hi, gamma)))
    return out


def assert_admissible(items):
    """Every box passes the validation its producer skipped, and every
    field is of the scalar type."""
    for _, p in items:
        assert BoxParams(*dataclasses.astuple(p)) == p
        assert all(type(x) is Q for x in dataclasses.astuple(p))


BAND_STEPS = st.sampled_from(
    [ONE, Q(1, 2), Q(1, 7), Q(3, 7), Q(1, 13), Q(5, 13), Q(1, 81), Q(1, 100), Q(3, 127), Q(1, 256)]
)
BAND_GAMMAS = st.sampled_from([Q(20), Q(41, 2), Q(25), Q(83, 2)])
EDGE_VALUES = st.sampled_from([ZERO, ONE, Q(1, 2), Q(1, 7), Q(6, 7), Q(1, 64), Q(63, 64)])


@st.composite
def band_maps(draw):
    """Random curved and PL maps, maps whose values touch 0 and 1 (both
    clips), constants (alpha the width), slope-1 laps (alpha the width
    and the height at once) and the sawtooth."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(["curve", "pl", "edges", "constant", "slope1", "saw"]))
    if kind == "curve":
        return random_curve_map(rng)
    if kind == "pl":
        return random_pl_map(rng)
    if kind == "edges":
        xs = sorted({ZERO, ONE, *(Q(rng.randint(1, 62), 63) for _ in range(rng.randint(1, 5)))})
        return pl_from_vertices([(x, draw(EDGE_VALUES)) for x in xs])
    if kind == "constant":
        # 4/13 and 9/13 put a band end exactly on 0 or 1 at step 1/13
        c = draw(st.sampled_from([ZERO, ONE, Q(1, 2), Q(4, 13), Q(9, 13)]))
        return pl_from_vertices([(ZERO, c), (ONE, c)])
    if kind == "slope1":
        return pl_from_vertices([(ZERO, Q(1, 2)), (Q(1, 2), ONE), (ONE, Q(1, 2))])
    return sawtooth(rng.randint(2, 5))


@settings(max_examples=200, deadline=None)
@given(band_maps(), BAND_STEPS, BAND_GAMMAS)
def test_box_data_matches_the_rational_oracle(f, t, gamma):
    got = box_data(f, t, gamma).items()
    assert got == box_data_rational(f, t, gamma)
    assert_admissible(got)


def test_box_data_meets_both_clips_and_ties():
    # at step 1/13 a constant 4/13 puts the bottom exactly on 0 and 9/13
    # the top exactly on 1; the identity at step 1/7 has alpha both the
    # width and the height, and its middle band clips at both ends
    for c, band in ((Q(4, 13), (ZERO, Q(8, 13))), (Q(9, 13), (Q(5, 13), ONE))):
        f = pl_from_vertices([(ZERO, c), (ONE, c)])
        items = box_data(f, Q(1, 13), Q(41, 2)).items()
        assert items == box_data_rational(f, Q(1, 13), Q(41, 2))
        assert {(p.bottom, p.top) for _, p in items} == {band}
    items = box_data(identity_map(), Q(1, 7), 20).items()
    assert items == box_data_rational(identity_map(), Q(1, 7), 20)
    assert [(p.bottom, p.top) for _, p in items[::3]] == [(ZERO, Q(5, 7)), (ZERO, ONE), (Q(2, 7), ONE)]


def test_box_data_refuses_a_low_expansion_once():
    f = sawtooth(3)
    with mock.patch.object(homotopy, "_partition_ranges", side_effect=AssertionError):
        with pytest.raises(ParameterError, match=r"^expansion 39/2 < 20$"):
            box_data(f, Q(1, 7), Q(39, 2))
    with pytest.raises(DomainError):  # a bad step is refused before the expansion
        box_data(f, ZERO, Q(39, 2))


@functools.lru_cache(maxsize=None)
def moved_extension(seed):
    """A segment extension between a random map and a random map or the
    sawtooth; a loose epsilon keeps t0 coarse and each chain short."""
    rng = random.Random(seed)
    f0 = random_curve_map(rng) if seed % 2 else random_pl_map(rng)
    f1 = sawtooth(3) if seed % 3 else random_pl_map(rng)
    return simplex_extend(segment_boundary(f0, f1), SimplexSpec(1), Q(4)), (f0, f1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.sampled_from([ZERO, ONE]), st.integers(0, 7))
def test_moved_chains_match_the_mix(seed, x, k):
    ext, maps = moved_extension(seed)
    t0 = ext.t0
    t = t0 + (ONE - t0) * Q(k, 7)
    base = box_data(maps[int(x)], t0, 20).items()
    got = ext.evaluate_chain(x, t)
    targets = list(zip(ext.windows, ext._targets))
    assert list(got) == mix(base, targets, (t - t0) / (ONE - t0))
    assert_admissible(got)
    if k == 0:
        assert list(got) == base and got is ext.evaluate_chain(x, t0)


# -- the trust rule --------------------------------------------------------------


@pytest.mark.parametrize("t, gamma", [(Q(1, 4), Q(20)), (Q(1, 8), Q(41, 2))])
def test_maps_rebuilt_from_a_chain_map_are_not_trusted(t, gamma):
    g = apply_homotopy(sawtooth(3), t, gamma)
    assert box_chain_certify(g).is_certified
    probe = random_pl_map(random.Random(7))
    rebuilt = (
        CurveMap(g.pieces),
        dataclasses.replace(g),
        map_from_document(map_to_document(g)),
    )
    for f in rebuilt:
        assert f == g and hash(f) == hash(g)
        assert f._chain is None and f.provenance is None
        assert box_chain_certify(f) == Verdict.inconclusive(0)
        with mock.patch.object(boxmap.BoxChain, "_distance", side_effect=AssertionError):
            assert sup_distance(probe, f) == sup_distance_walk(probe, f)


def test_a_deep_copy_still_answers_from_its_chain():
    g = apply_homotopy(sawtooth(3), Q(1, 8), Q(20))
    h = copy.deepcopy(g)
    assert h._chain is not g._chain and h._chain == g._chain
    assert h.provenance is None
    assert box_chain_certify(h).is_certified
    f = random_pl_map(random.Random(3))
    with mock.patch.object(
        boxmap.BoxChain, "_distance", autospec=True, side_effect=boxmap.BoxChain._distance
    ) as spy:
        assert sup_distance(f, h) == sup_distance_walk(f, h)
    assert spy.call_count == 1


def test_other_maps_carry_no_link():
    assert CurveMap._chain is None
    f = random_pl_map(random.Random(1))
    assert "_chain" not in vars(f)
    piece = _frozen(Piece, domain=FULL, c0=ZERO, c1=ONE, c2=ZERO)
    assert CurveMap((piece,))._chain is None


def test_only_a_perturbation_carries_a_record():
    # a chain map keeps its chain once, as its _chain, so a provenance is
    # always a perturbation's record
    g = apply_homotopy(sawtooth(3), Q(1, 8), Q(20))
    assert g.provenance is None and isinstance(g._chain, boxmap.BoxChain)
    h = nowhere_dense_perturbation(sawtooth(3), Q(1, 10))
    assert isinstance(h.provenance, PerturbationRecord) and h._chain is None


# -- the pipeline asks the chain before the range ------------------------------


def reference_pipeline(f, budget=PipelineBudget()):
    """The pipeline in its earlier order, by public calls: surjectivity
    first, then the chain certificate, the refute levels and leo."""
    r = range_on(f, FULL)
    if r != FULL:
        if r.is_degenerate():
            r = Interval(max(ZERO, r.lo - Q(1, 4)), min(ONE, r.hi + Q(1, 4)))
        return Verdict.refuted(f, IntervalSet((r,)))
    verdict = box_chain_certify(f)
    if verdict.is_certified:
        return verdict
    for level in budget.refute_levels:
        verdict = invariant_region_refute(f, level, budget.refute_steps)
        if verdict.is_refuted:
            return verdict
    if f.is_pl and min_abs_slope(f) > 2:
        gap = min_breakpoint_gap(f)
        level = 1
        while Q(2, 1 << level) > gap:
            level += 1
        if level <= budget.leo_max_level:
            return leo_certify(f, level, budget.leo_steps)
    return Verdict.inconclusive(budget.refute_steps)


@st.composite
def pipeline_maps(draw):
    """A chain map from ``valid_chains``, whose narrow bands give chains
    that are neither onto nor certified, or an ``apply_homotopy`` output;
    half the time its document round-trip, which holds no chain."""
    if draw(st.booleans()):
        g = concat_box_maps(list(draw(valid_chains())))
    else:
        rng = random.Random(draw(st.integers(0, 10_000)))
        f = random_curve_map(rng) if draw(st.booleans()) else random_pl_map(rng)
        g = apply_homotopy(f, draw(STEPS), draw(GAMMAS))
    if draw(st.booleans()):
        g = map_from_document(map_to_document(g))
    return g


@settings(max_examples=80, deadline=None)
@given(pipeline_maps())
def test_pipeline_matches_the_surjectivity_first_order(f):
    got = is_transitive_pipeline(f)
    want = reference_pipeline(f)
    assert (got.status, got.witness, got.budget) == (want.status, want.witness, want.budget)


def test_the_pipeline_reads_no_range_of_a_certified_chain_map():
    rng = random.Random(11)
    for g in (
        apply_homotopy(sawtooth(3), Q(1, 4), Q(20)),
        apply_homotopy(random_curve_map(rng), Q(1, 8), Q(41, 2)),
    ):
        with mock.patch.object(transitivity, "range_on", wraps=transitivity.range_on) as read:
            assert is_transitive_pipeline(g).is_certified
        assert read.call_count == 0
        copy_without_chain = map_from_document(map_to_document(g))
        with mock.patch.object(transitivity, "range_on", wraps=transitivity.range_on) as read:
            is_transitive_pipeline(copy_without_chain)
        assert read.call_count >= 1
