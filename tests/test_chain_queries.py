"""The exact queries a map built by ``concat_box_maps`` answers from its chain.

Such a map carries a trusted link to its ``BoxChain``.  ``sup_distance``
against a map without one, ``range_on`` and ``box_chain_certify`` read
the chain instead of walking the legs.  The piece-walking bodies they
replaced are kept here as oracles.  Maps whose chain is attached from
outside, by a constructor or a document read back, carry no link and
keep the piece walk and the record check.
"""
import bisect
import copy
import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transmaps import boxmap, transitivity
from transmaps.boxmap import concat_box_maps
from transmaps.corpus import random_curve_map, random_pl_map
from transmaps.exact import (
    FULL,
    CurveMap,
    Interval,
    Piece,
    PLMap,
    _frozen,
    pl_from_vertices,
    range_on,
    sup_distance,
)
from transmaps.homotopy import apply_homotopy, box_data
from transmaps.rational import ONE, Q, ZERO
from transmaps.serialize import map_from_document, map_to_document
from transmaps.spaces import nowhere_dense_perturbation, sawtooth
from transmaps.transitivity import box_chain_certify

from test_transitivity import (
    COLLINEAR_JUNCTION,
    record_variants,
    reference_box_chain_certify,
    valid_chains,
)


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
    for verts, k, _, _ in g._chain.boxes:
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
    assert g._chain is not None
    for f in partners(seed, g, source):
        want = sup_distance_walk(f, g)
        assert sup_distance(f, g) == want
        assert sup_distance(g, f) == want


@settings(max_examples=40, deadline=None)
@given(chain_maps(), chain_maps())
def test_two_chain_maps_walk_the_refinement(a, b):
    g, h = a[0], b[0]
    with mock.patch.object(boxmap._ChainLink, "distance", side_effect=AssertionError):
        assert sup_distance(g, h) == sup_distance_walk(g, h)
        assert sup_distance(h, g) == sup_distance_walk(h, g)


def test_distance_from_lines_through_every_extremum():
    # f affine: |f - g| peaks at one end of a parity class, a tail vertex
    # or a stretch end; lines of many slopes through every vertex put the
    # unique peak at each kind of place in turn
    for boxes in (COLLINEAR_JUNCTION, box_data(sawtooth(3), Q(1, 3), Q(41, 2)).items()):
        g = concat_box_maps(list(boxes))
        for x, y in {v for verts in g.provenance._vertices for v in verts}:
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
    los, his = g._chain.los, g._chain.his
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


def test_a_window_inside_one_box_reads_the_pieces():
    g = concat_box_maps(list(COLLINEAR_JUNCTION))
    j = Interval(Q(1, 8), Q(3, 8))
    with mock.patch.object(boxmap, "_piece_range", wraps=boxmap._piece_range) as read:
        assert range_on(g, j) == range_on_pieces(g, j)
    assert [call.args[1] for call in read.call_args_list] == [j]


# -- the trust rule --------------------------------------------------------------


def outside_copies(g):
    """Maps equal to g whose chain came from outside."""
    yield PLMap(g.pieces, provenance=g.provenance)
    yield dataclasses.replace(g)
    yield map_from_document(map_to_document(g))


def certify_counting_record_checks(f):
    with mock.patch.object(
        transitivity, "_reproduces", wraps=transitivity._reproduces
    ) as check:
        verdict = box_chain_certify(f)
    return verdict, check.call_count


def assert_untrusted(f):
    assert f._chain is None
    verdict, checks = certify_counting_record_checks(f)
    assert verdict == reference_box_chain_certify(f)
    if isinstance(f.provenance, boxmap.BoxChain):
        assert checks == 1
    probe = random_pl_map(random.Random(7))
    with mock.patch.object(boxmap._ChainLink, "distance", side_effect=AssertionError), \
            mock.patch.object(boxmap._ChainLink, "range_on", side_effect=AssertionError):
        assert sup_distance(probe, f) == sup_distance_walk(probe, f)
        assert range_on(f, FULL) == range_on_pieces(f, FULL)


@settings(max_examples=60, deadline=None)
@given(valid_chains(), valid_chains())
def test_record_variants_are_not_trusted(boxes, other):
    for i, f in enumerate(record_variants(boxes, other)):
        if i == 0:
            assert f._chain is not None  # the chain's own map
        else:
            assert_untrusted(f)


@pytest.mark.parametrize("t, gamma", [(Q(1, 4), Q(20)), (Q(1, 8), Q(41, 2))])
def test_outside_attached_chains_are_not_trusted(t, gamma):
    g = apply_homotopy(sawtooth(3), t, gamma)
    want, checks = certify_counting_record_checks(g)
    assert want.is_certified and checks == 0
    for f in outside_copies(g):
        assert f == g
        assert_untrusted(f)
        if f.provenance is not None:  # a document keeps no record
            assert box_chain_certify(f) == want


def test_a_deep_copy_still_answers_from_its_chain():
    g = apply_homotopy(sawtooth(3), Q(1, 8), Q(20))
    h = copy.deepcopy(g)
    assert h._chain is not None and h._chain.chain == g.provenance
    assert h._chain.chain is h.provenance
    verdict, checks = certify_counting_record_checks(h)
    assert verdict.is_certified and checks == 0
    f = random_pl_map(random.Random(3))
    with mock.patch.object(
        boxmap._ChainLink, "distance", autospec=True, side_effect=boxmap._ChainLink.distance
    ) as spy:
        assert sup_distance(f, h) == sup_distance_walk(f, h)
    assert spy.call_count == 1


def test_other_maps_carry_no_link():
    assert CurveMap._chain is None
    f = random_pl_map(random.Random(1))
    assert "_chain" not in vars(f)
    piece = _frozen(Piece, domain=FULL, c0=ZERO, c1=ONE, c2=ZERO)
    assert PLMap((piece,))._chain is None
