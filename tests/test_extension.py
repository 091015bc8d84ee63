"""Extension over simplices: boundary audits, the two-regime cone maps,
chain-level certification, and complex filling.

Frozen values derived by hand for the slope-3 sawtooth against its
reflection (step 1/256, budget 1/8, all junction targets 1/2, the
window-42 hull band [57/128, 71/128]) and against the slope-5 sawtooth
(probe diameter 4/5, step 1/512, first band [0, 25/512]); for the
phase-rotation triangle (face step 1/1024, the loop coordinate 5/2
landing on phase 5/9); and for the two-missing-edges complex (steps
1/1024 and 1/4096 at tolerances 1/8 and 1/16).
"""
import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from transmaps import extension
from transmaps.boxmap import BoxParams, concat_box_maps
from transmaps.errors import (
    CertificateError,
    DomainError,
    ParameterError,
    PreconditionError,
)
from transmaps.exact import Interval, affine_transform, sup_distance
from transmaps.extension import (
    BoundaryMap,
    ComplexSpec,
    ExtensionResult,
    GuaranteeCheck,
    SimplexSpec,
    SubcomplexData,
    chain_certified,
    complex_extend,
    segment_boundary,
    simplex_extend,
)
from transmaps.homotopy import (
    apply_homotopy,
    box_data,
    family_box_bounds,
    family_diameter,
    family_modulus,
    uniform_modulus,
)
from transmaps.rational import ONE, Q, ZERO, largest_dyadic_where
from transmaps.spaces import ladder_map, one_minus, phase_sawtooth, sawtooth
from transmaps.transitivity import box_chain_certify

SAW3 = sawtooth(3)
REF3 = one_minus(SAW3)
SAW5 = sawtooth(5)
HALF = Q(1, 2)


def chain_bands(items):
    return tuple(Interval(p.bottom, p.top) for _, p in items)


def bands_within(inner, outer):
    """Per-window containment of one band list in another."""
    return len(inner) == len(outer) and all(
        o.contains_interval(i) for i, o in zip(inner, outer)
    )


@pytest.fixture(scope="module")
def ext1():
    return simplex_extend(segment_boundary(SAW3, REF3), SimplexSpec(1), HALF)


@pytest.fixture(scope="module")
def ext2():
    return simplex_extend(segment_boundary(SAW3, SAW5), SimplexSpec(1), HALF)


# -- simplex descriptions and boundary families --------------------------------


def test_simplex_spec_rejects_low_dimensions():
    for d in (0, -1):
        with pytest.raises(ParameterError):
            SimplexSpec(d)
    assert SimplexSpec(2).dimension == 2


def test_boundary_audit_catches_a_lying_modulus():
    with pytest.raises(CertificateError):
        BoundaryMap(
            lambda x: SAW3 if x == ZERO else REF3,
            lambda d: d / 2,
            (ZERO, ONE),
        )


def test_boundary_probe_validation():
    with pytest.raises(ParameterError):
        BoundaryMap(lambda x: SAW3, lambda d: d, ())
    with pytest.raises(ParameterError):
        BoundaryMap(lambda x: SAW3, lambda d: d, (ZERO, Q(0)))
    with pytest.raises(ParameterError):
        BoundaryMap(lambda x: "not a map", lambda d: d, (ZERO,))


def test_segment_boundary_layout():
    b = segment_boundary(SAW3, REF3)
    assert b.probe_diameter == ONE
    assert b.evaluator(ZERO).pieces == SAW3.pieces
    assert b.evaluator(ONE).pieces == REF3.pieces
    with pytest.raises(ParameterError):
        b.evaluator(HALF)


# -- the sawtooth-against-reflection instance ---------------------------------


def test_reflection_instance_frozen_layout(ext1):
    assert ext1.t0 == Q(1, 256)
    assert ext1.displacement_budget == Q(1, 8)
    assert len(ext1.windows) == 256
    assert ext1.hull_bands[0] == Interval(ZERO, ONE)
    # near the sawtooth's crossing with its reflection the band is narrow
    assert ext1.hull_bands[42] == Interval(Q(57, 128), Q(71, 128))
    # the family is symmetric under y -> 1-y, so every target is 1/2
    assert all(c == HALF for c in ext1.junction_targets)
    assert ext1.apex().value_at(ZERO) == HALF
    assert not ext1.is_constant


def test_reflection_instance_boundary_fidelity(ext1):
    assert ext1.evaluate(ZERO, ZERO).pieces == SAW3.pieces
    assert ext1.evaluate(ONE, ZERO).pieces == REF3.pieces


def test_branch_agreement_at_the_step(ext1):
    base = ext1.evaluate_chain(ZERO, ext1.t0)
    assert base == tuple(box_data(SAW3, ext1.t0, Q(20)).items())
    direct = apply_homotopy(SAW3, ext1.t0, Q(20))
    assert ext1.evaluate(ZERO, ext1.t0).pieces == direct.pieces


def test_lerp_keeps_junctions_glued(ext1):
    for t in (Q(1, 2), Q(3, 4)):
        items = ext1.evaluate_chain(ZERO, t)
        for (_, a), (_, b) in zip(items, items[1:]):
            assert a.right_value == b.left_value


def test_bands_grow_from_base_toward_hull(ext1):
    base_bands = chain_bands(ext1.evaluate_chain(ZERO, ext1.t0))
    mid_bands = chain_bands(ext1.evaluate_chain(ZERO, HALF))
    assert bands_within(base_bands, mid_bands)
    assert bands_within(base_bands, ext1.hull_bands)
    assert bands_within(mid_bands, ext1.hull_bands)
    assert not bands_within(ext1.hull_bands[:-1], ext1.hull_bands)


def test_small_steps_move_the_map_within_budget(ext1):
    for t in (ext1.t0, ext1.t0 / 2):
        g = ext1.evaluate(ZERO, t)
        assert sup_distance(g, SAW3) < ext1.displacement_budget


def test_apex_is_independent_of_the_boundary_point(ext1):
    top0 = ext1.evaluate(ZERO, ONE)
    top1 = ext1.evaluate(ONE, ONE)
    assert top0.pieces == top1.pieces == ext1.apex().pieces


def test_every_chain_along_the_cone_is_certified(ext1):
    for t in (ext1.t0 / 2, ext1.t0, Q(3, 8), ONE):
        assert chain_certified(ext1.evaluate_chain(ZERO, t))


def test_chain_matches_the_map_level_verdict(ext1):
    items = ext1.evaluate_chain(ONE, Q(5, 8))
    assert chain_certified(items)
    assert box_chain_certify(concat_box_maps(list(items))).is_certified


# -- the sawtooth-pair instance ------------------------------------------------


def test_sawtooth_pair_frozen_layout(ext2):
    assert ext2.probe_diameter == sup_distance(SAW3, SAW5) == Q(4, 5)
    assert ext2.t0 == Q(1, 512)
    assert ext2.hull_bands[0] == Interval(ZERO, Q(25, 512))
    assert ext2.junction_targets[0] == Q(25, 1024)


def test_sawtooth_pair_diameter_bound_beats_the_target(ext2):
    assert ext2.diameter_bound() <= (ONE + ext2.epsilon) * ext2.probe_diameter


def test_reflection_diameter_bound_beats_the_target(ext1):
    assert ext1.diameter_bound() == Q(5, 4) <= Q(3, 2)


# -- evaluation-time guard and degenerate families -----------------------------


def test_off_probe_oscillation_is_caught_at_evaluation():
    rough = sawtooth(200)
    table = {ZERO: SAW3, ONE: REF3, Q(1, 4): rough}
    b = BoundaryMap(lambda x: table[x], lambda d: Q(1) * d, (ZERO, ONE))
    ext = simplex_extend(b, SimplexSpec(1), HALF)
    assert ext.t0 == Q(1, 256)
    with pytest.raises(CertificateError):
        ext.evaluate(Q(1, 4), ext.t0)
    with pytest.raises(CertificateError):
        ext.evaluate_chain(Q(1, 4), HALF)
    # the apex never looks at the boundary map, so it stays reachable
    assert ext.evaluate(Q(1, 4), ONE).pieces == ext.apex().pieces


def test_probe_maps_come_audited_by_the_step(ext1, ext2, monkeypatch):
    # t0 keeps t0 and every probe map's oscillation over width t0 below
    # budget / 9, the audit's own test, so a chain at a probe reads neither
    # the evaluator nor uniform_modulus; a point off the probes still does
    for ext in (ext1, ext2):
        for f in ext.boundary.probe_maps:
            assert 9 * max(ext.t0, uniform_modulus(f, ext.t0)) < ext.displacement_budget
    table = {ZERO: SAW3, ONE: REF3, Q(1, 4): sawtooth(200)}
    evaluated, measured = [], []
    modulus = extension.uniform_modulus
    monkeypatch.setattr(
        extension, "uniform_modulus", lambda f, t: measured.append(t) or modulus(f, t)
    )
    phi = BoundaryMap(lambda x: evaluated.append(x) or table[x], lambda d: d, (ZERO, ONE))
    ext = simplex_extend(phi, SimplexSpec(1), HALF)
    evaluated.clear()
    heights = (ext.t0 / 2, ext.t0, HALF, ONE)
    chains = [ext.evaluate_chain(x, t) for x in (ZERO, ONE) for t in heights]
    assert evaluated == [] and measured == []
    # the same extension without the probes audited gives the same chains
    unseeded = dataclasses.replace(ext)
    assert chains == [unseeded.evaluate_chain(x, t) for x in (ZERO, ONE) for t in heights]
    assert evaluated == [ZERO, ONE] and len(measured) == 2
    assert unseeded.apex().pieces == ext.apex().pieces
    with pytest.raises(CertificateError):
        ext.evaluate_chain(Q(1, 4), HALF)
    assert evaluated == [ZERO, ONE, Q(1, 4)] and len(measured) == 3


def test_constant_family_extends_as_itself():
    ext = simplex_extend(segment_boundary(SAW3, SAW3), SimplexSpec(1), HALF)
    assert ext.is_constant
    assert ext.t0 is None
    assert ext.diameter_bound() == ZERO
    assert ext.evaluate(ZERO, Q(1, 3)).pieces == SAW3.pieces
    assert ext.evaluate(ONE, ONE).pieces == SAW3.pieces
    assert family_diameter([ext.evaluate(ZERO, ZERO), ext.evaluate(ONE, HALF)]) == ZERO
    with pytest.raises(DomainError):
        ext.evaluate_chain(ZERO, HALF)


def test_height_domain_is_enforced(ext1):
    for t in (Q(-1, 2), Q(2)):
        with pytest.raises(DomainError):
            ext1.evaluate(ZERO, t)
    for t in (ZERO, Q(2)):
        with pytest.raises(DomainError):
            ext1.evaluate_chain(ZERO, t)


def test_parameter_validation():
    b = segment_boundary(SAW3, REF3)
    for eps in (ZERO, Q(-1, 2)):
        with pytest.raises(ParameterError):
            simplex_extend(b, SimplexSpec(1), eps)
    # the pair is 2^-25 apart, so it needs steps of 2^-33, past the 2^20-window cap
    near = affine_transform(SAW3, 1 - Q(1, 2**25), 0)
    with pytest.raises(PreconditionError):
        simplex_extend(segment_boundary(SAW3, near), SimplexSpec(1), HALF)


# -- the one-search extension against the two-search reference ----------------


def reference_t0(phi, epsilon):
    """The earlier step: the move search and the band search, whichever is
    finer."""
    d_hat = phi.probe_diameter
    beta = epsilon * d_hat / 4
    t0_move = largest_dyadic_where(
        lambda t: 9 * t < beta and 9 * family_modulus(phi.probe_maps, t) < beta
    )
    return min(t0_move, family_box_bounds(phi.probe_maps, epsilon * d_hat / 2).t0)


def reference_checked(ext, x):
    """The earlier audit, repeated on every call."""
    f = ext.boundary.evaluator(x)
    osc = uniform_modulus(f, ext.t0)
    if 9 * max(ext.t0, osc) >= ext.displacement_budget:
        raise CertificateError(f"modulus declaration fails at boundary point {x}")
    return f


def reference_base_items(ext, x):
    """The earlier ``base_items``: the step-t0 chain, rebuilt on every call."""
    return tuple(box_data(reference_checked(ext, x), ext.t0, Q(20)).items())


def reference_lerp_items(ext, base, t):
    """The earlier ``lerp_items``: each box moved straight toward its target."""
    u = (t - ext.t0) / (ONE - ext.t0)
    c = ext.junction_targets
    out = []
    for i, (w, p) in enumerate(base):
        hull = ext.hull_bands[i]
        out.append(
            (
                w,
                BoxParams(
                    left_value=p.left_value + u * (c[i] - p.left_value),
                    right_value=p.right_value + u * (c[i + 1] - p.right_value),
                    bottom=p.bottom + u * (hull.lo - p.bottom),
                    top=p.top + u * (hull.hi - p.top),
                    expansion=p.expansion,
                ),
            )
        )
    return tuple(out)


def reference_targets(hull):
    """Band midpoints at the ends, overlap midpoints at the junctions."""
    caps = [hull[0]] + [a.intersect(b) for a, b in zip(hull, hull[1:])] + [hull[-1]]
    return tuple((c.lo + c.hi) / 2 for c in caps)


# every pair here has t0 >= 1/2048 at epsilon 1/8, which keeps an example
# to seconds: the apex has one box per window
STOCK = [sawtooth(2), SAW3, REF3, phase_sawtooth(2, Q(1, 4)), ladder_map(5)]

HEIGHTS = st.builds(
    lambda k, m: Q(m % (2**k) + 1, 2**k),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**12),
)


@settings(max_examples=8, deadline=None)
@given(
    pair=st.tuples(st.sampled_from(STOCK), st.sampled_from(STOCK)),
    epsilon=st.sampled_from([Q(1, 8), HALF, Q(2)]),
    heights=st.lists(HEIGHTS, min_size=1, max_size=2),
)
def test_single_search_extension_matches_the_reference(pair, epsilon, heights):
    f0, f1 = pair
    d = sup_distance(f0, f1)
    assume(d > ZERO)
    rough = sawtooth(200)
    table = {ZERO: f0, ONE: f1, Q(1, 4): rough}
    phi = BoundaryMap(lambda x: table[x], lambda delta: d * delta, (ZERO, ONE))
    ext = simplex_extend(phi, SimplexSpec(1), epsilon)
    assert ext.t0 == reference_t0(phi, epsilon)
    hull = family_box_bounds(phi.probe_maps, epsilon).all_bands(ext.t0)
    assert ext.hull_bands == tuple(hull)
    assert ext.junction_targets == reference_targets(hull)
    for x in (ZERO, ONE):
        base = reference_base_items(ext, x)
        for t in [3 * ext.t0 / 4, ext.t0, *heights]:
            chain = ext.evaluate_chain(x, t)
            if t <= ext.t0:
                expected = tuple(box_data(reference_checked(ext, x), t, Q(20)).items())
            else:
                expected = reference_lerp_items(ext, base, t)
            assert chain == expected
            assert ext.evaluate_chain(x, t) == chain
    c = ext.junction_targets
    targets = [
        (w, BoxParams(c[i], c[i + 1], h.lo, h.hi, Q(20)))
        for i, (w, h) in enumerate(zip(ext.windows, hull))
    ]
    assert ext.apex().pieces == concat_box_maps(targets).pieces
    for _ in range(2):
        with pytest.raises(CertificateError):
            ext.evaluate_chain(Q(1, 4), heights[0])


# -- chain-level helpers --------------------------------------------------------


def test_chain_certificate_matches_direct_verdict():
    items = tuple(box_data(SAW3, Q(1, 16), Q(20)).items())
    assert chain_certified(items)
    assert box_chain_certify(apply_homotopy(SAW3, Q(1, 16), Q(20))).is_certified


def test_chain_certificate_rejects_split_coverage():
    # two boxes whose bands share only the junction: each box feeds
    # itself alone, so neither closure covers the whole interval
    items = (
        (Interval(ZERO, HALF), BoxParams(Q(1, 4), HALF, ZERO, Q(33, 64), Q(20))),
        (Interval(HALF, ONE), BoxParams(HALF, Q(3, 4), Q(31, 64), ONE, Q(20))),
    )
    assert not chain_certified(items)


def test_chain_certificate_rejects_shallow_boxes():
    items = (
        (Interval(ZERO, ONE), BoxParams(HALF, HALF, Q(49, 100), Q(51, 100), Q(20))),
    )
    assert not chain_certified(items)


def test_chain_certificate_validates_the_chain():
    items = (
        (Interval(ZERO, HALF), BoxParams(ZERO, HALF, ZERO, ONE, Q(20))),
        (Interval(HALF, ONE), BoxParams(Q(1, 4), ONE, ZERO, ONE, Q(20))),
    )
    with pytest.raises(ParameterError):
        chain_certified(items)


def test_sampled_diameter_is_exact_per_pair(ext1):
    probes = [(ZERO, ZERO), (ONE, ZERO)]
    assert family_diameter([ext1.evaluate(x, t) for x, t in probes]) == ONE
    with pytest.raises(ParameterError):
        family_diameter([])


@settings(max_examples=25, deadline=None)
@given(k=st.integers(min_value=1, max_value=9), data=st.data())
def test_every_cone_chain_certifies(ext1, k, data):
    m = data.draw(st.integers(min_value=1, max_value=2**k - 1))
    t = Q(m, 2**k)
    items = ext1.evaluate_chain(ZERO, t)
    assert chain_certified(items)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lerped_boxes_pass_the_checked_constructor(ext1, data):
    # above t0 the boxes are built without validation; every one must be
    # a box the checked constructor accepts, and equal to what it builds
    m = data.draw(st.integers(min_value=1, max_value=2**12))
    t = ext1.t0 + (ONE - ext1.t0) * Q(m, 2**12)
    x = data.draw(st.sampled_from([ZERO, ONE]))
    for _, p in ext1.evaluate_chain(x, t):
        checked = BoxParams(p.left_value, p.right_value, p.bottom, p.top, p.expansion)
        assert checked == p
        assert type(p.bottom) is Q and type(p.expansion) is Q


# -- complexes -----------------------------------------------------------------

TRIANGLE = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def phase_edge(p_from, p_to):
    return lambda s: phase_sawtooth(3, p_from + (p_to - p_from) * s)


def phase_triangle_data():
    # phases 0, 2/9, 4/9 at the vertices; each edge sweeps a third of
    # the period 2/3, the last one descending from 2/3 back to 4/9 so
    # the loop winds once around
    mod = lambda d: Q(2, 3) * d
    return SubcomplexData(
        vertex_maps={
            0: SAW3,
            1: phase_sawtooth(3, Q(2, 9)),
            2: phase_sawtooth(3, Q(4, 9)),
        },
        edge_evaluators={
            (0, 1): phase_edge(ZERO, Q(2, 9)),
            (1, 2): phase_edge(Q(2, 9), Q(4, 9)),
            (0, 2): phase_edge(Q(2, 3), Q(4, 9)),
        },
        edge_moduli={(0, 1): mod, (1, 2): mod, (0, 2): mod},
    )


def test_complex_spec_canonicalization():
    spec = ComplexSpec(
        simplices=[(0, 1), (1,), (0,), (1,), (2,), (0, 2)],
        subcomplex=[(2,), (0,), (1,)],
    )
    assert spec.simplices == ((0,), (1,), (2,), (0, 1), (0, 2))
    assert spec.vertices == (0, 1, 2)
    assert spec.missing == ((0, 1), (0, 2))


def test_complex_spec_rejects_bad_input():
    with pytest.raises(ParameterError):
        ComplexSpec(simplices=[(0,), (1, 0)], subcomplex=[(0,)])
    with pytest.raises(ParameterError):
        ComplexSpec(simplices=[(0,), (1,), (0, 1, 2)], subcomplex=[(0,), (1,)])
    with pytest.raises(ParameterError):
        ComplexSpec(simplices=[(0,), (1,)], subcomplex=[(0,), (1,), (0, 1)])
    with pytest.raises(ParameterError):
        ComplexSpec(simplices=[(0,), (1,), (0, 1)], subcomplex=[(0,)])


def test_missing_order_is_dimension_then_index():
    spec = ComplexSpec(simplices=TRIANGLE, subcomplex=[(0,), (1,), (2,)])
    assert spec.missing == ((0, 1), (0, 2), (1, 2), (0, 1, 2))


def test_subcomplex_data_validation():
    spec = ComplexSpec(simplices=TRIANGLE, subcomplex=TRIANGLE[:-1])
    with pytest.raises(ParameterError):
        complex_extend(spec, SubcomplexData(vertex_maps={0: SAW3, 1: REF3}))
    data = phase_triangle_data()
    with pytest.raises(ParameterError):
        complex_extend(
            spec,
            SubcomplexData(
                vertex_maps=data.vertex_maps,
                edge_evaluators=data.edge_evaluators,
                edge_moduli={},
            ),
        )
    with pytest.raises(ParameterError):
        complex_extend(spec, data, probes_per_edge=0)


def test_edge_evaluator_must_agree_with_vertices():
    spec = ComplexSpec(simplices=TRIANGLE, subcomplex=TRIANGLE[:-1])
    data = phase_triangle_data()
    broken = SubcomplexData(
        vertex_maps=data.vertex_maps,
        edge_evaluators={**data.edge_evaluators, (0, 1): phase_edge(Q(1, 9), Q(2, 9))},
        edge_moduli=data.edge_moduli,
    )
    with pytest.raises(CertificateError):
        complex_extend(spec, broken)


def test_full_subcomplex_comes_back_unchanged():
    spec = ComplexSpec(simplices=TRIANGLE, subcomplex=TRIANGLE)
    ext = complex_extend(spec, phase_triangle_data())
    assert ext.unchanged
    assert ext.results == {}
    with pytest.raises(ParameterError):
        ext.result((0, 1, 2))


def test_filling_the_phase_triangle_face():
    spec = ComplexSpec(simplices=TRIANGLE, subcomplex=TRIANGLE[:-1])
    ext = complex_extend(spec, phase_triangle_data(), probes_per_edge=8)
    assert list(ext.results) == [(0, 1, 2)]
    res = ext.result((0, 1, 2))
    assert res.epsilon == Q(1, 8)
    assert res.t0 == Q(1, 1024)
    assert res.probe_diameter == ONE
    check = ext.guarantees[(0, 1, 2)]
    assert check.ok and check.allowance == Q(2)
    # winding: loop coordinate 5/2 sits halfway down the descending leg
    assert res.boundary.evaluator(Q(5, 2)).pieces == phase_sawtooth(3, Q(5, 9)).pieces
    assert res.boundary.evaluator(Q(3)).pieces == SAW3.pieces
    with pytest.raises(DomainError):
        res.boundary.evaluator(Q(7, 2))


def test_filling_two_missing_edges():
    spec = ComplexSpec(
        simplices=[(0,), (1,), (2,), (0, 1), (0, 2)],
        subcomplex=[(0,), (1,), (2,)],
    )
    ext = complex_extend(spec, SubcomplexData(vertex_maps={0: SAW3, 1: REF3, 2: SAW5}))
    assert list(ext.results) == [(0, 1), (0, 2)]
    first, second = ext.result((0, 1)), ext.result((0, 2))
    assert (first.epsilon, second.epsilon) == (Q(1, 8), Q(1, 16))
    assert first.t0 == Q(1, 1024)
    assert second.t0 == Q(1, 4096)
    assert all(g.ok for g in ext.guarantees.values())
    assert first.evaluate(ZERO, ZERO).pieces == SAW3.pieces
    assert second.evaluate(ONE, ZERO).pieces == SAW5.pieces


def test_missing_body_of_a_tetrahedron_is_out_of_scope():
    tetra = [
        (0,), (1,), (2,), (3,),
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
        (0, 1, 2, 3),
    ]
    spec = ComplexSpec(simplices=tetra, subcomplex=tetra[:-1])
    data = SubcomplexData(vertex_maps={v: SAW3 for v in range(4)})
    with pytest.raises(PreconditionError):
        complex_extend(spec, data)


def test_guarantee_check_algebra():
    assert GuaranteeCheck(Q(1), Q(2)).ok
    assert GuaranteeCheck(Q(2), Q(2)).ok
    assert not GuaranteeCheck(Q(2), Q(1)).ok
