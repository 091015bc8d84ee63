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
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transmaps.boxmap import BoxParams, concat_box_maps
from transmaps.errors import (
    CertificateError,
    DomainError,
    ParameterError,
    PreconditionError,
)
from transmaps.exact import Interval, sup_distance
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
from transmaps.homotopy import apply_homotopy, box_data, family_diameter
from transmaps.rational import ONE, Q, ZERO
from transmaps.spaces import one_minus, phase_sawtooth, sawtooth
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
    base = ext1.base_items(ZERO)
    assert ext1.lerp_items(base, ext1.t0) == base
    assert base == tuple(box_data(SAW3, ext1.t0, Q(20)).items())
    direct = apply_homotopy(SAW3, ext1.t0, Q(20))
    assert ext1.evaluate(ZERO, ext1.t0).pieces == direct.pieces


def test_lerp_keeps_junctions_glued(ext1):
    for t in (Q(1, 2), Q(3, 4)):
        items = ext1.evaluate_chain(ZERO, t)
        for (_, a), (_, b) in zip(items, items[1:]):
            assert a.right_value == b.left_value


def test_bands_grow_from_base_toward_hull(ext1):
    base_bands = chain_bands(ext1.base_items(ZERO))
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
    with pytest.raises(DomainError):
        ext.base_items(ZERO)


def test_height_domain_is_enforced(ext1):
    for t in (Q(-1, 2), Q(2)):
        with pytest.raises(DomainError):
            ext1.evaluate(ZERO, t)
    with pytest.raises(DomainError):
        ext1.evaluate_chain(ZERO, ZERO)
    base = ext1.base_items(ZERO)
    with pytest.raises(DomainError):
        ext1.lerp_items(base, ext1.t0 / 2)
    with pytest.raises(ParameterError):
        ext1.lerp_items(base[:-1], HALF)


def test_parameter_validation():
    b = segment_boundary(SAW3, REF3)
    for eps in (ZERO, Q(-1, 2)):
        with pytest.raises(ParameterError):
            simplex_extend(b, SimplexSpec(1), eps)
    with pytest.raises(PreconditionError):
        simplex_extend(segment_boundary(SAW3, SAW5), SimplexSpec(1), HALF, max_windows=256)


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
