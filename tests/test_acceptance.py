"""Acceptance battery: one test per contract criterion, each ending in a
single visible pass/fail line.

Every check runs at its stated tolerance with exact arithmetic; nothing
here is approximate unless the criterion itself is about sampling.  The
whole battery stays well under the five-minute budget.
"""
import json
import random
import time

import pytest

from transmaps.boxmap import BoxParams, build_box_map, concat_box_maps
from transmaps.cli import main as cli_main
from transmaps.corpus import (
    perturb_pl,
    random_curve_map,
    random_gentle_pl,
    random_pl_map,
)
from transmaps.errors import PreconditionError
from transmaps.exact import (
    FULL,
    Interval,
    IntervalSet,
    image_set,
    range_on,
    sup_distance,
)
from transmaps.extension import (
    ComplexSpec,
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
    separate_family,
    stability_window,
)
from transmaps.rational import ONE, Q, ZERO
from transmaps.serialize import map_to_document
from transmaps.spaces import (
    identity_map,
    is_surjective,
    ladder_map,
    nowhere_dense_perturbation,
    one_minus,
    phase_sawtooth,
    sawtooth,
    square_map,
)
from transmaps.transitivity import (
    PipelineBudget,
    ball_refute,
    box_chain_certify,
    is_transitive_pipeline,
    min_abs_slope,
    reach_image,
)

GAMMA = Q(20)


@pytest.fixture
def report(capfd):
    # capture is suspended so the line reaches the real stdout even on pass
    def _report(number: int, label: str, ok: bool) -> None:
        line = f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}] {label}"
        with capfd.disabled():
            print(line, flush=True)

    return _report


def total_variation(f) -> Q:
    return sum(
        (abs(p.value_at(p.domain.hi) - p.value_at(p.domain.lo)) for p in f.pieces),
        ZERO,
    )


def test_criterion_01_reference_box(report):
    f = build_box_map(BoxParams(Q(3, 20), Q(1, 10), ZERO, Q(1, 5), GAMMA))
    ok = (
        all(abs(p.c1) == 4 for p in f.pieces)
        and f.value_at(ZERO) == Q(3, 20)
        and f.value_at(ONE) == Q(1, 10)
        and range_on(f, FULL) == Interval(ZERO, Q(1, 5))
        and total_variation(f) == 4
    )
    report(1, "reference box map: slope 4, endpoints, image, variation", ok)
    assert ok


def test_criterion_02_window_band_inequality(report):
    rng = random.Random(2002)
    violations = 0
    for i in range(1000):
        f = random_curve_map(rng) if i % 5 == 0 else random_pl_map(rng)
        t = Q(rng.randrange(1, 129), 128)
        gamma = GAMMA + Q(rng.randrange(0, 321), 4)
        data = box_data(f, t, gamma)
        violations += sum(
            w.width > b.top - b.bottom
            for w, b in zip(data.grid.windows, data.boxes)
        )
    ok = violations == 0
    report(2, "1000 randomized deformations: every window fits its band", ok)
    assert ok


def _fifty_map_corpus():
    rng = random.Random(2003)
    maps = [random_pl_map(rng) for _ in range(20)]
    maps += [random_gentle_pl(rng) for _ in range(15)]
    maps += [random_curve_map(rng) for _ in range(10)]
    maps += [sawtooth(3), sawtooth(5), ladder_map(5), square_map(), identity_map()]
    return maps


def test_criterion_03_zero_step_and_junctions(report):
    ok = True
    t = Q(1, 8)
    for f in _fifty_map_corpus():
        for gamma in (Q(20), Q(25), Q(100)):
            ok = ok and sup_distance(f, apply_homotopy(f, ZERO, gamma)) == ZERO
        for gamma in (Q(20), Q(25), Q(100)):
            h = apply_homotopy(f, t, gamma)
            ok = ok and all(
                h.value_at(Q(k) * t) == f.value_at(Q(k) * t) for k in range(9)
            )
    report(3, "50-map corpus: zero step is identity, junctions exact", ok)
    assert ok


def test_criterion_04_displacement_bound(report):
    rng = random.Random(2004)
    eps = Q(28, 100)
    ok = True
    for _ in range(20):
        f = random_gentle_pl(rng)
        win = stability_window(f, eps)
        ok = ok and win.radius == Q(1, 100)
        for _ in range(2):
            g = perturb_pl(rng, f, win.radius)
            for t in (win.step, win.step / 2):
                for gamma in (Q(20), Q(30), Q(100)):
                    d = sup_distance(g, apply_homotopy(g, t, gamma))
                    ok = ok and d < 27 * win.radius
    report(4, "20 perturbed maps: deformation moves them under 27/100", ok)
    assert ok


def test_criterion_05_family_band_height(report):
    rng = random.Random(2005)
    ok = True
    for _ in range(20):
        maps = [random_gentle_pl(rng) for _ in range(rng.randrange(2, 5))]
        diam = family_diameter(maps)
        for eps in (Q(1, 10), Q(1, 100)):
            bounds = family_box_bounds(maps, eps)
            for t in (bounds.t0, bounds.t0 / 2, bounds.t0 / 4):
                ok = ok and all(b.width <= diam + eps for b in bounds.all_bands(t))
    report(5, "20 families: joint band heights within diameter plus epsilon", ok)
    assert ok


def test_criterion_06_constructed_transitivity(report):
    ok = True
    for n in range(5, 13):
        start = time.monotonic()
        ok = ok and is_transitive_pipeline(ladder_map(n)).is_certified
        ok = ok and time.monotonic() - start < 10
    rng = random.Random(2006)
    for _ in range(10):
        f = random_pl_map(rng)
        ok = ok and is_transitive_pipeline(apply_homotopy(f, Q(1, 4), GAMMA)).is_certified
    for f in (identity_map(), square_map()):
        verdict = is_transitive_pipeline(f)
        ok = ok and verdict.is_refuted
        ok = ok and verdict.witness.contains_set(image_set(f, verdict.witness))
    report(6, "ladders and deformations certified; identity and square refuted", ok)
    assert ok


def test_criterion_07_square_ball_refutation(report):
    found = ball_refute(square_map(), Q(1, 100), 6)
    ok = found is not None
    if ok:
        window, slack = found
        r = range_on(square_map(), window)
        ok = slack > ZERO
        if window.lo > ZERO:
            ok = ok and r.lo - Q(1, 100) - window.lo >= slack
        if window.hi < ONE:
            ok = ok and window.hi - (r.hi + Q(1, 100)) >= slack
    j = Interval(ZERO, Q(1, 3))
    ok = ok and range_on(square_map(), j) == Interval(ZERO, Q(1, 9))
    ok = ok and j.hi - (Q(1, 9) + Q(1, 100)) == Q(191, 900)
    report(7, "square map: whole 1/100-ball refuted, slack 191/900 on [0,1/3]", ok)
    assert ok


def test_criterion_08_ladder_convergence(report):
    ident = identity_map()
    ok = True
    last = None
    for n in range(5, 51):
        d = sup_distance(ladder_map(n), ident)
        ok = ok and d <= Q(3, n)
        ok = ok and (last is None or d < last)
        last = d
    report(8, "ladder family converges to the identity, strictly, under 3/n", ok)
    assert ok


def _segment_instances():
    saw3, saw4, saw5 = sawtooth(3), sawtooth(4), sawtooth(5)
    return [
        (saw3, one_minus(saw3)),
        (saw3, saw5),
        (saw5, one_minus(saw5)),
        (saw4, one_minus(saw4)),
        (ladder_map(5), saw3),
    ]


def _check_segment_instance(f0, f1) -> bool:
    eps = Q(1, 2)
    ext = simplex_extend(segment_boundary(f0, f1), SimplexSpec(1), eps)
    diam = sup_distance(f0, f1)
    target = (ONE + eps) * diam
    # 33 heights per endpoint, 66 probes >= 64; the diameter bound covers
    # the whole probe cone: every image's window values sit inside the
    # hull bands, up to the displacement budget below the step
    heights = [ZERO, ext.t0 / 4, ext.t0 / 2, ext.t0]
    heights += [ext.t0 + (ONE - ext.t0) * Q(k, 28) for k in range(1, 29)]
    heights.append(ONE)
    probes = [(x, t) for x in (ZERO, ONE) for t in heights]
    ok = len(probes) >= 64
    ok = ok and ext.diameter_bound() <= target
    # exact cross-check on a small probe subset
    subset = [(ZERO, ZERO), (ONE, ZERO), (ZERO, ext.t0), (ONE, Q(1, 2)), (ZERO, ONE)]
    sampled = family_diameter([ext.evaluate(x, t) for x, t in subset])
    ok = ok and sampled <= ext.diameter_bound() <= target
    # every positive-height probe chain is certified
    for x, t in probes:
        if t > ZERO:
            ok = ok and chain_certified(ext.evaluate_chain(x, t))
    ok = ok and ext.evaluate(ZERO, ONE).pieces == ext.evaluate(ONE, ONE).pieces
    return ok


def _phase_triangle():
    def edge(a, b):
        return lambda s: phase_sawtooth(3, a + (b - a) * s)

    mod = lambda d: Q(2, 3) * d
    spec = ComplexSpec(
        simplices=[(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)],
        subcomplex=[(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)],
    )
    data = SubcomplexData(
        vertex_maps={
            0: sawtooth(3),
            1: phase_sawtooth(3, Q(2, 9)),
            2: phase_sawtooth(3, Q(4, 9)),
        },
        edge_evaluators={
            (0, 1): edge(ZERO, Q(2, 9)),
            (1, 2): edge(Q(2, 9), Q(4, 9)),
            (0, 2): edge(Q(2, 3), Q(4, 9)),
        },
        edge_moduli={(0, 1): mod, (1, 2): mod, (0, 2): mod},
    )
    return spec, data


def _chain_bands(items):
    return tuple(Interval(p.bottom, p.top) for _, p in items)


def _bands_within(inner, outer) -> bool:
    """Per-window containment of one band list in another."""
    return len(inner) == len(outer) and all(
        o.contains_interval(i) for i, o in zip(inner, outer)
    )


def _check_triangle() -> bool:
    spec, data = _phase_triangle()
    ext = complex_extend(spec, data, probes_per_edge=8)
    res = ext.result((0, 1, 2))
    ok = ext.guarantees[(0, 1, 2)].ok
    # 24 audited boundary coordinates x 42 heights  =>  1008 probes
    xs = res.boundary.probes
    heights = [res.t0]
    heights += [res.t0 + (ONE - res.t0) * Q(k, 40) for k in range(1, 41)]
    ok = ok and len(xs) * (len(heights) + 1) >= 1000
    hull_height = max(h.width for h in res.hull_bands)
    ok = ok and hull_height <= 2 * res.probe_diameter
    for x in xs:
        base = res.evaluate_chain(x, res.t0)
        # certified at the step, and the bands only grow toward the hull
        # from there, so every taller chain stays certified: coverage is
        # monotone under band growth and junctions stay glued
        ok = ok and chain_certified(base)
        ok = ok and _bands_within(_chain_bands(base), res.hull_bands)
    for x in xs[::8]:
        for t in (Q(1, 2), Q(9, 10)):
            ok = ok and chain_certified(res.evaluate_chain(x, t))
    # exact spot check against the hull-height bound, plus one verdict
    # computed from the materialized map rather than its parameters
    samples = [
        res.evaluate(ZERO, res.t0),
        res.evaluate(Q(3, 2), res.t0),
        res.evaluate(ZERO, Q(1, 2)),
        res.evaluate(ZERO, ONE),
    ]
    for i, a in enumerate(samples):
        for b in samples[i + 1 :]:
            ok = ok and sup_distance(a, b) <= hull_height
    ok = ok and box_chain_certify(samples[2]).is_certified
    ok = ok and box_chain_certify(samples[3]).is_certified
    apex = res.evaluate(ZERO, ONE).pieces
    ok = ok and all(res.evaluate(x, ONE).pieces == apex for x in (ONE, Q(3, 2), Q(5, 2)))
    return ok


def test_criterion_09_extension_bounds(report):
    ok = all(_check_segment_instance(f0, f1) for f0, f1 in _segment_instances())
    ok = ok and _check_triangle()
    report(9, "extensions: diameter bounds hold, probe chains certified", ok)
    assert ok


def test_criterion_10_nowhere_dense_perturbations(report):
    seeds = [sawtooth(3), sawtooth(4), sawtooth(5), ladder_map(5), ladder_map(6)]
    eps = Q(1, 10)
    ok = True
    outcomes = []
    for g in seeds:
        h = nowhere_dense_perturbation(g, eps)
        rec = h.provenance
        ok = ok and sup_distance(g, h) < eps
        ok = ok and is_surjective(h)
        budget = PipelineBudget(refute_levels=tuple(range(1, rec.refute_level + 1)))
        ok = ok and is_transitive_pipeline(h, budget).is_refuted
        if rec.ball_window is not None:
            # the recorded slack is the raw gap between the window's image
            # and its interior edges; containment of the whole ball needs
            # that gap to cover the radius
            r = range_on(h, rec.ball_window)
            sides = []
            if rec.ball_window.lo > ZERO:
                sides.append(r.lo - rec.ball_window.lo)
            if rec.ball_window.hi < ONE:
                sides.append(rec.ball_window.hi - r.hi)
            ok = ok and min(sides) == rec.ball_slack
            ok = ok and min(sides) >= rec.ball_radius > ZERO
            outcomes.append(f"ball({rec.ball_radius})")
        else:
            found = ball_refute(h, Q(1, 4096), 8)
            outcomes.append("ball(level-8 search)" if found else "no ball at level 8")
    report(10, f"5 perturbed surjections refuted; {'; '.join(outcomes)}", ok)
    assert ok


def _iterate(f, x, n):
    for _ in range(n):
        x = f.value_at(x)
    return x


def _point_preimages(f, y):
    out = []
    for p in f.pieces:
        if p.c1 == ZERO:
            if p.c0 == y:
                out.append(p.domain.lo)
        else:
            x = (y - p.c0) / p.c1
            if p.domain.lo <= x <= p.domain.hi:
                out.append(x)
    return out


def _witness_by_refinement(f, u, v, n) -> bool:
    """Exhibit a concrete point of u whose n-th image lands in v.

    The n-th image of u meets v in at least one attained value; pulling
    any such value back through the affine pieces yields candidate
    points, each verified by direct forward evaluation.  This catches
    tangential contacts at non-dyadic points, which no uniform sampling
    grid can hit.
    """
    s = IntervalSet((u,))
    for _ in range(n):
        s = image_set(f, s)
    targets = set()
    for comp in s.components:
        overlap = comp.intersect(v)
        if overlap is not None:
            targets.update((overlap.lo, overlap.hi))
    points = targets
    for _ in range(n):
        points = {x for y in points for x in _point_preimages(f, y)}
    return any(
        v.lo <= _iterate(f, x, n) <= v.hi
        for x in points
        if u.lo <= x <= u.hi
    )


def test_criterion_11_reach_against_sampling(report):
    rng = random.Random(2011)
    points = 10240
    sampling_positive_misses = 0
    unresolved = 0
    refined = 0
    for _ in range(100):
        f = random_pl_map(rng)
        lo = Q(rng.randrange(0, 56), 64)
        u = Interval(lo, lo + Q(rng.randrange(1, 8), 64))
        lo = Q(rng.randrange(0, 56), 64)
        v = Interval(lo, lo + Q(rng.randrange(1, 8), 64))
        n = rng.randrange(1, 3)
        exact = reach_image(f, u, n).intersects_interval(v)
        hit = False
        for k in range(points):
            x = u.lo + u.width * Q(k, points - 1)
            if v.lo <= _iterate(f, x, n) <= v.hi:
                hit = True
                break
        if hit and not exact:
            sampling_positive_misses += 1
        if exact and not hit:
            # sampling too coarse; refine to a concrete witness point
            refined += 1
            if not _witness_by_refinement(f, u, v, n):
                unresolved += 1
    ok = sampling_positive_misses == 0 and unresolved == 0
    report(
        11,
        f"100 maps: sampling never beats the exact check "
        f"({refined} coarse misses refined to explicit witnesses)",
        ok,
    )
    assert ok


def test_criterion_12_separated_family(report):
    psi = separate_family([(identity_map(), ONE)] * 3)
    ok = all(
        sup_distance(psi[i], psi[j]) > ZERO
        for i in range(3)
        for j in range(i + 1, 3)
    )
    ok = ok and all(min_abs_slope(g) >= 21 + j for j, g in enumerate(psi))
    ok = ok and all(range_on(g, FULL).width == ONE for g in psi)
    report(12, "three identity copies separated: distinct, steep, full amplitude", ok)
    assert ok


def _run_cli(argv):
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_criterion_13_cli_determinism(tmp_path, report):
    files = {}
    for name, f in (
        ("saw3", sawtooth(3)),
        ("square", square_map()),
        ("ladder7", ladder_map(7)),
        ("id", identity_map()),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(map_to_document(f)))
        files[name] = str(path)
    invocations = [
        ("boxmap", "--params", "3/20,1/10,0,1/5,20"),
        ("boxmap", "--params", "0,1,0,1,20"),
        ("make", "identity"),
        ("make", "sawtooth", "--n", "4"),
        ("make", "ladder", "--n", "9"),
        ("homotopy", "--map", files["saw3"], "--t", "1/8"),
        ("homotopy", "--map", files["saw3"], "--t", "1/4", "--frames", "4"),
        ("certify", "--map", files["square"]),
        ("certify", "--map", files["ladder7"]),
        ("certify", "--map", files["id"], "--method", "refute", "--grid-level", "2"),
        ("certify", "--map", files["saw3"], "--method", "leo",
         "--grid-level", "6", "--n-max", "200"),
        ("certify", "--map", files["saw3"], "--method", "reach",
         "--u", "0,1/8", "--v", "7/8,1", "--n", "2"),
        ("verify", "boxfit"),
        ("verify", "family"),
        ("verify", "stability"),
        ("verify", "extension"),
        ("verify", "separation"),
        ("verify", "examples"),
    ]
    ok = True
    for argv in invocations:
        first = _run_cli(argv)
        second = _run_cli(argv)
        ok = ok and first == second and first[0] == 0 and first[1] != ""
    report(13, f"{len(invocations)} command invocations byte-identical on rerun", ok)
    assert ok
