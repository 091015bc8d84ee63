"""Self-check suites behind the command line's ``verify``.

Each suite is a small, fully seeded battery of exact checks over the
library's quantitative guarantees, scaled to finish in seconds; the
heavyweight randomized sweeps live in the test suite instead.  Output
is plain text, one line per check in name order, so two runs of the
same suite are byte-identical.
"""
from __future__ import annotations

import random
from functools import cache
from typing import Callable

from .boxmap import BoxParams, build_box_map
from .corpus import perturb_pl, random_curve_map, random_gentle_pl, random_pl_map
from .errors import ParameterError
from .exact import FULL, Interval, range_on, sup_distance, total_variation
from .extension import (
    SimplexSpec,
    chain_certified,
    segment_boundary,
    simplex_extend,
)
from .homotopy import (
    apply_homotopy,
    box_data,
    family_box_bounds,
    family_diameter,
    separate_family,
    stability_window,
)
from .rational import ONE, Q, ZERO
from .spaces import identity_map, ladder_map, one_minus, sawtooth, square_map
from .transitivity import ball_refute, is_transitive_pipeline, min_abs_slope

__all__ = ["SUITES", "run_suite"]

Check = Callable[[], bool]


# -- boxfit: the window-inside-band inequality --------------------------------


def _check_reference_box() -> bool:
    f = build_box_map(BoxParams(Q(3, 20), Q(1, 10), ZERO, Q(1, 5), Q(20)))
    return (
        all(abs(p.c1) == 4 for p in f.pieces)
        and f.value_at(ZERO) == Q(3, 20)
        and f.value_at(ONE) == Q(1, 10)
        and range_on(f, FULL) == Interval(ZERO, Q(1, 5))
        and total_variation(f) == 4
    )


def _windows_fit(f, t, gamma) -> bool:
    data = box_data(f, t, gamma)
    return all(
        w.width <= b.top - b.bottom for w, b in zip(data.grid.windows, data.boxes)
    )


def _check_boxfit_pl() -> bool:
    rng = random.Random(1301)
    gammas = (Q(20), Q(25), Q(100))
    return all(
        _windows_fit(random_pl_map(rng), Q(rng.randrange(1, 65), 64), gammas[i % 3])
        for i in range(120)
    )


def _check_boxfit_quadratic() -> bool:
    rng = random.Random(1302)
    gammas = (Q(20), Q(25), Q(100))
    return all(
        _windows_fit(random_curve_map(rng), Q(rng.randrange(1, 65), 64), gammas[i % 3])
        for i in range(60)
    )


# -- family: joint bands stay within diameter plus epsilon --------------------


def _check_family_bands() -> bool:
    rng = random.Random(1303)
    for _ in range(5):
        maps = [random_gentle_pl(rng) for _ in range(rng.randrange(2, 5))]
        diam = family_diameter(maps)
        for eps in (Q(1, 10), Q(1, 100)):
            bounds = family_box_bounds(maps, eps)
            for t in (bounds.t0, bounds.t0 / 2, bounds.t0 / 4):
                if any(b.width > diam + eps for b in bounds.all_bands(t)):
                    return False
    return True


# -- stability: small steps move perturbed maps by less than 27 eta -----------


def _check_stability() -> bool:
    rng = random.Random(1304)
    eps = Q(28, 100)
    for _ in range(4):
        f = random_gentle_pl(rng)
        win = stability_window(f, eps)
        for _ in range(2):
            g = perturb_pl(rng, f, win.radius)
            for t in (win.step, win.step / 2):
                for gamma in (Q(20), Q(30)):
                    if sup_distance(g, apply_homotopy(g, t, gamma)) >= 27 * win.radius:
                        return False
    return True


# -- extension: segment fill stays near its boundary pair ---------------------


@cache
def _reflection_extension():
    saw = sawtooth(3)
    return simplex_extend(segment_boundary(saw, one_minus(saw)), SimplexSpec(1), Q(1, 2))


def _check_extension_diameter() -> bool:
    ext = _reflection_extension()
    probes = [(ZERO, ext.t0), (ONE, ext.t0), (ZERO, Q(1, 2)), (ONE, Q(1, 2)), (ZERO, ONE)]
    target = (ONE + ext.epsilon) * ext.probe_diameter
    return ext.diameter_bound() <= target and (
        family_diameter([ext.evaluate(x, t) for x, t in probes]) <= target
    )


def _check_extension_apex() -> bool:
    # both boundary points' chains at t = 1 are the apex's own chain
    ext = _reflection_extension()
    apex = ext.apex()._chain.boxes
    return ext.evaluate_chain(ZERO, ONE) == ext.evaluate_chain(ONE, ONE) == apex


def _check_extension_chains() -> bool:
    ext = _reflection_extension()
    return all(
        chain_certified(ext.evaluate_chain(ZERO, t)) for t in (ext.t0, Q(1, 2), ONE)
    )


# -- separation: identical inputs come out distinct but faithful --------------


def _separated():
    return separate_family([(identity_map(), ONE)] * 3)


def _check_separation_distinct() -> bool:
    psi = _separated()
    return all(
        sup_distance(psi[i], psi[j]) > ZERO
        for i in range(3)
        for j in range(i + 1, 3)
    )


def _check_separation_slopes() -> bool:
    return all(min_abs_slope(g) >= 21 + j for j, g in enumerate(_separated()))


def _check_separation_amplitude() -> bool:
    return all(range_on(g, FULL).width == ONE for g in _separated())


# -- examples: the worked instances ---------------------------------------------


def _check_ladder_certified() -> bool:
    return is_transitive_pipeline(ladder_map(5)).is_certified


def _check_identity_refuted() -> bool:
    return is_transitive_pipeline(identity_map()).is_refuted


def _check_square_refuted() -> bool:
    return is_transitive_pipeline(square_map()).is_refuted


def _check_square_ball() -> bool:
    return ball_refute(square_map(), Q(1, 100), 6) is not None


def _check_square_slack() -> bool:
    # the window starts at 0, so its slack is on the right side only
    rho = Q(1, 100)
    found = ball_refute(square_map(), rho, 6)
    if found is None:
        return False
    window, margin = found
    top = range_on(square_map(), window).hi
    return window.lo == ZERO and margin == window.hi - (top + rho)


def _check_ladder_distances() -> bool:
    ident = identity_map()
    last = None
    for n in range(5, 11):
        d = sup_distance(ladder_map(n), ident)
        if d > Q(3, n) or (last is not None and d >= last):
            return False
        last = d
    return True


SUITES: dict[str, dict[str, Check]] = {
    "boxfit": {
        "reference-box": _check_reference_box,
        "window-within-band-pl": _check_boxfit_pl,
        "window-within-band-quadratic": _check_boxfit_quadratic,
    },
    "family": {
        "bands-within-diameter": _check_family_bands,
    },
    "stability": {
        "displacement-within-27eta": _check_stability,
    },
    "extension": {
        "apex-shared": _check_extension_apex,
        "chain-certificates": _check_extension_chains,
        "segment-diameter-bound": _check_extension_diameter,
    },
    "separation": {
        "pairwise-distinct": _check_separation_distinct,
        "slope-floors": _check_separation_slopes,
        "unit-amplitude": _check_separation_amplitude,
    },
    "examples": {
        "identity-refuted": _check_identity_refuted,
        "ladder-certified": _check_ladder_certified,
        "ladder-distances": _check_ladder_distances,
        "square-ball-window": _check_square_ball,
        "square-refuted": _check_square_refuted,
        "square-slack": _check_square_slack,
    },
}


def run_suite(name: str) -> tuple[str, bool]:
    """(report text, all passed) for one suite; checks run in name order
    and a crashing check counts as a failure, reported with its exception
    type and message, not an abort."""
    if name not in SUITES:
        raise ParameterError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        )
    lines = [f"suite: {name}"]
    all_ok = True
    for check_name in sorted(SUITES[name]):
        why = ""
        try:
            ok = bool(SUITES[name][check_name]())
        except Exception as e:
            ok = False
            why = f" ({type(e).__name__}: {e})"
        all_ok = all_ok and ok
        lines.append(f"{check_name}: {'pass' if ok else 'fail'}{why}")
    lines.append(f"result: {'pass' if all_ok else 'fail'}")
    return "\n".join(lines) + "\n", all_ok
