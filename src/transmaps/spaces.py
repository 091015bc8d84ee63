"""Reference maps and operations on the space of interval surjections.

The catalog half supplies the standard actors: identity, constants, the
square map, sawtooth zigzags (plain and phase-shifted) and the ladder
family of near-identity transitive maps.  The operations half works on
the surjective class: detecting surjectivity from the exact range,
renormalising a non-surjective map onto its value range, and the
quadratic fixed-point perturbation that pushes any piecewise-linear
surjection a controlled distance away from every transitive map.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, ParameterError, PreconditionError
from .exact import (
    FULL,
    CurveMap,
    Interval,
    IntervalSet,
    Piece,
    _MAX_PIECES,
    _frozen,
    affine_transform,
    pl_from_vertices,
    range_on,
    sup_distance,
)
from .rational import ONE, Q, ZERO, as_scalar, is_dyadic, largest_dyadic_where
from .transitivity import Verdict

__all__ = [
    "identity_map",
    "constant_map",
    "square_map",
    "one_minus",
    "sawtooth",
    "phase_sawtooth",
    "ladder_map",
    "is_surjective",
    "normalize_to_surjection",
    "fixed_points",
    "PerturbationRecord",
    "nowhere_dense_perturbation",
    "nonconvexity_witness",
]


# ---------------------------------------------------------------------------
# reference maps


def identity_map() -> CurveMap:
    return pl_from_vertices([(ZERO, ZERO), (ONE, ONE)])


def constant_map(c) -> CurveMap:
    c = as_scalar(c)
    if not (ZERO <= c <= ONE):
        raise ParameterError(f"constant value {c} outside [0,1]")
    return CurveMap((Piece(FULL, c, ZERO, ZERO),))


def square_map() -> CurveMap:
    return CurveMap((Piece(FULL, ZERO, ZERO, ONE),))


def one_minus(f: CurveMap) -> CurveMap:
    """Reflection x -> 1 - f(x)."""
    return affine_transform(f, -1, 1)


def _check_pieces(name: str, pieces: int) -> None:
    # called before any vertex is built
    if pieces > _MAX_PIECES:
        raise ParameterError(f"{name} of {pieces} pieces above the cap {_MAX_PIECES}")


def sawtooth(m: int) -> CurveMap:
    """Zigzag through (k/m, k mod 2): m affine laps of slope +-m."""
    if m < 2:
        raise ParameterError("a sawtooth needs at least two laps")
    _check_pieces("sawtooth", m)
    return pl_from_vertices([(Q(k, m), Q(k % 2)) for k in range(m + 1)])


def phase_sawtooth(m: int, theta) -> CurveMap:
    """The m-sawtooth translated by theta in its argument.

    Takes x to p(x + theta) where p is the periodic extension of the
    sawtooth wave (period 2/m).  Slopes stay exactly +-m for every phase
    and the map remains onto [0, 1], so the whole phase circle lives
    among the steep surjections; phase 0 is sawtooth(m) itself.
    """
    if m < 2:
        raise ParameterError("a sawtooth needs at least two laps")
    theta = as_scalar(theta)
    # a phase off the 1/m grid splits one lap in two
    _check_pieces("sawtooth", m if int((theta * m).denominator) == 1 else m + 1)
    period = Q(2, m)
    # reduce theta into [0, period)
    ratio = theta / period
    theta = theta - period * (int(ratio.numerator) // int(ratio.denominator))

    def wave(u) -> Q:
        ratio = u / period
        u = u - period * (int(ratio.numerator) // int(ratio.denominator))
        return m * u if u * m <= ONE else 2 - m * u

    verts: list[tuple[Q, Q]] = [(ZERO, wave(theta))]
    # interior vertices sit where x + theta crosses a multiple of 1/m
    j = int((theta * m).numerator) // int((theta * m).denominator) + 1
    while Q(j, m) - theta < ONE:
        x = Q(j, m) - theta
        if x > ZERO:
            verts.append((x, Q(j % 2)))
        j += 1
    verts.append((ONE, wave(ONE + theta)))
    return pl_from_vertices(verts)


def ladder_map(n: int) -> CurveMap:
    """Transitive zigzag fixing every k/n, at distance 8/(5n) from identity.

    Each cell [k/n, (k+1)/n] is crossed by three slope +-5 legs whose
    image is exactly [(k-1)/n, (k+2)/n] clipped to [0,1], so consecutive
    cells overlap and orbits climb the ladder in both directions.
    """
    if n < 5:
        raise ParameterError("ladder needs at least five cells")
    _check_pieces("ladder", 2 * n + 3)  # the legs through k/n, 1 < k < n - 1, merge
    w = Q(1, 5 * n)
    verts: list[tuple[Q, Q]] = [(ZERO, ZERO), (2 * w, Q(2, n)), (4 * w, ZERO), (Q(1, n), Q(1, n))]
    for k in range(1, n - 1):
        base = Q(k, n)
        verts += [
            (base + w, Q(k - 1, n)),
            (base + 4 * w, Q(k + 2, n)),
            (base + 5 * w, Q(k + 1, n)),
        ]
    base = Q(n - 1, n)
    verts += [(base + w, ONE), (base + 3 * w, Q(n - 2, n)), (ONE, ONE)]
    return pl_from_vertices(verts)


# ---------------------------------------------------------------------------
# surjectivity


def is_surjective(f: CurveMap) -> bool:
    """Whether f is onto [0, 1]: its exact range over [0, 1] is all of it."""
    return range_on(f, FULL) == FULL


def normalize_to_surjection(f: CurveMap) -> tuple[tuple[Q, Q], CurveMap]:
    """Rescale values onto [0, 1]; returns ((min f, max f), rescaled map).

    Constant maps have no surjective rescaling and raise DomainError.
    """
    r = range_on(f, FULL)
    if r.is_degenerate():
        raise DomainError("constant map cannot be rescaled onto [0,1]")
    scale = 1 / r.width
    return (r.lo, r.hi), affine_transform(f, scale, -r.lo * scale)


def fixed_points(f: CurveMap) -> tuple[Q, ...]:
    """Solutions of f(x) = x, one representative per diagonal segment.

    A piece lying on the diagonal (slope 1 through the origin line) is a
    continuum of fixed points; its midpoint stands in for the segment.
    """
    if not f.is_pl:
        raise PreconditionError("fixed-point scan requires a piecewise-linear map")
    found: list[Q] = []
    for p in f.pieces:
        if p.c1 == ONE:
            if p.c0 == ZERO:
                found.append((p.domain.lo + p.domain.hi) / 2)
            continue
        x = p.c0 / (1 - p.c1)
        if p.domain.contains(x):
            found.append(x)
    out: list[Q] = []
    for x in sorted(found):
        if not out or out[-1] != x:
            out.append(x)
    return tuple(out)


# ---------------------------------------------------------------------------
# nowhere-dense perturbation


@dataclass(frozen=True)
class PerturbationRecord:
    """Construction record of a quadratic fixed-point perturbation.

    The perturbed map h agrees with the seed outside ``window``, equals
    a parabola on ``core`` and is linear in between.  The parabola fixes
    both core endpoints, so ``core`` maps exactly onto itself (h <= x
    inside, except at fixed point 1, where the mirrored parabola has
    h >= x); the refutation verdict's witness is the core itself.
    ``refute_level`` is the dyadic grid level whose cells tile the core.
    ``ball_window``/``ball_radius``/``ball_slack`` are set only when
    ``_ball_certificate`` finds a window around the core that every map
    within ball_radius of h keeps invariant; that ball then misses the
    transitive maps.  Otherwise all three are None and nothing is claimed
    about a ball: at epsilon 1/10 that is the case for ``sawtooth(4)``,
    ``sawtooth(5)`` and ``ladder_map(5)``, and ``ball_refute`` at grid
    level 8 finds no ball around those outputs either.
    """

    fixed_point: Q
    delta: Q
    window: Interval
    core: Interval
    distance: Q
    verdict: Verdict
    refute_level: int
    ball_window: Optional[Interval]
    ball_radius: Optional[Q]
    ball_slack: Optional[Q]


def _dyadic_level(x) -> int:
    d = int(Q(x).denominator)
    return d.bit_length() - 1


def _clip(lo, hi) -> Interval:
    return Interval(max(ZERO, lo), min(ONE, hi))


def _trimmed_pieces(g: CurveMap, window: Interval) -> list[Piece]:
    out: list[Piece] = []
    for p in g.pieces:
        d = p.domain.intersect(window)
        if d is not None and not d.is_degenerate():
            out.append(Piece(d, p.c0, p.c1, p.c2))
    return out


def _connector(x0: Q, y0: Q, x1: Q, y1: Q) -> Piece:
    slope = (y1 - y0) / (x1 - x0)
    return Piece(Interval(x0, x1), y0 - slope * x0, slope, ZERO)


def _build_perturbed(g: CurveMap, window: Interval, core: Interval) -> CurveMap:
    """h = g outside ``window``, a parabola fixing both ends of ``core``
    on it, and straight connectors in between."""
    a, b = core.lo, core.hi
    k = 1 / core.width
    pieces = _trimmed_pieces(g, Interval(ZERO, window.lo))
    if window.lo < a:
        pieces.append(_connector(window.lo, g.value_at(window.lo), a, a))
    if b == ONE:
        # 1 - k(1 - x)^2, increasing onto [a, 1]
        pieces.append(Piece(core, ONE - k, 2 * k, -k))
    else:
        # k(x - a)^2 + a, increasing onto [a, b]
        pieces.append(Piece(core, k * a * a + a, -2 * k * a, k))
    if b < window.hi:
        pieces.append(_connector(b, b, window.hi, g.value_at(window.hi)))
    pieces += _trimmed_pieces(g, Interval(window.hi, ONE))
    return CurveMap(tuple(pieces))


def _ball_certificate(
    h: CurveMap, core: Interval, delta: Q
) -> tuple[Optional[Interval], Optional[Q], Optional[Q]]:
    """A window around the core that rho-perturbations of h keep invariant.

    Widening the core by s keeps the connectors' climb inside as long as
    s is small against delta; the first dyadic widening whose exact range
    clears both sides by s/2 is kept.  Every map within s/2 of h then
    maps the window into itself.
    """
    s = delta / 8
    for _ in range(8):
        w = _clip(core.lo - s, core.hi + s)
        r = range_on(h, w)
        ok = True
        if w.lo > ZERO and r.lo - s / 2 < w.lo:
            ok = False
        if w.hi < ONE and w.hi < r.hi + s / 2:
            ok = False
        if ok:
            slack_candidates = []
            if w.lo > ZERO:
                slack_candidates.append(r.lo - w.lo)
            if w.hi < ONE:
                slack_candidates.append(w.hi - r.hi)
            return w, s / 2, min(slack_candidates)
        s = s / 2
    return None, None, None


def nowhere_dense_perturbation(g: CurveMap, epsilon) -> CurveMap:
    """A surjection within epsilon of g that no transitive map approximates.

    Flattens g onto a parabola across a small window around a fixed
    point: the parabola maps its core interval exactly onto itself, so
    the core is an invariant proper window, the witness of the
    refutation verdict.  The output itself is never transitive; a whole
    ball around it is shown to miss the transitive maps only when the
    record holds a ball window (see ``PerturbationRecord``).  The exact
    distance and surjectivity are checked post hoc, retrying with a
    smaller window when a check fails.  The invariance proof needs no
    grid, but fixed points off the dyadic grid are still skipped, so that
    the core is tiled by the cells of a dyadic grid level, recorded as
    ``refute_level``, at which the refuters meet it.  The record is the
    returned map's ``provenance``.
    """
    epsilon = as_scalar(epsilon)
    if epsilon <= ZERO:
        raise ParameterError("perturbation size must be positive")
    if not g.is_pl:
        raise PreconditionError("perturbation seed must be piecewise linear")
    if not is_surjective(g):
        raise DomainError("perturbation seed must be onto [0,1]")

    cands = sorted(fixed_points(g), key=lambda x: (-min(x, 1 - x), x))
    if not cands:
        raise PreconditionError("continuous self-map with no fixed point (broken seed)")

    quarter = epsilon / 4
    for x0 in cands:
        if not is_dyadic(x0):
            continue
        if x0 == ZERO or x0 == ONE:
            bound = min(quarter, ONE)
        else:
            bound = min(quarter, x0, 1 - x0)

        def small_enough(d) -> bool:
            if d >= bound:
                return False
            r = range_on(g, _clip(x0 - d, x0 + d))
            return x0 - quarter < r.lo and r.hi < x0 + quarter

        try:
            delta = largest_dyadic_where(small_enough, k_max=60)
        except DomainError:
            continue

        for _ in range(7):
            window = _clip(x0 - delta, x0 + delta)
            core = _clip(x0 - delta / 2, x0 + delta / 2)
            h = _build_perturbed(g, window, core)
            dist = sup_distance(g, h)
            if dist < epsilon and is_surjective(h):
                bw, br, bs = _ball_certificate(h, core, delta)
                record = PerturbationRecord(
                    fixed_point=x0,
                    delta=delta,
                    window=window,
                    core=core,
                    distance=dist,
                    verdict=Verdict.refuted(h, IntervalSet((core,))),
                    refute_level=max(_dyadic_level(core.lo), _dyadic_level(core.hi)),
                    ball_window=bw,
                    ball_radius=br,
                    ball_slack=bs,
                )
                # h is validated already; attach the record without a rebuild
                return _frozen(CurveMap, provenance=record, **vars(h))
            delta = delta / 2
    raise PreconditionError(
        "no refutable perturbation window: every fixed point sits off the "
        "dyadic grid or no window keeps the perturbation close and onto"
    )


def nonconvexity_witness() -> tuple[CurveMap, CurveMap, CurveMap]:
    """Two transitive maps whose midpoint average is constant 1/2.

    Exhibits the failure of convexity: the first two maps are certifiably
    transitive while their pointwise average, the constant map, is not
    even surjective, and an entire ball around it misses the transitive
    maps.
    """
    f = sawtooth(3)
    return f, one_minus(f), constant_map(Q(1, 2))
