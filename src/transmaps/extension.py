"""Extending a boundary family of interval maps over a simplex.

Points of a simplex are addressed by cone coordinates (x, t): a boundary
point x plus a height t, with t = 0 on the boundary and t = 1 at the
barycenter.  Given maps on the boundary, the extension produces a map at
every cone point in two regimes joined at a computed step size t0:

* below t0 the map is the steep window deformation of phi(x) itself,
  which stays within a fixed displacement budget of phi(x);
* above t0 every window's box parameters travel on a straight line from
  the map's own step-t0 parameters toward shared targets (the family's
  hull band per window, with junction values at band-overlap midpoints),
  so the t = 1 map is one common map, independent of x.

One demand on the probe family sets t0: t0 and the family's oscillation
over windows of width t0 both stay below epsilon * diameter / 36.  That
keeps every deformation below t0 within the displacement budget, and
every hull band under diameter + budget tall (see ``simplex_extend``).

Both regimes produce concatenations of box maps over the step-t0 window
tiling (or a finer one below t0), so images can be produced either as
actual maps or as cheap parameter chains.  Transitivity of every image
with t > 0 is certified from its chain by the package's one box-chain
certificate, ``transitivity.chain_certified``, re-exported here.

The complex half repeats this simplex by simplex: a finite simplicial
complex with maps on a subcomplex gets its missing simplices filled in
dimension-then-index order with tolerances 2^-3, 2^-4, ..., keeping each
filled simplex's image diameter within a factor 2 of its boundary's.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

from .boxmap import MIN_EXPANSION, BoxParams, concat_box_maps
from .errors import CertificateError, DomainError, ParameterError, PreconditionError
from .exact import CurveMap, Interval, _frozen, sup_distance
from .homotopy import box_data, family_box_bounds, partition, uniform_modulus
from .rational import ONE, Q, ZERO, as_scalar
from .transitivity import chain_certified

__all__ = [
    "SimplexSpec",
    "BoundaryMap",
    "ExtensionResult",
    "simplex_extend",
    "segment_boundary",
    "chain_certified",
    "ComplexSpec",
    "SubcomplexData",
    "GuaranteeCheck",
    "ComplexExtension",
    "complex_extend",
]


@dataclass(frozen=True)
class SimplexSpec:
    """A simplex of positive dimension, addressed by cone coordinates.

    The boundary coordinate convention is the boundary family's own
    business (two points for a segment, a loop coordinate for a
    triangle); this type only pins down the cone structure.
    """

    dimension: int

    def __post_init__(self):
        if not isinstance(self.dimension, int) or self.dimension < 1:
            raise ParameterError(
                f"simplex dimension must be an integer >= 1, got {self.dimension}"
            )


@dataclass(frozen=True, eq=False)
class BoundaryMap:
    """A family of interval maps on the boundary of a simplex.

    ``evaluator`` turns a boundary coordinate into a map; ``modulus`` is
    the declared bound on sup distance between members in terms of the
    coordinate gap; ``probes`` are the coordinates where the declaration
    is actually audited, pairwise, at construction.  The audit is the
    whole continuity check: a black-box evaluator cannot be verified
    pointwise, so off-probe behavior rests on the declaration (and is
    re-guarded per evaluation by the extension, see ExtensionResult).
    """

    evaluator: Callable[[Q], CurveMap]
    modulus: Callable[[Q], Q]
    probes: tuple[Q, ...]
    probe_maps: tuple[CurveMap, ...] = field(init=False, repr=False)
    probe_diameter: Q = field(init=False, repr=False)

    def __post_init__(self):
        probes = tuple(as_scalar(p) for p in self.probes)
        if not probes:
            raise ParameterError("need at least one probe")
        if len(set(probes)) != len(probes):
            raise ParameterError("duplicate probe coordinates")
        object.__setattr__(self, "probes", probes)
        maps = []
        for p in probes:
            f = self.evaluator(p)
            if not isinstance(f, CurveMap):
                raise ParameterError(f"evaluator returned {type(f).__name__} at {p}")
            maps.append(f)
        diameter = ZERO
        for i in range(len(probes)):
            for j in range(i + 1, len(probes)):
                d = sup_distance(maps[i], maps[j])
                allowed = as_scalar(self.modulus(abs(probes[i] - probes[j])))
                if d > allowed:
                    raise CertificateError(
                        f"declared modulus fails at probes {probes[i]}, "
                        f"{probes[j]}: distance {d} exceeds {allowed}"
                    )
                if d > diameter:
                    diameter = d
        object.__setattr__(self, "probe_maps", tuple(maps))
        object.__setattr__(self, "probe_diameter", diameter)


def segment_boundary(f0: CurveMap, f1: CurveMap) -> BoundaryMap:
    """Boundary family of a segment: f0 at coordinate 0, f1 at 1."""
    d = sup_distance(f0, f1)
    table = {ZERO: f0, ONE: f1}

    def evaluate(x):
        x = as_scalar(x)
        if x not in table:
            raise ParameterError("a segment's boundary is the two points 0 and 1")
        return table[x]

    return BoundaryMap(evaluate, lambda delta: d * as_scalar(delta), (ZERO, ONE))


Items = tuple[tuple[Interval, BoxParams], ...]


@dataclass(frozen=True, eq=False)
class ExtensionResult:
    """Maps at every cone point of one simplex, plus the shared targets.

    ``evaluate`` produces the actual map; ``evaluate_chain`` produces the
    box-parameter chain, linear in the window count.  Each boundary
    coordinate's audited map and step-t0 chain are kept (a failed audit
    is not, and raises on every call); the t = 1 map is built on first
    use and kept.  A boundary family whose probes all coincide extends as
    that constant; then there is no chain form and ``t0`` is None.
    """

    boundary: BoundaryMap
    simplex: SimplexSpec
    epsilon: Q
    probe_diameter: Q
    displacement_budget: Optional[Q]
    t0: Optional[Q]
    windows: Optional[tuple[Interval, ...]]
    hull_bands: Optional[tuple[Interval, ...]]
    junction_targets: Optional[tuple[Q, ...]]
    _audited: dict = field(default_factory=dict, init=False, repr=False)
    _bases: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def is_constant(self) -> bool:
        return self.t0 is None

    @cached_property
    def _targets(self) -> tuple[BoxParams, ...]:
        """The t = 1 box of every window, validated once."""
        c = self.junction_targets
        return tuple(
            BoxParams(c[i], c[i + 1], h.lo, h.hi, MIN_EXPANSION)
            for i, h in enumerate(self.hull_bands)
        )

    @cached_property
    def _apex(self) -> CurveMap:
        if self.is_constant:
            return self.boundary.probe_maps[0]
        return concat_box_maps(list(zip(self.windows, self._targets)))

    def apex(self) -> CurveMap:
        """The single t = 1 map, the same for every boundary point."""
        return self._apex

    def diameter_bound(self) -> Q:
        """Certified diameter bound over the probe cone.

        Chains at heights >= t0 keep each window's values inside that
        window's hull band; heights below t0 stay within the
        displacement budget of their boundary map, whose values lie in
        the hull bands too.  So any two images over probe coordinates
        differ by at most the tallest hull band plus twice the budget.
        """
        if self.is_constant:
            return ZERO
        return max(h.width for h in self.hull_bands) + 2 * self.displacement_budget

    def _checked(self, x: Q) -> CurveMap:
        if x not in self._audited:
            f = self.boundary.evaluator(x)
            osc = uniform_modulus(f, self.t0)
            if 9 * max(self.t0, osc) >= self.displacement_budget:
                raise CertificateError(
                    f"modulus declaration fails at boundary point {x}: the map "
                    f"oscillates {osc} over windows of width {self.t0}, so its "
                    f"deformation cannot stay within {self.displacement_budget}"
                )
            self._audited[x] = f
        return self._audited[x]

    def _base(self, x: Q) -> Items:
        """Box parameters of the step-t0 deformation of the map at x."""
        if x not in self._bases:
            f = self._checked(x)
            self._bases[x] = tuple(box_data(f, self.t0, MIN_EXPANSION).items())
        return self._bases[x]

    def evaluate_chain(self, x, t) -> Items:
        """Box-parameter chain of the image at (x, t), for t in (0, 1].

        Above t0 every box moves straight from the step-t0 chain toward
        its target.  Junction values agree along the whole path because
        adjacent boxes start at a shared value and aim at a shared
        target; band growth is monotone whenever the base bands sit
        inside the hull bands.

        The move is on integers.  With u = (t - t0) / (1 - t0) = a / b,
        a field r of the base box moves toward the same field s of its
        target as the one fraction ((b - a) * r.num * s.den + a * s.num *
        r.den) / (b * r.den * s.den).  At t = t0, u = 0, and the step-t0
        chain itself comes back.

        The boxes above t0 skip ``BoxParams`` validation.  Each is the
        convex combination (1 - u) * base + u * target of two validated
        boxes with the same expansion, and the admissible set is cut out
        by linear inequalities (0 <= bottom < top <= 1, both edge values
        in [bottom, top], expansion >= 20), so it is convex and holds the
        combination.  Its fields are exact scalars already.
        """
        x, t = as_scalar(x), as_scalar(t)
        if self.is_constant:
            raise DomainError("a constant extension has no box chains")
        if not (ZERO < t <= ONE):
            raise DomainError(f"box chains exist at heights in (0,1], not {t}")
        if t < self.t0:
            return tuple(box_data(self._checked(x), t, MIN_EXPANSION).items())
        if t == self.t0:
            return self._base(x)
        u = (t - self.t0) / (ONE - self.t0)
        a, b = u.numerator, u.denominator
        c = b - a

        def move(r, s):
            rn, rd, sn, sd = r.numerator, r.denominator, s.numerator, s.denominator
            return Q(c * rn * sd + a * sn * rd, b * rd * sd)

        return tuple(
            (
                w,
                _frozen(
                    BoxParams,
                    left_value=move(p.left_value, q.left_value),
                    right_value=move(p.right_value, q.right_value),
                    bottom=move(p.bottom, q.bottom),
                    top=move(p.top, q.top),
                    expansion=p.expansion,
                ),
            )
            for (w, p), q in zip(self._base(x), self._targets)
        )

    def evaluate(self, x, t) -> CurveMap:
        """The image map at cone point (x, t)."""
        t = as_scalar(t)
        if not (ZERO <= t <= ONE):
            raise DomainError(f"cone height {t} outside [0,1]")
        if t == ZERO:
            return self.boundary.evaluator(x)
        if self.is_constant or t == ONE:
            return self.apex()
        return concat_box_maps(list(self.evaluate_chain(x, t)))


def _junction_targets(hull: Sequence[Interval]) -> tuple[Q, ...]:
    """Shared edge values for the target boxes.

    Interior junctions sit at the midpoint of the two adjacent hull
    bands' overlap, which is nonempty because both bands contain the
    boundary family's values at the junction point; the outer edges sit
    at their own band's midpoint.
    """
    out = [(hull[0].lo + hull[0].hi) / 2]
    for a, b in zip(hull, hull[1:]):
        cap = a.intersect(b)
        assert cap is not None, "adjacent hull bands lost their shared values"
        out.append((cap.lo + cap.hi) / 2)
    out.append((hull[-1].lo + hull[-1].hi) / 2)
    return tuple(out)


def simplex_extend(phi: BoundaryMap, simplex: SimplexSpec, epsilon) -> ExtensionResult:
    """Extend the boundary family over the simplex.

    The step t0 is the largest dyadic at which t0 and the probe family's
    oscillation over windows of width t0 are both below
    epsilon * diameter / 36.  Per-window bands are at most
    9 * max(step, oscillation) tall, so steps up to t0 move no probe map
    by the budget epsilon * diameter / 4 or more.  A joint band adds the
    same 8 * alpha to a value hull that exceeds the diameter by at most
    one oscillation, so every hull band is under diameter + budget tall.
    A probe family too rough to meet the demand at any step down to
    2^-200 raises DomainError; one that only meets it below 2^-20 gets
    PreconditionError from ``partition`` rather than an enormous tiling.
    No map is built here.
    """
    epsilon = as_scalar(epsilon)
    if epsilon <= ZERO:
        raise ParameterError("epsilon must be positive")
    d_hat = phi.probe_diameter
    if d_hat == ZERO:
        return ExtensionResult(
            boundary=phi,
            simplex=simplex,
            epsilon=epsilon,
            probe_diameter=ZERO,
            displacement_budget=None,
            t0=None,
            windows=None,
            hull_bands=None,
            junction_targets=None,
        )
    beta = epsilon * d_hat / 4
    # family_box_bounds demands both below its epsilon / 10 = beta / 9
    bounds = family_box_bounds(phi.probe_maps, 5 * epsilon * d_hat / 18)
    t0 = bounds.t0
    hull = tuple(bounds.all_bands(t0))
    assert max(h.width for h in hull) < d_hat + beta
    result = ExtensionResult(
        boundary=phi,
        simplex=simplex,
        epsilon=epsilon,
        probe_diameter=d_hat,
        displacement_budget=beta,
        t0=t0,
        windows=partition(t0).windows,
        hull_bands=hull,
        junction_targets=_junction_targets(hull),
    )
    # t0 and every probe map's oscillation over width t0 are below beta / 9,
    # the audit's own test, so the probe maps are audited already
    result._audited.update(zip(phi.probes, phi.probe_maps))
    return result


# -- finite complexes ---------------------------------------------------------

Simplex = tuple[int, ...]
THREE = Q(3)


def _canonical(simplices, label: str) -> tuple[Simplex, ...]:
    seen = set()
    out = []
    for s in simplices:
        s = tuple(s)
        if not s or any(not isinstance(v, int) for v in s):
            raise ParameterError(f"{label}: simplices are nonempty tuples of ints")
        if any(a >= b for a, b in zip(s, s[1:])):
            raise ParameterError(
                f"{label}: vertices must be strictly increasing, got {s}"
            )
        if s not in seen:
            seen.add(s)
            out.append(s)
    return tuple(sorted(out, key=lambda s: (len(s), s)))


def _facets(s: Simplex):
    for i in range(len(s)):
        yield s[:i] + s[i + 1 :]


@dataclass(frozen=True)
class ComplexSpec:
    """A finite abstract simplicial complex with a marked subcomplex.

    Simplices are strictly increasing tuples of vertex ids.  Both
    collections must be closed under taking faces, the subcomplex must
    lie inside the complex and contain every vertex.  ``missing`` lists
    what an extension must fill, by dimension then lexicographic order.
    """

    simplices: tuple[Simplex, ...]
    subcomplex: tuple[Simplex, ...]

    def __post_init__(self):
        k = _canonical(self.simplices, "complex")
        sub = _canonical(self.subcomplex, "subcomplex")
        object.__setattr__(self, "simplices", k)
        object.__setattr__(self, "subcomplex", sub)
        kset, lset = set(k), set(sub)
        if not lset <= kset:
            raise ParameterError("subcomplex is not contained in the complex")
        for name, group, members in (("complex", k, kset), ("subcomplex", sub, lset)):
            for s in group:
                if len(s) == 1:
                    continue
                for facet in _facets(s):
                    if facet not in members:
                        raise ParameterError(
                            f"{name} is not closed under faces: {s} needs {facet}"
                        )
        for v in self.vertices:
            if (v,) not in lset:
                raise ParameterError(
                    f"subcomplex must contain every vertex, missing ({v},)"
                )

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(s[0] for s in self.simplices if len(s) == 1)

    @property
    def missing(self) -> tuple[Simplex, ...]:
        lset = set(self.subcomplex)
        return tuple(s for s in self.simplices if s not in lset)


@dataclass(frozen=True, eq=False)
class SubcomplexData:
    """Evaluation data on the subcomplex: one map per vertex plus, per
    subcomplex edge, an evaluator on [0, 1] (0 at the smaller vertex)
    with a declared modulus.  Enough to assemble the boundary of any
    missing simplex of dimension one or two."""

    vertex_maps: Mapping[int, CurveMap]
    edge_evaluators: Mapping[Simplex, Callable[[Q], CurveMap]] = field(
        default_factory=dict
    )
    edge_moduli: Mapping[Simplex, Callable[[Q], Q]] = field(default_factory=dict)


@dataclass(frozen=True)
class GuaranteeCheck:
    """Certified diameter estimate for one filled simplex, against twice
    its boundary data's probe diameter."""

    diameter_bound: Q
    allowance: Q

    @property
    def ok(self) -> bool:
        return self.diameter_bound <= self.allowance


@dataclass(frozen=True, eq=False)
class ComplexExtension:
    """Outcome of filling a complex: one extension per missing simplex,
    each with its guarantee check; the subcomplex itself is untouched,
    so a complete subcomplex yields no results at all."""

    spec: ComplexSpec
    data: SubcomplexData
    results: Mapping[Simplex, ExtensionResult]
    guarantees: Mapping[Simplex, GuaranteeCheck]

    @property
    def unchanged(self) -> bool:
        return not self.results

    def result(self, simplex) -> ExtensionResult:
        key = tuple(simplex)
        if key not in self.results:
            raise ParameterError(f"{key} was not filled by this extension")
        return self.results[key]


def _validate_data(spec: ComplexSpec, phi: SubcomplexData) -> None:
    for v in spec.vertices:
        if v not in phi.vertex_maps:
            raise ParameterError(f"no map for vertex {v}")
    if set(phi.edge_evaluators) != set(phi.edge_moduli):
        raise ParameterError("edge evaluators and edge moduli must share keys")
    lset = set(spec.subcomplex)
    for edge, evaluate in phi.edge_evaluators.items():
        if edge not in lset or len(edge) != 2:
            raise ParameterError(f"edge data for {edge}, not a subcomplex edge")
        for coord, vertex in ((ZERO, edge[0]), (ONE, edge[1])):
            if evaluate(coord).pieces != phi.vertex_maps[vertex].pieces:
                raise CertificateError(
                    f"edge {edge} evaluator disagrees with the map at vertex {vertex}"
                )


def _edge_interface(
    phi: SubcomplexData,
    results: Mapping[Simplex, ExtensionResult],
    edge: Simplex,
) -> tuple[Callable[[Q], CurveMap], Callable[[Q], Q]]:
    """(evaluator on [0, 1], modulus) for an edge: subcomplex data if
    present, otherwise the already-filled extension of that edge, read
    along the segment through the barycenter, with the crude but
    certified constant modulus from its diameter bound."""
    if edge in phi.edge_evaluators:
        return phi.edge_evaluators[edge], phi.edge_moduli[edge]
    if edge in results:
        res = results[edge]
        bound = res.diameter_bound()

        def evaluate(s, res=res):
            s = as_scalar(s)
            if not (ZERO <= s <= ONE):
                raise DomainError(f"edge coordinate {s} outside [0,1]")
            if 2 * s <= ONE:
                return res.evaluate(ZERO, 2 * s)
            return res.evaluate(ONE, 2 * (ONE - s))

        def modulus(delta, bound=bound):
            return ZERO if as_scalar(delta) <= ZERO else bound

        return evaluate, modulus
    raise ParameterError(
        f"no data for edge {edge}: not in the subcomplex and not yet filled"
    )


def _triangle_boundary(
    phi: SubcomplexData,
    results: Mapping[Simplex, ExtensionResult],
    simplex: Simplex,
    probes_per_edge: int,
) -> BoundaryMap:
    """Glue three edges into a loop coordinate on [0, 3).

    Legs run v0 -> v1 -> v2 -> v0; the last leg traverses the canonical
    edge (v0, v2) backwards, so its evaluator is reversed.
    """
    v0, v1, v2 = simplex
    legs = []
    moduli = []
    for a, b in ((v0, v1), (v1, v2), (v2, v0)):
        edge = (min(a, b), max(a, b))
        evaluate, modulus = _edge_interface(phi, results, edge)
        if a > b:
            forward = evaluate

            def evaluate(s, forward=forward):
                return forward(ONE - as_scalar(s))

        legs.append(evaluate)
        moduli.append(modulus)

    def loop_evaluate(coord):
        coord = as_scalar(coord)
        if not (ZERO <= coord <= THREE):
            raise DomainError(f"loop coordinate {coord} outside [0,3]")
        if coord == THREE:
            coord = ZERO
        j = int(coord.numerator // coord.denominator)
        return legs[j](coord - j)

    def loop_modulus(delta):
        # A loop path of length delta crosses at most ceil(delta) + 1
        # edge segments, each no longer than min(delta, 1); each segment
        # is covered by its own edge's modulus.
        delta = as_scalar(delta)
        if delta <= ZERO:
            return ZERO
        segments = -((-delta.numerator) // delta.denominator) + 1
        step = delta if delta < ONE else ONE
        return segments * max(as_scalar(m(step)) for m in moduli)

    probes = tuple(
        Q(j) + Q(k, probes_per_edge) for j in range(3) for k in range(probes_per_edge)
    )
    return BoundaryMap(loop_evaluate, loop_modulus, probes)


def _guarantee(res: ExtensionResult) -> GuaranteeCheck:
    return GuaranteeCheck(
        diameter_bound=res.diameter_bound(),
        allowance=2 * res.probe_diameter,
    )


def complex_extend(
    spec: ComplexSpec,
    phi: SubcomplexData,
    probes_per_edge: int = 16,
) -> ComplexExtension:
    """Fill every simplex the subcomplex is missing.

    Missing simplices are processed by dimension then lexicographic
    order, the i-th with tolerance 2^(-i-2); the product of all
    (1 + tolerance) stays below e^(1/4) < 2, and each fill's certified
    diameter bound is recorded against twice its boundary's probe
    diameter.  Only missing simplices of dimension one or two can have
    their boundaries assembled; a missing simplex of higher dimension
    raises PreconditionError.  A subcomplex equal to the complex comes
    back unchanged.
    """
    if probes_per_edge < 1:
        raise ParameterError("need at least one probe per edge")
    _validate_data(spec, phi)
    results: dict[Simplex, ExtensionResult] = {}
    guarantees: dict[Simplex, GuaranteeCheck] = {}
    for index, simplex in enumerate(spec.missing, start=1):
        dimension = len(simplex) - 1
        if dimension == 1:
            boundary = segment_boundary(
                phi.vertex_maps[simplex[0]], phi.vertex_maps[simplex[1]]
            )
        elif dimension == 2:
            boundary = _triangle_boundary(phi, results, simplex, probes_per_edge)
        else:
            raise PreconditionError(
                f"missing {dimension}-simplex {simplex}: boundary assembly "
                "covers dimensions 1 and 2 only"
            )
        res = simplex_extend(boundary, SimplexSpec(dimension), Q(1, 2 ** (index + 2)))
        check = _guarantee(res)
        assert check.ok, f"diameter guarantee failed on {simplex}"
        results[simplex] = res
        guarantees[simplex] = check
    return ComplexExtension(spec=spec, data=phi, results=results, guarantees=guarantees)
