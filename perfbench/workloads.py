"""Seeded inputs and operations of the three workloads.

``build_deck(workload, seed)`` is the benchmark's set-up: it generates
every input from the seed and returns a deck, a fixed list of operations
that the harness runs in order, pass after pass.  The composition of a
deck (families, steps, expansions, grid levels) is fixed; the seed only
picks shapes and parameters inside each stratum, so the cost of a pass
moves little from seed to seed.

Each operation has three parts: ``run(lib)`` is the timed call sequence,
made through ``lib`` (see ``tracing``); ``encode`` turns its result into
the output bytes that are hashed; ``check`` verifies the result against
what the mathematics guarantees and raises ``CheckFailed`` otherwise.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Callable

from transmaps.boxmap import concat_box_maps
from transmaps.corpus import random_pl_map, random_surjective_pl
from transmaps.exact import (
    FULL,
    Interval,
    IntervalSet,
    image_set,
    range_on,
    sup_distance,
)
from transmaps.extension import (
    SimplexSpec,
    chain_certified,
    segment_boundary,
    simplex_extend,
)
from transmaps.homotopy import apply_homotopy, box_data, stability_window, uniform_modulus
from transmaps.rational import ONE, Q, ZERO, scalar_str
from transmaps.serialize import (
    document_to_json,
    map_from_document,
    map_to_document,
    verdict_to_document,
)
from transmaps.spaces import (
    identity_map,
    ladder_map,
    nowhere_dense_perturbation,
    one_minus,
    phase_sawtooth,
    sawtooth,
    square_map,
)
from transmaps.svg import render_svg
from transmaps.transitivity import (
    PipelineBudget,
    Verdict,
    ball_refute,
    box_chain_certify,
    invariant_region_refute,
    is_transitive_pipeline,
    leo_certify,
    min_abs_slope,
    min_breakpoint_gap,
)

class CheckFailed(Exception):
    """An operation's output contradicts what the mathematics guarantees."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Op:
    kind: str
    inputs: str  # canonical text of the op's inputs, hashed into the input digest
    run: Callable
    encode: Callable[[object], bytes]
    check: Callable[[object], None] = lambda out: None


@dataclass
class Deck:
    ops: list[Op]
    probe_maps: list = field(default_factory=list)

    @property
    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for op in self.ops:
            h.update(op.kind.encode() + b"\0" + op.inputs.encode() + b"\0")
        return h.hexdigest()


def map_text(f) -> str:
    return document_to_json(map_to_document(f))


def verdict_text(v: Verdict) -> str:
    return document_to_json(verdict_to_document(v, {"method": "pipeline"}))


# -- composite calls, split into public stages when traced -------------------


def deform(lib, f, t, gamma):
    """apply_homotopy, or box_data + concat_box_maps when traced."""
    if not lib.split:
        return apply_homotopy(f, t, gamma)
    data = lib.call("homotopy.box_data", box_data, f, t, gamma)
    lib.count("homotopy.windows", len(data.boxes))
    g = lib.call("boxmap.concat_box_maps", concat_box_maps, data.items())
    lib.count("boxmap.pieces_out", len(g.pieces))
    return g


def pipeline(lib, f) -> Verdict:
    """is_transitive_pipeline, or its stages in pipeline order when traced."""
    if not lib.split:
        return is_transitive_pipeline(f)
    budget = PipelineBudget()
    verdict = _pipeline_stages(lib, f, budget)
    lib.count("verdict." + verdict.status)
    return verdict


def _stage(lib, span, fn, *args):
    lib.count("transitivity.stage_calls")
    out = lib.call(span, fn, *args)
    if isinstance(out, Verdict) and out.status != "inconclusive":
        lib.count("transitivity.stage_decided")
    return out


def _pipeline_stages(lib, f, budget: PipelineBudget) -> Verdict:
    if _stage(lib, "exact.range_on", range_on, f, FULL) != FULL:
        # non-surjective: the pipeline refutes at once from this range
        return _stage(lib, "transitivity.is_transitive_pipeline", is_transitive_pipeline, f)
    verdict = _stage(lib, "transitivity.box_chain_certify", box_chain_certify, f)
    if verdict.is_certified:
        return verdict
    for level in budget.refute_levels:
        verdict = _stage(
            lib,
            "transitivity.invariant_region_refute",
            invariant_region_refute,
            f,
            level,
            budget.refute_steps,
        )
        if verdict.is_refuted:
            return verdict
    if f.is_pl and min_abs_slope(f) > 2:
        gap = min_breakpoint_gap(f)
        level = 1
        while Q(2, 1 << level) > gap:
            level += 1
        if level <= budget.leo_max_level:
            return _stage(
                lib, "transitivity.leo_certify", leo_certify, f, level, budget.leo_steps
            )
    return Verdict.inconclusive(budget.refute_steps)


def check_refutation(f, v: Verdict) -> None:
    """A refuted verdict must carry an exactly invariant proper witness."""
    if v.is_refuted:
        w = v.witness
        require(w.contains_set(image_set(f, w)), "refutation witness is not invariant")


# -- deform: the write path ---------------------------------------------------

DEFORM_STEPS = (Q(1, 16), Q(1, 32))
DEFORM_GAMMAS = (Q(20), Q(25), Q(40))
# PL surjections with a dyadic fixed point, which the perturbation needs
PERTURBABLE = {
    "sawtooth(3)": lambda: sawtooth(3),
    "sawtooth(4)": lambda: sawtooth(4),
    "sawtooth(5)": lambda: sawtooth(5),
    "ladder_map(5)": lambda: ladder_map(5),
    "ladder_map(6)": lambda: ladder_map(6),
}


def _perturbed(cache: dict, name: str):
    if name not in cache:
        cache[name] = nowhere_dense_perturbation(PERTURBABLE[name](), Q(1, 10))
    return cache[name]


def _deform_seed(family: str, rng: random.Random, cache: dict):
    if family == "random_surjective_pl":
        return random_surjective_pl(rng, rng.randint(4, 8))
    if family == "phase_sawtooth":
        return phase_sawtooth(rng.choice((3, 4)), Q(rng.randint(1, 63), 64))
    if family == "ladder_map":
        return ladder_map(rng.randint(5, 8))
    return _perturbed(cache, rng.choice(sorted(PERTURBABLE)))


def chain_certified_seed(family: str, rng: random.Random, cache: dict, t, gamma):
    """A seed whose deformation carries a box-chain certificate.

    Some random surjections keep an invariant interval at small steps;
    their deformations fall through to the refuters, which this workload
    does not measure, so they are drawn again.  The test reads only the
    box parameters and builds no map.
    """
    while True:
        f = _deform_seed(family, rng, cache)
        if chain_certified(tuple(box_data(f, t, gamma).items())):
            return f


def deform_op(f, t, gamma) -> Op:
    def run(lib):
        g = deform(lib, f, t, gamma)
        d = lib.call("exact.sup_distance", sup_distance, f, g)
        v = pipeline(lib, g)
        doc = lib.call("serialize.map_to_document", map_to_document, g)
        text = lib.call("serialize.document_to_json", document_to_json, doc)
        svg = lib.call("svg.render_svg", render_svg, g)
        return g, d, v, text, svg

    def encode(out):
        _, d, v, text, svg = out
        return "\n".join((text, scalar_str(d), verdict_text(v), svg)).encode()

    def check(out):
        g, d, v, text, _ = out
        require(v.is_certified, f"deformation verdict is {v.status}, not certified")
        # each band exceeds the window's range by at most 8 * max(t, oscillation)
        require(d <= 9 * max(t, uniform_modulus(f, t)), "deformation moved too far")
        require(map_from_document(json.loads(text)).pieces == g.pieces, "JSON round trip")

    return Op("deform", f"t={t} gamma={gamma}\n{map_text(f)}", run, encode, check)


def deform_deck(seed: int, smoke: bool) -> Deck:
    rng = random.Random(seed)
    cache: dict = {}
    families = ("random_surjective_pl", "phase_sawtooth", "ladder_map", "perturbed")
    steps, gammas = DEFORM_STEPS, DEFORM_GAMMAS
    if smoke:
        families, steps, gammas = families[:2], (Q(1, 8),), (Q(20),)
    ops = [
        deform_op(chain_certified_seed(family, rng, cache, t, gamma), t, gamma)
        for family in families
        for t in steps
        for gamma in gammas
    ]
    return Deck(ops)


# -- certify: the read path ---------------------------------------------------


def pipeline_op(name: str, f, expect: str) -> Op:
    """json.loads -> map_from_document -> pipeline -> verdict_to_document."""
    text = map_text(f)

    def run(lib):
        g = lib.call("serialize.map_from_document", map_from_document, json.loads(text))
        v = pipeline(lib, g)
        doc = lib.call("serialize.verdict_to_document", verdict_to_document, v, {"method": "pipeline"})
        return g, v, doc

    def check(out):
        g, v, _ = out
        met = {
            "not certified": not v.is_certified,
            "not refuted": not v.is_refuted,
        }.get(expect, v.status == expect)
        require(met, f"{name}: verdict {v.status}, expected {expect}")
        check_refutation(g, v)

    return Op("pipeline", f"{name}\n{text}", run, lambda out: document_to_json(out[2]).encode(), check)


def ball_op(name: str, g, rho, level: int) -> Op:
    """nowhere_dense_perturbation(g, 1/10) -> ball_refute."""

    def run(lib):
        h = lib.call("spaces.nowhere_dense_perturbation", nowhere_dense_perturbation, g, Q(1, 10))
        return h, lib.call("transitivity.ball_refute", ball_refute, h, rho, level)

    def encode(out):
        h, found = out
        ball = "none" if found is None else f"{found[0]} {scalar_str(found[1])}"
        return (map_text(h) + ball).encode()

    def check(out):
        h, found = out
        require(sup_distance(g, h) < Q(1, 10), "perturbation moved too far")
        if found is not None:
            window, _ = found
            r = range_on(h, window)
            lo = max(ZERO, r.lo - rho)
            hi = min(ONE, r.hi + rho)
            require(window.lo <= lo and hi <= window.hi, "ball window is not invariant")

    return Op("ball", f"{name} rho={rho} level={level}", run, encode, check)


def survey_maps():
    """The stock maps of the refuter survey script.

    Its deformed random map is left out: how long the pipeline takes on
    a deformed random map swings from 0.1 s to 7 s with the seed.
    """
    return [
        ("identity", identity_map(), "refuted"),
        ("square", square_map(), "refuted"),
        ("sawtooth3", sawtooth(3), "certified"),
        ("ladder7", ladder_map(7), "certified"),
        ("perturbed sawtooth3", nowhere_dense_perturbation(sawtooth(3), Q(1, 10)), "not certified"),
        ("perturbed ladder6", nowhere_dense_perturbation(ladder_map(6), Q(1, 10)), "not certified"),
    ]


def non_surjective_pl_map(rng: random.Random):
    """A random_pl_map that misses part of [0, 1], which the pipeline refutes at once."""
    while True:
        f = random_pl_map(rng)
        if range_on(f, FULL) != FULL:
            return f


def certify_deck(seed: int, smoke: bool) -> Deck:
    rng = random.Random(seed)
    maps = []
    if smoke:
        maps += [("random_pl_map", non_surjective_pl_map(rng), "refuted"), ("square", square_map(), "refuted")]
        maps.append(("ladder_map(5)", ladder_map(5), "certified"))
        balls, rho = [("sawtooth(3)", 3)], Q(1, 4096)
    else:
        for n in range(5, 11):
            maps.append((f"ladder_map({n})", ladder_map(n), "certified"))
        # coarse deformations, re-read without their box-chain record; a
        # deformed surjection is transitive, so it is never refuted
        for name in ("sawtooth(4)", "ladder_map(5)"):
            f = apply_homotopy(PERTURBABLE[name](), Q(1, 4), Q(20))
            maps.append((f"deformed {name}", f, "not refuted"))
        maps += [("random_pl_map", non_surjective_pl_map(rng), "refuted") for _ in range(4)]
        maps += survey_maps()
        balls = [(name, 5) for name in sorted(PERTURBABLE)]
        balls += [("sawtooth(4)", 6), ("ladder_map(5)", 6)]
        rho = Q(1, rng.choice((1024, 2048, 4096)))
    ops = [pipeline_op(name, f, expect) for name, f, expect in maps]
    ops += [ball_op(name, PERTURBABLE[name](), rho, level) for name, level in balls]
    return Deck(ops, probe_maps=[f for _, f, _ in maps])


# -- extend: the parameter-chain path and the modulus --------------------------

EXTEND_EPSILON = Q(2)


def _extend_pairs(rng: random.Random):
    """Three segments; every choice here gives the step t0 = 1/128."""
    m = rng.choice((4, 5))
    yield f"sawtooth({m}) / reflection", sawtooth(m), one_minus(sawtooth(m))
    theta = Q(rng.randint(1, 63), 64)
    yield f"sawtooth(5) / phase_sawtooth(3, {theta})", sawtooth(5), phase_sawtooth(3, theta)
    n, m = rng.randint(5, 7), rng.choice((3, 4))
    yield f"ladder_map({n}) / sawtooth({m})", ladder_map(n), sawtooth(m)


def _chain_text(items) -> str:
    return "\n".join(
        " ".join(map(scalar_str, (w.lo, w.hi, p.left_value, p.right_value, p.bottom, p.top, p.expansion)))
        for w, p in items
    )


def extension_ops(name: str, f0, f1, eps) -> list[Op]:
    state: dict = {}
    label = f"{name} eps={eps}\n{map_text(f0)}{map_text(f1)}"

    def extend(lib):
        phi = lib.call("extension.segment_boundary", segment_boundary, f0, f1)
        ext = lib.call("extension.simplex_extend", simplex_extend, phi, SimplexSpec(1), eps)
        lib.count("extension.windows", len(ext.windows))
        state["ext"] = ext
        return ext

    def encode_ext(ext):
        bands = " ".join(f"{h.lo} {h.hi}" for h in ext.hull_bands)
        targets = " ".join(map(scalar_str, ext.junction_targets))
        return f"{ext.t0}\n{bands}\n{targets}\n{ext.diameter_bound()}".encode()

    def check_ext(ext):
        require(ext.diameter_bound() <= (ONE + eps) * sup_distance(f0, f1), "diameter bound")

    ops = [Op("simplex_extend", label, extend, encode_ext, check_ext)]

    heights = (lambda t0: t0 / 2, lambda t0: t0, lambda t0: (ONE + t0) / 2)
    for x in (ZERO, ONE):
        for which, height in zip(("below", "at", "above"), heights):
            chain_key = ("chain", x, which)

            def chain(lib, x=x, height=height, chain_key=chain_key):
                ext = state["ext"]
                items = lib.call("extension.evaluate_chain", ext.evaluate_chain, x, height(ext.t0))
                state[chain_key] = items
                return items

            def certify(lib, chain_key=chain_key):
                return lib.call("extension.chain_certified", chain_certified, state[chain_key])

            def check_cert(ok):
                require(ok is True, "a chain at positive height was not certified")

            ops.append(Op("evaluate_chain", f"{label}\nx={x} {which}", chain, lambda out: _chain_text(out).encode()))
            ops.append(Op("chain_certified", f"{label}\nx={x} {which}", certify, lambda ok: str(ok).encode(), check_cert))

    for x, height, key in ((ZERO, lambda t0: t0, "map0"), (ONE, lambda t0: (ONE + t0) / 2, "map1")):

        def materialise(lib, x=x, height=height, key=key):
            ext = state["ext"]
            g = lib.call("extension.evaluate", ext.evaluate, x, height(ext.t0))
            lib.count("extension.pieces_materialized", len(g.pieces))
            state[key] = g
            return g

        ops.append(Op("evaluate", f"{label}\nx={x}", materialise, lambda g: map_text(g).encode()))

    def distance(lib):
        return lib.call("exact.sup_distance", sup_distance, state["map0"], state["map1"])

    def check_distance(d):
        require(d <= state["ext"].diameter_bound(), "images spread beyond the diameter bound")

    ops.append(Op("sup_distance", label, distance, lambda d: scalar_str(d).encode(), check_distance))
    return ops


def modulus_ops(name: str, f, delta, eps) -> list[Op]:
    label = f"{name} delta={delta} eps={eps}\n{map_text(f)}"

    def modulus(lib):
        return lib.call("homotopy.uniform_modulus", uniform_modulus, f, delta)

    def check_modulus(m):
        w = range_on(f, Interval(ZERO, delta))
        require(w.width <= m <= ONE, "modulus below a window's oscillation")

    def window(lib):
        return lib.call("homotopy.stability_window", stability_window, f, eps)

    def check_window(sw):
        require(sw.radius == eps / 28, "stability radius")
        require(uniform_modulus(f, sw.step) < sw.radius, "step breaks the modulus demand")

    return [
        Op("uniform_modulus", label, modulus, lambda m: scalar_str(m).encode(), check_modulus),
        Op("stability_window", label, window, lambda sw: f"{sw.radius} {sw.step}".encode(), check_window),
    ]


def extend_deck(seed: int, smoke: bool) -> Deck:
    rng = random.Random(seed)
    ops = []
    pairs = list(_extend_pairs(rng))
    eps, t = EXTEND_EPSILON, Q(1, 4)
    if smoke:
        pairs, eps, t = pairs[:1], Q(8), Q(1, 2)
    for name, f0, f1 in pairs:
        ops += extension_ops(name, f0, f1, eps)
    f = apply_homotopy(random_surjective_pl(rng, rng.randint(5, 7)), t, Q(20))
    ops += modulus_ops(f"deformed random_surjective_pl t={t}", f, Q(1, 64), Q(1, 2))
    return Deck(ops)


DECKS = {"deform": deform_deck, "certify": certify_deck, "extend": extend_deck}


def build_deck(workload: str, seed: int, smoke: bool = False) -> Deck:
    return DECKS[workload](seed, smoke)


# -- per-call probes of the query kernels (traced certify runs) ----------------


def probe_queries(maps) -> tuple[float, float]:
    """Median cost of range_on per call (us) and image_set per call (ms).

    range_on runs on every level-6 dyadic cell of every map; image_set
    runs on the even cells and on the odd cells as two 32-component sets.
    """
    cells = [Interval(Q(k, 64), Q(k + 1, 64)) for k in range(64)]
    halves = [IntervalSet(tuple(cells[k::2])) for k in (0, 1)]
    range_us, image_ms = [], []
    for _ in range(3):
        start = perf_counter()
        for f in maps:
            for c in cells:
                range_on(f, c)
        range_us.append((perf_counter() - start) * 1e6 / (len(maps) * len(cells)))
        start = perf_counter()
        for f in maps:
            for s in halves:
                image_set(f, s)
        image_ms.append((perf_counter() - start) * 1e3 / (len(maps) * len(halves)))
    return median(range_us), median(image_ms)
