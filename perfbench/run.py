"""Benchmark of the transmaps toolkit: deform, certify and extend workloads.

    python3 perfbench/run.py --workload deform --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one client, closed loop: the workload's deck of
operations (see ``workloads.py``) runs pass after pass until the time is
spent.  Every op's output bytes are hashed and must repeat exactly on
every pass; the first execution of each op is also checked against what
the mathematics guarantees, and on the default seed the digests must
equal the ones recorded in ``perfbench/expected/``.  A failed or
mismatching op counts as failed and the run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
deck untraced first, then traced with every library call in a span and
the composite calls split into their public stages, and reports the
per-layer metrics plus the tracing overhead; a traced output that
differs from the untraced one fails the op.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit and stamp the record with the
arithmetic backend, the Python version, the core count and the seed.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEFAULT_SEED = 1
SETUP_PROBES = 7
MIN_SAMPLES = 100
# Times are reported at the pace at which reference_loop takes this long.
REFERENCE_S = 0.003

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SPANS = (
    "homotopy.box_data",
    "boxmap.concat_box_maps",
    "exact.sup_distance",
    "exact.range_on",
    "transitivity.is_transitive_pipeline",
    "transitivity.box_chain_certify",
    "transitivity.invariant_region_refute",
    "transitivity.leo_certify",
    "transitivity.ball_refute",
    "serialize.map_to_document",
    "serialize.document_to_json",
    "serialize.map_from_document",
    "serialize.verdict_to_document",
    "svg.render_svg",
    "spaces.nowhere_dense_perturbation",
    "extension.segment_boundary",
    "extension.simplex_extend",
    "extension.evaluate_chain",
    "extension.chain_certified",
    "extension.evaluate",
    "homotopy.uniform_modulus",
    "homotopy.stability_window",
)

COUNTS = (
    "homotopy.windows",
    "boxmap.pieces_out",
    "transitivity.stage_calls",
    "verdict.certified",
    "verdict.refuted",
    "verdict.inconclusive",
    "extension.windows",
    "extension.pieces_materialized",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("deform", "certify", "extend"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny deck, for testing the benchmark")
    ap.add_argument(
        "--expected",
        help="record whose op digests the outputs must match ('none' to skip); "
        "defaults to perfbench/expected/<workload>.json on the default seed",
    )
    ap.add_argument("--record", help="also write the full record as JSON to this file")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def backend_name() -> str:
    from transmaps.rational import Q

    return f"{Q.__module__}.{Q.__name__}"


def stamp(seed: int) -> dict:
    return {
        "backend": backend_name(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def reference_loop() -> float:
    """Seconds for a fixed loop of standard-library Fraction arithmetic.

    It touches nothing of the package, so its time tracks only how fast
    the machine runs exact rational arithmetic at the moment.  On a shared
    machine that pace drifts by tens of percent over tens of seconds.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1) * Fraction(3, 7)
    return time.perf_counter() - start


def pace() -> float:
    """Median of a few reference loops."""
    return statistics.median(reference_loop() for _ in range(5))


def measure_setup(args) -> list[tuple[float, float]]:
    """(wall time from interpreter start to a built deck, pace) per fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
        ready, probe_pace = map(float, done.stdout.split()[-2:])
        samples.append((ready - start, probe_pace))
    return samples


class Harness:
    """Runs passes over a deck, timing each op and checking its output."""

    def __init__(self, deck, expected_digests):
        self.deck = deck
        self.expected = expected_digests
        self.reference: list = [None] * len(deck.ops)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"op {i} ({self.deck.ops[i].kind}): {why}")

    def run_pass(self, lib) -> tuple[list[float], list[float]]:
        """Op latencies of one pass, and for each op the mean of the
        reference-loop times measured just before and just after it."""
        from workloads import CheckFailed

        latencies, paces = [], []
        for i, op in enumerate(self.deck.ops):
            self.attempted += 1
            paces.append(reference_loop())
            start = time.perf_counter()
            try:
                out = op.run(lib)
            except Exception as exc:  # an op that raises is a failed op; the run goes on
                latencies.append(time.perf_counter() - start)
                self._fail(i, f"raised {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - start)
            digest = hashlib.sha256(op.encode(out)).hexdigest()
            if self.reference[i] is None:
                self.reference[i] = digest
                try:
                    op.check(out)
                except CheckFailed as exc:
                    self._fail(i, f"check failed: {exc}")
                    continue
                if self.expected is not None and digest != self.expected[i]:
                    self._fail(i, "output digest differs from the expected record")
            elif digest != self.reference[i]:
                self._fail(i, "output digest differs from the first execution")
        paces.append(reference_loop())
        return latencies, [(a + b) / 2 for a, b in zip(paces, paces[1:])]

    def run_passes(self, lib, seconds: float, min_passes: int) -> list[tuple[list[float], list[float]]]:
        """Whole passes until the next one would end after ``seconds``."""
        passes, walls = [], []
        start = time.perf_counter()
        while True:
            gc.collect()
            t0 = time.perf_counter()
            passes.append(self.run_pass(lib))
            walls.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if len(passes) >= min_passes and elapsed + statistics.median(walls) > seconds:
                return passes

    @property
    def outputs_digest(self) -> str:
        return hashlib.sha256("".join(d or "-" for d in self.reference).encode()).hexdigest()


def latency_metrics(passes: list[tuple[list[float], list[float]]]) -> dict:
    """Throughput and latency quantiles at the reference pace.

    Each latency is scaled by REFERENCE_S over the reference-loop time
    around that op, which takes the drift of a shared machine's speed
    out of the figures; the unscaled figures stay in the record.
    Throughput is the deck size over one pass with every op at its
    median scaled latency; the quantiles pool every scaled sample.
    """
    scaled = [[x * REFERENCE_S / p for x, p in zip(lat, paces)] for lat, paces in passes]
    pooled = [x for lat in scaled for x in lat]
    raw = [x for lat, _ in passes for x in lat]
    per_op = [statistics.median(op) for op in zip(*scaled)]
    raw_per_op = [statistics.median(op) for op in zip(*(lat for lat, _ in passes))]
    return {
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": statistics.median(pooled) * 1e3,
        "op_p90_ms": statistics.quantiles(pooled, n=10)[8] * 1e3,
        "raw_ops_per_s": len(raw_per_op) / sum(raw_per_op),
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_p90_ms": statistics.quantiles(raw, n=10)[8] * 1e3,
        "samples": len(pooled),
        "passes": len(passes),
        "pass_seconds": [sum(lat) for lat, _ in passes],
        "pass_pace_s": [statistics.median(paces) for _, paces in passes],
        "op_median_ms": [x * 1e3 for x in per_op],
    }


def per_layer_metrics(tracer, traced: dict, untraced: dict, probes) -> dict:
    n = traced["passes"]
    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = tracer.calls[span] / n
        out[f"{span}.self_ms"] = tracer.self_s[span] * 1e3 / n
    for name in COUNTS:
        out[name] = tracer.counts[name] / n
    stage_calls = tracer.counts["transitivity.stage_calls"]
    out["transitivity.stage_yield"] = (
        tracer.counts["transitivity.stage_decided"] / stage_calls if stage_calls else 0.0
    )
    out["exact.range_on.probe_us"], out["exact.image_set.probe_ms"] = probes
    out["trace.overhead_ops_per_s"] = traced["ops_per_s"] - untraced["ops_per_s"]
    out["trace.overhead_op_p50_ms"] = traced["op_p50_ms"] - untraced["op_p50_ms"]
    return out


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_yield"):
        return "ratio"
    return "count"


def load_expected(args, n_ops: int):
    path = args.expected
    if path is None:
        if args.seed != DEFAULT_SEED or args.smoke:
            return None
        path = HERE / "expected" / f"{args.workload}.json"
    elif path == "none":
        return None
    record = json.loads(Path(path).read_text())
    digests = record["op_digests"]
    if len(digests) != n_ops:
        raise SystemExit(f"error: {path} records {len(digests)} ops, the deck has {n_ops}")
    return digests


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "transmaps" / "exact.py").is_file():
        print(f"error: no transmaps sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import build_deck, probe_queries

    if args.setup_probe:
        build_deck(args.workload, args.seed, args.smoke)
        ready = time.monotonic()
        print(ready, pace())
        return 0

    from tracing import Plain, Tracer

    deck = build_deck(args.workload, args.seed, args.smoke)
    harness = Harness(deck, load_expected(args, len(deck.ops)))
    setup = measure_setup(args)

    if args.trace == 0:
        # at least 3 passes for the per-op medians, and 100 samples for p90
        min_samples = 0 if args.smoke else MIN_SAMPLES
        min_passes = max(3, -(-min_samples // len(deck.ops)))
        lat = latency_metrics(harness.run_passes(Plain(), args.seconds, min_passes))
        metrics = {name: lat[name] for name in ("ops_per_s", "op_p50_ms", "op_p90_ms")}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = statistics.median(t * REFERENCE_S / p for t, p in setup)
        units = END_TO_END_UNITS
    else:
        untraced = latency_metrics(harness.run_passes(Plain(), 0.4 * args.seconds, min_passes=1))
        tracer = Tracer()
        lat = latency_metrics(harness.run_passes(tracer, 0.6 * args.seconds, min_passes=1))
        probes = probe_queries(deck.probe_maps) if deck.probe_maps else (0.0, 0.0)
        metrics = per_layer_metrics(tracer, lat, untraced, probes)
        units = {name: per_layer_unit(name) for name in metrics}

    correct = harness.failed == 0
    record = {
        **stamp(args.seed),
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "inputs_digest": deck.inputs_digest,
        "outputs_digest": harness.outputs_digest,
        "op_digests": harness.reference,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "error_rate": harness.failed / harness.attempted,
        "failures": harness.failures,
        "latency_samples": lat["samples"],
        "passes": lat["passes"],
        "pass_seconds": lat["pass_seconds"],
        "pass_pace_s": lat["pass_pace_s"],
        "op_median_ms": lat["op_median_ms"],
        "raw": {
            **{k: lat[k] for k in ("raw_ops_per_s", "raw_op_p50_ms", "raw_op_p90_ms")},
            "raw_setup_s": statistics.median(t for t, _ in setup),
        },
        "setup_samples_s": setup,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for key in ("workload", "seed", "backend", "python", "nproc", "inputs_digest", "outputs_digest"):
        print(f"# {key}: {record[key]}")
    print(f"# ops: {lat['samples']} latency samples over {lat['passes']} passes of {len(deck.ops)} ops")
    print(f"# reference pace: {statistics.median(lat['pass_pace_s']) * 1e3:.3f} ms per loop "
          f"(times below are scaled to {REFERENCE_S * 1e3:g} ms); unscaled: "
          + ", ".join(f"{k[4:]} {v:.6g}" for k, v in record["raw"].items()))
    print(f"# error_rate: {record['error_rate']:.6f} ({harness.failed} of {harness.attempted} failed)")
    for why in harness.failures:
        print(f"# failure: {why}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
