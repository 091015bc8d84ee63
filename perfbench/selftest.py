"""Tests of the benchmark itself, on smoke-size decks.

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

Each test runs ``run.py`` in a subprocess, as the benchmark is run, and
reads its last output line and its record.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("deform", "certify", "extend")

sys.path.insert(0, str(HERE))
from compare import compare  # noqa: E402


def bench(tmp: Path, *args, root: Path = ROOT):
    """Run a smoke-size benchmark; return exit code, result line and record."""
    record = tmp / f"record{len(list(tmp.iterdir()))}.json"
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--smoke", "--seconds", "1",
           "--record", str(record), *args]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    rec = json.loads(record.read_text()) if record.exists() else None
    return done.returncode, result, rec


def test_same_seed_same_digests():
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        for w in WORKLOADS:
            _, _, a = bench(tmp, "--workload", w, "--seed", "5")
            _, _, b = bench(tmp, "--workload", w, "--seed", "5")
            assert a["inputs_digest"] == b["inputs_digest"], w
            assert a["op_digests"] == b["op_digests"], w


def test_other_seed_other_inputs():
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        for w in WORKLOADS:
            _, _, a = bench(tmp, "--workload", w, "--seed", "5")
            _, _, b = bench(tmp, "--workload", w, "--seed", "6")
            assert a["inputs_digest"] != b["inputs_digest"], w


def test_wrong_expected_digest_fails_ops_not_the_run():
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        code, result, rec = bench(tmp, "--workload", "deform", "--seed", "5")
        assert code == 0 and result["correct"] and result["failed"] == 0
        rec["op_digests"][0] = "0" * 64
        wrong = tmp / "wrong.json"
        wrong.write_text(json.dumps(rec))
        code, result, _ = bench(tmp, "--workload", "deform", "--seed", "5", "--expected", str(wrong))
        assert code == 1
        assert result is not None and not result["correct"]
        assert result["failed"] == 1 and result["attempted"] > 1


def test_smoke_runs_finish_in_seconds_with_every_metric():
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        for w in WORKLOADS:
            start = time.monotonic()
            code, result, rec = bench(tmp, "--workload", w, "--seed", "5")
            assert time.monotonic() - start < 30, w
            assert code == 0 and result["correct"] and result["failed"] == 0, w
            assert set(result["metrics"]) == {
                "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "setup_s"}, w
            assert all(m["value"] > 0 for m in result["metrics"].values()), w
            assert rec["backend"] and rec["python"] and rec["nproc"] and rec["seed"] == 5


def test_traced_outputs_equal_untraced():
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        for w in WORKLOADS:
            _, _, plain = bench(tmp, "--workload", w, "--seed", "5")
            code, result, traced = bench(tmp, "--workload", w, "--seed", "5", "--trace", "1")
            assert code == 0 and result["correct"], w
            assert traced["op_digests"] == plain["op_digests"], w
            assert "trace.overhead_ops_per_s" in result["metrics"], w
        assert result["metrics"]["extension.simplex_extend.calls"]["value"] > 0


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        (tmp / "records").mkdir()
        code, result, _ = bench(tmp / "records", "--workload", "deform", root=tmp)
        assert code != 0 and result is None


def test_compare_refuses_other_backends():
    with tempfile.TemporaryDirectory() as d:
        _, _, rec = bench(Path(d), "--workload", "deform", "--seed", "5")
    assert compare([rec], [rec])
    other = dict(rec, backend="gmpy2.mpq")
    try:
        compare([rec], [other])
    except ValueError:
        return
    raise AssertionError("records of different backends were compared")


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            start = time.monotonic()
            try:
                fn()
                status = "ok"
            except Exception as exc:  # report every test, then fail the run
                failed += 1
                status = f"FAIL {type(exc).__name__}: {exc}"
            print(f"{name}: {status} ({time.monotonic() - start:.1f}s)")
    raise SystemExit(1 if failed else 0)
