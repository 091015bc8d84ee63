"""Smoke tests: each script in scripts/ runs to completion on a small input."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_refuter_survey(tmp_path):
    lines = run_script("refuter_survey.py", "--max-level", "2", cwd=tmp_path)
    assert lines[0].split() == ["map", "verdict", "depth", "time"]
    rows = {line.split()[0]: line.split()[-3:-1] for line in lines[1:] if line[0] != " "}
    assert rows["identity"] == ["refuted", "1"]
    assert rows["sawtooth3"] == ["certified", "1"]
    assert "  invariant region: [0, 1/2]" in lines


def test_extension_profile(tmp_path):
    # the script asserts every probe chain is certified and every diameter
    # bound is within its allowance
    lines = run_script(
        "extension_profile.py", "--epsilon", "2", "--probes", "1", cwd=tmp_path
    )
    assert sum(line.startswith("  ok in ") for line in lines) == 5
    assert all(line.endswith("12/ 12") for line in lines[2::2])


def test_deform_gallery(tmp_path):
    out = tmp_path / "gallery"
    lines = run_script("deform_gallery.py", "--frames", "2", "--out", str(out), cwd=tmp_path)
    assert lines[-1] == f"wrote 3 frames to {out}/"
    index = json.loads((out / "index.json").read_text())
    assert [frame["t"] for frame in index["frames"]] == ["0", "1/8", "1/4"]
    for k in range(3):
        assert (out / f"frame_{k:03d}.svg").read_text().startswith("<svg ")
        assert json.loads((out / f"frame_{k:03d}.json").read_text())["pieces"]
