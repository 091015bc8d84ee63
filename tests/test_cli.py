"""Command-line behavior: exit codes, document output, determinism, and
the verify suites it fronts."""
import json
import os
import subprocess
import sys
from pathlib import Path

from unittest import mock

import pytest

import transmaps.cli
import transmaps.verify
from transmaps import boxmap, homotopy, spaces, transitivity

from transmaps.boxmap import BoxParams, build_box_map
from transmaps.cli import main
from transmaps.errors import ParameterError
from transmaps.exact import Interval
from transmaps.extension import ExtensionResult, simplex_extend
from transmaps.rational import ONE, Q, ZERO
from transmaps.serialize import map_from_document, map_to_document
from transmaps.spaces import identity_map, ladder_map, sawtooth, square_map
from transmaps.verify import SUITES, run_suite


def run_cli(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def write_map(tmp_path, f, name):
    path = tmp_path / name
    path.write_text(json.dumps(map_to_document(f)))
    return str(path)


def test_boxmap_reference_document(capsys):
    code, out, err = run_cli(capsys, "boxmap", "--params", "3/20,1/10,0,1/5,20")
    assert code == 0 and err == ""
    f = map_from_document(json.loads(out))
    assert f == build_box_map(BoxParams(Q(3, 20), Q(1, 10), ZERO, Q(1, 5), Q(20)))
    assert all(abs(p.c1) == 4 for p in f.pieces)


def test_boxmap_has_no_interval_option(capsys):
    # standalone box maps only exist on [0, 1], so there is no window to pick
    code, out, err = run_cli(
        capsys, "boxmap", "--interval", "0,1", "--params", "3/20,1/10,0,1/5,20"
    )
    assert code == 1 and out == ""
    assert "--interval" in err


def test_boxmap_rejects_degenerate_band(capsys):
    code, out, err = run_cli(capsys, "boxmap", "--params", "0,1,1,1,20")
    assert code == 1
    assert "band" in err


def test_make_and_certify_round(capsys, tmp_path):
    ladder = write_map(tmp_path, ladder_map(7), "ladder7.json")
    code, out, _ = run_cli(capsys, "certify", "--map", ladder)
    assert code == 0
    assert json.loads(out)["verdict"] == "certified"

    square = write_map(tmp_path, square_map(), "square.json")
    code, out, _ = run_cli(capsys, "certify", "--map", square)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "refuted"
    assert doc["witness"], "refutation must carry its witness"


def test_make_writes_files(capsys, tmp_path):
    out_path = tmp_path / "saw.json"
    svg_path = tmp_path / "saw.svg"
    code, out, _ = run_cli(
        capsys, "make", "sawtooth", "--n", "3",
        "--out", str(out_path), "--svg", str(svg_path),
    )
    assert code == 0 and out == ""
    assert map_from_document(json.loads(out_path.read_text())) == sawtooth(3)
    assert svg_path.read_text().startswith("<svg ")


def test_make_requires_n_for_parametric_maps(capsys):
    code, _, err = run_cli(capsys, "make", "ladder")
    assert code == 1 and "--n" in err


def test_homotopy_zero_step_reproduces_input(capsys, tmp_path):
    path = write_map(tmp_path, sawtooth(3), "saw3.json")
    code, out, _ = run_cli(capsys, "homotopy", "--map", path, "--t", "0")
    assert code == 0
    assert json.loads(out) == map_to_document(sawtooth(3))


def test_grid_sizes_past_their_caps_exit_1(capsys, tmp_path):
    # the patches make a missing cap fail at once instead of building
    # 10^9 windows or 2^40 grid points, or computing 2^(10^7)
    path = write_map(tmp_path, sawtooth(3), "saw3.json")
    with mock.patch.object(homotopy, "Interval", side_effect=AssertionError):
        code, out, err = run_cli(capsys, "homotopy", "--map", path, "--t", "1/1000000000")
    assert code == 1 and out == "" and "cap" in err
    with mock.patch.object(transitivity, "Q", side_effect=AssertionError):
        code, out, err = run_cli(
            capsys, "certify", "--map", path, "--method", "refute", "--grid-level", "40"
        )
    assert code == 1 and out == "" and "grid level 40" in err
    with mock.patch.object(transitivity, "Q", side_effect=AssertionError):
        code, out, err = run_cli(
            capsys, "certify", "--map", path, "--method", "leo", "--grid-level", "10000000"
        )
    assert code == 1 and out == "" and "grid level 10000000" in err


def test_stock_maps_past_the_piece_cap_exit_1(capsys):
    # the patches make a missing cap fail at once instead of building
    # millions of vertices
    with mock.patch.object(spaces, "Q", side_effect=AssertionError), mock.patch.object(
        spaces, "pl_from_vertices", side_effect=AssertionError
    ):
        for name, n in (("sawtooth", "2000000"), ("ladder", "600000")):
            code, out, err = run_cli(capsys, "make", name, "--n", n)
            assert code == 1 and out == ""
            assert err.startswith("transmaps: error: ") and "above the cap" in err
            assert err.count("\n") == 1


def test_box_chains_past_the_piece_cap_exit_1(capsys, tmp_path):
    # the patch makes a missing cap fail at once instead of building
    # millions of vertices
    path = write_map(tmp_path, ladder_map(5), "a.json")
    with mock.patch.object(boxmap, "_turns", side_effect=AssertionError):
        for args in (
            ("boxmap", "--params", "0,1,0,1,2000000"),
            ("homotopy", "--map", path, "--t", "1/8", "--gamma", "2000000"),
        ):
            code, out, err = run_cli(capsys, *args)
            assert code == 1 and out == ""
            assert err.startswith("transmaps: error: ") and "above the cap" in err
            assert err.count("\n") == 1


def test_certify_refuses_a_literal_with_a_newline(capsys, tmp_path):
    doc = map_to_document(identity_map())
    doc["pieces"][0]["x1"] = "1\n"
    path = tmp_path / "nl.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "certify", "--map", str(path))
    assert code == 1 and out == ""
    assert err == "transmaps: error: not a rational literal: '1\\n'\n"


def test_map_files_json_cannot_read_exit_1(capsys, tmp_path):
    # a byte outside ASCII fails to decode and deep nesting exhausts
    # json's recursion; each is one error line, not a traceback
    text = json.dumps(map_to_document(identity_map())).encode()
    for name, data, reason in (
        ("latin1.json", text.replace(b'"1"', b'"1\xe9"', 1), "a map document must be ASCII"),
        ("nested.json", b"[" * 200_000, "the document nests too deeply"),
    ):
        path = tmp_path / name
        path.write_bytes(data)
        for args in (("certify",), ("homotopy", "--t", "1/4")):
            code, out, err = run_cli(capsys, *args, "--map", str(path))
            assert code == 1 and out == ""
            assert err == f"transmaps: error: {path}: {reason}\n"


@pytest.mark.parametrize("method", ["refute", "leo"])
def test_certify_refuses_a_budget_below_1(capsys, tmp_path, method):
    path = write_map(tmp_path, sawtooth(3), "saw3.json")
    for n_max in ("-5", "0"):
        code, out, err = run_cli(
            capsys, "certify", "--map", path, "--method", method, "--n-max", n_max
        )
        assert code == 1 and out == ""
        assert err == "transmaps: error: need a positive iteration budget\n"


def test_homotopy_frames(capsys, tmp_path):
    path = write_map(tmp_path, sawtooth(3), "saw3.json")
    code, out, _ = run_cli(
        capsys, "homotopy", "--map", path, "--t", "1/4", "--frames", "4"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["frames"]) == 5
    assert doc["frames"][0] == map_to_document(sawtooth(3))
    for frame in doc["frames"]:
        map_from_document(frame)


def test_homotopy_frames_past_the_piece_cap_exit_1(capsys, tmp_path):
    # the patch makes a missing cap fail at once instead of building the
    # frames
    path = write_map(tmp_path, ladder_map(5), "a.json")
    with mock.patch.object(transmaps.cli, "apply_homotopy", side_effect=AssertionError):
        for frames in ("2000000", "1000"):
            code, out, err = run_cli(
                capsys, "homotopy", "--map", path, "--t", "1/8", "--frames", frames
            )
            assert code == 1 and out == ""
            assert err.startswith("transmaps: error: ") and "above the cap" in err
            assert err.count("\n") == 1


def test_homotopy_frames_cap_bounds_the_frames(capsys, tmp_path):
    # frame 0 is the map; at step k/16, k = 1..4, a frame has at most
    # 16/k windows rounded up, each of at most floor(20) + 3 legs
    f = ladder_map(5)
    path = write_map(tmp_path, f, "a.json")
    bound = len(f.pieces) + 23 * (16 + 8 + 6 + 4)
    args = ("homotopy", "--map", path, "--t", "1/4", "--frames", "4")
    with mock.patch.object(transmaps.cli, "_MAX_PIECES", bound):
        code, out, _ = run_cli(capsys, *args)
    assert code == 0
    frames = [map_from_document(d) for d in json.loads(out)["frames"]]
    assert sum(len(g.pieces) for g in frames) <= bound
    with mock.patch.object(transmaps.cli, "_MAX_PIECES", bound - 1), mock.patch.object(
        transmaps.cli, "apply_homotopy", side_effect=AssertionError
    ):
        code, out, err = run_cli(capsys, *args)
    assert code == 1 and out == "" and "above the cap" in err


def test_reach_past_the_bit_cap_exits_1(capsys, tmp_path):
    path = write_map(tmp_path, square_map(), "square.json")
    code, out, err = run_cli(
        capsys, "certify", "--map", path, "--method", "reach",
        "--u", "1/4,1/2", "--v", "3/4,1", "--n", "30",
    )
    assert code == 1 and out == ""
    assert err.startswith("transmaps: error: image 13 endpoint ") and "above the cap" in err


def test_certify_leo_slope_floor_is_an_input_error(capsys, tmp_path):
    from transmaps.spaces import identity_map

    path = write_map(tmp_path, identity_map(), "id.json")
    code, _, err = run_cli(capsys, "certify", "--map", path, "--method", "leo")
    assert code == 1 and "slope" in err


def test_certify_reach(capsys, tmp_path):
    path = write_map(tmp_path, sawtooth(3), "saw3.json")
    code, out, _ = run_cli(
        capsys, "certify", "--map", path, "--method", "reach",
        "--u", "0,1/8", "--v", "7/8,1", "--n", "2",
    )
    assert code == 0
    assert json.loads(out)["reach"] is True

    code, _, err = run_cli(capsys, "certify", "--map", path, "--method", "reach")
    assert code == 1 and "--u" in err


@pytest.mark.parametrize(
    "u, v, n, message",
    [
        ("0,1/8", "1/2,1/2", "2", "need nondegenerate intervals"),
        ("1/8,1/8", "1/2,1", "2", "need nondegenerate intervals"),
        ("0,1/8", "1/2,1/2", "0", "need at least one iteration"),
        ("1/8,1/8", "1/2,1/2", "-1", "need at least one iteration"),
    ],
)
def test_reach_refuses_degenerate_intervals_after_the_count(capsys, tmp_path, u, v, n, message):
    # the image does not depend on v, so the command refuses a degenerate
    # v itself, and a count below 1 still comes first
    path = write_map(tmp_path, sawtooth(3), "saw3.json")
    code, out, err = run_cli(
        capsys, "certify", "--map", path, "--method", "reach", "--u", u, "--v", v, "--n", n,
    )
    assert (code, out, err) == (1, "", f"transmaps: error: {message}\n")


def test_reach_is_not_a_verdict(capsys, tmp_path):
    # sawtooth(3) is transitive, and f([0, 1/100]) = [0, 3/100] is not
    # invariant, so "refuted" with that witness would be false
    path = write_map(tmp_path, sawtooth(3), "saw3.json")
    code, out, _ = run_cli(
        capsys, "certify", "--map", path, "--method", "reach",
        "--u", "0,1/100", "--v", "1/2,51/100", "--n", "1",
    )
    assert code == 0
    assert json.loads(out) == {
        "image": [["0", "3/100"]],
        "parameters": {
            "method": "reach", "n": 1, "u": ["0", "1/100"], "v": ["1/2", "51/100"],
        },
        "reach": False,
    }


def test_certify_rejects_a_non_integer_version(capsys, tmp_path):
    doc = map_to_document(sawtooth(3))
    for version in (True, 1.0):
        path = tmp_path / "saw3.json"
        path.write_text(json.dumps({**doc, "version": version}))
        code, out, err = run_cli(capsys, "certify", "--map", str(path))
        assert code == 1 and out == "" and "version" in err


def test_literal_past_the_int_digit_limit_exits_1(capsys, tmp_path):
    # 5,001 digits pass the literal grammar but not CPython's int-string
    # limit on the Fraction backend; the value is out of range on gmpy2
    doc = map_to_document(sawtooth(3))
    doc["pieces"][0]["x1"] = "1" * 5001
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "certify", "--map", str(path))
    assert code == 1 and out == ""
    assert err.startswith("transmaps: error:") and "Traceback" not in err


def test_reach_image_past_the_int_digit_limit(capsys, tmp_path):
    # the square map doubles an endpoint's bit length each step, so at
    # n = 14 its image is past CPython's int-string limit on the Fraction
    # backend, and past the bit cap on either backend
    path = write_map(tmp_path, square_map(), "square.json")
    code, out, err = run_cli(
        capsys, "certify", "--map", path, "--method", "reach",
        "--u", "1/4,1/2", "--v", "3/4,1", "--n", "14",
    )
    if code == 0:
        assert json.loads(out)["parameters"]["n"] == 14 and err == ""
    else:
        assert code == 1 and out == ""
        assert err.startswith("transmaps: error:") and err.count("\n") == 1


def test_missing_map_file_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "certify", "--map", "/nonexistent.json")
    assert code == 1 and err != ""


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "verify", "nosuch")[0] == 1
    assert run_cli(capsys, "nosuch-command")[0] == 1
    assert run_cli(capsys, "boxmap")[0] == 1


def test_verify_suites_pass(capsys):
    for suite in SUITES:
        code, out, _ = run_cli(capsys, "verify", suite)
        assert code == 0, out
        assert out.endswith("result: pass\n")


def test_verify_reports_every_check_in_name_order():
    report, ok = run_suite("examples")
    assert ok
    lines = report.splitlines()
    names = [line.split(":")[0] for line in lines[1:-1]]
    assert names == sorted(SUITES["examples"])
    assert all(line.endswith(": pass") for line in lines[1:])


def test_apex_shared_fails_when_the_t1_chains_stay_at_the_base(monkeypatch):
    # both boundary points' chains at t = 1 must be the apex's own chain;
    # an evaluate_chain that returns the step-t0 chain there fails the check
    assert transmaps.verify._check_extension_apex()
    move = ExtensionResult.evaluate_chain

    def stuck(self, x, t):
        return self._base(x) if t == ONE else move(self, x, t)

    monkeypatch.setattr(ExtensionResult, "evaluate_chain", stuck)
    assert not transmaps.verify._check_extension_apex()


def test_square_slack_reads_the_margin_ball_refute_reports(monkeypatch):
    # the check recomputes the slack of the window ball_refute reports
    assert transmaps.verify._check_square_slack()
    window, margin = transitivity.ball_refute(square_map(), Q(1, 100), 6)
    assert (window, margin) == (Interval(ZERO, Q(1, 2)), Q(6, 25))
    for wrong in ((window, margin + Q(1, 900)), (window, Q(191, 900)), None):
        monkeypatch.setattr(transmaps.verify, "ball_refute", lambda f, rho, level: wrong)
        assert not transmaps.verify._check_square_slack()


def _raise_key_error():
    raise KeyError("no such window")


def test_verify_says_why_a_check_crashed(capsys, monkeypatch):
    monkeypatch.setitem(
        SUITES, "examples", {"a_crash": _raise_key_error, "b_ok": lambda: True}
    )
    report, ok = run_suite("examples")
    assert not ok
    assert report == (
        "suite: examples\n"
        "a_crash: fail (KeyError: 'no such window')\n"
        "b_ok: pass\n"
        "result: fail\n"
    )
    code, out, _ = run_cli(capsys, "verify", "examples")
    assert (code, out) == (2, report)


def _run_module(tmp_path, *argv):
    src = str(Path(transmaps.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, env=env, cwd=tmp_path
    )


def test_python_dash_m_runs_the_cli(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "make", "sawtooth", "--n", "3")
    assert code == 0 and out
    for module in ("transmaps", "transmaps.cli"):
        proc = _run_module(tmp_path, "-m", module, "make", "sawtooth", "--n", "3")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out.encode()


def test_python_dash_m_exits_two_on_a_failing_suite(tmp_path):
    script = (
        "import runpy, sys\n"
        "from transmaps.verify import SUITES\n"
        "SUITES['examples'] = {'always_false': lambda: False}\n"
        "sys.argv = ['transmaps', 'verify', 'examples']\n"
        "runpy.run_module('transmaps', run_name='__main__')\n"
    )
    proc = _run_module(tmp_path, "-c", script)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b"suite: examples\nalways_false: fail\nresult: fail\n"


def test_extension_suite_builds_its_extension_once(monkeypatch):
    calls = []

    def counting_extend(*args):
        calls.append(args)
        return simplex_extend(*args)

    monkeypatch.setattr(transmaps.verify, "simplex_extend", counting_extend)
    transmaps.verify._reflection_extension.cache_clear()
    try:
        report, ok = run_suite("extension")
    finally:
        transmaps.verify._reflection_extension.cache_clear()
    assert ok, report
    assert len(calls) == 1


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ParameterError):
        run_suite("nosuch")


def test_command_output_is_deterministic(capsys, tmp_path):
    path = write_map(tmp_path, sawtooth(3), "saw3.json")
    invocations = (
        ("boxmap", "--params", "0,1,0,1,20"),
        ("make", "ladder", "--n", "6"),
        ("homotopy", "--map", path, "--t", "1/8"),
        ("certify", "--map", path),
        ("verify", "boxfit"),
    )
    for argv in invocations:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second and first[0] == 0
