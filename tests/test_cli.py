"""Command-line behavior: exit codes, document output, determinism, and
the verify suites it fronts."""
import json

import pytest

from transmaps.boxmap import BoxParams, build_box_map
from transmaps.cli import main
from transmaps.errors import ParameterError
from transmaps.exact import FULL
from transmaps.rational import ONE, Q, ZERO
from transmaps.serialize import map_from_document, map_to_document
from transmaps.spaces import ladder_map, sawtooth, square_map
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
    assert f == build_box_map(FULL, BoxParams(Q(3, 20), Q(1, 10), ZERO, Q(1, 5), Q(20)))
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
    assert json.loads(out)["verdict"] == "certified"

    code, _, err = run_cli(capsys, "certify", "--map", path, "--method", "reach")
    assert code == 1 and "--u" in err


def test_missing_map_file_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "certify", "--map", "/nonexistent.json")
    assert code == 1 and err != ""


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "verify", "nosuch")[0] == 1
    assert run_cli(capsys, "nosuch-command")[0] == 1
    assert run_cli(capsys, "boxmap")[0] == 1


def test_verify_suites_pass(capsys):
    for suite in ("boxfit", "separation", "examples"):
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
