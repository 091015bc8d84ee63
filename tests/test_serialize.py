"""Document round trips, scalar grammar, and plot determinism."""
import json
import random

import pytest

from transmaps.corpus import random_curve_map, random_pl_map
from transmaps.errors import DomainError, ParameterError
from transmaps.exact import CurveMap, Interval, IntervalSet, PLMap
from transmaps.rational import ONE, Q, ZERO
from transmaps.serialize import (
    document_to_json,
    map_from_document,
    map_to_document,
    parse_scalar,
    verdict_to_document,
)
from transmaps.spaces import identity_map, sawtooth, square_map
from transmaps.svg import render_svg, write_svg
from transmaps.transitivity import Verdict


def test_scalar_grammar():
    assert parse_scalar("3/20") == Q(3, 20)
    assert parse_scalar("-2") == Q(-2)
    assert parse_scalar("5") == Q(5)
    for bad in ("1.5", "3/0", "1/2/3", "+3", "", "a", "1/-2", 7, None):
        with pytest.raises(ParameterError):
            parse_scalar(bad)


def test_pl_round_trip_preserves_type_and_value():
    rng = random.Random(401)
    for _ in range(10):
        f = random_pl_map(rng)
        g = map_from_document(map_to_document(f))
        assert isinstance(g, PLMap)
        assert g == f


def test_curve_round_trip():
    rng = random.Random(402)
    for _ in range(5):
        f = random_curve_map(rng)
        g = map_from_document(map_to_document(f))
        assert g.pieces == f.pieces
        assert isinstance(g, PLMap) == f.is_pl


def test_encode_decode_is_identity_on_documents():
    doc = map_to_document(sawtooth(4))
    assert map_to_document(map_from_document(doc)) == doc


def test_document_validation():
    with pytest.raises(ParameterError):
        map_from_document("not an object")
    with pytest.raises(ParameterError):
        map_from_document({"version": 2, "pieces": []})
    with pytest.raises(ParameterError):
        map_from_document({"version": 1, "pieces": []})
    with pytest.raises(ParameterError):
        map_from_document({"version": 1, "pieces": [{"x0": "0"}]})
    # True == 1 == 1.0, but only the integer 1 names the version
    good = map_to_document(sawtooth(3))
    for version in (True, 1.0):
        with pytest.raises(ParameterError):
            map_from_document({**good, "version": version})
    # well-formed entries that do not glue into a continuous map
    jump = {
        "version": 1,
        "pieces": [
            {"x0": "0", "x1": "1/2", "c0": "0", "c1": "0", "c2": "0"},
            {"x0": "1/2", "x1": "1", "c0": "1", "c1": "0", "c2": "0"},
        ],
    }
    with pytest.raises(DomainError):
        map_from_document(jump)


def test_verdict_documents_carry_witness_iff_refuted():
    certified = verdict_to_document(Verdict.certified(), {"method": "pipeline"})
    assert certified["verdict"] == "certified"
    assert "witness" not in certified and "budget" not in certified

    witness = IntervalSet((Interval(ZERO, Q(1, 2)),))
    refuted = verdict_to_document(
        Verdict.refuted(identity_map(), witness), {"grid_level": 4}
    )
    assert refuted["witness"] == [["0", "1/2"]]
    assert refuted["parameters"] == {"grid_level": 4}

    inconclusive = verdict_to_document(Verdict.inconclusive(200), {})
    assert inconclusive["budget"] == 200
    json.loads(document_to_json(inconclusive))


def test_json_form_is_canonical():
    text = document_to_json(map_to_document(sawtooth(3)))
    assert text.endswith("\n")
    assert text == document_to_json(map_to_document(sawtooth(3)))
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


def test_svg_layout_frozen_corners():
    svg = render_svg(sawtooth(3))
    assert svg.startswith("<svg ")
    assert 'width="800" height="800"' in svg
    # (0, 0) lands at pixel (40, 760): origin bottom-left after the flip
    assert '<path d="M 40.000 760.000 L' in svg
    assert svg == render_svg(sawtooth(3))


def test_svg_samples_quadratics():
    svg = render_svg(square_map())
    curve = [line for line in svg.splitlines() if "<path" in line]
    assert len(curve) == 1
    assert curve[0].count("L ") == 255


def test_write_svg(tmp_path):
    target = tmp_path / "map.svg"
    write_svg(sawtooth(3), target)
    assert target.read_text().startswith("<svg ")
