"""Document round trips, scalar grammar, the JSON writer, and plot determinism."""
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transmaps.corpus import random_curve_map, random_pl_map, random_surjective_pl
from transmaps.errors import DomainError, ParameterError
from transmaps.exact import CurveMap, Interval, IntervalSet
from transmaps.homotopy import apply_homotopy
from transmaps.rational import ONE, Q, ZERO
from transmaps.serialize import (
    document_to_json,
    map_from_document,
    map_to_document,
    parse_scalar,
    reach_to_document,
    verdict_to_document,
)
from transmaps.spaces import identity_map, ladder_map, sawtooth, square_map
from transmaps.svg import render_svg, write_svg
from transmaps.transitivity import Verdict


def test_scalar_grammar():
    assert parse_scalar("3/20") == Q(3, 20)
    assert parse_scalar("-2") == Q(-2)
    assert parse_scalar("5") == Q(5)
    for bad in ("1.5", "3/0", "1/2/3", "+3", "", "a", "1/-2", 7, None):
        with pytest.raises(ParameterError):
            parse_scalar(bad)


def test_scalar_grammar_is_the_whole_text_in_ascii_digits():
    # a trailing newline and non-ASCII decimal digits are nothing
    # scalar_str writes, so a document holding them is refused
    for bad in ("1/2\n", "1\n", "\u0663", "-\u0663/7", "1/\u0667", "\uff11"):
        with pytest.raises(ParameterError):
            parse_scalar(bad)
    # leading zeros and unreduced fractions stay accepted, read as values
    assert parse_scalar("007") == Q(7)
    assert parse_scalar("-2/4") == Q(-1, 2)


def test_document_with_a_newline_in_a_literal_is_refused():
    doc = map_to_document(identity_map())
    assert map_from_document(doc) == identity_map()
    doc["pieces"][0]["x1"] = "1\n"
    with pytest.raises(ParameterError):
        map_from_document(doc)


def test_pl_round_trip_preserves_type_and_value():
    rng = random.Random(401)
    for _ in range(10):
        f = random_pl_map(rng)
        g = map_from_document(map_to_document(f))
        assert type(g) is CurveMap and g.is_pl
        assert g == f


def test_curve_round_trip():
    rng = random.Random(402)
    for _ in range(5):
        f = random_curve_map(rng)
        g = map_from_document(map_to_document(f))
        assert g.pieces == f.pieces
        assert g == f and g.is_pl == f.is_pl


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


# -- the JSON writer against json.dumps -----------------------------------------


def document_to_json_reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# escapes, '%' (the row template is %-formatted) and non-ASCII text
_CHARS = st.one_of(
    st.sampled_from('%s"\\\n\t/ ab\u00e9\u2028\U0001f600'), st.characters()
)
_TEXT = st.text(_CHARS, max_size=6)
_LEAVES = st.one_of(
    _TEXT, st.integers(), st.booleans(), st.none(), st.floats(allow_nan=False)
)


@st.composite
def flat_rows(draw, uniform=True):
    """Nonempty dicts sharing one key set, with str values; unless uniform,
    one entry then gets a key more or less, or a value that is not a str."""
    keys = draw(st.lists(_TEXT, min_size=1, max_size=5, unique=True))
    rows = draw(
        st.lists(st.fixed_dictionaries({k: _TEXT for k in keys}), min_size=1, max_size=6)
    )
    if not uniform:
        row = dict(draw(st.sampled_from(rows)))
        change = draw(st.sampled_from(("add", "drop", "value")))
        if change == "add":
            row[draw(_TEXT.filter(lambda k: k not in keys))] = draw(_TEXT)
        elif change == "drop":
            del row[draw(st.sampled_from(keys))]
        else:
            row[draw(st.sampled_from(keys))] = draw(
                st.one_of(st.integers(), st.booleans(), st.none(), st.lists(_TEXT))
            )
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


_DOCUMENTS = st.recursive(
    st.one_of(_LEAVES, flat_rows(), flat_rows().map(tuple), flat_rows(uniform=False)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(_DOCUMENTS)
def test_document_to_json_matches_json_dumps(doc):
    assert document_to_json(doc) == document_to_json_reference(doc)


def test_document_to_json_edge_documents():
    for doc in (
        {},
        [],
        (),
        "",
        0,
        None,
        {"a": {}, "b": [], "c": ()},
        [{}],
        [{}, {}],
        [{"a": "1"}, {}],
        [{"a": "1"}, {"a": "2", "b": "3"}],
        [{"a": "1"}, ["a"]],
        [{"%": "%s", "%(x)s": "%%"}, {"%": "", "%(x)s": "%d"}],
        [{"k": "v"}, {"k": "w"}, {"k": 1}],
        {"n": [1, True, None, 1.5, -0.0, 10**30]},
        {1: "int key", 2: ["x"]},  # json's own key conversion
        {"outer": {1.5: {"x": "y"}, 2: [], True: "t"}},
    ):
        assert document_to_json(doc) == document_to_json_reference(doc), doc


def test_document_to_json_raises_as_json_does():
    for doc in ({"a": object()}, [{"a": "b"}, {"a": Q(1, 2)}], {"outer": {1: 2, "x": 3}}):
        with pytest.raises(TypeError):
            document_to_json_reference(doc)
        with pytest.raises(TypeError):
            document_to_json(doc)


def test_document_to_json_refuses_a_cycle_as_json_does():
    doc = {"a": [{"b": "c"}]}
    doc["a"].append(doc)
    for write in (document_to_json_reference, document_to_json):
        with pytest.raises(ValueError, match="Circular reference"):
            write(doc)


def library_maps(rng):
    return [
        identity_map(),
        square_map(),
        sawtooth(3),
        ladder_map(5),
        apply_homotopy(sawtooth(3), Q(1, 8), Q(20)),
        random_pl_map(rng),
        random_curve_map(rng),
        random_surjective_pl(rng),
    ]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_library_documents_match_json_dumps(seed):
    maps = library_maps(random.Random(seed))
    witness = IntervalSet((Interval(ZERO, Q(1, 4)), Interval(Q(1, 2), ONE)))
    parameters = {
        "method": "reach",
        "u": Interval(ZERO, Q(1, 8)),
        "n": 3,
        "flag": True,
        "t": Q(1, 16),
    }
    docs = [map_to_document(f) for f in maps]
    docs += [
        {"version": 1, "frames": docs[:]},
        verdict_to_document(Verdict.certified(), {"method": "pipeline"}),
        verdict_to_document(Verdict.refuted(identity_map(), witness), parameters),
        verdict_to_document(Verdict.inconclusive(200), {"grid_level": 4, "n_max": 200}),
        reach_to_document(True, witness, parameters),
        reach_to_document(False, IntervalSet(()), parameters),
    ]
    for doc in docs:
        assert document_to_json(doc) == document_to_json_reference(doc)


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
