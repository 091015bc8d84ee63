"""JSON documents for maps and verdicts.

Scalars cross the boundary as canonical strings, "p/q" in lowest terms
or a bare integer, never as binary floats; documents are emitted with
sorted keys and a trailing newline so identical inputs produce
byte-identical files.

``document_to_json`` writes a document with a writer of its own whose
text is byte for byte ``json.dumps(doc, indent=2, sort_keys=True)``
plus a newline, the form ``python -m json.tool --indent 2 --sort-keys``
prints.  With ``indent`` set, ``json`` encodes through its pure-Python
generators; the writer instead makes one recursive pass, escapes every
string with ``json``'s own C escaper and hands every other leaf (ints,
bools, ``None``, floats) to ``json.dumps``.  A list of flat string
dicts that share their keys, such as a map's ``pieces``, is written
from one template in one formatting call.  A dict with a key that is
not a string is written by ``json.dumps`` itself, re-indented.
"""
from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _quote
from typing import Mapping

from .errors import ParameterError
from .exact import CurveMap, Interval, IntervalSet, Piece
from .rational import Q, scalar_str
from .transitivity import Verdict

__all__ = [
    "MAP_VERSION",
    "parse_scalar",
    "map_to_document",
    "map_from_document",
    "verdict_to_document",
    "reach_to_document",
    "document_to_json",
]

MAP_VERSION = 1

_SCALAR = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def parse_scalar(text) -> Q:
    """Inverse of scalar_str: the whole text must be an optional minus,
    ASCII digits and an optional "/" with a positive denominator.  Leading
    zeros and unreduced fractions ("007", "2/4"), which scalar_str never
    writes, are accepted and read as their value."""
    if not isinstance(text, str) or not _SCALAR.fullmatch(text):
        raise ParameterError(f"not a rational literal: {text!r}")
    try:
        return Q(text)
    except ValueError as e:  # the Fraction backend's int-string digit limit
        raise ParameterError(f"cannot read rational literal: {e}") from None


def map_to_document(f: CurveMap) -> dict:
    return {
        "version": MAP_VERSION,
        "pieces": [
            {
                "x0": scalar_str(p.domain.lo),
                "x1": scalar_str(p.domain.hi),
                "c0": scalar_str(p.c0),
                "c1": scalar_str(p.c1),
                "c2": scalar_str(p.c2),
            }
            for p in f.pieces
        ],
    }


def map_from_document(doc) -> CurveMap:
    """Decode a map document, validating every piece and the map."""
    if not isinstance(doc, dict):
        raise ParameterError("map document must be a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != MAP_VERSION:  # True == 1 == 1.0
        raise ParameterError(f"unsupported document version {version!r}")
    raw = doc.get("pieces")
    if not isinstance(raw, list) or not raw:
        raise ParameterError("map document needs a nonempty piece list")
    pieces = []
    for entry in raw:
        if not isinstance(entry, dict) or set(entry) != {"x0", "x1", "c0", "c1", "c2"}:
            raise ParameterError(f"malformed piece entry: {entry!r}")
        pieces.append(
            Piece(
                Interval(parse_scalar(entry["x0"]), parse_scalar(entry["x1"])),
                parse_scalar(entry["c0"]),
                parse_scalar(entry["c1"]),
                parse_scalar(entry["c2"]),
            )
        )
    return CurveMap(tuple(pieces))


def _encode_parameter(value):
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, Interval):
        return [scalar_str(value.lo), scalar_str(value.hi)]
    return scalar_str(value)


def _encode_parameters(parameters: Mapping[str, object]) -> dict:
    return {k: _encode_parameter(v) for k, v in sorted(parameters.items())}


def _encode_set(s: IntervalSet) -> list:
    return [[scalar_str(c.lo), scalar_str(c.hi)] for c in s.components]


def verdict_to_document(verdict: Verdict, parameters: Mapping[str, object]) -> dict:
    doc = {"verdict": verdict.status, "parameters": _encode_parameters(parameters)}
    if verdict.witness is not None:
        doc["witness"] = _encode_set(verdict.witness)
    if verdict.budget is not None:
        doc["budget"] = verdict.budget
    return doc


def reach_to_document(
    reach: bool, image: IntervalSet, parameters: Mapping[str, object]
) -> dict:
    """A reachability answer: whether the image meets the target, and the
    image itself.  It carries no verdict, since reaching (or missing) one
    target proves nothing about transitivity."""
    return {
        "parameters": _encode_parameters(parameters),
        "reach": reach,
        "image": _encode_set(image),
    }


def document_to_json(doc) -> str:
    out: list[str] = []
    _write(doc, "\n", out, set())
    out.append("\n")
    return "".join(out)


def _write(value, indent: str, out: list, open_ids: set) -> None:
    """Append value's text; indent is a newline and the spaces that start
    the line value begins on, and open_ids holds the ids of the containers
    value sits in.  The type tests are ``json``'s own."""
    if isinstance(value, str):
        out.append(_quote(value))
        return
    if not isinstance(value, (dict, list, tuple)):
        out.append(json.dumps(value))
        return
    if not value:
        out.append("{}" if isinstance(value, dict) else "[]")
        return
    if isinstance(value, dict) and not all(isinstance(key, str) for key in value):
        text = json.dumps(value, indent=2, sort_keys=True)
        out.append(text.replace("\n", indent))  # escaped text holds no newline
        return
    if id(value) in open_ids:
        raise ValueError("Circular reference detected")  # json's error
    open_ids.add(id(value))
    inner = indent + "  "
    if isinstance(value, dict):
        head = "{"
        for key in sorted(value):
            out.append(f"{head}{inner}{_quote(key)}: ")
            _write(value[key], inner, out, open_ids)
            head = ","
        out.append(indent + "}")
    else:
        rows = _flat_rows(value, inner)
        if rows is not None:
            out.append(f"[{inner}{rows}{indent}]")
        else:
            head = "["
            for item in value:
                out.append(head + inner)
                _write(item, inner, out, open_ids)
                head = ","
            out.append(indent + "]")
    open_ids.remove(id(value))


def _flat_rows(rows, indent: str):
    """The entries of rows written at indent, when every entry is a
    nonempty dict with the first one's string keys and only str values;
    None otherwise."""
    first = rows[0]
    if not isinstance(first, dict) or not first:
        return None
    keys = first.keys()
    if not all(isinstance(key, str) for key in keys):
        return None
    if not all(isinstance(row, dict) and row.keys() == keys for row in rows):
        return None
    order = sorted(keys)
    values = [row[key] for row in rows for key in order]
    if not all(isinstance(v, str) for v in values):
        return None
    inner = indent + "  "
    # keys are escaped into the template, so a '%' in one is doubled
    row = ",".join(f"{inner}{_quote(key).replace('%', '%%')}: %s" for key in order)
    template = f",{indent}".join(["{" + row + indent + "}"] * len(rows))
    return template % tuple(map(_quote, values))
