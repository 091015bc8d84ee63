"""JSON documents for maps and verdicts.

Scalars cross the boundary as canonical strings, "p/q" in lowest terms
or a bare integer, never as binary floats; documents are emitted with
sorted keys and a trailing newline so identical inputs produce
byte-identical files.
"""
from __future__ import annotations

import json
import re
from typing import Mapping

from .errors import ParameterError
from .exact import CurveMap, Interval, IntervalSet, PLMap, Piece
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

_SCALAR = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_scalar(text) -> Q:
    """Inverse of scalar_str, restricted to its exact output grammar."""
    if not isinstance(text, str) or not _SCALAR.match(text):
        raise ParameterError(f"not a rational literal: {text!r}")
    return Q(text)


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
    """Decode a map document; affine-only documents come back piecewise
    linear so encode/decode round-trips preserve the map's type."""
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
    cls = PLMap if all(p.is_affine for p in pieces) else CurveMap
    return cls(tuple(pieces))


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
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
