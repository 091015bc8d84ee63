"""Command-line surface.

Subcommands: ``boxmap`` builds a standalone box map, ``make`` emits the
named stock maps, ``homotopy`` deforms a map file, ``certify`` runs one
of the transitivity checkers (or, with ``--method reach``, answers whether
f^n(u) meets v), ``verify`` runs a self-check suite.  All
map output is the canonical JSON document form; exit codes are 0 for
success (including refuted/inconclusive verdicts), 1 for usage or input
errors, 2 for a failing verify suite.
"""
from __future__ import annotations

import argparse
import json
import sys
from itertools import accumulate
from pathlib import Path

from .boxmap import BoxParams, _max_legs, build_box_map
from .errors import CertificateError, DomainError, ParameterError, PreconditionError
from .exact import CurveMap, Interval, _MAX_PIECES
from .homotopy import apply_homotopy
from .rational import Q
from .serialize import (
    document_to_json,
    map_from_document,
    map_to_document,
    parse_scalar,
    reach_to_document,
    verdict_to_document,
)
from .spaces import identity_map, ladder_map, sawtooth, square_map
from .svg import write_svg
from .transitivity import (
    invariant_region_refute,
    is_transitive_pipeline,
    leo_certify,
    reach_image,
)
from .verify import SUITES, run_suite

__all__ = ["main"]

_INPUT_ERRORS = (
    ParameterError,
    DomainError,
    PreconditionError,
    CertificateError,
    OSError,
    json.JSONDecodeError,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; the contract
    # reserves 2 for failing verify suites
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _scalar_arg(text: str) -> Q:
    try:
        return parse_scalar(text)
    except ParameterError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _interval_arg(text: str) -> Interval:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'lo,hi', got {text!r}")
    try:
        return Interval(parse_scalar(parts[0]), parse_scalar(parts[1]))
    except (ParameterError, DomainError) as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _params_arg(text: str) -> BoxParams:
    parts = text.split(",")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(
            f"expected 'left,right,bottom,top,expansion', got {text!r}"
        )
    try:
        return BoxParams(*(parse_scalar(p) for p in parts))
    except (ParameterError, DomainError) as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="ascii")


def _load_map(path: str) -> CurveMap:
    try:
        with open(path, encoding="ascii") as handle:
            document = json.load(handle)
    except UnicodeDecodeError:
        raise ParameterError(f"{path}: a map document must be ASCII") from None
    except RecursionError:
        raise ParameterError(f"{path}: the document nests too deeply") from None
    return map_from_document(document)


def _emit_map(f: CurveMap, out: str | None, svg: str | None) -> None:
    _emit(document_to_json(map_to_document(f)), out)
    if svg is not None:
        write_svg(f, svg)


def _cmd_boxmap(args) -> int:
    _emit_map(build_box_map(args.params), args.out, args.svg)
    return 0


_STOCK = {
    "identity": lambda n: identity_map(),
    "square": lambda n: square_map(),
    "sawtooth": sawtooth,
    "ladder": ladder_map,
}


def _cmd_make(args) -> int:
    if args.name in ("sawtooth", "ladder") and args.n is None:
        raise ParameterError(f"'{args.name}' needs --n")
    _emit_map(_STOCK[args.name](args.n), args.out, args.svg)
    return 0


def _cmd_homotopy(args) -> int:
    f = _load_map(args.map)
    if args.frames is None:
        _emit_map(apply_homotopy(f, args.t, args.gamma), args.out, args.svg)
        return 0
    if args.frames < 1:
        raise ParameterError("--frames must be at least 1")
    _check_frames(f, args.t, args.gamma, args.frames)
    docs = [
        map_to_document(apply_homotopy(f, args.t * Q(k, args.frames), args.gamma))
        for k in range(args.frames + 1)
    ]
    _emit(document_to_json({"version": 1, "frames": docs}), args.out)
    return 0


def _check_frames(f: CurveMap, t: Q, gamma: Q, frames: int) -> None:
    """Refuse frames of more than ``_MAX_PIECES`` pieces in total, before
    any is built: frame 0 is f, and frame k has at most ``_max_legs(gamma)``
    legs in each of the ceil(1 / step) windows of its step t * k / frames.
    Each frame has a piece, so the frame count is checked first."""
    p, q, legs = t.numerator, t.denominator, _max_legs(gamma)
    sizes = (-(-q * frames // (p * k)) * legs if p * k > 0 else len(f.pieces)
             for k in range(frames + 1))
    if frames >= _MAX_PIECES or any(n > _MAX_PIECES for n in accumulate(sizes)):
        raise ParameterError(f"{frames + 1} frames of over {_MAX_PIECES} pieces above the cap")


def _reach_document(f: CurveMap, args) -> dict:
    """Whether f^n(u) meets v, with f^n(u) itself; a reachability answer,
    not a transitivity verdict."""
    for name in ("u", "v"):
        if getattr(args, name) is None:
            raise ParameterError(f"method 'reach' needs --{name}")
    if args.n is None:
        raise ParameterError("method 'reach' needs --n")
    if args.n >= 1 and args.v.is_degenerate():  # reach_image refuses n < 1 itself
        raise ParameterError("need nondegenerate intervals")
    parameters = {"method": "reach", "u": args.u, "v": args.v, "n": args.n}
    image = reach_image(f, args.u, args.n)
    return reach_to_document(image.intersects_interval(args.v), image, parameters)


def _cmd_certify(args) -> int:
    f = _load_map(args.map)
    if args.method == "reach":
        _emit(document_to_json(_reach_document(f, args)), args.out)
        return 0
    if args.method == "pipeline":
        verdict, parameters = is_transitive_pipeline(f), {"method": "pipeline"}
    elif args.method == "leo":
        verdict = leo_certify(f, args.grid_level, args.n_max)
        parameters = {
            "method": "leo", "grid_level": args.grid_level, "n_max": args.n_max,
        }
    else:
        verdict = invariant_region_refute(f, args.grid_level, args.n_max)
        parameters = {
            "method": "refute", "grid_level": args.grid_level, "n_max": args.n_max,
        }
    _emit(document_to_json(verdict_to_document(verdict, parameters)), args.out)
    return 0


def _cmd_verify(args) -> int:
    report, ok = run_suite(args.suite)
    sys.stdout.write(report)
    return 0 if ok else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="transmaps", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("boxmap", parents=[], help="build a standalone box map")
    p.add_argument("--params", type=_params_arg, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(run=_cmd_boxmap)

    p = sub.add_parser("make", help="emit a stock map as a document")
    p.add_argument("name", choices=sorted(_STOCK))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(run=_cmd_make)

    p = sub.add_parser("homotopy", help="deform a map file")
    p.add_argument("--map", required=True)
    p.add_argument("--t", type=_scalar_arg, required=True)
    p.add_argument("--gamma", type=_scalar_arg, default=Q(20))
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(run=_cmd_homotopy)

    p = sub.add_parser("certify", help="run a transitivity checker")
    p.add_argument("--map", required=True)
    p.add_argument(
        "--method", choices=("pipeline", "leo", "refute", "reach"), default="pipeline"
    )
    p.add_argument("--grid-level", type=int, default=4)
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--u", type=_interval_arg, default=None)
    p.add_argument("--v", type=_interval_arg, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_certify)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.set_defaults(run=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _INPUT_ERRORS as e:
        print(f"transmaps: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
