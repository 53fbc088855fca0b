"""Command-line surface: bounds tables, region exports, extremal search,
and the verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
All payloads are pure functions of the flags and seed, so repeated runs
are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .disk import P_MIN, PoleParam
from .errors import HankelBodyError, InvalidInput
from .oracle import verify_all
from .search import (MIN_GRID, OMEGA_MIN_POINTS, RegionSample, estimate_M,
                     estimate_M_batch, sample_omega_boundary, sample_region_H)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _check_p(p: float) -> float:
    if not P_MIN <= p < 1.0:
        raise argparse.ArgumentTypeError(f"p must lie in [{P_MIN:g}, 1), got {p}")
    return p


def _parse_p_list(text: str) -> list[float]:
    try:
        ps = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad p list {text!r}: {exc}") from exc
    if not ps:
        raise argparse.ArgumentTypeError("empty p list")
    return sorted(map(_check_p, ps))


def _parse_p(text: str) -> float:
    try:
        p = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"p must be a number, got {text!r}") from exc
    return _check_p(p)


def _parse_int(flag: str, minimum: int):
    """An argparse type for the integer flag ``--flag``, at least ``minimum``."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{flag} must be an integer, got {text!r}") from exc
        if n < minimum:
            raise argparse.ArgumentTypeError(f"{flag} must be >= {minimum}, got {n}")
        return n
    return parse


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write_text(path: str | None, pieces: list[str]) -> None:
    """Write the text ``"".join(pieces)`` to ``path``, or to stdout for None,
    piece by piece, so that no joined copy of the text is made.  stdout gets
    one ``write`` per piece: a stand-in for it may have no ``writelines``."""
    if path is None:
        for piece in pieces:
            sys.stdout.write(piece)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}") from exc


class _IOFailure(Exception):
    pass


# --- bounds ------------------------------------------------------------------

def _table_cell(v: float, width: int) -> str:
    """``v`` as ``.6f`` padded to ``width``, or as ``.6e`` where the ``.6f``
    text would overrun the column or write a nonzero value as zero."""
    text = f"{v:.6f}"
    if len(text) > width or (v != 0.0 and float(text) == 0.0):
        text = f"{v:.6e}"
    return text.ljust(width)


def cmd_bounds(args) -> int:
    reports = estimate_M_batch([PoleParam(p) for p in args.p], grid=args.grid,
                               refine_iters=args.iters, seed=args.seed)
    rows = [(p, 1.0 / (3.0 * p), report.lower, report.m_estimate,
             report.upper, 1.0 / (3.0 * p) + 2.0 / 3.0)
            for p, report in zip(args.p, reports)]
    header = ("p", "one_third_p", "lower", "m_estimate", "upper", "one_third_p_plus")
    widths = [12, 14, 14, 14, 14, 16]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(_table_cell(v, w) for v, w in zip(row, widths)))
    if args.out:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(repr(float(v)) for v in row))
        _write_text(args.out, ["\n".join(lines) + "\n"])
    return EXIT_OK


# --- region ------------------------------------------------------------------

def _region_rows(omega: RegionSample | None, hank: RegionSample | None):
    rows = []
    if hank is not None:
        rows += [(z.real, z.imag, "cloud") for z in hank.points]
        rows += [(z.real, z.imag, "boundary") for z in hank.boundary]
    if omega is not None:
        rows += [(z.real, z.imag, "omega_boundary") for z in omega.boundary]
    return rows


#: one ``[re, im]`` row as ``json.dumps(..., indent=2)`` writes it in the
#: region document, three levels deep.  ``%s`` of a float is ``float.__repr__``,
#: which is how json writes a finite float.
_JSON_ROW = "      [\n        %s,\n        %s\n      ]"


def _json_rows(z: np.ndarray) -> str:
    """The ``[re, im]`` rows of the complex array ``z``, comma-separated as in
    the region document, formatted in one ``%`` pass."""
    xy = np.ascontiguousarray(z, dtype=np.complex128).view(np.float64)
    vals = xy.tolist()
    if not np.isfinite(xy).all():
        vals = map(json.dumps, vals)  # NaN, Infinity, -Infinity
    return ",\n".join([_JSON_ROW] * (xy.size // 2)) % tuple(vals)


def _json_array(rows: list[str]) -> list[str]:
    """The pieces of a json array whose rows text is ``"".join(rows)``, left
    unjoined so that no array text is copied."""
    return ["[\n", *rows, "\n    ]"] if rows[0] else ["[]"]


#: stands in for a coordinate array in the document skeleton
_HOLE = "\0"


def _region_json_text(omega: RegionSample | None,
                      hank: RegionSample | None) -> list[str]:
    """The pieces of ``json.dumps(doc, indent=2) + "\\n"`` of the region
    document, where each sample is ``{"points": [[re, im], ...], "boundary":
    [...], "meta": {...}}``.

    json's indent encoder is pure Python, so the coordinate arrays are
    formatted here in one pass each and spliced into a skeleton that
    ``json.dumps`` writes with holes in their place.  The pieces are left
    unjoined for ``_write_text``.
    """
    doc, arrays = {}, []
    for name, sample in (("omega", omega), ("hankel", hank)):
        if sample is None:
            doc[name] = None
            continue
        points = np.asarray(sample.points, dtype=np.complex128)
        boundary = np.asarray(sample.boundary, dtype=np.complex128)
        p_rows = _json_rows(points)
        # Omega_p's points are its closed polyline without the closing point
        if points.size and points.tobytes() == boundary[:-1].tobytes():
            b_rows = [p_rows, ",\n", _json_rows(boundary[-1:])]
        else:
            b_rows = [_json_rows(boundary)]
        arrays += [_json_array([p_rows]), _json_array(b_rows)]
        doc[name] = {"points": _HOLE, "boundary": _HOLE, "meta": sample.meta}
    pieces = json.dumps(doc, indent=2).split(json.dumps(_HOLE))
    out = [pieces[0]]
    for array, piece in zip(arrays, pieces[1:]):
        out += [*array, piece]
    out.append("\n")
    return out


_SVG_CIRCLE = '<circle cx="%.6f" cy="%.6f" r="0.006" fill="#4477aa" fill-opacity="0.5"/>'


def _svg_coords(z: np.ndarray) -> tuple[float, ...]:
    """The interleaved ``(x, -y)`` coordinates of ``z``: SVG's y axis points down."""
    return tuple(np.conj(np.asarray(z, dtype=np.complex128)).view(np.float64).tolist())


def _svg_polyline(z: np.ndarray, stroke: str, width: str) -> str:
    xy = _svg_coords(z)
    pts = " ".join(["%.6f,%.6f"] * (len(xy) // 2)) % xy
    return (f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>')


def _region_svg(omega: RegionSample | None, hank: RegionSample | None) -> str:
    # viewport fitted to the unit-disk frame [-1.5, 1.5]^2, y flipped
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.5 -1.5 3 3" '
        'width="600" height="600">',
        '<rect x="-1.5" y="-1.5" width="3" height="3" fill="white"/>',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#bbbbbb" '
        'stroke-width="0.006" stroke-dasharray="0.03,0.03"/>',
    ]
    if hank is not None:
        xy = _svg_coords(hank.points)
        if xy:
            parts.append("\n".join([_SVG_CIRCLE] * (len(xy) // 2)) % xy)
        parts.append(_svg_polyline(hank.boundary, "#4477aa", "0.008"))
    if omega is not None:
        parts.append(_svg_polyline(omega.boundary, "#cc3311", "0.010"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_region(args) -> int:
    pp = PoleParam(args.p)
    omega = hank = None
    if args.what in ("omega", "both"):
        if args.samples < OMEGA_MIN_POINTS:
            raise InvalidInput(f"--samples must be >= {OMEGA_MIN_POINTS} for the "
                               f"Omega boundary, got {args.samples}")
        omega = sample_omega_boundary(pp, n_theta=args.samples)
    if args.what in ("hankel", "both"):
        hank = sample_region_H(pp, n_samples=args.samples, seed=args.seed)
    if args.format == "csv":
        lines = ["re,im,kind"]
        for re, im, kind in _region_rows(omega, hank):
            lines.append(f"{re!r},{im!r},{kind}")
        _write_text(args.out, ["\n".join(lines) + "\n"])
    elif args.format == "svg":
        _write_text(args.out, [_region_svg(omega, hank)])
    else:
        _write_text(args.out, _region_json_text(omega, hank))
    return EXIT_OK


# --- verify ------------------------------------------------------------------

def cmd_verify(args) -> int:
    report = verify_all(p_values=tuple(args.p), n_random=args.samples, seed=args.seed)
    _write_text(args.out, [_dump_json(report)])
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAIL


# --- extremal ----------------------------------------------------------------

def cmd_extremal(args) -> int:
    pp = PoleParam(args.p)
    report = estimate_M(pp, grid=args.grid, refine_iters=args.iters, seed=args.seed)
    sig = report.arg_sigma
    payload = {
        "p": report.p,
        "m_estimate": report.m_estimate,
        "arg_sigma": {
            "moduli": [abs(s) for s in sig],
            "arguments": [float(np.angle(s)) for s in sig],
        },
        "lower": report.lower,
        "upper": report.upper,
        "slice_value": report.lower,
        "iterations": report.iterations,
        "grid": report.grid,
        "seed": args.seed,
    }
    _write_text(args.out, [_dump_json(payload)])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hankelbody",
        description="Coefficient bodies and Hankel-determinant regions for "
                    "concave maps with an interior pole.")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="sandwich table for the extremal modulus")
    b.add_argument("--p", type=_parse_p_list, default=[0.5])
    b.add_argument("--grid", type=_parse_int("grid", MIN_GRID), default=24)
    b.add_argument("--iters", type=_parse_int("iters", 0), default=200)
    b.add_argument("--seed", type=_parse_int("seed", 0), default=1)
    b.add_argument("--out", default=None, help="optional CSV path")
    b.set_defaults(func=cmd_bounds)

    r = sub.add_parser("region", help="export region samples")
    r.add_argument("--p", type=_parse_p, default=0.5)
    r.add_argument("--what", choices=("omega", "hankel", "both"), default="both")
    r.add_argument("--samples", type=_parse_int("samples", 1), default=1000)
    r.add_argument("--seed", type=_parse_int("seed", 0), default=1)
    r.add_argument("--format", choices=("csv", "svg", "json"), default="csv")
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_region)

    v = sub.add_parser("verify", help="run the invariant families")
    v.add_argument("--p", type=_parse_p_list, default=[0.2, 0.5, 0.8])
    v.add_argument("--samples", type=_parse_int("samples", 1), default=1000)
    v.add_argument("--seed", type=_parse_int("seed", 0), default=1)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("extremal", help="single-p extremal search report")
    e.add_argument("--p", type=_parse_p, default=0.5)
    e.add_argument("--grid", type=_parse_int("grid", MIN_GRID), default=24)
    e.add_argument("--iters", type=_parse_int("iters", 0), default=200)
    e.add_argument("--seed", type=_parse_int("seed", 0), default=1)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_extremal)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except _IOFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO
    except HankelBodyError as exc:
        print(f"hankelbody {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
