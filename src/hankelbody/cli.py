"""Command-line surface: bounds tables, region exports, the extremal
modulus, and the verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
All payloads are pure functions of the flags and seed, so repeated runs
are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
import tempfile
from typing import Iterable, Iterator

import numpy as np

from . import floattext
from .disk import PoleParam
from .errors import InvalidInput
from .hankel import lower_bound_M, upper_bound_M
from .oracle import verify_all
from .search import (OMEGA_MIN_POINTS, RegionSample, estimate_M, sample_omega_boundary,
                     sample_region_H)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

#: the largest --samples whose arrays' sizes in bytes fit an intp: 48 bytes a sample
#: in the largest array of region and verify, verify's (samples, 3) complex
#: ``sample_polydisk`` parameters (region draws them a chunk at a time and holds
#: about 24 bytes a sample of values).  No grid sweep is left for --grid to size;
#: it keeps the range [_GRID_MIN, _MAX_SIZE["grid"]] that the sweep's
#: (7 grid + 1)**2 points of 16 bytes set, so that every argv keeps its exit code
_INTP_MAX = np.iinfo(np.intp).max
_MAX_SIZE = {"samples": _INTP_MAX // 48, "grid": (math.isqrt(_INTP_MAX // 16) - 1) // 7}
_GRID_MIN = 8
#: the help of the flags that ``extremal`` and ``bounds`` still parse and check
_NO_EFFECT = "parsed and checked, but no longer changes the answer"


def _parse_p(text: str) -> float:
    try:
        return PoleParam(float(text)).p
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"p must be a number, got {text!r}") from exc
    except InvalidInput as exc:  # PoleParam's range rule
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_p_list(text: str) -> list[float]:
    ps = [_parse_p(tok) for tok in text.split(",") if tok.strip()]
    if not ps:
        raise argparse.ArgumentTypeError("empty p list")
    return sorted(ps)


def _parse_int(flag: str, minimum: int):
    """An argparse type for the integer flag ``--flag``, at least ``minimum``
    and, for a size flag, at most ``_MAX_SIZE[flag]``."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{flag} must be an integer, got {text!r}") from exc
        if n < minimum:
            raise argparse.ArgumentTypeError(f"{flag} must be >= {minimum}, got {n}")
        if n > _MAX_SIZE.get(flag, n):
            raise argparse.ArgumentTypeError(f"{flag} must be <= {_MAX_SIZE[flag]}, got {n}")
        return n
    return parse


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write_text(path: str | None, pieces: Iterable[str]) -> None:
    """Write the text ``"".join(pieces)`` to ``path``, or to stdout for None,
    one ``write`` per piece, so that no joined copy of the text is made.

    ``pieces`` may be a generator: its pieces are then formed after ``path``
    is opened, and an error in one leaves the pieces before it written."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8")) as fh:
        for piece in pieces:
            fh.write(piece)


# --- bounds ------------------------------------------------------------------

def _table_cell(v: float, width: int) -> str:
    """``v`` as ``.6f`` padded to ``width``, or as ``.6e`` where the ``.6f``
    text would overrun the column or write a nonzero value as zero."""
    text = f"{v:.6f}"
    if len(text) > width or (v != 0.0 and float(text) == 0.0):
        text = f"{v:.6e}"
    return text.ljust(width)


def cmd_bounds(args) -> int:
    pps = [PoleParam(p) for p in args.p]
    rows = [(pp.p, 1.0 / (3.0 * pp.p), lower_bound_M(pp),
             estimate_M(pp).m_estimate,
             upper_bound_M(pp), 1.0 / (3.0 * pp.p) + 2.0 / 3.0)
            for pp in pps]
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

#: rows per piece of a region document: a piece is formatted from its own
#: slice, so no text as large as the document is made
_ROWS_PER_PIECE = 4096


def _row_pieces(z: np.ndarray, parts: tuple[str, str, str], sep: str, cells) -> Iterator[str]:
    """``sep.join(parts[0] + x + parts[1] + y + parts[2] for each point of z)``
    in pieces, ``sep`` alone between two pieces, where ``cells(part)`` gives
    the (2n, W) text fields of the interleaved ``x`` and ``y`` cells of the
    points of the slice ``part`` of ``z``."""
    for i in range(0, z.size, _ROWS_PER_PIECE):
        part = z[i:i + _ROWS_PER_PIECE]
        if i:
            yield sep
        fields = cells(part)
        yield floattext.join_rows(parts, (fields[0::2], fields[1::2]), sep)


def _json_cells(z: np.ndarray) -> np.ndarray:
    """json's text of the coordinates of ``z``: ``float.__repr__``, and NaN
    and Infinity for the non-finite values."""
    return floattext.shortest(z.view(np.float64), json.dumps)


def _json_rows(z: np.ndarray) -> Iterator[str]:
    """The ``[re, im]`` rows of the contiguous complex128 array ``z``,
    comma-separated as ``json.dumps(..., indent=2)`` writes them in the
    region document, three levels deep."""
    return _row_pieces(z, ("      [\n        ", ",\n        ", "\n      ]"), ",\n", _json_cells)


def _json_array(rows: Iterable[str], n: int) -> Iterator[str]:
    """The pieces of a json array of ``n`` rows whose text is ``"".join(rows)``."""
    if n:
        yield "[\n"
        yield from rows
        yield "\n    ]"
    else:
        yield "[]"


#: stands in for a coordinate array in the document skeleton
_HOLE = "\0"
#: characters per read of the spooled Omega_p rows
_SPOOL_READ = 2**16


def _spooled(rows: Iterable[str], spool) -> Iterator[str]:
    """``rows``, each written to the text file ``spool`` as it is yielded."""
    for row in rows:
        spool.write(row)
        yield row


def _replayed(spool) -> Iterator[str]:
    """The text of ``spool`` from its start, ``_SPOOL_READ`` characters a piece."""
    spool.seek(0)
    while piece := spool.read(_SPOOL_READ):
        yield piece


def _region_json_text(omega: RegionSample | None,
                      hank: RegionSample | None) -> Iterator[str]:
    """The pieces of ``json.dumps(doc, indent=2) + "\\n"`` of the region
    document, where each sample is ``{"points": [[re, im], ...], "boundary":
    [...], "meta": {...}}``.

    json's indent encoder is pure Python, so the coordinate arrays are
    formatted here, ``_ROWS_PER_PIECE`` rows a piece, between the pieces of
    a skeleton that ``json.dumps`` writes with holes in their place.  Omega_p's
    rows are formatted once: they go to a temporary file as they are yielded,
    and its closed boundary replays that file before its closing row.
    """
    samples = {"omega": omega, "hankel": hank}
    doc = {name: None if sample is None else
           {"points": _HOLE, "boundary": _HOLE, "meta": sample.meta}
           for name, sample in samples.items()}
    skeleton = iter(json.dumps(doc, indent=2).split(json.dumps(_HOLE)))
    yield next(skeleton)
    for sample in samples.values():
        if sample is None:
            continue
        points, boundary = sample.points, sample.boundary
        with contextlib.ExitStack() as stack:
            # Omega_p's points are its closed polyline without the closing point
            if points.size and np.array_equal(points.view(np.uint64),
                                              boundary[:-1].view(np.uint64)):
                spool = stack.enter_context(
                    tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
                p_rows = _spooled(_json_rows(points), spool)
                b_rows = itertools.chain(_replayed(spool), [",\n"], _json_rows(boundary[-1:]))
            else:
                p_rows, b_rows = _json_rows(points), _json_rows(boundary)
            yield from _json_array(p_rows, points.size)
            yield next(skeleton)
            yield from _json_array(b_rows, boundary.size)
        yield next(skeleton)
    yield "\n"


def _svg_cells(z: np.ndarray) -> np.ndarray:
    """``%.6f`` of the interleaved ``(x, -y)`` coordinates of ``z``: SVG's y
    axis points down."""
    return floattext.fixed6(np.conj(z).view(np.float64))


def _svg_polyline(z, stroke: str, width: str) -> Iterator[str]:
    yield '\n<polyline points="'
    yield from _row_pieces(z, ("", ",", ""), " ", _svg_cells)
    yield f'" fill="none" stroke="{stroke}" stroke-width="{width}"/>'


def _region_svg(omega: RegionSample | None, hank: RegionSample | None) -> Iterator[str]:
    """The pieces of the region svg document, ``_ROWS_PER_PIECE`` points a piece."""
    # viewport fitted to the unit-disk frame [-1.5, 1.5]^2, y flipped
    yield ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.5 -1.5 3 3" '
           'width="600" height="600">\n'
           '<rect x="-1.5" y="-1.5" width="3" height="3" fill="white"/>\n'
           '<circle cx="0" cy="0" r="1" fill="none" stroke="#bbbbbb" '
           'stroke-width="0.006" stroke-dasharray="0.03,0.03"/>')
    if hank is not None:
        if hank.points.size:
            yield "\n"
            yield from _row_pieces(hank.points, ('<circle cx="', '" cy="', '" r="0.006" fill="#4477aa" '
                                                 'fill-opacity="0.5"/>'), "\n", _svg_cells)
        yield from _svg_polyline(hank.boundary, "#4477aa", "0.008")
    if omega is not None:
        yield from _svg_polyline(omega.boundary, "#cc3311", "0.010")
    yield "\n</svg>\n"


def _csv_cells(z: np.ndarray) -> np.ndarray:
    """``float.__repr__`` of the coordinates of ``z``.  The csv cells wrap
    them as numpy >= 2 writes the repr of a float64 scalar, as the per-point
    writer wrote them; plain floats wait for ROADMAP item 8."""
    return floattext.shortest(z.view(np.float64))


def _region_csv(omega: RegionSample | None, hank: RegionSample | None) -> Iterator[str]:
    """The pieces of the region csv document, one ``re,im,kind`` row a point."""
    yield "re,im,kind\n"
    arrays = [] if hank is None else [(hank.points, "cloud"), (hank.boundary, "boundary")]
    if omega is not None:
        arrays.append((omega.boundary, "omega_boundary"))
    for z, kind in arrays:
        if z.size:
            yield from _row_pieces(z, ("np.float64(", "),np.float64(", ")," + kind),
                                   "\n", _csv_cells)
            yield "\n"


#: the region writers by ``--format`` name
_DOCUMENTS = {"csv": _region_csv, "svg": _region_svg, "json": _region_json_text}


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
    _write_text(args.out, _DOCUMENTS[args.format](omega, hank))
    return EXIT_OK


# --- verify ------------------------------------------------------------------

def cmd_verify(args) -> int:
    report = verify_all(p_values=tuple(args.p), n_random=args.samples, seed=args.seed)
    _write_text(args.out, [_dump_json(report)])
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAIL


# --- extremal ----------------------------------------------------------------

def cmd_extremal(args) -> int:
    pp = PoleParam(args.p)
    report = estimate_M(pp)
    sig = report.arg_sigma
    payload = {
        "p": report.p,
        "m_estimate": report.m_estimate,
        "arg_sigma": {
            "moduli": [abs(s) for s in sig],
            "arguments": [float(np.angle(s)) for s in sig],
        },
        "lower": lower_bound_M(pp),
        "upper": upper_bound_M(pp),
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
    r = sub.add_parser("region", help="export region samples")
    r.add_argument("--p", type=_parse_p, default=0.5)
    r.add_argument("--what", choices=("omega", "hankel", "both"), default="both")
    r.add_argument("--format", choices=_DOCUMENTS, default="csv")
    v = sub.add_parser("verify", help="run the invariant families")
    v.add_argument("--p", type=_parse_p_list, default=[0.2, 0.5, 0.8])
    e = sub.add_parser("extremal", help="single-p extremal modulus report")
    e.add_argument("--p", type=_parse_p, default=0.5)
    # the flags that subcommands share, each declared once
    for cmd in (b, e):
        cmd.add_argument("--grid", type=_parse_int("grid", _GRID_MIN), default=24,
                         help=_NO_EFFECT)
        cmd.add_argument("--iters", type=_parse_int("iters", 0), default=0,
                         help=_NO_EFFECT)
    for cmd in (r, v):
        cmd.add_argument("--samples", type=_parse_int("samples", 1), default=1000)
    for cmd, func, out_help in ((b, cmd_bounds, "optional CSV path"), (r, cmd_region, None),
                                (v, cmd_verify, None), (e, cmd_extremal, None)):
        cmd.add_argument("--seed", type=_parse_int("seed", 0), default=1,
                         help=_NO_EFFECT if cmd in (b, e) else None)
        cmd.add_argument("--out", default=None, help=out_help)
        cmd.set_defaults(func=func)
    return ap


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """``main``'s parser, built once per process: a parser keeps no state
    between ``parse_args`` calls, and building one costs about a millisecond."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _main_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    # an --out file or stdout (a closed pipe, a full disk) raises OSError
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        code, error = EXIT_IO, exc
        try:  # close stdout if it holds unwritable text: the exit flush would fail (status 120)
            sys.stdout.flush()
        except OSError:
            with contextlib.suppress(OSError):
                sys.stdout.close()
    except (InvalidInput, MemoryError) as exc:
        code, error = EXIT_USAGE, str(exc) or type(exc).__name__
    try:
        print(f"hankelbody {args.command}: error: {error}", file=sys.stderr)
    except OSError:  # a closed stderr: keep the exit code, and leave no text for the exit flush
        with contextlib.suppress(OSError):
            sys.stderr.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
