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

from .disk import PoleParam
from .errors import HankelBodyError
from .hankel import h_p, lower_bound_M, upper_bound_M
from .oracle import verify_all
from .search import RegionSample, estimate_M, sample_omega_boundary, sample_region_H

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _parse_p_list(text: str) -> list[float]:
    try:
        ps = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad p list {text!r}: {exc}") from exc
    if not ps:
        raise argparse.ArgumentTypeError("empty p list")
    for p in ps:
        if not 0.0 < p < 1.0:
            raise argparse.ArgumentTypeError(f"p must lie in (0,1), got {p}")
    return sorted(ps)


def _parse_p(text: str) -> float:
    p = float(text)
    if not 0.0 < p < 1.0:
        raise argparse.ArgumentTypeError(f"p must lie in (0,1), got {p}")
    return p


def _parse_samples(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"samples must be >= 1, got {n}")
    return n


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}") from exc


class _IOFailure(Exception):
    pass


# --- bounds ------------------------------------------------------------------

def cmd_bounds(args) -> int:
    rows = []
    for p in args.p:
        pp = PoleParam(p)
        report = estimate_M(pp, grid=args.grid, refine_iters=args.iters, seed=args.seed)
        rows.append((p, 1.0 / (3.0 * p), lower_bound_M(pp), report.m_estimate,
                     upper_bound_M(pp), 1.0 / (3.0 * p) + 2.0 / 3.0))
    header = ("p", "one_third_p", "lower", "m_estimate", "upper", "one_third_p_plus")
    widths = [12, 14, 14, 14, 14, 16]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(f"{v:.6f}".ljust(w) for v, w in zip(row, widths)))
    if args.out:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(repr(float(v)) for v in row))
        _write_text(args.out, "\n".join(lines) + "\n")
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


def _region_svg(omega, hank) -> str:
    # viewport fitted to the unit-disk frame [-1.5, 1.5]^2, y flipped
    def xy(z):
        return f"{z.real:.6f},{-z.imag:.6f}"

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.5 -1.5 3 3" '
        'width="600" height="600">',
        '<rect x="-1.5" y="-1.5" width="3" height="3" fill="white"/>',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#bbbbbb" '
        'stroke-width="0.006" stroke-dasharray="0.03,0.03"/>',
    ]
    if hank is not None:
        for z in hank.points:
            parts.append(
                f'<circle cx="{z.real:.6f}" cy="{-z.imag:.6f}" r="0.006" '
                'fill="#4477aa" fill-opacity="0.5"/>')
        pts = " ".join(xy(z) for z in hank.boundary)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#4477aa" '
                     'stroke-width="0.008"/>')
    if omega is not None:
        pts = " ".join(xy(z) for z in omega.boundary)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#cc3311" '
                     'stroke-width="0.010"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _region_json(omega, hank) -> dict:
    def encode(sample):
        if sample is None:
            return None
        return {
            "points": [[z.real, z.imag] for z in sample.points],
            "boundary": [[z.real, z.imag] for z in sample.boundary],
            "meta": sample.meta,
        }

    return {"omega": encode(omega), "hankel": encode(hank)}


def cmd_region(args) -> int:
    pp = PoleParam(args.p)
    omega = hank = None
    if args.what in ("omega", "both"):
        omega = sample_omega_boundary(pp, n_theta=args.samples)
    if args.what in ("hankel", "both"):
        hank = sample_region_H(pp, n_samples=args.samples, seed=args.seed)
    if args.format == "csv":
        lines = ["re,im,kind"]
        for re, im, kind in _region_rows(omega, hank):
            lines.append(f"{re!r},{im!r},{kind}")
        _write_text(args.out, "\n".join(lines) + "\n")
    elif args.format == "svg":
        _write_text(args.out, _region_svg(omega, hank))
    else:
        _write_text(args.out, _dump_json(_region_json(omega, hank)))
    return EXIT_OK


# --- verify ------------------------------------------------------------------

def cmd_verify(args) -> int:
    report = verify_all(p_values=tuple(args.p), n_random=args.samples, seed=args.seed)
    _write_text(args.out, _dump_json(report))
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
        "slice_value": h_p(pp, 7.0 / (4.0 * pp.P)),
        "iterations": report.iterations,
        "grid": report.grid,
        "seed": args.seed,
    }
    _write_text(args.out, _dump_json(payload))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hankelbody",
        description="Coefficient bodies and Hankel-determinant regions for "
                    "concave maps with an interior pole.")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="sandwich table for the extremal modulus")
    b.add_argument("--p", type=_parse_p_list, default=[0.5])
    b.add_argument("--grid", type=int, default=24)
    b.add_argument("--iters", type=int, default=200)
    b.add_argument("--seed", type=int, default=1)
    b.add_argument("--out", default=None, help="optional CSV path")
    b.set_defaults(func=cmd_bounds)

    r = sub.add_parser("region", help="export region samples")
    r.add_argument("--p", type=_parse_p, default=0.5)
    r.add_argument("--what", choices=("omega", "hankel", "both"), default="both")
    r.add_argument("--samples", type=int, default=1000)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--format", choices=("csv", "svg", "json"), default="csv")
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_region)

    v = sub.add_parser("verify", help="run the invariant families")
    v.add_argument("--p", type=_parse_p_list, default=[0.2, 0.5, 0.8])
    v.add_argument("--samples", type=_parse_samples, default=1000)
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("extremal", help="single-p extremal search report")
    e.add_argument("--p", type=_parse_p, default=0.5)
    e.add_argument("--grid", type=int, default=24)
    e.add_argument("--iters", type=int, default=200)
    e.add_argument("--seed", type=int, default=1)
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
