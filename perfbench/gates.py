"""Correctness gates applied to every benchmark job's output.

Each check takes the bytes a job wrote and the job's request, and returns
the number of items the job completed; it raises ``GateFailure`` when the
output is wrong.  The reference values (the slice polynomial h_p, its exact
maximum, the bound polynomials) are computed here from Phi_p, not taken from
the package, so a transcription error in the package shows as a failure.
"""

from __future__ import annotations

import csv
import io
import json
import re

import numpy as np
from numpy.polynomial import Polynomial

# the CLI prints SVG coordinates with 6 decimals
SVG_TOL = 1e-6
REGION_BINS = 256


class GateFailure(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise GateFailure(msg)


def _P(p):
    return p + 1.0 / p


def h_poly(p: float) -> Polynomial:
    """h_p(t) = -Phi_p(t, -1, 0) / (18 P^3) as a polynomial in t."""
    P = _P(p)
    t = Polynomial([0.0, 1.0])
    m0 = 1.0 - t * t
    t0 = -18.0 * P * (1.0 + (P * P - 2.0) * t + t * t)
    t1 = -3.0 * (1.0 - 7.0 * P * P + 2.0 * P**4 + (3.0 * P * P - 2.0) * t + t * t) * m0
    t2 = -P * (2.0 * m0 + 3.0 * t * (P * P - 1.0 + t)) * m0
    return -(t0 + t1 + t2) / (18.0 * P**3)


def exact_slice_max(p: float) -> float:
    """max over t in [0,1] of |h_p(t)|, from the real roots of h_p'."""
    h = h_poly(p)
    roots = h.deriv().roots()
    real = roots[np.abs(roots.imag) <= 1e-12].real
    cand = np.concatenate(([0.0, 1.0], real[(real >= 0.0) & (real <= 1.0)]))
    return float(np.max(np.abs(h(cand))))


def upper_bound(p: float) -> float:
    P = _P(p)
    return (P * P + 2.0 * P - 2.0) / (3.0 * P)


def lower_bound(p: float) -> float:
    return float(h_poly(p)(7.0 / (4.0 * _P(p))))


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(b))


def _check_estimate(p, m, lower, upper):
    _require(_close(lower, lower_bound(p)), f"p={p}: lower {lower} != {lower_bound(p)}")
    _require(_close(upper, upper_bound(p)), f"p={p}: upper {upper} != {upper_bound(p)}")
    _require(lower <= m <= upper, f"p={p}: m_estimate {m} outside [{lower}, {upper}]")
    third = 1.0 / (3.0 * p)
    _require(third < m < third + 2.0 / 3.0, f"p={p}: m_estimate {m} outside the sandwich")
    hmax = exact_slice_max(p)
    _require(m >= (1.0 - 1e-9) * hmax, f"p={p}: m_estimate {m} below the slice maximum {hmax}")


def check_extremal(data: bytes, p: float) -> int:
    payload = json.loads(data)
    _require(payload["p"] == p, f"payload p {payload['p']} != {p}")
    _check_estimate(p, payload["m_estimate"], payload["lower"], payload["upper"])
    return 1


def check_bounds(data: bytes, ps) -> int:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    _require(rows and rows[0] == ["p", "one_third_p", "lower", "m_estimate", "upper",
                                  "one_third_p_plus"], "bad bounds header")
    body = [[float(v) for v in row] for row in rows[1:]]
    _require([r[0] for r in body] == list(ps), f"bounds rows {[r[0] for r in body]} != {ps}")
    for p, third, lower, m, upper, third_plus in body:
        _require(_close(third, 1.0 / (3.0 * p)) and _close(third_plus, 1.0 / (3.0 * p) + 2.0 / 3.0),
                 f"p={p}: bad sandwich columns")
        _check_estimate(p, m, lower, upper)
    return len(body)


def check_verify(data: bytes, ps, n: int, seed: int) -> int:
    report = json.loads(data)
    _require(report["pass"] is True, "verify report says pass=false")
    _require(all(f["pass"] is True and f["worst_residual"] <= f["tolerance"]
                 for f in report["families"]), "a verification family failed")
    _require(report["n_random"] == n, f"n_random {report['n_random']} != {n}")
    _require(report["p_values"] == list(ps), f"p_values {report['p_values']} != {ps}")
    _require(report["seed"] == seed, f"seed {report['seed']} != {seed}")
    # items come from the request: the per-family sample fields are fixed counts
    return n * len(ps)


def _cloud_size(n: int) -> int:
    return n + 2 * max(n // 4, 8)


def _check_values(z: np.ndarray, p: float, tol: float):
    _require(bool(np.all(np.isfinite(z))), "non-finite H value")
    bound = upper_bound(p)
    worst = float(np.max(np.abs(z))) if z.size else 0.0
    _require(worst <= bound * (1.0 + 1e-12) + tol, f"|H| = {worst} above upper_bound_M = {bound}")


def _check_boundary(b: np.ndarray, what: str):
    _require(4 <= b.size <= REGION_BINS + 1, f"{what} boundary has {b.size} points")
    _require(b[0] == b[-1], f"{what} boundary is not closed")


def check_region(data: bytes, fmt: str, what: str, n: int, p: float) -> int:
    want_h = what in ("hankel", "both")
    want_o = what in ("omega", "both")
    if fmt == "json":
        obj = json.loads(data)
        parts = {}
        for name, want in (("hankel", want_h), ("omega", want_o)):
            _require((obj[name] is not None) == want, f"json {name} presence wrong")
            if want:
                parts[name] = {k: np.array([complex(x, y) for x, y in obj[name][k]], complex)
                               for k in ("points", "boundary")}
        if want_h:
            _require(parts["hankel"]["points"].size == _cloud_size(n), "hankel cloud size")
            _check_boundary(parts["hankel"]["boundary"], "hankel")
        if want_o:
            _require(parts["omega"]["points"].size == n, "omega point count")
            _require(parts["omega"]["boundary"].size == n + 1, "omega boundary count")
        values = [a for part in parts.values() for a in part.values()]
        tol = 0.0
    elif fmt == "csv":
        lines = data.decode("utf-8").splitlines()
        _require(lines[0] == "re,im,kind", "bad csv header")
        groups = {"cloud": [], "boundary": [], "omega_boundary": []}
        for line in lines[1:]:
            re_s, im_s, kind = line.split(",")
            groups[kind].append(complex(float(re_s), float(im_s)))
        g = {k: np.array(v, complex) for k, v in groups.items()}
        _require(g["cloud"].size == (_cloud_size(n) if want_h else 0), "csv cloud count")
        if want_h:
            _check_boundary(g["boundary"], "hankel")
        else:
            _require(g["boundary"].size == 0, "csv has an unrequested boundary")
        _require(g["omega_boundary"].size == (n + 1 if want_o else 0), "csv omega count")
        values = list(g.values())
        tol = 0.0
    elif fmt == "svg":
        text = data.decode("utf-8")
        _require(text.startswith("<svg") and text.endswith("</svg>\n"), "svg not closed")
        cloud = re.findall(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)" r="0.006"', text)
        _require(len(cloud) == (_cloud_size(n) if want_h else 0), "svg cloud count")
        lines = {color: pts for pts, color in
                 re.findall(r'<polyline points="([^"]*)" fill="none" stroke="(#[0-9a-f]+)"', text)}
        _require(("#4477aa" in lines) == want_h and ("#cc3311" in lines) == want_o,
                 "svg polyline presence wrong")

        def poly(s):
            xy = [tok.split(",") for tok in s.split()]
            return np.array([complex(float(x), -float(y)) for x, y in xy], complex)

        values = [np.array([complex(float(x), -float(y)) for x, y in cloud], complex)]
        if want_h:
            b = poly(lines["#4477aa"])
            _check_boundary(b, "hankel")
            values.append(b)
        if want_o:
            b = poly(lines["#cc3311"])
            _require(b.size == n + 1, "svg omega count")
            values.append(b)
        tol = SVG_TOL
    else:
        raise GateFailure(f"unknown format {fmt}")
    for z in values:
        _check_values(z, p, tol)
    return sum(int(z.size) for z in values)


def check_job(job, rc, data: bytes) -> int:
    """Items completed by ``job``; raises GateFailure on a wrong result."""
    _require(rc == 0, f"exit code {rc}")
    try:
        if job.kind == "extremal":
            return check_extremal(data, job.ps[0])
        if job.kind == "bounds":
            return check_bounds(data, job.ps)
        if job.kind == "verify":
            return check_verify(data, job.ps, job.n, job.seed)
        return check_region(data, job.fmt, job.what, job.n, job.ps[0])
    except (ValueError, KeyError, TypeError, IndexError) as exc:  # includes bad JSON
        raise GateFailure(f"unparsable output: {type(exc).__name__}: {exc}"[:300]) from exc
