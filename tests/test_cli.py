import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hankelbody
from hankelbody import PoleParam, RegionSample, cli
from hankelbody.cli import (EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL,
                            build_parser, main)
from hankelbody.disk import P_MIN
from hankelbody.search import sample_omega_boundary, sample_region_H


def run(argv):
    return main(argv)


class TestParsing:
    def test_requires_subcommand(self):
        assert run([]) == EXIT_USAGE

    def test_rejects_bad_p(self):
        assert run(["bounds", "--p", "1.5"]) == EXIT_USAGE
        assert run(["extremal", "--p", "0"]) == EXIT_USAGE
        assert run(["verify", "--p", "0.2,abc"]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["verify", "extremal", "bounds", "region"])
    def test_p_below_the_floor_is_a_usage_error(self, command, capsys):
        # at 1e-100 the powers of P = p + 1/p overflow a float
        assert run([command, "--p", "1e-100"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "argument --p" in err and f"{P_MIN:g}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["extremal", "--grid", "8", "--iters", "2"],
        ["region", "--samples", "32", "--format", "json"],
    ])
    def test_p_at_the_floor_gives_finite_output(self, argv, tmp_path):
        out = tmp_path / "out.json"
        assert run(argv + ["--p", f"{P_MIN!r}", "--out", str(out)]) == EXIT_OK
        assert not any(bad in out.read_text() for bad in ("NaN", "Infinity"))

    def test_help_exits_cleanly(self, capsys):
        assert run(["--help"]) == 0
        assert "bounds" in capsys.readouterr().out

    def test_p_list_sorted_and_validated(self):
        ap = build_parser()
        args = ap.parse_args(["verify", "--p", "0.7,0.2"])
        assert args.p == [0.2, 0.7]

    @pytest.mark.parametrize("argv", [
        ["extremal", "--grid", "4"],
        ["bounds", "--iters", "-1"],
        ["region", "--samples", "0"],
        ["region", "--what", "omega", "--samples", "8"],
        ["verify", "--samples", "0"],
        ["verify", "--samples", "-3"],
        ["region", "--samples", "8"],
        ["verify", "--samples", "abc"],
        ["extremal", "--p", "x"],
        ["verify", "--seed", "-1"],
        ["extremal", "--seed", "-1"],
        ["bounds", "--seed", "-1"],
        ["region", "--seed", "-1"],
        ["extremal", "--iters", "-1"],
        ["bounds", "--iters", "-2"],
        ["region", "--what", "hankel", "--samples", "0"],
        ["bounds", "--grid", "2.5"],
    ])
    def test_invalid_values_are_usage_errors(self, argv, capsys):
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
        assert "Traceback" not in captured.err
        # messages name the flags, not internal functions or parameters
        for internal in ("_parse_", "n_theta", "refine_iters", "n_samples"):
            assert internal not in captured.err


class TestBounds:
    def test_table_and_csv(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        code = run(["bounds", "--p", "0.5", "--grid", "8", "--iters", "20",
                    "--out", str(out)])
        assert code == EXIT_OK
        table = capsys.readouterr().out
        assert "m_estimate" in table
        header, row = out.read_text().strip().splitlines()
        cols = dict(zip(header.split(","), map(float, row.split(","))))
        assert cols["p"] == 0.5
        assert cols["one_third_p"] < cols["m_estimate"] <= cols["upper"] + 1e-6
        assert cols["lower"] <= cols["m_estimate"] + 1e-9


class TestRegion:
    def test_csv_kinds(self, tmp_path):
        out = tmp_path / "region.csv"
        code = run(["region", "--p", "0.5", "--samples", "100",
                    "--format", "csv", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re,im,kind"
        kinds = {ln.rsplit(",", 1)[1] for ln in lines[1:]}
        assert kinds == {"cloud", "boundary", "omega_boundary"}

    def test_svg_self_contained(self, tmp_path):
        out = tmp_path / "region.svg"
        code = run(["region", "--p", "0.3", "--samples", "64",
                    "--format", "svg", "--out", str(out)])
        assert code == EXIT_OK
        text = out.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert "polyline" in text

    def test_json_round_trips(self, tmp_path):
        out = tmp_path / "region.json"
        code = run(["region", "--p", "0.5", "--what", "omega",
                    "--samples", "64", "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["hankel"] is None
        assert len(payload["omega"]["boundary"]) == 65


def _reference_json(omega, hank):
    """The region JSON as written through json.dumps of the object form."""
    def encode(sample):
        if sample is None:
            return None
        return {
            "points": [[z.real, z.imag] for z in sample.points],
            "boundary": [[z.real, z.imag] for z in sample.boundary],
            "meta": sample.meta,
        }

    return json.dumps({"omega": encode(omega), "hankel": encode(hank)}, indent=2) + "\n"


def _reference_svg(omega, hank):
    """The region SVG as written by one f-string per point."""
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


class TestRegionWriters:
    @pytest.mark.parametrize("what", ["omega", "hankel", "both"])
    @pytest.mark.parametrize("p, samples, seed", [
        (0.5, 16, 1), (0.07, 129, 4), (0.93, 1000, 77)])
    @pytest.mark.parametrize("fmt, reference", [
        ("json", _reference_json), ("svg", _reference_svg)])
    def test_cli_output_matches_reference(self, tmp_path, what, p, samples, seed,
                                          fmt, reference):
        out = tmp_path / f"region.{fmt}"
        code = run(["region", "--p", str(p), "--what", what, "--samples", str(samples),
                    "--seed", str(seed), "--format", fmt, "--out", str(out)])
        assert code == EXIT_OK
        pp = PoleParam(p)
        omega = sample_omega_boundary(pp, samples) if what != "hankel" else None
        hank = sample_region_H(pp, samples, seed) if what != "omega" else None
        assert out.read_bytes() == reference(omega, hank).encode()

    def test_non_finite_and_extreme_floats(self):
        special = np.array([complex(float("nan"), -0.0), complex(float("inf"), 5e-324),
                            complex(float("-inf"), 1e308), complex(-0.0, float("nan")),
                            complex(1e-300, float("-inf")), 0.1 + 0.2j])
        closed = np.append(special, special[0])
        # Omega-like: points are the boundary without its closing point
        omega = RegionSample(points=closed[:-1], boundary=closed,
                             meta={"p": 0.5, "n_theta": special.size})
        # points that compare equal to the open boundary but hold +0.0 where
        # it holds -0.0 (fourth real part): their rows come from their own bits
        hank = RegionSample(points=closed[:-1] + 0.0, boundary=closed,
                            meta={"p": 0.5, "n_samples": 6, "seed": 1})
        for o, h in ((omega, hank), (omega, None), (None, hank)):
            text = cli._region_json_text(o, h)
            assert text == _reference_json(o, h)
            assert "NaN" in text and "-Infinity" in text and "5e-324" in text
            assert cli._region_svg(o, h) == _reference_svg(o, h)


class TestVerify:
    def test_passing_run_exits_zero(self, tmp_path):
        out = tmp_path / "verify.json"
        code = run(["verify", "--p", "0.5", "--samples", "60",
                    "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        samples = {f["name"].split("[")[0]: f["samples"] for f in payload["families"]}
        for name in ("dieudonne_first_order", "dieudonne_second_order",
                     "chain_equivalence_w_vs_sigma", "oracle_equivalence_series_vs_w",
                     "fixed_point_phi_p", "self_map_bound", "membership_round_trip"):
            assert samples[name] == 60
        assert samples["fprime_series_vs_sampling"] == 50

    def test_p_at_the_floor_fails_quietly(self, tmp_path, capsys):
        # p^-k overflows in the f' prefactor: the families that use it fail,
        # with no numpy warning on stderr
        out = tmp_path / "verify.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["verify", "--p", f"{P_MIN!r}", "--samples", "20", "--out", str(out)])
        assert code == EXIT_VERIFY_FAIL
        assert capsys.readouterr().err == ""
        failed = {f["name"].split("[")[0] for f in json.loads(out.read_text())["families"]
                  if not f["pass"]}
        assert {"triple_path_agreement", "fprime_series_vs_sampling"} <= failed

    def test_failing_run_exits_one(self, tmp_path, monkeypatch):
        import hankelbody.hankel as hk
        orig = hk.hp_numerator_coeffs

        def bad(P):
            c = orig(P).copy()
            c[0] += 1e-3
            return c

        monkeypatch.setattr(hk, "hp_numerator_coeffs", bad)
        out = tmp_path / "verify.json"
        code = run(["verify", "--p", "0.5", "--samples", "60",
                    "--out", str(out)])
        assert code == EXIT_VERIFY_FAIL


class TestExtremal:
    def test_payload_fields(self, tmp_path):
        out = tmp_path / "ext.json"
        code = run(["extremal", "--p", "0.5", "--grid", "8", "--iters", "20",
                    "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert set(payload) == {"p", "m_estimate", "arg_sigma", "lower",
                                "upper", "slice_value", "iterations", "grid",
                                "seed"}
        assert payload["lower"] <= payload["m_estimate"] + 1e-9
        assert all(0.0 <= m <= 1.0 + 1e-12
                   for m in payload["arg_sigma"]["moduli"])


class TestImport:
    def test_cli_import_leaves_scipy_unloaded(self):
        src = str(Path(hankelbody.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, hankelbody.cli; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestIO:
    def test_unwritable_path(self, tmp_path):
        bad = tmp_path / "no_such_dir" / "x.json"
        code = run(["extremal", "--p", "0.5", "--grid", "8", "--iters", "0",
                    "--out", str(bad)])
        assert code == EXIT_IO


# --- argv fuzzing --------------------------------------------------------------

#: flags that keep every run small, put in front so that a fuzzed flag overrides them
SMALL = {
    "bounds": ["--grid", "8", "--iters", "2"],
    "extremal": ["--grid", "8", "--iters", "2"],
    "region": ["--samples", "32"],
    "verify": ["--samples", "8"],
}

#: the flags each subcommand takes, plus --what, which only region takes
FLAGS = {
    "bounds": ["--p", "--grid", "--iters", "--seed", "--out", "--what"],
    "extremal": ["--p", "--grid", "--iters", "--seed", "--out", "--what"],
    "region": ["--p", "--what", "--samples", "--seed", "--format", "--out"],
    "verify": ["--p", "--samples", "--seed", "--out", "--what"],
}

#: good and bad values per flag; sizes stay at most --samples 64, --grid 12, --iters 5
VALUES = {
    "--p": ["0.5", "0.05,0.9", "0.97", "0", "1", "-0.3", "nan", "x", ",", "0.2,abc"],
    "--grid": ["8", "12", "7", "0", "-3", "x", "9.5"],
    "--iters": ["0", "5", "-1", "-2", "x", "1e3"],
    "--seed": ["0", "7", "123456789012", "-1", "x", "1.5"],
    "--samples": ["1", "15", "16", "64", "0", "-5", "x"],
    "--what": ["omega", "hankel", "both", "neither"],
    "--format": ["csv", "svg", "json", "pdf"],
    "--out": ["tmp", "unwritable"],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SMALL)))
    argv = [command] + SMALL[command]
    for flag in draw(st.lists(st.sampled_from(FLAGS[command]), max_size=4)):
        argv += [flag, draw(st.sampled_from(VALUES[flag]))]
    return argv


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(argv=argvs())
@example(argv=["verify", "--samples", "8", "--seed", "-1"])
@example(argv=["extremal", "--grid", "8", "--iters", "2", "--seed", "-1"])
@example(argv=["bounds", "--grid", "8", "--iters", "2", "--seed", "-1"])
@example(argv=["region", "--samples", "32", "--seed", "-1"])
@example(argv=["verify", "--samples", "8", "--p", "1e-100"])
@example(argv=["extremal", "--grid", "8", "--iters", "2", "--p", "1e-100"])
@example(argv=["bounds", "--grid", "8", "--iters", "2", "--p", "1e-100"])
@example(argv=["region", "--samples", "32", "--p", "1e-100"])
def test_any_argv_keeps_the_exit_code_contract(argv, out_dir):
    paths = {"tmp": str(out_dir / "out"), "unwritable": str(out_dir / "missing" / "out")}
    argv = [paths.get(a, a) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VERIFY_FAIL, EXIT_USAGE, EXIT_IO)
    assert "Traceback" not in err.getvalue()
