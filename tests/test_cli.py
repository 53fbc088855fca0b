import contextlib
import errno
import importlib
import importlib.util
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc
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
from hankelbody.errors import InvalidInput
from hankelbody.search import sample_omega_boundary, sample_region_H

from conftest import slice_max_on_grid

REPO = Path(__file__).resolve().parents[1]


def _load_sweep():
    spec = importlib.util.spec_from_file_location(
        "cli_sweep", REPO / "tests" / "pinned" / "cli_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SWEEP = _load_sweep()


def run(argv):
    return main(argv)


#: finite and non-finite p outside [P_MIN, 1), each a usage error
P_OUTSIDE_THE_RULE = [
    ["extremal", "--p", "nan"],
    ["bounds", "--p", "inf"],
    ["region", "--p=-0.5"],
    ["verify", "--p", "1e-61"],
]


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
        ["verify", "--p", ","],
        ["extremal", "--p", "x"],
        ["verify", "--seed", "-1"],
        ["extremal", "--seed", "-1"],
        ["bounds", "--seed", "-1"],
        ["region", "--seed", "-1"],
        ["extremal", "--iters", "-1"],
        ["bounds", "--iters", "-2"],
        ["region", "--what", "hankel", "--samples", "0"],
        ["bounds", "--grid", "2.5"],
        # sizes whose arrays numpy cannot index
        ["region", "--samples", "99999999999999999999"],
        ["verify", "--p", "0.5", "--samples", "99999999999999999999"],
        ["extremal", "--grid", "99999999999999999999"],
        ["bounds", "--grid", "99999999999999999999"],
        *P_OUTSIDE_THE_RULE,
        # bounds searches each p on its own, so a list of no p is refused here
        ["bounds", "--p", ","],
    ])
    def test_invalid_values_are_usage_errors(self, argv, capsys):
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
        assert "Traceback" not in captured.err
        assert argv[-2] in captured.err  # the flag at fault
        # messages name the flags, not internal functions or parameters
        for internal in ("_parse_", "n_theta", "refine_iters", "n_samples"):
            assert internal not in captured.err

    @pytest.mark.parametrize("argv", P_OUTSIDE_THE_RULE)
    def test_p_outside_the_rule_prints_poleparams_message(self, argv, capsys):
        # the command line applies PoleParam's rule for p and passes its message on
        with pytest.raises(InvalidInput) as rule:
            PoleParam(float(argv[-1].removeprefix("--p=")))
        assert run(argv) == EXIT_USAGE
        assert f"argument --p: {rule.value}\n" in capsys.readouterr().err


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

    def test_unrefined_rows_reach_the_slice_maximum(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        code = run(["bounds", "--p", "0.1,0.62,0.9", "--grid", "8", "--iters", "0",
                    "--out", str(out)])
        assert code == EXIT_OK
        capsys.readouterr()
        header, *rows = out.read_text().strip().splitlines()
        for row in rows:
            cols = dict(zip(header.split(","), map(float, row.split(","))))
            assert cols["m_estimate"] >= slice_max_on_grid(cols["p"]) - 1e-13


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


def _reference_csv(omega, hank):
    """The region CSV as written by one f-string per point, from numpy's
    float64 scalars."""
    rows = []
    if hank is not None:
        rows += [(z, "cloud") for z in hank.points] + [(z, "boundary") for z in hank.boundary]
    if omega is not None:
        rows += [(z, "omega_boundary") for z in omega.boundary]
    return "\n".join(["re,im,kind"] + [f"{z.real!r},{z.imag!r},{kind}"
                                        for z, kind in rows]) + "\n"


#: coordinates that stress the writers: non-finite values, signed zeros, the
#: extremes of the float range, exact .6f ties (odd multiples of 1/128),
#: ordinary floats, and the values at the seams of the float-to-text kernels
#: (the ends of their ranges and the floats next to them, digits that carry
#: into a new digit, exact 16- and 17-digit ties), which put kernel and
#: Python-formatted values into one piece
_coords = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0,
                     5e-324, -5e-324, 1e308, -1e308]),
    st.sampled_from([1e-4, 9.999999999999999e-05, 1e9, 999999999.9999999, 1e15,
                     999999999999999.9, 999999999.9999995, 9.999999999999998,
                     0.09999999999999999, 100000000000000.25, 100000000000000.125,
                     0.5, 1e16, 1e-7]).flatmap(lambda v: st.sampled_from([v, -v])),
    st.integers(-2**12, 2**12).map(lambda k: (2 * k + 1) / 128),
    st.floats(allow_nan=False, allow_infinity=False),
)
_complex_arrays = st.lists(st.builds(complex, _coords, _coords), max_size=12).map(
    lambda zs: np.array(zs, dtype=np.complex128))


@st.composite
def _region_pairs(draw):
    """An (omega, hankel) pair of samples, either one possibly absent.

    Omega's points are its closed boundary without the closing point, as
    sampled; the hankel points may equal that open boundary except for the
    sign of its zeros, so their rows must come from their own bits.
    """
    closed = draw(_complex_arrays.filter(len))
    closed = np.append(closed, closed[0])
    omega = RegionSample(points=closed[:-1], boundary=closed, meta={"p": 0.5, "n_theta": 1})
    cloud, boundary = draw(st.one_of(st.tuples(_complex_arrays, _complex_arrays),
                                     st.just((closed[:-1] + 0.0, closed))))
    hank = RegionSample(points=cloud, boundary=boundary,
                        meta={"p": 0.5, "n_samples": 1, "seed": 1})
    return draw(st.sampled_from([(omega, hank), (omega, None), (None, hank), (None, None)]))


def _assert_writers_match(pair):
    assert "".join(cli._region_json_text(*pair)) == _reference_json(*pair)
    assert "".join(cli._region_svg(*pair)) == _reference_svg(*pair)
    assert "".join(cli._region_csv(*pair)) == _reference_csv(*pair)


_WRITER_EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True)


class TestRegionWriters:
    @pytest.mark.parametrize("what", ["omega", "hankel", "both"])
    @pytest.mark.parametrize("p, samples, seed", [
        (0.5, 16, 1), (0.07, 129, 4), (0.93, 1000, 77)])
    @pytest.mark.parametrize("fmt, reference", [
        ("json", _reference_json), ("svg", _reference_svg), ("csv", _reference_csv)])
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

    # the smallest input of each sample kind: a 17-point cloud, a 16-gon
    @pytest.mark.parametrize("what, p, samples, seed", [
        ("hankel", 0.37, 1, 5), ("omega", 0.81, 16, 2)])
    @pytest.mark.parametrize("fmt, reference", [
        ("json", _reference_json), ("svg", _reference_svg), ("csv", _reference_csv)])
    def test_smallest_inputs_match_reference(self, tmp_path, what, p, samples, seed,
                                             fmt, reference):
        self.test_cli_output_matches_reference(tmp_path, what, p, samples, seed,
                                               fmt, reference)

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
            text = "".join(cli._region_json_text(o, h))
            assert text == _reference_json(o, h)
            assert "NaN" in text and "-Infinity" in text and "5e-324" in text
            assert "".join(cli._region_svg(o, h)) == _reference_svg(o, h)
            assert "".join(cli._region_csv(o, h)) == _reference_csv(o, h)

    @_WRITER_EXAMPLES
    @given(pair=_region_pairs())
    def test_writers_match_the_references(self, pair):
        _assert_writers_match(pair)

    # pieces of one to three rows put a seam between every few rows: at
    # Omega_p's reused closing row, around empty arrays and non-finite rows
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_piece_seams_match_the_references(self, rows, monkeypatch):
        monkeypatch.setattr(cli, "_ROWS_PER_PIECE", rows)
        self.test_non_finite_and_extreme_floats()
        _WRITER_EXAMPLES(given(pair=_region_pairs())(_assert_writers_match))()


class TestRegionStreaming:
    """The region json, svg and csv documents are formed piece by piece while
    they are written."""

    # the whole-document writers peaked at 42 MB (json), 57 MB (svg) and 74 MB
    # (csv) here; the streaming ones hold one piece and the sampled arrays,
    # about 6.9 MB (json) and 6.0 MB (svg, csv)
    @pytest.mark.parametrize("fmt", ["json", "svg", "csv"])
    def test_peak_memory_is_bounded(self, tmp_path, fmt):
        argv = ["region", "--p", "0.43", "--what", "both", "--samples", "100000",
                "--format", fmt, "--out", str(tmp_path / f"region.{fmt}")]
        tracemalloc.start()
        try:
            assert run(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14e6

    @pytest.fixture(scope="class")
    def both_samples(self):
        pp = PoleParam(0.43)
        return sample_omega_boundary(pp, 100_000), sample_region_H(pp, 100_000, 1)

    # a write holds one piece of rows and its formatting temporaries, about
    # 1.8 MB (json, csv) and 1.1 MB (svg), besides the sampled arrays it is
    # given; Omega_p's json rows kept in memory took 7.4 MB more
    @pytest.mark.parametrize("fmt", ["json", "svg", "csv"])
    def test_document_writes_are_bounded(self, tmp_path, fmt, both_samples):
        pieces = cli._DOCUMENTS[fmt](*both_samples)
        tracemalloc.start()
        try:
            cli._write_text(str(tmp_path / f"region.{fmt}"), pieces)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6

    # 20,000 rows are about 1.5 MB of text: the spool is replayed in many reads
    def test_omega_json_on_stdout_matches_the_out_file(self, tmp_path, capsys):
        argv = ["region", "--p", "0.2", "--what", "omega", "--samples", "20000", "--format", "json"]
        assert run(argv) == EXIT_OK
        text = capsys.readouterr().out
        out = tmp_path / "region.json"
        assert run(argv + ["--out", str(out)]) == EXIT_OK
        assert out.read_text() == text and len(text) > 20 * cli._SPOOL_READ
        omega = json.loads(text)["omega"]
        assert omega["boundary"] == omega["points"] + omega["points"][:1]

    def test_spool_failure_exits_io(self, tmp_path, monkeypatch, capsys):
        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli.tempfile, "TemporaryFile", no_space)
        argv = ["region", "--what", "both", "--samples", "64", "--format", "json",
                "--out", str(tmp_path / "region.json")]
        assert run(argv) == EXIT_IO
        assert capsys.readouterr().err == (
            f"hankelbody region: error: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n")

    @pytest.mark.parametrize("fmt", ["json", "svg", "csv"])
    def test_os_error_mid_document_exits_io(self, fmt, capsys):
        # /dev/full takes the open and fails the first buffered write
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        argv = ["region", "--samples", "20000", "--format", fmt, "--out", "/dev/full"]
        assert run(argv) == EXIT_IO
        assert capsys.readouterr().err == (
            f"hankelbody region: error: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n")

    @pytest.mark.parametrize("error, code", [
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), EXIT_IO), (MemoryError(), EXIT_USAGE)])
    @pytest.mark.parametrize("fmt, cells", [("json", "_json_cells"), ("svg", "_svg_cells"),
                                            ("csv", "_csv_cells")])
    def test_error_in_a_later_piece_keeps_the_exit_code(self, tmp_path, fmt, cells, error,
                                                        code, monkeypatch, capsys):
        calls, original = [], getattr(cli, cells)

        def fail_on_the_third(part):
            calls.append(part.size)
            if len(calls) == 3:
                raise error
            return original(part)

        monkeypatch.setattr(cli, cells, fail_on_the_third)
        monkeypatch.setattr(cli, "_ROWS_PER_PIECE", 16)
        out = tmp_path / f"region.{fmt}"
        argv = ["region", "--what", "hankel", "--samples", "64", "--format", fmt, "--out", str(out)]
        assert run(argv) == code
        assert capsys.readouterr().err == f"hankelbody region: error: {str(error) or 'MemoryError'}\n"
        # the two pieces before the failing one are written, the rest is not
        text = out.read_text()
        cloud_row = {"json": "      [\n", "svg": 'r="0.006"', "csv": ",cloud\n"}[fmt]
        assert len(calls) == 3 and text.count(cloud_row) == 2 * 16
        assert text.startswith({"json": "{\n", "svg": "<svg", "csv": "re,im,kind\n"}[fmt])
        assert not text.endswith({"json": "}\n", "svg": "</svg>\n", "csv": ",boundary\n"}[fmt])

    @pytest.mark.parametrize("failing, argv", [
        ("sample_region_H", ["--what", "hankel"]),
        ("sample_omega_boundary", ["--what", "both"]),
        (None, ["--what", "both", "--samples", "8"])])
    def test_failed_sampling_leaves_the_out_file_untouched(self, tmp_path, failing, argv,
                                                           monkeypatch, capsys):
        def no_memory(*args, **kwargs):
            raise MemoryError

        if failing:
            monkeypatch.setattr(cli, failing, no_memory)
        out = tmp_path / "region.json"
        out.write_text("kept\n")
        assert run(["region", *argv, "--format", "json", "--out", str(out)]) == EXIT_USAGE
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert out.read_text() == "kept\n"


class TestParserReuse:
    """``main`` builds its parser once per process; every run must write what
    a run with a freshly built parser writes."""

    ARGVS = [
        ["extremal", "--p", "0.4", "--grid", "8", "--iters", "5"],
        ["verify", "--p", "2"],
        ["bounds", "--p", "0.3,0.7", "--grid", "8", "--iters", "5"],
        ["region", "--p", "0.6", "--samples", "32", "--format", "json"],
        ["verify", "--p", "0.5", "--samples", "20"],
    ]

    @staticmethod
    def _run(argv, tmp_path, capsys):
        out = tmp_path / "out"
        out.unlink(missing_ok=True)
        code = main(argv + ["--out", str(out)])
        std = capsys.readouterr()
        return code, std.out, std.err, out.read_bytes() if out.exists() else None

    def test_runs_in_one_process_match_fresh_parser_runs(self, tmp_path, monkeypatch, capsys):
        built = []
        orig = cli.build_parser

        def counting():
            built.append(1)
            return orig()

        monkeypatch.setattr(cli, "build_parser", counting)
        fresh = []
        for argv in self.ARGVS:
            cli._main_parser.cache_clear()
            fresh.append(self._run(argv, tmp_path, capsys))
        assert len(built) == len(self.ARGVS)
        cli._main_parser.cache_clear()
        reused = [self._run(argv, tmp_path, capsys) for argv in self.ARGVS]
        assert len(built) == len(self.ARGVS) + 1
        assert reused == fresh
        assert [r[0] for r in reused] == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK]
        assert [r[3] is None for r in reused] == [False, True, False, False, False]

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


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

    def test_p_next_to_one_fails_quietly(self, tmp_path, capsys):
        # 1 - p^2 counts as a vanished Moebius denominator: the families that
        # evaluate the pointwise chain fail with residual inf, and none raises
        out = tmp_path / "verify.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["verify", "--p", "0.9999999999999999", "--samples", "3",
                        "--out", str(out)])
        assert code == EXIT_VERIFY_FAIL
        assert capsys.readouterr().err == ""
        worst = {f["name"].split("[")[0]: f["worst_residual"]
                 for f in json.loads(out.read_text())["families"] if not f["pass"]}
        for name in ("fixed_point_phi_p", "self_map_bound", "fprime_series_vs_sampling"):
            assert worst[name] == float("inf")

    def test_repeated_p_is_a_usage_error(self, capsys):
        # the per-p family names would no longer identify their family
        assert run(["verify", "--p", "0.3,0.3", "--samples", "5"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hankelbody verify: error: p values must be distinct")

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
                                "upper", "iterations", "grid", "seed"}
        assert payload["lower"] <= payload["m_estimate"] + 1e-9
        assert all(0.0 <= m <= 1.0 + 1e-12
                   for m in payload["arg_sigma"]["moduli"])

    @pytest.mark.parametrize("p", [0.1, 0.62, 0.9])
    def test_unrefined_estimate_reaches_the_slice_maximum(self, tmp_path, p):
        out = tmp_path / "ext.json"
        code = run(["extremal", "--p", str(p), "--grid", "8", "--iters", "0",
                    "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["iterations"] == 0
        assert payload["m_estimate"] >= slice_max_on_grid(p) - 1e-13


@pytest.mark.parametrize("row", json.loads(SWEEP.TABLE.read_text()),
                         ids=lambda row: " ".join(row["argv"]))
def test_bytes_and_exit_code_are_pinned(row, tmp_path):
    # exit code, stdout and --out bytes of each argv of cli_sweep.ARGV, the
    # one pin of what the CLI writes; tests/pinned/cli_sweep.py rewrites the
    # table after a deliberate change
    assert SWEEP.sweep_row(row["argv"], tmp_path / "out") == row


def test_the_sweep_table_rows_are_the_sweep_argv():
    # an argv added to ARGV without a rerun of the script would go unchecked
    assert [row["argv"] for row in json.loads(SWEEP.TABLE.read_text())] == SWEEP.ARGV


def test_the_default_search_rows_are_their_iters_0_twins():
    # the search's default evaluates the starts without refining, so a
    # default extremal or bounds row writes what its --iters 0 twin writes
    rows = {tuple(row["argv"]): row for row in json.loads(SWEEP.TABLE.read_text())}
    defaults = [argv for argv in rows if argv[0] in ("extremal", "bounds")
                and "--iters" not in argv and (*argv, "--iters", "0") in rows]
    assert {"extremal --p 0.5", "bounds --p 0.1,0.5,0.9"} <= {" ".join(a) for a in defaults}
    for argv in defaults:
        twin = rows[(*argv, "--iters", "0")]
        assert (rows[argv]["stdout"], rows[argv]["out"]) == (twin["stdout"], twin["out"])


def test_the_sweep_pins_every_subcommand_format_and_exit_code():
    # the sweep is the one pin of the CLI's bytes, so dropping an argv from
    # ARGV must not leave a subcommand, a region format or an exit code unpinned
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    table = json.loads(SWEEP.TABLE.read_text())
    assert {row["argv"][0] for row in table} == set(sub.choices)
    region = sub.choices["region"]
    formats = next(a for a in region._actions if a.dest == "format").choices
    assert {argv[argv.index("--format") + 1] for argv in SWEEP.ARGV
            if "--format" in argv} == set(formats)
    assert {row["exit"] for row in table} == {EXIT_OK, EXIT_VERIFY_FAIL}


class TestBoundsTable:
    @pytest.mark.parametrize("argv", [
        ["--p", "1e-60,0.9999999999999999", "--grid", "8", "--iters", "3"],
        ["--p", "0.3,0.3", "--grid", "8", "--iters", "30", "--seed", "4"],
        ["--p", "0.1,0.62,0.97", "--grid", "9", "--iters", "0"],
        ["--p", "0.1,0.62,0.97", "--grid", "9", "--iters", "1", "--seed", "7"],
    ])
    def test_rows_are_the_per_p_reports(self, argv, tmp_path, monkeypatch, capsys):
        # bounds searches each p on its own, with the argv's grid, iters and
        # seed; each row must be, bit for bit, the report of estimate_M at that p
        calls = []

        def recording(pp, **kwargs):
            calls.append((pp, kwargs))
            return estimate_M(pp, **kwargs)

        estimate_M = cli.estimate_M
        monkeypatch.setattr(cli, "estimate_M", recording)
        out = tmp_path / "bounds.csv"
        assert run(["bounds", *argv, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        args = build_parser().parse_args(["bounds", *argv])
        rows = out.read_text().splitlines()[1:]
        kwargs = {"grid": args.grid, "refine_iters": args.iters, "seed": args.seed}
        assert calls == [(PoleParam(p), kwargs) for p in args.p]
        assert len(rows) == len(args.p)
        for p, row in zip(args.p, rows):
            want = estimate_M(PoleParam(p), **kwargs)
            assert row.split(",")[3] == repr(want.m_estimate)

    def test_tiny_p_cells_fit_their_columns(self, capsys):
        assert run(["bounds", "--p", "1e-60,0.5", "--grid", "8", "--iters", "1"]) == EXIT_OK
        header, tiny, half = capsys.readouterr().out.splitlines()
        widths = [12, 14, 14, 14, 14, 16]
        cells = tiny.split()
        assert cells[0] == "1.000000e-60"
        assert all(len(c) <= w for c, w in zip(cells, widths))
        assert all(float(c) != 0.0 for c in cells)
        # the row of an ordinary p keeps its fixed-point cells
        assert half.startswith("0.500000      0.666667        1.03")


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


def _traced_worker(jobs):
    """The replies of the benchmark's worker, run in its own process, to a
    trace request, each of ``jobs`` and a stats request."""
    requests = [{"op": "trace"}, *({"op": "job", "argv": a} for a in jobs),
                {"op": "stats"}, {"op": "quit"}]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, str(REPO / "perfbench" / "worker.py")],
                          input="".join(json.dumps(r) + "\n" for r in requests),
                          env=env, cwd=REPO, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return list(map(json.loads, proc.stdout.splitlines()))


class TestBenchmarkHooks:
    def test_traced_names_are_public_functions(self):
        # the benchmark's tracer binds each per-layer metric <layer>.<name>.<stat>
        # to the public function <name> of hankelbody.<layer>, and search.refine
        # to search.minimize; a renamed function would read 0, not fail
        modules = {m.name for m in pkgutil.iter_modules(hankelbody.__path__)}
        metrics = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]
        traced = {tuple(m["name"].split(".")[:2]) for m in metrics
                  if m["name"].count(".") == 2}
        traced = {(layer, name) for layer, name in traced
                  if layer in modules and name != "refine"}
        assert ("search", "estimate_M") in traced and ("disk", "mobius_T") in traced
        for layer, name in sorted(traced | {("search", "minimize")}):
            mod = importlib.import_module(f"hankelbody.{layer}")
            fn = getattr(mod, name, None)
            assert inspect.isfunction(fn) and not name.startswith("_"), (layer, name)
            assert fn.__module__ == mod.__name__, (layer, name)
        assert hasattr(importlib.import_module("hankelbody.kernels"), "USE_NUMBA")

    def test_traced_benchmark_worker_runs_jobs(self, tmp_path):
        # the benchmark's worker reads kernels.USE_NUMBA at startup, its
        # tracer rebinds search.minimize, and its stand-in stdout has only
        # write(): run it in its own process, so the rebinding stays there
        region = ["region", "--p", "0.4", "--what", "both", "--samples", "300",
                  "--format", "json"]
        jobs = [["extremal", "--p", "0.5", "--grid", "8", "--iters", "5"], region]
        ready, traced, extremal, exported, stats = _traced_worker(jobs)
        assert ready["use_numba"] is False and traced == {"ok": True}
        assert (extremal["rc"], extremal["error"]) == (EXIT_OK, None)
        assert (exported["rc"], exported["error"]) == (EXIT_OK, None)
        out = tmp_path / "region.json"
        assert run([*region, "--out", str(out)]) == EXIT_OK
        assert exported["stdout_bytes"] == len(out.read_text())
        assert stats["trace"]["spans"]["search.estimate_M"][0] == 1

    def test_traced_bounds_job(self, capsys):
        # the tracer rebinds every public function, and its phi_sigma2_max
        # hook reads len(args[1]): a bounds job runs one search, with its
        # lockstep refinement, per p through those hooks
        bounds = ["bounds", "--p", "0.2,0.9", "--grid", "8", "--iters", "5"]
        ready, traced, job, stats = _traced_worker([bounds])
        assert traced == {"ok": True}
        assert (job["rc"], job["error"]) == (EXIT_OK, None)
        assert run(bounds) == EXIT_OK
        assert job["stdout_bytes"] == len(capsys.readouterr().out)
        spans, counters = stats["trace"]["spans"], stats["trace"]["counters"]
        assert spans["search.estimate_M"][0] == 2
        assert spans["search.minimize"][0] == 2
        assert counters["kernels.phi_sigma2_max.evals"] > 2 * 21 * (4 + 4)


class _FailingStdout:
    """A stdout whose ``write`` or ``flush``, as ``failing`` names, raises ``error``."""

    def __init__(self, failing, error):
        self.failing, self.error, self.closed = failing, error, False

    def write(self, text):
        if self.failing == "write":
            raise self.error
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise self.error

    def close(self):
        self.closed = True
        self.flush()


#: small runs of each subcommand and region format, all writing to stdout
STDOUT_RUNS = [
    ["bounds", "--p", "0.3,0.6", "--grid", "8", "--iters", "2"],
    ["extremal", "--grid", "8", "--iters", "2"],
    ["verify", "--p", "0.5", "--samples", "8"],
    ["region", "--samples", "32", "--format", "json"],
    ["region", "--samples", "32", "--format", "svg"],
    ["region", "--samples", "32", "--format", "csv"],
]


class TestIO:
    def test_unwritable_path(self, tmp_path, capsys):
        bad = tmp_path / "no_such_dir" / "x.json"
        code = run(["extremal", "--p", "0.5", "--grid", "8", "--iters", "0",
                    "--out", str(bad)])
        assert code == EXIT_IO
        assert capsys.readouterr().err.startswith("hankelbody extremal: error: ")

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("error", [BrokenPipeError(errno.EPIPE, "Broken pipe"),
                                       OSError(errno.ENOSPC, "No space left on device")])
    @pytest.mark.parametrize("argv", STDOUT_RUNS)
    def test_stdout_failures_exit_io(self, argv, error, failing, monkeypatch, capsys):
        stdout = _FailingStdout(failing, error)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert run(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert err == f"hankelbody {argv[0]}: error: {error}\n"
        # text a flush could not write is dropped, so the exit flush has none
        assert stdout.closed == (failing == "flush")

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
    @pytest.mark.parametrize("argv", [STDOUT_RUNS[0],
                                      ["region", "--samples", "2000", "--format", "json"]])
    def test_process_stdout_failures_exit_io(self, argv, sink, unbuffered):
        # small outputs fail in main's flush and large ones in a write, and
        # neither may leave the interpreter's exit flush an error to report
        if sink == "/dev/full" and not os.path.exists(sink):
            pytest.skip("no /dev/full")
        env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONUNBUFFERED": unbuffered}
        cmd = [sys.executable, "-m", "hankelbody.cli", *argv]
        kw = dict(stderr=subprocess.PIPE, env=env, text=True)
        if sink == "closed pipe":
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, **kw)
            proc.stdout.close()  # before the child, still importing, writes
        else:
            with open(sink, "w") as out:
                proc = subprocess.Popen(cmd, stdout=out, **kw)
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == EXIT_IO
        assert len(err.splitlines()) == 1
        assert err.startswith(f"hankelbody {argv[0]}: error: ")

    def test_memory_error_is_a_usage_error(self, monkeypatch, capsys):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "sample_region_H", no_memory)
        assert run(["region", "--what", "hankel", "--samples", "32"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hankelbody region: error: MemoryError\n"


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
@example(argv=["verify", "--samples", "99999999999999999999"])
@example(argv=["region", "--samples", "99999999999999999999"])
@example(argv=["extremal", "--grid", "99999999999999999999"])
@example(argv=["bounds", "--grid", "99999999999999999999"])
def test_any_argv_keeps_the_exit_code_contract(argv, out_dir):
    paths = {"tmp": str(out_dir / "out"), "unwritable": str(out_dir / "missing" / "out")}
    argv = [paths.get(a, a) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VERIFY_FAIL, EXIT_USAGE, EXIT_IO)
    assert "Traceback" not in err.getvalue()
