import json

import pytest

from hankelbody.cli import (EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL,
                            build_parser, main)


def run(argv):
    return main(argv)


class TestParsing:
    def test_requires_subcommand(self):
        assert run([]) == EXIT_USAGE

    def test_rejects_bad_p(self):
        assert run(["bounds", "--p", "1.5"]) == EXIT_USAGE
        assert run(["extremal", "--p", "0"]) == EXIT_USAGE
        assert run(["verify", "--p", "0.2,abc"]) == EXIT_USAGE

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
    ])
    def test_invalid_values_are_usage_errors(self, argv, capsys):
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
        assert "Traceback" not in captured.err


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


class TestIO:
    def test_unwritable_path(self, tmp_path):
        bad = tmp_path / "no_such_dir" / "x.json"
        code = run(["extremal", "--p", "0.5", "--grid", "8", "--iters", "0",
                    "--out", str(bad)])
        assert code == EXIT_IO
