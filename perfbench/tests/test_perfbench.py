"""Tests of the benchmark itself: metric names and units, seeded job lists,
tiny smoke runs of every workload, and the correctness gates.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import gates
import pytest
import run
import workloads

from hankelbody import cli

ROOT = Path(run.ROOT)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_are_seeded(workload):
    first = list(islice(workloads.jobs(workload, 7), 40))
    assert first == list(islice(workloads.jobs(workload, 7), 40))
    assert first != list(islice(workloads.jobs(workload, 8), 40))


@pytest.fixture(scope="module", autouse=True)
def _out_dir():
    run.OUT_DIR.mkdir(exist_ok=True)


def _assert_result_line(res, trace):
    line = run.result_object(res, trace)
    units = run.LAYER_UNITS if trace else run.E2E_UNITS
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    json.dumps(line)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_untraced_run_reports_every_end_to_end_metric(workload):
    res = run.run_untraced(workload, seed=1, seconds=1.0, tiny=True, setup_runs=1)
    _assert_result_line(res, trace=False)
    assert all(v > 0 for v in res.metrics.values())


COUNTS = [name for name, unit in run.LAYER_UNITS.items() if unit in ("count", "bytes")]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric_and_repeats_counts(workload):
    kwargs = dict(seed=2, seconds=1.0, tiny=True, import_runs=1, kernel_n=10_000)
    a = run.run_traced(workload, **kwargs)
    _assert_result_line(a, trace=True)
    b = run.run_traced(workload, **kwargs)
    assert {k: a.metrics[k] for k in COUNTS} == {k: b.metrics[k] for k in COUNTS}


def test_traced_layers_match_the_workload():
    kwargs = dict(seed=3, seconds=1.0, tiny=True, import_runs=1, kernel_n=10_000)
    ext = run.run_traced("extremal_sweep", **kwargs).metrics
    assert ext["kernels.phi_batch.evals_per_call"] == pytest.approx(1.0, abs=0.01)
    assert ext["coeffbody.calls"] == 0 and ext["oracle.self_s"] == 0
    assert ext["search.refine.calls"] > 0
    ver = run.run_traced("verify_suite", **kwargs).metrics
    assert ver["search.refine.calls"] == 0 and ver["coeffbody.c_from_w.calls"] > 0
    assert ver["oracle.a_batch_from_w.rows"] > 0
    reg = run.run_traced("region_export", **kwargs).metrics
    assert reg["search.refine.calls"] == 0 and reg["oracle.self_s"] == 0
    assert reg["kernels.phi_batch.evals_per_call"] >= 100


# --- gates ---------------------------------------------------------------------------

def _cli_output(tmp_path, *argv, name="out"):
    out = tmp_path / name
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


def _gate_fails(fn, *args):
    with pytest.raises(gates.GateFailure):
        fn(*args)


def test_extremal_gate_rejects_corrupted_payloads(tmp_path):
    data = _cli_output(tmp_path, "extremal", "--p", "0.3", "--iters", "60")
    assert gates.check_extremal(data, 0.3) == 1
    payload = json.loads(data)
    for field, value in (("m_estimate", gates.upper_bound(0.3) * 1.01),
                         ("m_estimate", gates.exact_slice_max(0.3) * (1 - 1e-6)),
                         ("upper", payload["upper"] * 1.5),
                         ("p", 0.31)):
        bad = dict(payload, **{field: value})
        _gate_fails(gates.check_extremal, json.dumps(bad).encode(), 0.3)
    job = workloads.Job("extremal", ("extremal",), "json", (0.3,))
    assert gates.check_job(job, 0, data) == 1
    _gate_fails(gates.check_job, job, 0, b"{not json")
    _gate_fails(gates.check_job, job, 1, data)


def test_bounds_gate_rejects_a_wrong_row(tmp_path):
    data = _cli_output(tmp_path, "bounds", "--p", "0.2,0.9", "--iters", "60")
    assert gates.check_bounds(data, (0.2, 0.9)) == 2
    lines = data.decode().splitlines()
    cells = lines[2].split(",")
    cells[3] = repr(gates.upper_bound(0.9) * 1.1)
    bad = "\n".join([*lines[:2], ",".join(cells)]) + "\n"
    _gate_fails(gates.check_bounds, bad.encode(), (0.2, 0.9))
    _gate_fails(gates.check_bounds, data, (0.2, 0.8))


def test_verify_gate_rejects_a_failed_or_mismatched_report(tmp_path):
    data = _cli_output(tmp_path, "verify", "--p", "0.5", "--samples", "30", "--seed", "4")
    assert gates.check_verify(data, (0.5,), 30, 4) == 30
    report = json.loads(data)
    _gate_fails(gates.check_verify, json.dumps(dict(report, **{"pass": False})).encode(),
                (0.5,), 30, 4)
    _gate_fails(gates.check_verify, data, (0.5,), 31, 4)
    _gate_fails(gates.check_verify, data, (0.4,), 30, 4)


@pytest.mark.parametrize("fmt", ["json", "svg"])
@pytest.mark.parametrize("what", ["both", "hankel", "omega"])
def test_region_gate_accepts_real_output_and_counts_points(tmp_path, fmt, what):
    data = _cli_output(tmp_path, "region", "--p", "0.4", "--what", what, "--samples", "200",
                       "--format", fmt)
    cloud = 200 + 2 * 50  # sampled points plus the boundary and rotation slices
    omega = {"json": 200 + 201, "svg": 201}[fmt]  # json also lists the open polyline
    items = gates.check_region(data, fmt, what, 200, 0.4)
    if what == "omega":
        assert items == omega
    else:
        hankel_boundary = items - cloud - (omega if what == "both" else 0)
        assert 4 <= hankel_boundary <= gates.REGION_BINS + 1
    _gate_fails(gates.check_region, data, fmt, what, 201, 0.4)


def test_region_gate_rejects_values_above_the_upper_bound(tmp_path):
    data = _cli_output(tmp_path, "region", "--p", "0.4", "--what", "hankel", "--samples", "100",
                       "--format", "json")
    obj = json.loads(data)
    far = 2.0 * gates.upper_bound(0.4)
    obj["hankel"]["points"][5] = [far, 0.0]
    _gate_fails(gates.check_region, json.dumps(obj).encode(), "json", "hankel", 100, 0.4)
    obj["hankel"]["points"][5] = [float("nan"), 0.0]
    _gate_fails(gates.check_region, json.dumps(obj).encode(), "json", "hankel", 100, 0.4)
    svg = _cli_output(tmp_path, "region", "--p", "0.4", "--what", "hankel", "--samples", "100",
                      "--format", "svg", name="out.svg").decode()
    m = re.search(r'<circle cx="([-0-9.]+)" cy="[-0-9.]+" r="0.006"', svg)
    bad = svg[:m.start(1)] + f"{far:.6f}" + svg[m.end(1):]
    _gate_fails(gates.check_region, bad.encode(), "svg", "hankel", 100, 0.4)


class _StubWorker:
    """Writes a different byte on each call, as a nondeterministic CLI would."""

    def __init__(self):
        self.calls = 0

    def request(self, req):
        self.calls += 1
        Path(req["argv"][-1]).write_bytes(b"x" * self.calls)
        return {"rc": 0, "s": 0.01, "stdout_bytes": 0, "error": None}


def test_repeated_job_with_different_bytes_fails(tmp_path, monkeypatch):
    job = workloads.Job("region", ("region",), "json", (0.5,), n=16, what="omega", fmt="json")
    monkeypatch.setattr(gates, "check_job", lambda job, rc, data: 1)
    results = run.run_jobs(_StubWorker(), [job, job], tmp_path)
    assert [r.ok for r in results] == [True, False]
    assert "different bytes" in results[1].reason


def test_bare_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --- defects the workloads avoid (see README.md); these flip when fixed ------------------

@pytest.mark.xfail(strict=True, reason="region csv cells are written as np.float64(...) reprs")
def test_region_csv_output_parses(tmp_path):
    data = _cli_output(tmp_path, "region", "--p", "0.4", "--samples", "100", "--format", "csv")
    gates.check_region(data, "csv", "both", 100, 0.4)


@pytest.mark.xfail(strict=True, reason="HF_closed_form uses an absolute 1e-12 tolerance")
def test_verify_passes_at_small_p(tmp_path):
    out = tmp_path / "v.json"
    assert cli.main(["verify", "--p", "0.1", "--samples", "50", "--out", str(out)]) == 0
