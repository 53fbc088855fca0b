#!/usr/bin/env python3
"""hankelbody benchmark: seeded CLI workloads, end to end and per layer.

    python3 perfbench/run.py                       # every workload, untraced then traced
    python3 perfbench/run.py --workload verify_suite --seed 3 --seconds 25 --trace 0

A run starts one worker process (``worker.py``) that imports the checkout's
``src/hankelbody`` and executes the workload's seeded CLI jobs one after
another through ``hankelbody.cli.main(argv)``: a closed loop with one client.
Every job's output is checked by ``gates.py`` outside the timed region.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics from ``tracer.py``.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is 1 when a job fails its gate and 2 when the
benchmark cannot run at all (for example when ``src/hankelbody`` is absent).
See README.md in this directory for every metric.
"""

from __future__ import annotations

import os

# one thread per pool, in this process and in every child it starts
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import gates  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_RUNS = 7
IMPORTTIME_RUNS = 3
KERNEL_N = 2_000_000
KERNEL_P = 2.5
KERNEL_REPEATS = 5
START_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 120.0
WARMUP_ARGV = (
    ("extremal", "--p", "0.5", "--iters", "20"),
    ("verify", "--p", "0.5", "--samples", "20"),
    ("region", "--samples", "500", "--format", "json"),
)

E2E_UNITS = {
    "setup_s": "s", "items_per_s": "items/s", "job_s_p50": "s", "job_s_tail": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "import.numpy_s": "s", "import.scipy_optimize_s": "s", "import.hankelbody_s": "s",
    "cli.self_s": "s", "cli.bytes_out": "bytes",
    "search.self_s": "s", "search.estimate_M.calls": "count", "search.refine.calls": "count",
    "search.refine.self_s": "s", "search.refine.nfev": "count",
    "search.refine.useful_frac": "ratio",
    "kernels.self_s": "s",
    "kernels.phi_batch.calls": "count", "kernels.phi_batch.evals": "count",
    "kernels.phi_batch.evals_per_call": "count", "kernels.phi_batch.self_s": "s",
    "kernels.phi_sigma2_max.calls": "count", "kernels.phi_sigma2_max.evals": "count",
    "kernels.phi_sigma2_max.self_s": "s", "kernels.computed_bytes": "bytes",
    "kernels.phi_batch.mevals_per_s": "Mevals/s", "kernels.phi_sigma2_max.mevals_per_s": "Mevals/s",
    "oracle.self_s": "s", "oracle.a_batch_from_w.rows": "count",
    "oracle.a_batch_from_w.self_s": "s",
    "coeffbody.calls": "count", "coeffbody.self_s": "s",
    "hankel.calls": "count", "hankel.self_s": "s",
    "disk.calls": "count", "disk.self_s": "s",
    "series.calls": "count", "series.self_s": "s",
    "coeffbody.c_from_w.calls": "count", "coeffbody.c_from_sigma.calls": "count",
    "coeffbody.membership_x2.calls": "count", "series.taylor_from_samples.calls": "count",
    "disk.mobius_T.calls": "count",
    "trace.overhead_frac": "ratio",
}

# layers whose self time should dominate each workload's traced run
DOMINANT = {
    "extremal_sweep": ("search.refine", "kernels.phi_batch"),
    "verify_suite": ("oracle", "disk", "series", "coeffbody", "hankel"),
    "region_export": ("cli",),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}


# --- set-up cost ----------------------------------------------------------------

def measure_setup(runs: int) -> list[float]:
    """CPU seconds of a fresh interpreter from its start until
    ``hankelbody.cli`` is imported (CPU time for the reason given in
    ``worker.cpu_seconds``)."""
    code = "import hankelbody.cli\nimport time\nprint(repr(time.process_time()))"
    out = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=START_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"cannot import hankelbody.cli: {proc.stderr.strip()[-300:]}")
        out.append(float(proc.stdout.strip()))
    return out


def import_breakdown(runs: int) -> dict:
    """Import costs from ``python -X importtime``: cumulative numpy and
    scipy.optimize, and the self time of the hankelbody modules."""
    samples = {"import.numpy_s": [], "import.scipy_optimize_s": [], "import.hankelbody_s": []}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hankelbody.cli"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=START_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"cannot import hankelbody.cli: {proc.stderr.strip()[-300:]}")
        numpy_us = scipy_us = own_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, name = (f.strip() for f in line[len("import time:"):].split("|"))
            if not self_us.isdigit():
                continue  # header row
            if name == "numpy":
                numpy_us = int(cum_us)
            elif name == "scipy.optimize":
                scipy_us = int(cum_us)
            elif name.split(".")[0] == "hankelbody":
                own_us += int(self_us)
        samples["import.numpy_s"].append(numpy_us / 1e6)
        samples["import.scipy_optimize_s"].append(scipy_us / 1e6)
        samples["import.hankelbody_s"].append(own_us / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


# --- the worker process -------------------------------------------------------------

class Worker:
    """One ``worker.py`` process speaking JSON lines over its stdin/stdout."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=ROOT, text=True)
        try:
            self.info = self._read(START_TIMEOUT_S)
            where = Path(self.info["hankelbody_file"]).resolve()
            if SRC.resolve() not in where.parents:
                raise BenchError(f"hankelbody imported from {where}, not from {SRC}")
        except BaseException:
            self.close()
            raise

    def _read(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise BenchError(f"worker silent for {timeout:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait(timeout=10)}")
        return json.loads(line)

    def request(self, req: dict, timeout: float = JOB_TIMEOUT_S) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._read(timeout)

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write('{"op": "quit"}\n')
                self.proc.stdin.flush()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


def start_worker(workdir: Path, trace: bool = False) -> Worker:
    """A worker that has run the warm-up jobs (so lazy imports are done)."""
    w = Worker()
    try:
        for i, argv in enumerate(WARMUP_ARGV):
            out = workdir / f"warmup{i}"
            reply = w.request({"op": "job", "argv": [*argv, "--out", str(out)]})
            if reply["rc"] != 0:
                raise BenchError(f"warm-up job {argv} failed: {reply}")
            out.unlink(missing_ok=True)
        if trace:
            w.request({"op": "trace"})
    except BaseException:
        w.close()
        raise
    return w


# --- running jobs -------------------------------------------------------------------

@dataclass
class JobResult:
    argv: tuple
    round: int
    seconds: float
    ok: bool
    items: int
    bytes_out: int
    reason: str


def run_jobs(worker: Worker, job_iter, workdir: Path, seconds: float | None = None) -> list:
    """Run jobs until the iterator ends, or until ``seconds`` of wall time
    have passed and the round in progress is complete; gate each output
    outside the job's timed region."""
    results = []
    digests = {}
    end = None if seconds is None else time.monotonic() + seconds
    for i, job in enumerate(job_iter):
        if (end is not None and time.monotonic() >= end
                and (not results or job.round != results[-1].round)):
            break
        out = workdir / f"job{i}.{job.ext}"
        reply = worker.request({"op": "job", "argv": [*job.argv, "--out", str(out)]})
        data = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        try:
            if reply["error"]:
                raise gates.GateFailure(f"raised: {reply['error'].strip().splitlines()[-1]}")
            items = gates.check_job(job, reply["rc"], data)
            digest = hashlib.sha256(data).hexdigest()
            if digests.setdefault(job.argv, digest) != digest:
                raise gates.GateFailure("repeated job wrote different bytes")
            ok, reason = True, ""
        except gates.GateFailure as exc:
            items, ok, reason = 0, False, str(exc)
            print(f"GATE FAIL {' '.join(job.argv)}: {reason}", file=sys.stderr)
        results.append(JobResult(job.argv, job.round, reply["s"], ok, items,
                                 len(data) + reply["stdout_bytes"], reason))
    return results


def complete_rounds(results: list, round_length: int) -> list:
    """The jobs of each complete round, in order.  Every complete round holds
    the same multiset of job shapes, so statistics over whole rounds do not
    depend on where a run happened to stop."""
    rounds = {}
    for r in results:
        if r.round >= 0:
            rounds.setdefault(r.round, []).append(r)
    return [rs for rs in rounds.values() if len(rs) == round_length]


def tail_percentile(times: list, q: int) -> float:
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1]


@dataclass
class RunResult:
    metrics: dict
    attempted: int
    failed: int
    notes: dict


def run_untraced(workload: str, seed: int, seconds: float, tiny: bool = False,
                 setup_runs: int = SETUP_RUNS) -> RunResult:
    setup = measure_setup(setup_runs)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="jobs-") as tmp:
        workdir = Path(tmp)
        w = start_worker(workdir)
        try:
            results = run_jobs(w, workloads.jobs(workload, seed, tiny), workdir, seconds)
            stats = w.request({"op": "stats"})
        finally:
            w.close()
    rounds = complete_rounds(results, workloads.ROUND_LENGTH[workload])
    timed = [r for rs in rounds for r in rs] or results
    times = [r.seconds for r in timed]
    q = workloads.TAIL_PERCENTILE
    tail = tail_percentile(times, q)
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": sum(r.items for r in timed) / sum(times),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail,
        "peak_rss_mb": stats["maxrss_kb"] / 1024.0,
    }
    failed = sum(not r.ok for r in results)
    notes = {
        "jobs": len(results), "timed_jobs": len(timed),
        "busy_s": sum(r.seconds for r in results), "items": sum(r.items for r in results),
        "round_items_per_s": [sum(r.items for r in rs) / sum(r.seconds for r in rs)
                              for rs in rounds],
        "tail_percentile": q, "jobs_beyond_tail": sum(t > tail for t in times),
        "fail_frac": failed / len(results), "setup_samples_s": setup,
        "failures": [(" ".join(r.argv), r.reason) for r in results if not r.ok],
    }
    return RunResult(metrics, len(results), failed, notes)


def run_traced(workload: str, seed: int, seconds: float, tiny: bool = False,
               import_runs: int = IMPORTTIME_RUNS, kernel_n: int = KERNEL_N) -> RunResult:
    metrics = import_breakdown(import_runs)
    count = workloads.trace_job_count(workload, seconds)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="jobs-") as tmp:
        workdir = Path(tmp)
        w = start_worker(workdir)
        try:
            use_numba = w.info["use_numba"]
            rates = w.request({"op": "kernel_rates", "n": kernel_n, "P": KERNEL_P,
                               "repeats": KERNEL_REPEATS})
            plain = run_jobs(w, itertools.islice(workloads.jobs(workload, seed, tiny), count),
                             workdir)
        finally:
            w.close()
        w = start_worker(workdir, trace=True)
        try:
            traced = run_jobs(w, itertools.islice(workloads.jobs(workload, seed, tiny), count),
                              workdir)
            stats = w.request({"op": "stats"})
        finally:
            w.close()
    metrics.update(tracer.layer_metrics(stats["trace"]))
    metrics["cli.bytes_out"] = sum(r.bytes_out for r in traced)
    metrics["kernels.phi_batch.mevals_per_s"] = rates["phi_batch"]
    metrics["kernels.phi_sigma2_max.mevals_per_s"] = rates["phi_sigma2_max"]
    metrics["trace.overhead_frac"] = (sum(r.seconds for r in traced)
                                      / sum(r.seconds for r in plain) - 1.0)
    metrics = {k: metrics[k] for k in LAYER_UNITS}
    both = plain + traced
    failed = sum(not r.ok for r in both)
    total_self = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    dominant = sum(metrics[f"{name}.self_s"] for name in DOMINANT[workload])
    notes = {
        "jobs": count, "fail_frac": failed / len(both),
        "dominant_layers": DOMINANT[workload],
        "dominant_share": dominant / total_self if total_self else 0.0,
        "self_share": {layer: metrics[f"{layer}.self_s"] / total_self if total_self else 0.0
                       for layer in tracer.LAYERS},
        "kernel_rates": {
            "path": "numba" if use_numba else "numpy (numba absent)",
            "n": kernel_n, "P": KERNEL_P,
            "phi_batch_array_bytes": kernel_n * tracer.PHI_BATCH_BYTES,
            "phi_sigma2_max_array_bytes": kernel_n * tracer.PHI_SIGMA2_MAX_BYTES,
            "note": "arrays fit in the last-level cache when their bytes are below it: "
                    "then the rate is not a DRAM-bandwidth figure",
        },
        "failures": [(" ".join(r.argv), r.reason) for r in both if not r.ok],
    }
    return RunResult(metrics, len(both), failed, notes)


# --- environment record ---------------------------------------------------------------

def _caches() -> dict:
    out = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            size = (d / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _version(pkg: str) -> str:
    try:
        return importlib.metadata.version(pkg)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment(workload, seed, seconds, trace) -> dict:
    return {
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "numba_present": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)), "caches": _caches(),
        "thread_env": THREAD_ENV, "git_sha": _git_sha(),
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
    }


# --- command line ----------------------------------------------------------------------

def _print_metrics(workload, trace, res: RunResult):
    units = LAYER_UNITS if trace else E2E_UNITS
    mode = "traced" if trace else "untraced"
    for name, value in res.metrics.items():
        print(f"{workload} {mode} {name} = {value:.6g} {units[name]}")
    print(f"{workload} {mode} fail_frac = {res.failed / res.attempted:.6g} ratio "
          f"({res.failed} of {res.attempted} jobs)")
    if trace:
        share = res.notes["dominant_share"]
        print(f"{workload} traced dominant {'+'.join(res.notes['dominant_layers'])} "
              f"self-time share = {share:.3f}")
    else:
        print(f"{workload} untraced job_s_tail is p{res.notes['tail_percentile']} with "
              f"{res.notes['jobs_beyond_tail']} of {res.notes['timed_jobs']} timed jobs beyond it")


def run_one(workload, seed, seconds, trace) -> RunResult:
    if trace:
        return run_traced(workload, seed, seconds)
    return run_untraced(workload, seed, seconds)


def result_object(res: RunResult, trace: bool) -> dict:
    """The last line of a single-workload run."""
    units = LAYER_UNITS if trace else E2E_UNITS
    return {"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in res.metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics; "
                         "default for --workload all: both")
    args = ap.parse_args(argv)
    if not (SRC / "hankelbody" / "cli.py").is_file():
        print(f"run.py: no hankelbody sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.workload != "all":
            trace = bool(args.trace)
            print("env " + json.dumps(environment(args.workload, args.seed, args.seconds, trace)))
            res = run_one(args.workload, args.seed, args.seconds, trace)
            _print_metrics(args.workload, trace, res)
            print(json.dumps(result_object(res, trace)))
            return 0 if res.failed == 0 else 1
        modes = (False, True) if args.trace is None else (bool(args.trace),)
        report = {"env": environment("all", args.seed, args.seconds, None), "workloads": {}}
        failed = 0
        for workload in workloads.WORKLOADS:
            for trace in modes:
                res = run_one(workload, args.seed, args.seconds, trace)
                _print_metrics(workload, trace, res)
                failed += res.failed
                report["workloads"].setdefault(workload, {})["traced" if trace else "untraced"] = {
                    "metrics": res.metrics, "attempted": res.attempted, "failed": res.failed,
                    "notes": res.notes}
        path = OUT_DIR / "results.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
        print(json.dumps({"correct": failed == 0, "failed": failed}))
        return 0 if failed == 0 else 1
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
