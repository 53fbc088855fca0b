"""Job runner process of the benchmark: one client in a closed loop.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src`` and
the numpy/BLAS/OpenMP thread pools pinned to 1.  It reads one JSON request
per line on stdin and answers with one JSON line on stdout; the CLI's own
stdout is diverted to a byte counter while a job runs.

Requests:
  {"op": "job", "argv": [...]}       run hankelbody.cli.main(argv), timed in CPU seconds
  {"op": "trace"}                    install the span tracer
  {"op": "stats"}                    peak RSS and the tracer snapshot
  {"op": "kernel_rates", "n": N, "P": P, "repeats": R}
                                     isolated Mevals/s of the two kernels
  {"op": "quit"}
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


class _CountingSink:
    """Stand-in for sys.stdout that counts and discards what the CLI prints."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def cpu_seconds():
    """CPU time of this process and of the children it has waited for.

    Job times are CPU times, not wall times: the benchmark runs one thread
    in a closed loop, so the two agree on an idle machine, but wall time also
    counts the stretches in which a shared host runs someone else on our
    CPU, and those come and go over seconds.
    """
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def _run_job(cli, argv):
    sink = _CountingSink()
    saved = sys.stdout
    sys.stdout = sink
    error = None
    t0 = cpu_seconds()
    try:
        rc = cli.main(argv)
    except Exception:  # a traceback is a failed job, not a dead worker
        rc = None
        error = traceback.format_exc(limit=3)
    finally:
        elapsed = cpu_seconds() - t0
        sys.stdout = saved
    return {"rc": rc, "s": elapsed, "stdout_bytes": sink.chars, "error": error}


def _kernel_rates(n, P, repeats):
    import numpy as np

    from hankelbody.kernels import phi_batch, phi_sigma2_max

    rng = np.random.default_rng(0)
    r = np.sqrt(rng.uniform(size=(n, 3)))
    th = rng.uniform(0.0, 2.0 * np.pi, size=(n, 3))
    s = np.ascontiguousarray((r * np.exp(1j * th)).T)
    out = {}
    for name, fn, args in (("phi_batch", phi_batch, (P, s[0], s[1], s[2])),
                           ("phi_sigma2_max", phi_sigma2_max, (P, s[0], s[1]))):
        fn(*args)  # warm-up
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
        times.sort()
        out[name] = n / times[len(times) // 2] / 1e6
    return out


def main():
    import hankelbody
    import hankelbody.cli as cli
    import hankelbody.kernels as kernels

    proto = sys.stdout
    tracer = None
    ready = {"hankelbody_file": os.path.realpath(hankelbody.__file__),
             "use_numba": bool(kernels.USE_NUMBA)}
    proto.write(json.dumps(ready) + "\n")
    proto.flush()
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "job":
            reply = _run_job(cli, req["argv"])
        elif op == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            reply = {"ok": True}
        elif op == "stats":
            reply = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     "trace": tracer.snapshot() if tracer is not None else None}
        elif op == "kernel_rates":
            reply = _kernel_rates(int(req["n"]), float(req["P"]), int(req["repeats"]))
        elif op == "quit":
            break
        else:
            reply = {"error": f"unknown op {op!r}"}
        proto.write(json.dumps(reply) + "\n")
        proto.flush()


if __name__ == "__main__":
    main()
