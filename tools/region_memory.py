"""Memory of a region export, phase by phase.

Samples Omega_p and the H region as ``region --what both`` does, then
writes each document given by ``--format``, and prints the tracemalloc
peak of every phase: Omega_p sampling, H sampling and each document write,
the write measured apart from the sampled arrays it is given.  Then, for
each format, runs the whole export as a fresh ``region`` process without
tracemalloc and prints that process's peak resident set (``ru_maxrss``).
The peaks include numpy's first-call allocations, as one export has them.

    python3 tools/region_memory.py [--p 0.5] [--samples 100000] [--format json svg csv]

It imports the ``hankelbody`` that ``sys.path`` finds, so with
``PYTHONPATH=<tree>/src`` it measures that tree.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

from hankelbody import PoleParam, cli
from hankelbody.search import sample_omega_boundary, sample_region_H

#: a fresh ``region`` export that prints its ``ru_maxrss`` in KiB (Linux)
_CHILD = ("import resource, sys; from hankelbody.cli import main; "
          "code = main(sys.argv[1:]); "
          "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(code)")


def traced_peak(func, *args):
    """(result, tracemalloc peak in bytes) of ``func(*args)``."""
    tracemalloc.start()
    try:
        result = func(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def export_maxrss(argv: list[str]) -> int:
    """``ru_maxrss`` in KiB of a fresh process that runs ``main(argv)``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return int(done.stdout.split()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--p", type=float, default=0.5)
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--format", nargs="+", choices=("json", "svg", "csv"),
                    default=["json", "svg", "csv"])
    args = ap.parse_args(argv)
    pp = PoleParam(args.p)

    print(f"region --p {args.p} --what both --samples {args.samples} --seed {args.seed}")
    print(f"{'phase':<24}{'tracemalloc peak MB':>20}")
    omega, peak = traced_peak(sample_omega_boundary, pp, args.samples)
    print(f"{'Omega_p sampling':<24}{peak / 1e6:>20.2f}")
    hank, peak = traced_peak(sample_region_H, pp, args.samples, args.seed)
    print(f"{'H sampling':<24}{peak / 1e6:>20.2f}")
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in args.format:
            out = os.path.join(tmp, f"region.{fmt}")
            _, peak = traced_peak(cli._write_text, out, cli._DOCUMENTS[fmt](omega, hank))
            print(f"{fmt + ' write':<24}{peak / 1e6:>20.2f}")
        del omega, hank
        print(f"{'fresh export':<24}{'ru_maxrss MiB':>20}")
        for fmt in args.format:
            kib = export_maxrss(["region", "--p", repr(args.p), "--what", "both",
                                 "--samples", str(args.samples), "--seed", str(args.seed),
                                 "--format", fmt, "--out", os.path.join(tmp, f"export.{fmt}")])
            print(f"{fmt:<24}{kib / 1024:>20.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
