"""The CLI byte-identity sweep: for each argv of ``ARGV``, the exit code and
the sha256 of stdout (run without ``--out``) and of the ``--out`` file (run
with it), pinned in ``cli_sweep.json`` and checked by ``tests/test_cli.py``.

After a deliberate change to what the CLI writes, rewrite the table from
this tree, which prints each argv whose bytes or exit code changed, with

    python3 tests/pinned/cli_sweep.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).resolve().with_name("cli_sweep.json")

ARGV = [
    *(["verify", *argv.split()] for argv in (
        "--p 0.3,0.9 --samples 40 --seed 2",
        "--p 0.25,0.6,0.95 --samples 320 --seed 11",
        "--p 0.05,0.5,0.95 --samples 1800 --seed 7",
        "--p 0.99 --samples 850 --seed 99",
        "--p 0.01 --samples 40 --seed 2",
        "--p 0.2,0.5,0.8 --samples 1000 --seed 1",
        "--p 0.001,0.999999 --samples 300 --seed 2",
        "--p 0.123,0.456 --samples 8 --seed 1",
        "--p 0.9999999 --samples 20 --seed 3",
        "--p 0.1 --samples 200 --seed 1",
        "--p 0.5 --samples 1 --seed 1",
        "--p 0.5 --samples 5 --seed 9",
        # exits 1: HF_closed_form fails at p = 0.1, the evaluators read inf near 1
        "--p 0.1,0.9999999999999999 --samples 40 --seed 2",
        "--p 1e-60 --samples 30 --seed 3",
        "--p 1e-4 --samples 30 --seed 3",
        "--p 0.9999999999 --samples 30 --seed 3",
        "--p 0.9999999999999999 --samples 30 --seed 3",
    )),
    # the search defaults, each with an --iters 0 and an --iters 200 twin:
    # --grid, --iters and --seed change nothing, so every twin writes its
    # default's bytes (tests/test_cli.py checks each row without those flags)
    *(argv + iters for argv in (["extremal", "--p", "0.5"], ["bounds", "--p", "0.1,0.5,0.9"])
      for iters in ([], ["--iters", "0"], ["--iters", "200"])),
    ["extremal", "--p", "0.05", "--grid", "10", "--iters", "40", "--seed", "3"],
    ["extremal", "--p", "0.97", "--grid", "12", "--iters", "1", "--seed", "9"],
    ["bounds", "--p", "0.05,0.5,0.95", "--iters", "0", "--seed", "4"],
    ["extremal", "--p", "0.3", "--iters", "0"],
    ["bounds", "--p", "0.2,0.7", "--grid", "9", "--iters", "25", "--seed", "5"],
    ["region", "--p", "0.4", "--what", "both", "--samples", "3000", "--format", "json"],
    ["region", "--p", "0.4", "--what", "both", "--samples", "3000", "--format", "svg"],
    ["region", "--p", "0.6", "--what", "both", "--samples", "2000", "--format", "csv"],
    ["region", "--p", "0.2", "--what", "omega", "--samples", "16", "--format", "json"],
    ["region", "--p", "0.3", "--what", "hankel", "--samples", "1", "--format", "csv"],
    ["extremal", "--p", "0.37", "--grid", "10", "--iters", "40", "--seed", "3"],
    ["bounds", "--p", "0.1,0.5,0.9", "--grid", "8", "--iters", "25", "--seed", "2"],
    # 70,000 samples span several pieces of the region writers and several
    # kernel chunks of ``sample_region_H``
    *(["region", "--p", p, "--what", "both", "--samples", samples, "--seed", seed,
       "--format", fmt]
      for p, samples, seed in (("0.37", "300", "5"), ("0.61", "70000", "9"))
      for fmt in ("json", "svg", "csv")),
    # each subcommand on its defaults, so that no default changes unnoticed
    ["bounds"],
    ["extremal"],
    ["region"],
    ["verify"],
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sweep_row(argv: list[str], out: Path) -> dict:
    """The table row of ``argv``, run in-process twice: without ``--out``
    for stdout, and with ``--out out`` for the file."""
    from hankelbody import cli

    digests = []
    for extra in ([], ["--out", str(out)]):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = cli.main([*argv, *extra])
        digests.append((code, _sha256(stdout.getvalue().encode())))
    (code, stdout), (code_out, _) = digests
    assert code == code_out, f"{argv}: exit {code} without --out, {code_out} with it"
    return {"argv": argv, "exit": code, "stdout": stdout, "out": _sha256(out.read_bytes())}


def main() -> None:
    sys.path.insert(0, str(TABLE.parents[2] / "src"))
    old = {" ".join(row["argv"]): row for row in json.loads(TABLE.read_text())} \
        if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        rows = [sweep_row(argv, Path(tmp) / "out") for argv in ARGV]
    for row in rows:
        if old.get(" ".join(row["argv"])) != row:
            print("changed:", " ".join(row["argv"]))
    TABLE.write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n")


if __name__ == "__main__":
    main()
