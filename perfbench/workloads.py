"""Seeded CLI job lists for the three benchmark workloads.

Each workload is an endless sequence of rounds.  A round is a fixed multiset
of job shapes (subcommand, size level, output format); the seed draws the
order of the shapes and every value inside them (p, sample counts, program
seeds).  Keeping the shape mix fixed makes a run of a given length hold the
same kind of work on every seed, so the seed changes the inputs and not the
difficulty of the run.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("extremal_sweep", "verify_suite", "region_export")

# percentile reported as job_s_tail.  A 25 s run on a 2-core Xeon makes 28
# or more timed jobs, which leaves 8 or more above p70 (printed at run time).
# A higher percentile would reach the slowest shape of a round, which each
# round holds once.
TAIL_PERCENTILE = 70

# untraced CPU seconds of one round on a 2-core Xeon; sizes the traced job set
ROUND_SECONDS = {"extremal_sweep": 5.3, "verify_suite": 6.6, "region_export": 2.9}

REGION_ANCHOR_N = 100_000
# size levels (--samples) of a round; each job draws n within +-5% of its
# level, so the seed moves the sizes without reordering the job times
REGION_LEVELS = (12_000, 30_000, 70_000)
# every format x region kind once, at the level that makes the six jobs take
# similar times (0.15-0.4 s on a 2-core Xeon): the median and p70 job then
# sit in a dense part of the job-time distribution, not in a gap between
# shapes.  The cheaper svg writes get the largest level.
# csv is left out: under numpy >= 2 the CLI writes "np.float64(...)" into
# the csv cells, which fails the parse gate on every job (see README.md)
REGION_SHAPES = (
    ("json", "both", 0), ("json", "hankel", 1), ("json", "omega", 1),
    ("svg", "both", 2), ("svg", "hankel", 2), ("svg", "omega", 2),
)
# below p ~ 0.2 the HF_closed_form family fails its absolute 1e-12
# tolerance (|H| grows like 1/p^2), so verify exits 1 (see README.md)
VERIFY_P_MIN = 0.25
VERIFY_LEVELS = {"s": 320, "m": 850, "l": 1800}
# job times of a round form clusters by shape; the shape counts put the
# median and p70 job inside a cluster rather than in the gap between two,
# where the seed's draws would tip them from one cluster to the other.
# verify: (1,s) 0.36 s, (1,l) 0.55, (2,m) 0.8, (3,m) 1.25, (3,l) 1.5 on a
# 2-core Xeon; the median falls among the (2,m) jobs and p70 among (3,m)
VERIFY_SHAPES = ((1, "s"), (1, "l"), (2, "m"), (2, "m"), (3, "m"), (3, "m"), (3, "l"))
# extremal: near1 0.55-0.7 s, small 0.65-0.8, bounds 2; median and p70
# fall among the small-p jobs
EXTREMAL_SHAPES = ("near1", "near1", "small", "small", "small", "bounds")


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``argv`` lacks ``--out``, which the runner adds."""

    kind: str  # extremal | bounds | verify | region
    argv: tuple
    ext: str
    ps: tuple
    n: int = 0  # --samples for verify and region
    seed: int = 0
    what: str = ""
    fmt: str = ""
    round: int = -1  # index of the round; -1 for a job outside the rounds


def _fmt_p(p: float) -> str:
    return f"{p:.4f}"


def _p_small(rng):
    return float(_fmt_p(rng.uniform(0.05, 0.3)))


def _p_near1(rng):
    return float(_fmt_p(rng.uniform(0.85, 0.98)))


def _jitter(rng, level):
    return rng.randint(round(0.95 * level), round(1.05 * level))


def _distinct_ps(rng, k, lo, hi):
    ps = set()
    while len(ps) < k:
        ps.add(float(_fmt_p(rng.uniform(lo, hi))))
    return tuple(sorted(ps))


def _extremal_sweep(rng, tiny):
    search_flags = ("--grid", "8", "--iters", "30") if tiny else ()
    for rnd in itertools.count():
        shapes = list(EXTREMAL_SHAPES)
        rng.shuffle(shapes)
        for shape in shapes:
            seed = rng.randint(1, 10**6)
            if shape == "bounds":
                ps = [_p_small(rng), _p_near1(rng),
                      _p_small(rng) if rng.random() < 0.5 else _p_near1(rng)]
                ps = tuple(sorted(set(ps)))
                argv = ("bounds", "--p", ",".join(map(_fmt_p, ps)), *search_flags,
                        "--seed", str(seed))
                yield Job("bounds", argv, "csv", ps, seed=seed, round=rnd)
            else:
                p = _p_small(rng) if shape == "small" else _p_near1(rng)
                argv = ("extremal", "--p", _fmt_p(p), *search_flags, "--seed", str(seed))
                yield Job("extremal", argv, "json", (p,), seed=seed, round=rnd)


def _verify_suite(rng, tiny):
    for rnd in itertools.count():
        shapes = list(VERIFY_SHAPES)
        rng.shuffle(shapes)
        for n_p, level in shapes:
            n = _jitter(rng, VERIFY_LEVELS[level])
            if tiny:
                n = max(n // 40, 5)
            ps = _distinct_ps(rng, n_p, VERIFY_P_MIN, 0.95)
            seed = rng.randint(1, 10**6)
            argv = ("verify", "--p", ",".join(map(_fmt_p, ps)), "--samples", str(n),
                    "--seed", str(seed))
            yield Job("verify", argv, "json", ps, n=n, seed=seed, round=rnd)


def _region_job(rng, fmt, what, n, rnd):
    p = float(_fmt_p(rng.uniform(0.1, 0.9)))
    seed = rng.randint(1, 10**6)
    argv = ("region", "--p", _fmt_p(p), "--what", what, "--samples", str(n),
            "--seed", str(seed), "--format", fmt)
    return Job("region", argv, fmt, (p,), n=n, seed=seed, what=what, fmt=fmt, round=rnd)


def _region_export(rng, tiny):
    shrink = 100 if tiny else 1
    # the largest job runs first on every seed, so peak_rss_mb reads the
    # high-water mark of the same job size whatever the seed draws later
    yield _region_job(rng, "json", "both", REGION_ANCHOR_N // shrink, -1)
    for rnd in itertools.count():
        shapes = list(REGION_SHAPES)
        rng.shuffle(shapes)
        issued = {}
        for shape in shapes:
            fmt, what, level = shape
            n = max(_jitter(rng, REGION_LEVELS[level]) // shrink, 16)
            issued[shape] = job = _region_job(rng, fmt, what, n, rnd)
            yield job
        # one repeat per round, rotating through the shapes: its output must
        # be byte-identical to the first run's
        yield issued[REGION_SHAPES[rnd % len(REGION_SHAPES)]]


_GENERATORS = {"extremal_sweep": _extremal_sweep, "verify_suite": _verify_suite,
               "region_export": _region_export}

ROUND_LENGTH = {"extremal_sweep": len(EXTREMAL_SHAPES), "verify_suite": len(VERIFY_SHAPES),
                "region_export": len(REGION_SHAPES) + 1}


def jobs(workload: str, seed: int, tiny: bool = False) -> Iterator[Job]:
    """Endless seeded job sequence of a workload; ``tiny`` shrinks every size."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), tiny)


def trace_job_count(workload: str, seconds: float) -> int:
    """Fixed job count of a traced run: whole rounds filling about a third of
    ``seconds`` per pass (a traced run makes an untraced and a traced pass,
    and gates every output)."""
    rounds = max(1, round(seconds / (3.0 * ROUND_SECONDS[workload])))
    anchor = 1 if workload == "region_export" else 0
    return anchor + rounds * ROUND_LENGTH[workload]
