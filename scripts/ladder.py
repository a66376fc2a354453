#!/usr/bin/env python3
"""Time the oracle on each rung of the instance ladder, one JSON line per rung.

Each rung runs three times, each time on a freshly built set. Each line
gives the instance, its number of states, the median over the runs of the
seconds spent building the pair table (`pair_table_s`, which includes the
per-party index of distinct vectors), of the seconds `verify_all` then
takes (`verify_all_s`, which reads the table already built and eliminates
every party), of the seconds the rule engine takes to derive the
certificate (`certificate_s`) and of the seconds `check_certificate` takes
to replay it (`check_s`), and the per-party statuses. The rotated rungs map
every party's vectors by a seeded random integer matrix with orthogonal
columns (`rotated` in `tests/helpers.py`), so no local basis is the
computational one. A run that does not finish within 60 s is printed as
{"instance": ..., "skipped": "budget"} and the ladder goes on.

    python scripts/ladder.py
    python scripts/ladder.py --json BENCH.json

With `--json PATH`, every rung is also written to PATH, together with a
stamp: the Python version, the number of CPUs the process may use and the
git commit of the checkout.

The budget is enforced with SIGALRM, so the script needs a POSIX system.
"""

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from nwe import derive_certificate, gen_equal, gen_general, verify_all
from nwe.inference import check_certificate

ROOT = Path(__file__).resolve().parents[1]

# the seeded rotations and the stopper removal are shared with the tests
sys.path.insert(0, str(ROOT / "tests"))
from helpers import rotated, without_stopper  # noqa: E402

BUDGET_S = 60.0
RUNS = 3
ROTATION_SEED = 2022


def rotated_equal(dim: int):
    """equal(3,dim) with every party's vectors in a seeded rotated basis."""
    return rotated(gen_equal(3, dim), random.Random(ROTATION_SEED + dim), range(3))


RUNGS = (
    ("equal(3,3)", lambda: gen_equal(3, 3)),
    ("equal(3,8)", lambda: gen_equal(3, 8)),
    ("equal(3,16)", lambda: gen_equal(3, 16)),
    ("equal(3,24)", lambda: gen_equal(3, 24)),
    ("equal(3,32)", lambda: gen_equal(3, 32)),
    ("equal(3,64)", lambda: gen_equal(3, 64)),
    ("equal(4,8)", lambda: gen_equal(4, 8)),
    ("equal(5,8)", lambda: gen_equal(5, 8)),
    ("equal(6,8)", lambda: gen_equal(6, 8)),
    ("equal(3,16)-no-stopper", lambda: without_stopper(gen_equal(3, 16))),
    ("general(3,3,24)", lambda: gen_general((3, 3, 24))),
    ("general(3,32,64)", lambda: gen_general((3, 32, 64))),
    ("general(4,8,12,16)", lambda: gen_general((4, 8, 12, 16))),
    ("equal(3,8)-rotated", lambda: rotated_equal(8)),
    ("equal(3,12)-rotated", lambda: rotated_equal(12)),
    ("equal(3,16)-rotated", lambda: rotated_equal(16)),
    ("equal(3,8)-rotated-no-stopper", lambda: without_stopper(rotated_equal(8))),
    ("equal(3,12)-rotated-no-stopper", lambda: without_stopper(rotated_equal(12))),
    ("equal(3,16)-rotated-no-stopper", lambda: without_stopper(rotated_equal(16))),
)


class OverBudget(Exception):
    pass


# the timed stages of `run`, in order
STAGES = ("pair_table_s", "verify_all_s", "certificate_s", "check_s")


def run(build) -> tuple[int, list[float], list[str]]:
    """(states, seconds per timed stage, statuses) of one run."""
    sset = build()
    marks = [time.perf_counter()]
    sset.pair_table
    marks.append(time.perf_counter())
    verdicts = verify_all(sset)
    marks.append(time.perf_counter())
    cert = derive_certificate(sset)
    marks.append(time.perf_counter())
    check_certificate(sset, cert)
    marks.append(time.perf_counter())
    return len(sset), [b - a for a, b in zip(marks, marks[1:])], [v.status for v in verdicts]


def rung(instance: str, build) -> dict:
    runs = []
    for _ in range(RUNS):
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
        try:
            runs.append(run(build))
        except OverBudget:
            return {"instance": instance, "skipped": "budget"}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    line = {"instance": instance, "states": runs[0][0]}
    for k, stage in enumerate(STAGES):
        line[stage] = round(statistics.median(r[1][k] for r in runs), 4)
    line["statuses"] = runs[0][2]
    return line


def stamp() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit,
        "runs_per_rung": RUNS,
    }


def _over_budget(signum, frame):
    raise OverBudget


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", help="also write every rung and a stamp to PATH")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _over_budget)
    lines = []
    for instance, build in RUNGS:
        line = rung(instance, build)
        lines.append(line)
        print(json.dumps(line), flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            json.dump({"stamp": stamp(), "rungs": lines}, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
