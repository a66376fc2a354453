#!/usr/bin/env python3
"""Time the oracle once on each rung of the instance ladder, one JSON line per rung.

Each line gives the instance, its number of states, the seconds spent
building the pair table (`pair_table_s`), the seconds `verify_all` then takes
(`verify_all_s`, which reads the table already built) and the per-party
statuses. The rotated rungs map every party's vectors by a seeded random
integer matrix with orthogonal columns (`rotated` in `tests/helpers.py`), so
no local basis is the computational one. A rung that does not finish
within 60 s is printed as {"instance": ..., "skipped": "budget"} and the
ladder goes on.

    python scripts/ladder.py

The budget is enforced with SIGALRM, so the script needs a POSIX system.
"""

import json
import random
import signal
import sys
import time
from pathlib import Path

from nwe import gen_equal, gen_general, verify_all

# the seeded rotations and the stopper removal are shared with the tests
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from helpers import rotated, without_stopper  # noqa: E402

BUDGET_S = 60.0
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


def run(instance: str, build) -> dict:
    sset = build()
    start = time.perf_counter()
    sset.pair_table
    built = time.perf_counter()
    verdicts = verify_all(sset)
    done = time.perf_counter()
    return {
        "instance": instance,
        "states": len(sset),
        "pair_table_s": round(built - start, 4),
        "verify_all_s": round(done - built, 4),
        "statuses": [v.status for v in verdicts],
    }


def _over_budget(signum, frame):
    raise OverBudget


def main() -> int:
    signal.signal(signal.SIGALRM, _over_budget)
    for instance, build in RUNGS:
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
        try:
            line = run(instance, build)
        except OverBudget:
            line = {"instance": instance, "skipped": "budget"}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
