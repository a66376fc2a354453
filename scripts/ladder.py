#!/usr/bin/env python3
"""Time the oracle once on each rung of the instance ladder, one JSON line per rung.

Each line gives the instance, its number of states, the seconds spent
building the pair table (`pair_table_s`), the seconds `verify_all` then takes
(`verify_all_s`, which reads the table already built) and the per-party
statuses. A rung that does not finish within 60 s is printed as
{"instance": ..., "skipped": "budget"} and the ladder goes on.

    python scripts/ladder.py

The budget is enforced with SIGALRM, so the script needs a POSIX system.
"""

import json
import signal
import sys
import time

from nwe import StateSet, gen_equal, gen_general, verify_all
from nwe.states import is_stopper

BUDGET_S = 60.0


def without_stopper(sset: StateSet) -> StateSet:
    """The set without its all-ones state, which leaves every party Nontrivial."""
    states = tuple(s for s in sset.states if not is_stopper(s))
    return StateSet(sset.shape, states, provenance=sset.provenance + "-no-stopper")


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
