#!/usr/bin/env python3
"""Time the oracle on each rung of the instance ladder, one JSON line per rung.

Each rung runs three times. Each line gives the instance, its number of
states, the median over the runs of the seconds the rung's builder takes
(`generate_s`: the library's generator and, on a derived rung, the rotation
or the stopper's removal, each of which interns the set's vectors as it is
made; the rotation's matrices are drawn once per rung, before any timed
run), of the seconds `state_set_from_document` takes to load the set's
canonical document (`load_s`; the document is written and parsed outside
the timed span), of the seconds spent building the pair table of the loaded
set (`pair_table_s`), of the seconds `verify_all` then takes
(`verify_all_s`, which reads the table already built and eliminates every
party), of the seconds the rule engine takes to derive the certificate
(`certificate_s`) and of the seconds `check_certificate` takes to replay it
(`check_s`), and the per-party statuses. The rotated rungs map every
party's vectors by a seeded random integer matrix with orthogonal columns
(`rotations` in `tests/helpers.py`), so no local basis is the computational
one. A run that does not finish within 60 s is printed as
{"instance": ..., "skipped": "budget"} and the ladder goes on.

    python scripts/ladder.py
    python scripts/ladder.py --json BENCH.json
    python scripts/ladder.py --baseline BENCH_9.json

With `--json PATH`, every rung is also written to PATH, together with a
stamp: the Python version, the number of CPUs the process may use, the
git commit of the checkout and a digest of the source the rungs ran
(`source_sha256`, as `perfbench/run.py` computes it), which names the code
even when it was measured before its commit. With `--baseline PATH`, each
printed line also gives `baseline_ratio`: each of the rung's stage times
divided by the same stage of the same rung in PATH, an earlier `--json`
file (null where PATH lacks the rung or the stage, or timed it at 0); the
`--json` file is unchanged.

With `--against REV`, the script instead compares the working tree with
`src/nwe` at the git revision REV, which it extracts with `git archive`
into a temporary directory and imports under a second package name. Each
rung runs five times in each tree, alternating which tree runs first; each
run builds the rung with its tree's generators and loads the rung's
canonical document with its tree's loader, so both trees are timed the same
way, with the same rotation matrices. Each printed line gives, per stage,
the median of the working tree's time over REV's (`ratio`) and the number
of runs the working tree was faster (`won`), and both trees' statuses. The
script exits with 1 if any rung's statuses differ between the trees.

    python scripts/ladder.py --against HEAD

The budget is enforced with SIGALRM, so the script needs a POSIX system.
"""

import argparse
import functools
import hashlib
import importlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from nwe import StateSet
from nwe.serialize import dumps_canonical, state_set_to_document

ROOT = Path(__file__).resolve().parents[1]

# the seeded rotations and the stopper removal are shared with the tests
sys.path.insert(0, str(ROOT / "tests"))
from helpers import rotate, rotations, without_stopper  # noqa: E402

BUDGET_S = 60.0
RUNS = 3
AGAINST_RUNS = 5
ROTATION_SEED = 2022
# `src/nwe` at the `--against` revision is imported as this package
AGAINST_PACKAGE = "nwe_against"


@functools.cache
def rotation(dim: int) -> dict[int, list[list[int]]]:
    """The seeded matrices of the rotated equal(3,dim) rungs. They are drawn
    by the rung's first build, which makes its document before any run is
    timed, and every later build of either tree reuses them."""
    return rotations(random.Random(ROTATION_SEED + dim), (dim,) * 3, range(3))


def rotated_equal(api, dim: int):
    """equal(3,dim) with every party's vectors in a seeded rotated basis."""
    return rotate(api.gen_equal(3, dim), rotation(dim))


# each builder makes its rung with the generators of the tree `api`
RUNGS = (
    ("equal(3,3)", lambda api: api.gen_equal(3, 3)),
    ("equal(3,8)", lambda api: api.gen_equal(3, 8)),
    ("equal(3,16)", lambda api: api.gen_equal(3, 16)),
    ("equal(3,24)", lambda api: api.gen_equal(3, 24)),
    ("equal(3,32)", lambda api: api.gen_equal(3, 32)),
    ("equal(3,64)", lambda api: api.gen_equal(3, 64)),
    ("equal(4,8)", lambda api: api.gen_equal(4, 8)),
    ("equal(5,8)", lambda api: api.gen_equal(5, 8)),
    ("equal(6,8)", lambda api: api.gen_equal(6, 8)),
    ("equal(3,16)-no-stopper", lambda api: without_stopper(api.gen_equal(3, 16))),
    ("general(3,3,24)", lambda api: api.gen_general((3, 3, 24))),
    ("general(3,32,64)", lambda api: api.gen_general((3, 32, 64))),
    ("general(4,8,12,16)", lambda api: api.gen_general((4, 8, 12, 16))),
    ("equal(3,8)-rotated", lambda api: rotated_equal(api, 8)),
    ("equal(3,12)-rotated", lambda api: rotated_equal(api, 12)),
    ("equal(3,16)-rotated", lambda api: rotated_equal(api, 16)),
    ("equal(3,8)-rotated-no-stopper", lambda api: without_stopper(rotated_equal(api, 8))),
    ("equal(3,12)-rotated-no-stopper", lambda api: without_stopper(rotated_equal(api, 12))),
    ("equal(3,16)-rotated-no-stopper", lambda api: without_stopper(rotated_equal(api, 16))),
)


class OverBudget(Exception):
    pass


# the timed stages of `run`, in order; `--baseline` compares each of them
STAGES = ("generate_s", "load_s", "pair_table_s", "verify_all_s", "certificate_s", "check_s")


def tree(package: str) -> SimpleNamespace:
    """The functions a run calls, from the package `package`."""
    constructions = importlib.import_module(f"{package}.constructions")
    serialize = importlib.import_module(f"{package}.serialize")
    inference = importlib.import_module(f"{package}.inference")
    verifier = importlib.import_module(f"{package}.verifier")
    return SimpleNamespace(
        gen_equal=constructions.gen_equal,
        gen_general=constructions.gen_general,
        state_set_from_document=serialize.state_set_from_document,
        verify_all=verifier.verify_all,
        derive_certificate=inference.derive_certificate,
        check_certificate=inference.check_certificate,
    )


def document(sset: StateSet) -> dict:
    """The canonical document of a set built by the working tree."""
    return json.loads(dumps_canonical(state_set_to_document(sset)))


def run(build, doc: dict, api) -> tuple[int, list[float], list[str]]:
    """(states, seconds per timed stage, statuses) of one run of `api`'s
    functions on the rung that `build` makes and whose canonical document
    is `doc`; the stages after the load run on the loaded set."""
    marks = [time.perf_counter()]
    build(api)
    marks.append(time.perf_counter())
    sset = api.state_set_from_document(doc)
    marks.append(time.perf_counter())
    sset.pair_table
    marks.append(time.perf_counter())
    verdicts = api.verify_all(sset)
    marks.append(time.perf_counter())
    cert = api.derive_certificate(sset)
    marks.append(time.perf_counter())
    api.check_certificate(sset, cert)
    marks.append(time.perf_counter())
    return len(sset), [b - a for a, b in zip(marks, marks[1:])], [v.status for v in verdicts]


def budgeted(runs: int, one_run) -> list | None:
    """`runs` results of `one_run()`, or None when one exceeds BUDGET_S."""
    results = []
    for k in range(runs):
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
        try:
            results.append(one_run(k))
        except OverBudget:
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return results


def rung(instance: str, build) -> dict:
    api = tree("nwe")
    doc = document(build(api))
    runs = budgeted(RUNS, lambda _: run(build, doc, api))
    if runs is None:
        return {"instance": instance, "skipped": "budget"}
    line = {"instance": instance, "states": runs[0][0]}
    for k, stage in enumerate(STAGES):
        line[stage] = round(statistics.median(r[1][k] for r in runs), 4)
    line["statuses"] = runs[0][2]
    return line


def source_digest() -> str:
    """The first 16 hex digits of the sha256 over each `src/nwe/*.py`, in
    name order, as its name, a NUL byte and its bytes."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nwe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


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
        "source_sha256": source_digest(),
        "runs_per_rung": RUNS,
    }


def baseline_ratio(line: dict, earlier: dict) -> dict:
    """line's STAGES divided by those of earlier, the same rung of a
    baseline run (None where either is missing or the baseline reads 0)."""
    return {
        stage: round(line[stage] / earlier[stage], 2) if line.get(stage) is not None and earlier.get(stage) else None
        for stage in STAGES
    }


def against_rung(instance: str, build, trees: dict) -> dict:
    """The rung run AGAINST_RUNS times in each of the two trees, {"working":
    ..., "against": ...}, alternating which runs first, each tree building
    the rung and loading the working tree's canonical document of it."""
    doc = document(build(trees["working"]))
    names = list(trees)

    def one_run(k):
        return {name: run(build, doc, trees[name]) for name in (names if k % 2 == 0 else names[::-1])}

    runs = budgeted(AGAINST_RUNS, one_run)
    if runs is None:
        return {"instance": instance, "skipped": "budget"}
    ratio, won = {}, {}
    for k, stage in enumerate(STAGES):
        pairs = [(r["working"][1][k], r["against"][1][k]) for r in runs]
        ratio[stage] = round(statistics.median(w / a for w, a in pairs), 2) if all(a for _, a in pairs) else None
        won[stage] = sum(w < a for w, a in pairs)
    statuses = {name: runs[0][name][2] for name in names}
    return {
        "instance": instance,
        "states": runs[0]["working"][0],
        "runs": AGAINST_RUNS,
        "ratio": ratio,
        "won": won,
        "statuses": statuses["working"],
        "against_statuses": statuses["against"],
    }


def against(rev: str) -> int:
    """Compare the working tree with `src/nwe` at `rev`, rung by rung."""
    try:
        archive = subprocess.run(["git", "archive", rev, "src/nwe"], cwd=ROOT, capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = exc.stderr.decode().strip() if isinstance(exc, subprocess.CalledProcessError) else exc
        print(f"error: cannot extract src/nwe at {rev}: {detail}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        Path(tmp, "src", "nwe").rename(Path(tmp, AGAINST_PACKAGE))
        sys.path.insert(0, tmp)
        try:
            trees = {"working": tree("nwe"), "against": tree(AGAINST_PACKAGE)}
            differ = False
            for instance, build in RUNGS:
                line = against_rung(instance, build, trees)
                differ |= line.get("statuses") != line.get("against_statuses")
                print(json.dumps(line), flush=True)
        finally:
            sys.path.remove(tmp)
            for name in [m for m in sys.modules if m.split(".")[0] == AGAINST_PACKAGE]:
                del sys.modules[name]
    return 1 if differ else 0


def _over_budget(signum, frame):
    raise OverBudget


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", help="also write every rung and a stamp to PATH")
    parser.add_argument("--baseline", metavar="PATH", help="print each rung's times as ratios to PATH's")
    parser.add_argument("--against", metavar="REV", help="compare the working tree with src/nwe at git revision REV")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _over_budget)
    if args.against:
        if args.json or args.baseline:
            parser.error("--against takes neither --json nor --baseline")
        return against(args.against)
    baseline = None
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = {r["instance"]: r for r in json.load(fh)["rungs"]}
    lines = []
    for instance, build in RUNGS:
        line = rung(instance, build)
        lines.append(line)
        shown = line
        if baseline is not None:
            shown = {**line, "baseline_ratio": baseline_ratio(line, baseline.get(instance, {}))}
        print(json.dumps(shown), flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            json.dump({"stamp": stamp(), "rungs": lines}, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
