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
(`certificate_s`), of the seconds `check_certificate` takes to replay it
(`check_s`) and of the seconds of one whole `nwe verify --engine oracle`
on the rung's canonical document (`cli_s`: `nwe.cli.main` loads the file,
verifies every party and writes the report to a file; the document is
written once per rung, before any timed run, and the command's standard
output and error are discarded), and the per-party statuses. The rotated
rungs map every party's vectors by a seeded random integer matrix with
orthogonal columns (`rotations` in `tests/helpers.py`), so no local basis
is the computational one. A run that does not finish within 60 s is printed as
{"instance": ..., "skipped": "budget"} and the ladder goes on.

    python scripts/ladder.py
    python scripts/ladder.py --json BENCH.json

With `--json PATH`, every rung is also written to PATH, together with a
stamp: the Python version, the number of CPUs the process may use, the
git commit of the checkout, a digest of the source the rungs ran
(`source_sha256`, as `perfbench/run.py` computes it), which names the code
even when it was measured before its commit, and the start-up stage
(`import_s`, the median over 21 fresh interpreters of each figure, and
`import_min_s`, their minimum). Its figures are the seconds a fresh
interpreter takes to `import nwe` and to `import nwe.cli`, and `cold`: the
wall seconds of a whole `python -m nwe.cli verify --dims 3,3,4` process,
which is what a user pays. An import's interpreter first imports the
standard-library modules the package uses, then points
`sys.pycache_prefix` at an empty directory and stops writing bytecode, so
the package compiles from source whatever `__pycache__` holds, as it does
in every set-up of `perfbench/run.py` in a fresh checkout under
`PYTHONDONTWRITEBYTECODE=1`. The cold process preloads nothing and runs a
copy of the package without bytecode, under `PYTHONDONTWRITEBYTECODE=1`,
so it too compiles the package from source. A PATH that cannot be opened
for writing ends the script with exit status 2 before any rung runs.
The script compares no figures across sessions: on unchanged code, wall
seconds follow the host, so such comparisons wait for reference seconds
measured by the method of `perfbench/reference.py`.

With `--against REV`, the script instead compares the working tree with
`src/nwe` at the git revision REV, which it extracts with `git archive`
into a temporary directory and imports under a second package name. Each
rung runs five times in each tree, alternating which tree runs first; each
run builds the rung with its tree's generators, loads the rung's canonical
document with its tree's loader and runs its tree's `nwe verify` on the
document's file, so both trees are timed the same way, with the same
rotation matrices. Each printed line gives, per stage, the median of the
working tree's time over REV's (`ratio`) and the number of runs the working
tree was faster (`won`), and both trees' statuses. A first line does the
same for the start-up stage (`"stage": "import_s"`), over 21 fresh
interpreters per tree and figure, alternating which tree runs first, and
adds `min_ratio`: the working tree's fastest run over REV's. The script
exits with 1 if any rung's statuses differ between the trees, and takes no
`--json`.

    python scripts/ladder.py --against HEAD

The budget is enforced with SIGALRM, so the script needs a POSIX system.
"""

import argparse
import ast
import contextlib
import functools
import hashlib
import importlib
import json
import os
import platform
import random
import shutil
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
# fresh interpreters per figure of the start-up stage
IMPORT_RUNS = 21
# the imports the start-up stage times, named as in the working tree
IMPORTS = ("nwe", "nwe.cli")
# the command line of the stage's cold figure, run as `python -m nwe.cli ...`
COLD_ARGS = ("verify", "--dims", "3,3,4")
# the start-up stage's figures: the imports, then the cold command
STARTUP = (*IMPORTS, "cold")
# one fresh interpreter of the start-up stage: argv is the directory that
# holds the package, the module to import and the standard-library modules
# to import before the clock starts; prints the seconds the import took
IMPORT_CHILD = """
import importlib, sys, tempfile, time
where, module, *stdlib = sys.argv[1:]
for name in stdlib:
    importlib.import_module(name)
sys.path.insert(0, where)
with tempfile.TemporaryDirectory() as cache:
    sys.pycache_prefix = cache
    sys.dont_write_bytecode = True
    start = time.perf_counter()
    importlib.import_module(module)
    print(time.perf_counter() - start)
"""


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


# the timed stages of `run`, in order
STAGES = ("generate_s", "load_s", "pair_table_s", "verify_all_s", "certificate_s", "check_s", "cli_s")


def tree(package: str) -> SimpleNamespace:
    """The functions a run calls, from the package `package`."""
    constructions = importlib.import_module(f"{package}.constructions")
    serialize = importlib.import_module(f"{package}.serialize")
    inference = importlib.import_module(f"{package}.inference")
    verifier = importlib.import_module(f"{package}.verifier")
    cli = importlib.import_module(f"{package}.cli")
    return SimpleNamespace(
        gen_equal=constructions.gen_equal,
        gen_general=constructions.gen_general,
        state_set_from_document=serialize.state_set_from_document,
        verify_all=verifier.verify_all,
        derive_certificate=inference.derive_certificate,
        check_certificate=inference.check_certificate,
        cli_main=cli.main,
    )


def document(sset: StateSet) -> dict:
    """The canonical document of a set built by the working tree."""
    return json.loads(dumps_canonical(state_set_to_document(sset)))


@contextlib.contextmanager
def written(doc: dict):
    """The path of `doc`'s canonical text, written to a temporary
    directory, and the path `nwe verify` writes its report to there."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "set.json")
        path.write_text(dumps_canonical(doc), encoding="utf-8")
        yield str(path), str(Path(tmp, "report.json"))


def run(build, doc: dict, files: tuple[str, str], api) -> tuple[int, list[float], list[str]]:
    """(states, seconds per timed stage, statuses) of one run of `api`'s
    functions on the rung that `build` makes and whose canonical document
    is `doc`, written to the first of `files`; the stages after the load
    run on the loaded set, and `nwe verify` writes its report to the second
    of `files`."""
    path, out = files
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
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
        code = api.cli_main(["verify", "--input", path, "--engine", "oracle", "--out", out])
        marks.append(time.perf_counter())
    if code not in (0, 1):
        raise RuntimeError(f"nwe verify exited with {code}")
    return len(sset), [b - a for a, b in zip(marks, marks[1:])], [v.status for v in verdicts]


def timed_runs(build, trees: dict, runs: int) -> dict | None:
    """`runs` runs of the rung that `build` makes in each of `trees`, which
    maps a name to a `tree`, alternating which tree runs first; every run
    loads the canonical document of the first tree's build. Per tree: the
    states, the seconds of each run per stage of STAGES and the first run's
    statuses. None when one round of the trees exceeds BUDGET_S."""
    names = list(trees)
    doc = document(build(trees[names[0]]))
    results = {name: [] for name in names}
    with written(doc) as files:
        for k in range(runs):
            signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
            try:
                for name in names if k % 2 == 0 else names[::-1]:
                    results[name].append(run(build, doc, files, trees[name]))
            except OverBudget:
                return None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    return {name: (rs[0][0], dict(zip(STAGES, zip(*(r[1] for r in rs)))), rs[0][2]) for name, rs in results.items()}


def rung(instance: str, build) -> dict:
    """The rung's line: per stage, the median of RUNS runs of the working tree."""
    runs = timed_runs(build, {"working": tree("nwe")}, RUNS)
    if runs is None:
        return {"instance": instance, "skipped": "budget"}
    states, seconds, statuses = runs["working"]
    medians = {stage: round(statistics.median(s), 4) for stage, s in seconds.items()}
    return {"instance": instance, "states": states, **medians, "statuses": statuses}


def source_digest() -> str:
    """The first 16 hex digits of the sha256 over each `src/nwe/*.py`, in
    name order, as its name, a NUL byte and its bytes."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nwe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


@functools.cache
def stdlib_modules(package_dir: Path) -> list[str]:
    """The modules that the package in `package_dir` imports by absolute name."""
    names = set()
    for path in package_dir.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    return sorted(names)


def import_seconds(where: Path, package: str, name: str) -> float:
    """The seconds a fresh interpreter takes to import `name` (one of
    IMPORTS) from the package `package` in the directory `where`."""
    module = package + name.removeprefix("nwe")
    argv = [sys.executable, "-c", IMPORT_CHILD, str(where), module, *stdlib_modules(where / package)]
    return float(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)


def cold_seconds(where: Path, package: str) -> float:
    """The wall seconds of a fresh `python -m <package>.cli` run of
    COLD_ARGS, nothing preloaded, on a copy of the package in the directory
    `where` that holds no bytecode and gets none written."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(where / package, Path(tmp, package), ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", f"{package}.cli", *COLD_ARGS]
        start = time.perf_counter()
        subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, check=True)
        return time.perf_counter() - start


def startup_seconds(where: Path, package: str, name: str) -> float:
    """The seconds of the start-up figure `name` (one of STARTUP) for the
    package `package` in the directory `where`."""
    return cold_seconds(where, package) if name == "cold" else import_seconds(where, package, name)


def startup_runs(places: dict) -> dict:
    """IMPORT_RUNS fresh interpreters per figure of STARTUP in each of
    `places`, which maps a tree's name to its (directory, package),
    alternating which tree runs first. Per tree: the seconds of each run
    per figure."""
    names = list(places)
    seconds = {name: {figure: [] for figure in STARTUP} for name in names}
    for k in range(IMPORT_RUNS):
        for figure in STARTUP:
            for name in names if k % 2 == 0 else names[::-1]:
                seconds[name][figure].append(startup_seconds(*places[name], figure))
    return seconds


def stamp() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    seconds = startup_runs({"working": (ROOT / "src", "nwe")})["working"]
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit,
        "source_sha256": source_digest(),
        "runs_per_rung": RUNS,
        "import_s": {figure: round(statistics.median(s), 4) for figure, s in seconds.items()},
        "import_min_s": {figure: round(min(s), 4) for figure, s in seconds.items()},
    }


def compare(working: dict, against: dict) -> tuple[dict, dict]:
    """From the seconds of each run per stage in the two trees: per stage,
    the median of working over against (None if against timed a run at 0),
    and the number of runs the working tree was faster."""
    pairs = {stage: list(zip(working[stage], against[stage])) for stage in working}
    ratio = {
        stage: round(statistics.median(w / a for w, a in runs), 2) if all(a for _, a in runs) else None
        for stage, runs in pairs.items()
    }
    return ratio, {stage: sum(w < a for w, a in runs) for stage, runs in pairs.items()}


def against_imports(places: dict) -> dict:
    """The start-up stage compared between the "working" and "against"
    trees of `places`. `min_ratio` is the working tree's fastest run over
    the other tree's."""
    seconds = startup_runs(places)
    working, other = seconds["working"], seconds["against"]
    ratio, won = compare(working, other)
    min_ratio = {figure: round(min(working[figure]) / min(other[figure]), 2) for figure in STARTUP}
    return {"stage": "import_s", "runs": IMPORT_RUNS, "ratio": ratio, "min_ratio": min_ratio, "won": won}


def against_rung(instance: str, build, trees: dict) -> dict:
    """The rung compared over AGAINST_RUNS runs of each of the two trees,
    {"working": ..., "against": ...}."""
    runs = timed_runs(build, trees, AGAINST_RUNS)
    if runs is None:
        return {"instance": instance, "skipped": "budget"}
    (states, working, statuses), (_, other, other_statuses) = runs["working"], runs["against"]
    ratio, won = compare(working, other)
    line = {"instance": instance, "states": states, "runs": AGAINST_RUNS, "ratio": ratio, "won": won}
    return {**line, "statuses": statuses, "against_statuses": other_statuses}


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
            places = {"working": (ROOT / "src", "nwe"), "against": (Path(tmp), AGAINST_PACKAGE)}
            print(json.dumps(against_imports(places)), flush=True)
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
    parser.add_argument("--against", metavar="REV", help="compare the working tree with src/nwe at git revision REV")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _over_budget)
    if args.against:
        if args.json:
            parser.error("--against does not take --json")
        return against(args.against)
    try:
        out = open(args.json, "w", encoding="utf-8", newline="\n") if args.json else contextlib.nullcontext()
    except OSError as exc:
        print(f"error: cannot write {args.json}: {exc.strerror}", file=sys.stderr)
        return 2
    with out:
        lines = []
        for instance, build in RUNGS:
            lines.append(rung(instance, build))
            print(json.dumps(lines[-1]), flush=True)
        if args.json:
            json.dump({"stamp": stamp(), "rungs": lines}, out, indent=2)
            out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
