"""Benchmark of `nwe verify`, end to end and per layer.

    python3 perfbench/run.py --workload family_oracle --seed 1 --seconds 45 --trace 0

Load model: a closed loop with one caller. The process sets the workload up
(import nwe, generate, scramble and write the documents), checks the inputs,
then runs `nwe.cli.main(["verify", ...])` on each document in turn, one pass
after another, until --seconds have passed and at least MIN_PASSES passes
have run; it sets the workload up again after each pass. A pass always
verifies every document, so every pass does the same fixed work. Each
set-up and each document's verify runs between two runs of a fixed
reference computation, and the end-to-end times are given in reference
seconds (see reference.py), which a busy host moves far less than wall
seconds. Every report is checked independently (see outputs.py); a
document fails when its exit code, a verdict or a witness is wrong, or the
call raised.

--trace 0 prints the end-to-end metrics. --trace 1 repeats cycles of an
untraced pass, a traced CLI pass and a per-layer replay (see layers.py), and
prints the per-layer metrics; its spans are written to .perfbench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Earlier lines give every metric by name with
its unit, and a stamp (Python version, CPU count, seed, commit, instances and
sample counts) so that runs can be compared like with like.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import layers
import outputs
import workloads
from reference import REF_S, beside_reference, reference_seconds
from workloads import ROOT, SRC, WORKLOADS

# set-ups run back to back after every pass
SETUP_TRIES = 5
# fewest passes of a --trace 0 run, so that certify_s is a median of several
MIN_PASSES = 3

END_TO_END_UNITS = {"certify_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _purge_nwe() -> None:
    for name in [m for m in sys.modules if m == "nwe" or m.startswith("nwe.")]:
        del sys.modules[name]


def setup(workload, seed: int, workdir) -> tuple[list[tuple[str, str]], float, float]:
    """Import nwe afresh, build and write the documents.

    Returns the (instance, path) of each document, the seconds taken and the
    seconds spent in the library's generators. Every set-up starts from a
    collected heap, and afterwards the live objects are frozen out of the
    collector's scans, so that garbage collection inside verify costs what it
    would in a lone process.
    """
    gc.unfreeze()
    _purge_nwe()
    gc.collect()
    start = time.perf_counter()
    workloads.load_nwe()
    docs, generate_s = workloads.build_documents(workload, seed)
    written = []
    for k, (instance, text) in enumerate(docs):
        path = os.path.join(workdir, f"doc-{k}.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        written.append((instance, path))
    seconds = time.perf_counter() - start
    gc.collect()
    gc.freeze()
    return written, seconds, generate_s


class Verifier:
    """Runs `nwe verify` on the documents and checks every report."""

    def __init__(self, workload, docs, workdir):
        import nwe.cli

        self.cli = nwe.cli
        self.workload = workload
        self.instances = [instance for instance, _ in docs]
        paths = [path for _, path in docs]
        self.docs = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            table = workloads.classify_pairs(doc)
            if table.violations:
                raise RuntimeError(f"generated document {path} is not orthogonal: {table.violations[:3]}")
            self.docs.append((path, doc, workloads.sparse_locals(doc), table, os.path.getsize(path)))
        self.out = [os.path.join(workdir, f"report-{k}.json") for k in range(len(paths))]
        self.argv = [
            ["verify", "--input", path, "--engine", workload.engine, "--out", out]
            for path, out in zip(paths, self.out)
        ]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.absent: set[str] = set()  # traced CLI layers that nwe.cli lacks

    def run_doc(self, k: int, tracer: layers.Tracer | None = None) -> tuple[float, dict | None]:
        """Verify document k, traced when a tracer is given.

        Returns the seconds taken and the report (None if missing).
        """
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out[k])
        code, raised = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                if tracer is None:
                    code = self.cli.main(self.argv[k])
                else:
                    tracer.doc = k
                    with layers.traced_cli(self.cli, tracer) as missing, tracer.span("cli.main"):
                        self.absent |= missing
                        code = self.cli.main(self.argv[k])
        except Exception:
            raised = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        return seconds, self._check(k, code, raised)

    def _check(self, k: int, code, raised):
        self.attempted += 1
        path, doc, vecs, table, _ = self.docs[k]
        report = None
        if raised is not None:
            problems = [f"verify raised: {raised}"]
        else:
            try:
                with open(self.out[k], encoding="utf-8") as fh:
                    report = json.load(fh)
            except (OSError, ValueError) as exc:
                problems = [f"no readable report: {exc}"]
            else:
                problems = outputs.report_problems(self.workload, doc, vecs, table, code, report)
        if problems:
            self.failed += 1
            self.problems += [f"{self.instances[k]} (document {k}): {p}" for p in problems]
        return report


def repeat(seconds: float, min_rounds: int, one_round, set_up) -> tuple[list, list]:
    """Rounds until `seconds` have passed and at least `min_rounds` have run.

    A round is never cut short. After each round the workload is set up
    again, so that the set-up times, like the rounds, are spread over the run.
    """
    rounds, setups = [], []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        rounds.append(one_round())
        setups.append(set_up())
    return rounds, setups


def end_to_end(passes: list[list[tuple[float, float]]]) -> tuple[dict, dict]:
    """certify_s from the (wall, reference) seconds of each document in each pass.

    certify_s is the median over passes of a pass's time in reference
    seconds. The wall-clock figures go to the stamp: the median pass
    (certify_wall_s) and the median time of one document's verify over every
    pass (verify_p50_s), with its sample count. They follow the host's slow
    spells, so they carry no bound.
    """
    walls = [sum(wall for wall, _ in p) for p in passes]
    scaled = [sum(ref for _, ref in p) for p in passes]
    every = [wall for p in passes for wall, _ in p]
    metrics = {"certify_s": statistics.median(scaled)}
    samples = {
        "passes": len(passes),
        "pass_seconds": walls,
        "pass_reference_seconds": scaled,
        "certify_wall_s": statistics.median(walls),
        "verify_p50_s": statistics.median(every),
        "verify_samples": len(every),
    }
    return metrics, samples


def traced_cycle(verifier: Verifier) -> tuple[dict, dict]:
    """An untraced and a traced CLI call per document, then a replay of each."""
    cli_tracer, tracer = layers.Tracer(), layers.Tracer()
    untraced_s, reports = 0.0, []
    for k in range(len(verifier.docs)):
        seconds_k, report = verifier.run_doc(k)
        untraced_s += seconds_k
        reports.append(report)
        verifier.run_doc(k, cli_tracer)
    replay = layers.Replay(verifier.workload.engine, tracer)
    for k, (path, _, _, table, size) in enumerate(verifier.docs):
        if reports[k] is not None:
            replay.run(k, path, size, table, reports[k])
    verifier.problems += replay.problems
    verifier.absent |= replay.absent
    totals = tracer.totals()
    cycle = {name: totals[name[:-2]] for name in layers.TIME_METRICS}
    cycle.update({name: replay.counts[name] for name in layers.COUNT_METRICS})
    cycle["cli.unattributed_s"] = cli_tracer.self_time("cli.main")
    cycle["trace.overhead_ratio"] = cli_tracer.totals()["cli.main"] / untraced_s
    return cycle, {"cli": cli_tracer.export(), "replay": tracer.export()}


def per_layer(verifier: Verifier, cycles: list[dict]) -> tuple[dict, dict]:
    """Median time over cycles; counts, which must repeat, from the first."""
    metrics = {}
    for name in cycles[0]:
        values = [c[name] for c in cycles]
        if name not in layers.COUNT_METRICS:
            metrics[name] = statistics.median(values)
            continue
        metrics[name] = values[0]
        if len(set(values)) != 1:
            verifier.problems.append(f"count {name} differs between cycles: {values}")
    return metrics, {"cycles": len(cycles), "absent_layers": sorted(verifier.absent)}


PER_LAYER_UNITS = {
    **{name: "s" for name in layers.TIME_METRICS},
    **{name: "count" for name in layers.COUNT_METRICS},
    "serialize.doc_bytes": "bytes",
    "serialize.report_bytes": "bytes",
    "constructions.generate_s": "s",
    "cli.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "nwe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(args, workload, samples: dict) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": args.seed,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": workload.name,
        "engine": workload.engine,
        "instances": [list(pair) for pair in workload.instances],
        "seconds": args.seconds,
        "trace": args.trace,
        **samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    workloads.load_nwe()
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "setup").mkdir()
    try:

        def set_up(where=workdir / "setup"):
            """SETUP_TRIES set-ups back to back: (documents, generate_s, wall, reference seconds) each."""
            results = []

            def one():
                docs, seconds, generate_s = setup(workload, args.seed, where)
                results.append((docs, generate_s))
                return seconds

            timed = beside_reference([one] * SETUP_TRIES)
            return [(*result, *times) for result, times in zip(results, timed)]

        points = [set_up(workdir)]
        verifier = Verifier(workload, points[0][-1][0], workdir)
        gc.collect()
        gc.freeze()
        reference_seconds()  # warm up the reference before the first timed call

        if args.trace:
            rounds, more_points = repeat(args.seconds, 1, lambda: traced_cycle(verifier), set_up)
            metrics, samples = per_layer(verifier, [cycle for cycle, _ in rounds])
            spans = [cycle_spans for _, cycle_spans in rounds]
            units = PER_LAYER_UNITS
        else:

            def one_pass():
                calls = [lambda k=k: verifier.run_doc(k)[0] for k in range(len(verifier.docs))]
                return beside_reference(calls)

            passes, more_points = repeat(args.seconds, MIN_PASSES, one_pass, set_up)
            metrics, samples = end_to_end(passes)
            units = END_TO_END_UNITS
        tries = [one for point in points + more_points for one in point]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = statistics.median(scaled for _, _, _, scaled in tries)
        metrics["constructions.generate_s"] = statistics.median(generate_s for _, generate_s, _, _ in tries)
        samples["setup_wall_s"] = statistics.median(wall for _, _, wall, _ in tries)
        samples.update(
            {"documents": len(verifier.docs), "setup_samples": len(tries), "reference_s": REF_S}
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    info = stamp(args, workload, samples)
    info["error_rate"] = verifier.failed / verifier.attempted
    info["problems"] = verifier.problems[:20]
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"stamp": info, "metrics": metrics, "spans": spans}) + "\n")
    shown = [(name, metrics[name], units[name]) for name in units]
    if not args.trace:
        shown.append(("certify_wall_s", samples["certify_wall_s"], f"s wall (n={samples['passes']})"))
        shown.append(("verify_p50_s", samples["verify_p50_s"], f"s wall (n={samples['verify_samples']})"))
    shown.append(("setup_wall_s", samples["setup_wall_s"], f"s wall (n={samples['setup_samples']})"))
    shown.append(("error_rate", info["error_rate"], "ratio"))
    for name, value, unit in shown:
        text = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:28s} {text:>14} {unit}")
    print(json.dumps({"stamp": info}))
    result = {
        "correct": verifier.failed == 0 and not verifier.problems,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"error: cannot import nwe from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
