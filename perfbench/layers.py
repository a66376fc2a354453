"""Traced per-layer runs: spans recorded from outside the library.

Two traced passes run over a workload's documents:

* under `traced_cli`, `nwe.cli.main` runs with the layer functions the CLI
  module looks up replaced by span-recording wrappers. Its `cli.main` self
  time is `cli.unattributed_s`, and its time against untraced calls on the
  same documents is `trace.overhead_ratio`.
* `Replay` calls the public layer functions one by one, as the verify path
  does, plus `assemble` and `nullspace` per party so that elimination shows
  apart from assembly. Counts are computed here, from the objects those
  calls return, and the verdicts and fact counts are compared with the
  end-to-end report.

Layer functions are looked up through their modules (`nwe.verifier.assemble`)
at call time. A function that no longer exists is reported as an absent
layer, and its metrics read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

# span name -> (module, function) of the public call the replay times
REPLAY_CALLS = {
    "serialize.load": ("nwe.serialize", "load_state_set"),
    "states.orthogonality": ("nwe.states", "check_pairwise_orthogonality"),
    "inference.certificate": ("nwe.inference", "derive_certificate"),
    "inference.render": ("nwe.inference", "render_certificate"),
    "verifier.assemble": ("nwe.verifier", "assemble"),
    "verifier.eliminate": ("nwe.verifier", "nullspace"),
    "verifier.verify_all": ("nwe.verifier", "verify_all"),
    "serialize.dump": ("nwe.serialize", "dumps_canonical"),
}

# name looked up inside nwe.cli -> span name, for the traced CLI pass
CLI_CALLS = {
    "state_set_from_document": "serialize.load",
    "check_pairwise_orthogonality": "states.orthogonality",
    "derive_certificate": "inference.certificate",
    "verify_all": "verifier.verify_all",
    "dumps_canonical": "serialize.dump",
}

TIME_METRICS = (
    "verifier.eliminate_s",
    "verifier.assemble_s",
    "verifier.verify_all_s",
    "states.orthogonality_s",
    "inference.certificate_s",
    "inference.render_s",
    "serialize.load_s",
    "serialize.dump_s",
)

COUNT_METRICS = (
    "verifier.nnz",
    "verifier.rank",
    "verifier.unknowns",
    "verifier.rows_sym",
    "verifier.rows_anti",
    "verifier.nullspace_dim",
    "states.pairs",
    "states.single_party_pairs",
    "states.inert_pairs",
    "inference.facts_lemma1",
    "inference.facts_unit",
    "inference.facts_lemma2",
    "inference.incomplete_parties",
    "serialize.doc_bytes",
    "serialize.report_bytes",
)

RULE_METRICS = {
    "Lemma1": "inference.facts_lemma1",
    "UnitPropagation": "inference.facts_unit",
    "Lemma2": "inference.facts_lemma2",
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent, doc]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.doc: int | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.doc]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def totals(self) -> Counter:
        out: Counter = Counter()
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def self_time(self, name: str) -> float:
        """Summed duration of `name` spans minus that of their direct children."""
        total = 0.0
        for idx, (span_name, start, end, _, _) in enumerate(self.spans):
            if span_name == name:
                total += end - start
                total -= sum(e - s for _, s, e, parent, _ in self.spans if parent == idx)
        return total

    def export(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "doc": d} for n, s, e, p, d in self.spans
        ]


@contextmanager
def traced_cli(cli, tracer: Tracer):
    """Within the block, the layer functions nwe.cli looks up record spans.

    Yields the span names of the CLI_CALLS that nwe.cli no longer has.
    """
    saved = {name: getattr(cli, name) for name in CLI_CALLS if hasattr(cli, name)}
    for name, fn in saved.items():
        setattr(cli, name, tracer.wrap(CLI_CALLS[name], fn))
    try:
        yield {span for name, span in CLI_CALLS.items() if name not in saved}
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


class Replay:
    """Per-layer replay of documents; accumulates counts and consistency problems."""

    def __init__(self, engine: str, tracer: Tracer):
        self.lemma = engine in ("lemma", "both")
        self.oracle = engine in ("oracle", "both")
        self.tracer = tracer
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self.problems: list[str] = []

    def run(self, doc_id: int, path: str, doc_bytes: int, table, report: dict) -> None:
        self.tracer.doc = doc_id
        with self.tracer.span("doc"):
            self._run(path, report)
        self.tracer.doc = None
        self.counts["serialize.doc_bytes"] += doc_bytes
        self.counts["states.pairs"] += table.pairs
        self.counts["states.single_party_pairs"] += sum(len(c) for c in table.constrained)
        self.counts["states.inert_pairs"] += table.inert

    def _call(self, span: str, *args):
        """The traced call's result, or None when the layer function is absent."""
        module, name = REPLAY_CALLS[span]
        try:
            fn = getattr(importlib.import_module(module), name, None)
        except ImportError:
            fn = None
        if fn is None:
            self.absent.add(span)
            return None
        with self.tracer.span(span):
            return fn(*args)

    def _run(self, path: str, report: dict) -> None:
        sset = self._call("serialize.load", path)
        if sset is None:
            return
        self._call("states.orthogonality", sset)
        entries = {(e["engine"], e["party"]): e for e in report["per_party"]}
        n = len(report["dims"])
        if self.lemma:
            cert = self._call("inference.certificate", sset)
            if cert is not None:
                self._call("inference.render", cert)
                self._count_certificate(cert, entries, n)
        if self.oracle:
            for t in range(n):
                system = self._call("verifier.assemble", sset, t)
                if system is None:
                    continue
                basis = self._call("verifier.eliminate", system)
                self._count_system(system, basis, entries[("oracle", t)])
            verdicts = self._call("verifier.verify_all", sset)
            if verdicts is not None:
                self._compare_verdicts(verdicts, entries)
        text = self._call("serialize.dump", report)
        if text is not None:
            self.counts["serialize.report_bytes"] += len(text.encode("utf-8"))

    def _count_certificate(self, cert, entries, n: int) -> None:
        for fact in cert.facts:
            self.counts[RULE_METRICS[fact.rule]] += 1
        for t in range(n):
            entry = entries[("lemma", t)]
            status = "Trivial" if cert.conclusions[t].trivial else "Incomplete"
            self.counts["inference.incomplete_parties"] += status != "Trivial"
            if status != entry["status"] or len(cert.facts_for_party(t)) != len(entry["facts"]):
                self.problems.append(f"party {t}: replayed certificate differs from the report")

    def _count_system(self, system, basis, entry: dict) -> None:
        unknowns = system.dim * system.dim
        sym = system.dim * (system.dim + 1) // 2
        for row in system.rows:
            nonzero = [k for k, x in enumerate(row) if x]
            self.counts["verifier.nnz"] += len(nonzero)
            self.counts["verifier.rows_sym" if nonzero[-1] < sym else "verifier.rows_anti"] += 1
        self.counts["verifier.unknowns"] += unknowns
        if basis is None:
            return
        self.counts["verifier.nullspace_dim"] += len(basis)
        self.counts["verifier.rank"] += unknowns - len(basis)
        if len(basis) != entry["nullspace_dim"]:
            self.problems.append(f"party {system.party}: replayed nullspace differs from the report")

    def _compare_verdicts(self, verdicts, entries) -> None:
        for v in verdicts:
            entry = entries[("oracle", v.party)]
            witness = None if v.witness is None else v.witness.entry_strings()
            if (v.status, v.nullspace_dim, witness) != (
                entry["status"],
                entry["nullspace_dim"],
                entry.get("witness"),
            ):
                self.problems.append(f"party {v.party}: replayed verdict differs from the report")
