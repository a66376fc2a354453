"""Tests of the benchmark's own generator, checker and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import outputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

workloads.load_nwe()

from nwe.cli import main as nwe_main  # noqa: E402
from nwe.inference import derive_certificate  # noqa: E402
from nwe.serialize import state_set_from_document  # noqa: E402
from nwe.verifier import verify_all  # noqa: E402

SMALL = workloads.Workload(
    "small", "both", (("equal(3,4)", 1), ("general(3,3,5)", 1), ("equal(4,3)", 1)), False, "Trivial", 0
)
SMALL_REDUCED = workloads.Workload(
    "small_reduced", "oracle", (("equal(3,5)", 2), ("general(3,4,6)", 2)), True, "Nontrivial", 1
)


def texts(workload, seed):
    return [text for _, text in workloads.build_documents(workload, seed)[0]]


def verify(tmp_path, workload, text, k=0):
    doc_path, out = tmp_path / f"doc{k}.json", tmp_path / f"report{k}.json"
    doc_path.write_text(text)
    code = nwe_main(["verify", "--input", str(doc_path), "--engine", workload.engine, "--out", str(out)])
    return json.loads(text), code, json.loads(out.read_text())


def problems(workload, doc, code, report):
    table = workloads.classify_pairs(doc)
    return outputs.report_problems(workload, doc, workloads.sparse_locals(doc), table, code, report)


class TestGenerator:
    @pytest.mark.parametrize("workload", list(workloads.WORKLOADS.values()), ids=lambda w: w.name)
    def test_same_seed_same_bytes(self, workload):
        first, second, other = texts(workload, 7), texts(workload, 7), texts(workload, 8)
        assert first == second
        assert len(set(first)) == len(first) == sum(copies for _, copies in workload.instances)
        assert all(a != b for a, b in zip(first, other))

    def test_scramble_keeps_coefficients_and_shape(self):
        doc = workloads.to_document(workloads.generate("general(3,4,5)"))
        out = workloads.scramble(doc, random.Random(1), reduce=False)
        assert out["dims"] == doc["dims"]
        assert sorted(s["label"] for s in out["states"]) == sorted(s["label"] for s in doc["states"])
        assert all(c in (-1, 0, 1) for s in out["states"] for vec in s["locals"] for c in vec)
        assert out["states"] != doc["states"]

    def test_reduce_drops_stopper_and_two_states(self):
        doc = workloads.to_document(workloads.generate("equal(3,5)"))
        out = workloads.scramble(doc, random.Random(3), reduce=True)
        assert len(out["states"]) == len(doc["states"]) - 3
        assert not any(workloads.is_stopper(s) for s in out["states"])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_scrambled_families_keep_their_verdicts(self, seed):
        for text in texts(SMALL, seed):
            sset = state_set_from_document(json.loads(text))
            assert all(v.status == "Trivial" for v in verify_all(sset))
            assert derive_certificate(sset).trivial_for_all()
        for text in texts(SMALL_REDUCED, seed):
            sset = state_set_from_document(json.loads(text))
            assert all(v.status == "Nontrivial" for v in verify_all(sset))

    def test_generated_documents_are_orthogonal(self):
        for workload in (SMALL, SMALL_REDUCED):
            for text in texts(workload, 5):
                assert not workloads.classify_pairs(json.loads(text)).violations

    def test_classify_pairs_finds_a_violation(self):
        doc = {"dims": [2, 2], "states": [{"locals": [[1, 0], [1, 0]]}, {"locals": [[1, 1], [1, 0]]}]}
        assert workloads.classify_pairs(doc).violations == ((0, 1),)


class TestChecker:
    def test_family_reports_pass(self, tmp_path):
        for k, text in enumerate(texts(SMALL, 11)):
            assert problems(SMALL, *verify(tmp_path, SMALL, text, k)) == []

    def test_nontrivial_reports_pass(self, tmp_path):
        for k, text in enumerate(texts(SMALL_REDUCED, 11)):
            assert problems(SMALL_REDUCED, *verify(tmp_path, SMALL_REDUCED, text, k)) == []

    def test_wrong_exit_code_and_status_fail(self, tmp_path):
        text = texts(SMALL_REDUCED, 11)[0]
        doc, code, report = verify(tmp_path, SMALL_REDUCED, text)
        assert problems(SMALL_REDUCED, doc, 0, report)
        report["per_party"][0]["status"] = "Trivial"
        assert problems(SMALL_REDUCED, doc, code, report)

    def test_lemma_trivial_with_oracle_nontrivial_fails(self, tmp_path):
        text = texts(SMALL, 11)[0]
        doc, code, report = verify(tmp_path, SMALL, text)
        oracle = next(e for e in report["per_party"] if e["engine"] == "oracle")
        oracle["status"] = "Nontrivial"
        assert any("lemma Trivial but oracle Nontrivial" in p for p in problems(SMALL, doc, code, report))

    def test_corrupted_witness_is_rejected(self, tmp_path):
        text = texts(SMALL_REDUCED, 11)[0]
        doc, code, report = verify(tmp_path, SMALL_REDUCED, text)
        table = workloads.classify_pairs(doc)
        vecs = workloads.sparse_locals(doc)
        entry = next(e for e in report["per_party"] if e["engine"] == "oracle")
        t, dim, witness = entry["party"], doc["dims"][entry["party"]], entry["witness"]
        assert outputs.witness_problems(witness, dim, vecs, table.constrained[t], t) == []

        def check(w):
            return outputs.witness_problems(w, dim, vecs, table.constrained[t], t)

        # break the constraints while staying Hermitian: add a real symmetric bump on
        # every off-diagonal entry that a constrained pair touches
        touched = {(a, b) for i, j in table.constrained[t] for a in vecs[i][t] for b in vecs[j][t] if a != b}
        a, b = sorted(touched)[0]
        bumped = [row[:] for row in witness]
        for x, y in ((a, b), (b, a)):
            re, im = outputs.parse_entry(bumped[x][y])
            bumped[x][y] = str(re + 1) if im == 0 else f"{re + 1}{'+' if im > 0 else '-'}{abs(im)}i"
        assert any("violates" in p for p in check(bumped))

        skew = [row[:] for row in witness]
        skew[a][b] = "0+1i"
        skew[b][a] = "0+1i"
        assert "witness is not Hermitian" in check(skew)

        identity = [["1" if x == y else "0" for y in range(dim)] for x in range(dim)]
        assert "witness is a multiple of the identity" in check(identity)
        assert check([["x"]])
        assert check(witness[:-1])

    @pytest.mark.parametrize(
        "text,value",
        [("1/2", (1, 2, 0, 1)), ("0+1/3i", (0, 1, 1, 3)), ("-1/2-1/3i", (-1, 2, -1, 3)), ("-3", (-3, 1, 0, 1))],
    )
    def test_parse_entry(self, text, value):
        re, im = outputs.parse_entry(text)
        assert (re.numerator, re.denominator, im.numerator, im.denominator) == value


class TestReplay:
    def run_replay(self, tmp_path, workload, seed=2):
        tracer = layers.Tracer()
        replay = layers.Replay(workload.engine, tracer)
        for k, text in enumerate(texts(workload, seed)):
            doc, _, report = verify(tmp_path, workload, text, k)
            replay.run(k, str(tmp_path / f"doc{k}.json"), len(text), workloads.classify_pairs(doc), report)
        return tracer, replay

    def test_replay_matches_reports_and_counts_repeat(self, tmp_path):
        for workload in (SMALL, SMALL_REDUCED):
            tracer, replay = self.run_replay(tmp_path, workload)
            assert replay.problems == [] and replay.absent == set()
            again = self.run_replay(tmp_path, workload)[1]
            assert again.counts == replay.counts
        assert replay.counts["verifier.rank"] + replay.counts["verifier.nullspace_dim"] == replay.counts[
            "verifier.unknowns"
        ]

    def test_missing_layer_is_reported_absent(self, tmp_path, monkeypatch):
        import nwe.verifier

        monkeypatch.delattr(nwe.verifier, "assemble")
        tracer, replay = self.run_replay(tmp_path, SMALL_REDUCED)
        assert replay.absent == {"verifier.assemble"}
        assert tracer.totals()["verifier.eliminate"] == 0
        assert tracer.totals()["verifier.verify_all"] > 0
        assert replay.problems == []

    def test_spans_nest_and_self_time(self):
        tracer = layers.Tracer()
        with tracer.span("outer"), tracer.span("inner"):
            sum(range(1000))
        (outer, s0, e0, p0, _), (inner, s1, e1, p1, _) = tracer.spans
        assert (outer, p0, inner, p1) == ("outer", None, "inner", 0)
        assert s0 <= s1 <= e1 <= e0
        assert tracer.self_time("outer") == pytest.approx((e0 - s0) - (e1 - s1))

    def test_traced_cli_restores_the_cli(self, tmp_path):
        import nwe.cli

        before = nwe.cli.verify_all
        (tmp_path / "doc.json").write_text(texts(SMALL, 3)[0])
        argv = ["verify", "--input", str(tmp_path / "doc.json"), "--out", str(tmp_path / "r.json")]
        tracer = layers.Tracer()
        with layers.traced_cli(nwe.cli, tracer), tracer.span("cli.main"):
            assert nwe.cli.main(argv) == 0
        assert nwe.cli.verify_all is before
        names = {span[0] for span in tracer.spans}
        assert {"cli.main", "states.orthogonality", "verifier.verify_all", "serialize.dump"} <= names
        assert 0 < tracer.self_time("cli.main") < tracer.totals()["cli.main"]

    def test_traced_cli_reports_missing_layers(self, monkeypatch):
        import nwe.cli

        monkeypatch.delattr(nwe.cli, "derive_certificate")
        with layers.traced_cli(nwe.cli, layers.Tracer()) as missing:
            assert missing == {"inference.certificate"}
        assert not hasattr(nwe.cli, "derive_certificate")

    def test_traced_calls_are_checked(self, tmp_path):
        docs = []
        for k, text in enumerate(texts(SMALL_REDUCED, 4)):
            (tmp_path / f"doc{k}.json").write_text(text)
            docs.append(("instance", str(tmp_path / f"doc{k}.json")))
        verifier = run.Verifier(SMALL_REDUCED, docs, tmp_path)
        verifier.run_doc(0, layers.Tracer())
        assert (verifier.attempted, verifier.failed, verifier.absent) == (1, 0, set())
        verifier.workload = SMALL  # expects Trivial, so the report must fail
        verifier.run_doc(0, layers.Tracer())
        assert (verifier.attempted, verifier.failed) == (2, 1)


def test_certify_is_the_median_pass_in_reference_seconds():
    passes = [[(3.0, 1.0), (1.0, 0.5)], [(2.0, 1.0), (4.0, 2.0)], [(0.5, 0.5), (0.5, 0.25)]]
    metrics, samples = run.end_to_end(passes)
    assert metrics["certify_s"] == 1.5
    assert (samples["certify_wall_s"], samples["passes"]) == (4.0, 3)
    assert (samples["verify_samples"], samples["verify_p50_s"]) == (6, 1.5)


def test_reference_seconds_scale_by_the_host_speed_beside_each_call(monkeypatch):
    speeds = iter([0.01, 0.03, 0.02])
    monkeypatch.setattr(reference, "reference_seconds", lambda: next(speeds))
    timed = reference.beside_reference([lambda: 1.0, lambda: 5.0])
    assert timed == [(1.0, pytest.approx(reference.REF_S / 0.02)), (5.0, pytest.approx(5 * reference.REF_S / 0.025))]


def test_reference_computation_runs():
    assert 0 < reference.reference_seconds() < 10
