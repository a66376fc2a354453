"""Workload definitions and the seeded input generator.

Every workload is a fixed list of family instances. For one seed, each
instance is generated with the library's own generators, optionally reduced
(the stopper plus two seeded states removed), then scrambled: the state order
is shuffled and each party's basis is relabelled by a permutation. Both keep
coefficients in {-1, 0, 1} and leave every verdict unchanged, so the expected
outcome of a workload does not depend on the seed, while the order in which a
family's states and basis vectors appear does.

The documents are written as nwe/1 JSON by this module, not by the library,
so the end-to-end runs depend only on `nwe.cli.main` and the generators.
"""

from __future__ import annotations

import importlib
import json
import random
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str  # the `nwe verify --engine` value
    instances: tuple[tuple[str, int], ...]  # (instance, independently scrambled copies)
    reduce: bool  # drop the stopper and two seeded states before scrambling
    expect_status: str  # every per-party status the report must show
    expect_exit: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "family_oracle",
            "both",
            (
                ("equal(3,8)", 2),
                ("equal(4,8)", 1),
                ("equal(6,6)", 6),
                ("general(4,5,6,8)", 6),
                ("general(3,5,10)", 1),
                ("general(3,3,10)", 1),
                ("equal(4,6)", 6),
                ("equal(6,7)", 8),
                ("general(5,5,5,6)", 10),
            ),
            reduce=False,
            expect_status="Trivial",
            expect_exit=0,
        ),
        Workload(
            "certificate_large",
            "lemma",
            (
                ("equal(3,64)", 2),
                ("general(3,32,64)", 2),
                ("general(4,16,32,64)", 2),
                ("equal(12,12)", 2),
            ),
            reduce=False,
            expect_status="Trivial",
            expect_exit=0,
        ),
        Workload(
            "nontrivial_user",
            "oracle",
            (
                ("equal(3,12)", 4),
                ("equal(4,10)", 4),
                ("general(3,4,14)", 6),
                ("equal(3,16)", 1),
                ("general(3,3,16)", 1),
                ("equal(5,8)", 6),
                ("general(3,6,18)", 1),
                ("equal(4,12)", 6),
                ("equal(5,9)", 6),
            ),
            reduce=True,
            expect_status="Nontrivial",
            expect_exit=1,
        ),
    )
}

_INSTANCE = re.compile(r"^(equal|general)\((\d+(?:,\d+)*)\)$")


def load_nwe():
    """Import the library from this checkout's `src`, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    nwe = importlib.import_module("nwe")
    origin = Path(nwe.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"nwe was imported from {origin}, not from {SRC}")
    return nwe


def generate(instance: str):
    """The library's StateSet for an instance name such as 'general(3,3,12)'."""
    match = _INSTANCE.match(instance)
    if match is None:
        raise ValueError(f"bad instance name {instance!r}")
    kind, args = match.group(1), tuple(int(x) for x in match.group(2).split(","))
    constructions = importlib.import_module("nwe.constructions")
    if kind == "equal":
        return constructions.gen_equal(*args)
    return constructions.gen_general(args)


def to_document(sset) -> dict:
    states = []
    for s in sset.states:
        entry = {"locals": [list(lv.coeffs) for lv in s.locals]}
        if s.label is not None:
            entry["label"] = s.label
        states.append(entry)
    return {"version": "nwe/1", "dims": list(sset.shape.dims), "states": states}


def is_stopper(entry: dict) -> bool:
    return all(all(c == 1 for c in vec) for vec in entry["locals"])


def scramble(doc: dict, rng: random.Random, reduce: bool) -> dict:
    """Drop (optionally) and shuffle states, and permute each party's basis."""
    states = list(doc["states"])
    if reduce:
        states = [s for s in states if not is_stopper(s)]
        for idx in sorted(rng.sample(range(len(states)), 2), reverse=True):
            del states[idx]
    rng.shuffle(states)
    perms = [rng.sample(range(d), d) for d in doc["dims"]]
    out = []
    for s in states:
        locals_ = []
        for vec, perm in zip(s["locals"], perms):
            moved = [0] * len(vec)
            for a, c in enumerate(vec):
                moved[perm[a]] = c
            locals_.append(moved)
        entry = {"locals": locals_}
        if "label" in s:
            entry["label"] = s["label"]
        out.append(entry)
    return {**doc, "states": out}


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def build_documents(workload: Workload, seed: int) -> tuple[list[tuple[str, str]], float]:
    """(instance, document text) pairs, deterministic in the seed, and the
    seconds spent inside the library's generators."""
    docs, generate_s = [], 0.0
    for instance, copies in workload.instances:
        start = time.perf_counter()
        sset = generate(instance)
        generate_s += time.perf_counter() - start
        base = to_document(sset)
        for copy in range(copies):
            rng = random.Random(f"{seed}:{workload.name}:{instance}:{copy}")
            doc = scramble(base, rng, workload.reduce)
            doc["provenance"] = f"perfbench:{workload.name}:{instance}:{copy}:seed={seed}"
            docs.append((instance, dumps(doc)))
    return docs, generate_s


@dataclass(frozen=True)
class PairTable:
    """Pairs of a document sorted by their zero per-party factors.

    `constrained[t]` holds the pairs whose only zero factor is party t: these,
    and only these, constrain party t's measurement.
    """

    states: int
    violations: tuple[tuple[int, int], ...]
    constrained: tuple[tuple[tuple[int, int], ...], ...]
    inert: int

    @property
    def pairs(self) -> int:
        return self.states * (self.states - 1) // 2


def sparse_locals(doc: dict) -> list[list[dict[int, int]]]:
    return [[{a: c for a, c in enumerate(vec) if c} for vec in s["locals"]] for s in doc["states"]]


def classify_pairs(doc: dict) -> PairTable:
    """Orthogonality and per-party constraint buckets, computed without nwe."""
    vecs = sparse_locals(doc)
    n = len(doc["dims"])
    violations = []
    constrained: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    inert = 0
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            zeros = []
            for t in range(n):
                u, v = vecs[i][t], vecs[j][t]
                if len(u) > len(v):
                    u, v = v, u
                if not sum(c * v.get(a, 0) for a, c in u.items()):
                    zeros.append(t)
            if not zeros:
                violations.append((i, j))
            elif len(zeros) == 1:
                constrained[zeros[0]].append((i, j))
            else:
                inert += 1
    return PairTable(len(vecs), tuple(violations), tuple(map(tuple, constrained)), inert)
