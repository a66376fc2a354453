"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. All tolerances are exact (integer / rational arithmetic end to end);
the only non-exact bounds are the stated wall-clock budgets.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from nwe import (
    StateSet,
    assemble,
    derive_certificate,
    gen_equal,
    gen_general,
    prior_sizes,
    render_certificate,
    verify_all,
)
from nwe.constructions import GeneralDims, expected_size
from nwe.states import ProductState, check_pairwise_orthogonality
from nwe.inference import DiagonalEqualFact, ZeroEntryFact
from nwe.verifier import nullspace, verdict

from helpers import (
    computational_basis_set,
    coords_to_matrix,
    identity_coords,
    measured_overlap,
    scaled_vector,
    without_stopper,
)

GOLDEN = Path(__file__).parent / "golden"
SWEEP_SEED = 20250810

_cache: dict = {}


def _report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")


def sweep_sets():
    """The criterion-1 sweep: 20 equal-dims sets plus 50 random general sets."""
    if "sweep" in _cache:
        return _cache["sweep"]
    start = time.monotonic()
    sets = []
    for n in range(3, 7):
        for d in range(3, 8):
            sets.append(("equal", (n, d), gen_equal(n, d)))
    rng = random.Random(SWEEP_SEED)
    for _ in range(50):
        n = rng.randint(3, 5)
        dims = tuple(sorted(rng.randint(3, 8) for _ in range(n)))
        sets.append(("general", dims, gen_general(dims)))
    _cache["sweep"] = (sets, time.monotonic() - start)
    return _cache["sweep"]


def test_criterion_1_count_reproduction():
    ok = False
    try:
        sets, elapsed = sweep_sets()
        for kind, params, sset in sets:
            if kind == "equal":
                n, d = params
                assert len(sset) == n * (d - 1) + 1
                assert len(sset) == expected_size(GeneralDims((d,) * n))
            else:
                dims = params
                n = len(dims)
                assert len(sset) == sum(dims[1 : n - 1]) + 2 * dims[n - 1] - n + 1
                assert len(sset) == expected_size(GeneralDims(dims))
        assert elapsed < 1.0, f"generation took {elapsed:.3f}s"
        ok = True
    finally:
        _report(1, "count reproduction", ok)


def test_criterion_2_orthogonality():
    ok = False
    try:
        sets, _ = sweep_sets()
        start = time.monotonic()
        for _, _, sset in sets:
            assert check_pairwise_orthogonality(sset) == []
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"orthogonality sweep took {elapsed:.3f}s"
        ok = True
    finally:
        _report(2, "orthogonality", ok)


def test_criterion_3_triviality_certification():
    ok = False
    try:
        sets, _ = sweep_sets()
        start = time.monotonic()
        for _, params, sset in sets:
            for v in verify_all(sset):
                assert v.status == "Trivial", (params, v)
                assert v.nullspace_dim == 1, (params, v)
            cert = derive_certificate(sset)
            assert cert.trivial_for_all(), (params, cert.conclusions)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"certification sweep took {elapsed:.3f}s"
        ok = True
    finally:
        _report(3, "triviality certification", ok)


def _zero_pairs(cert, party):
    return {
        (frozenset((f.row, f.col)), cert.labels[f.pair[0]], cert.labels[f.pair[1]])
        for f in cert.facts
        if isinstance(f, ZeroEntryFact) and f.party == party
    }


def _diag_pairs(cert, party):
    return {
        (frozenset((f.a, f.b)), cert.labels[f.pair[0]], cert.labels[f.pair[1]])
        for f in cert.facts
        if isinstance(f, DiagonalEqualFact) and f.party == party
    }


def test_criterion_4_table_fixtures():
    ok = False
    try:
        # golden files, byte exact
        for name, sset in (
            ("cert_equal_4_3.txt", gen_equal(4, 3)),
            ("cert_general_3_3_4.txt", gen_general((3, 3, 4))),
        ):
            rendered = render_certificate(derive_certificate(sset)) + "\n"
            assert rendered == (GOLDEN / name).read_text(encoding="utf-8"), name

        # every row family, instantiated with its justifying state pair
        cert = derive_certificate(gen_general((3, 3, 4)))
        d1, d2, d3 = 3, 3, 4
        expect_zero = []
        for i in range(1, d1):
            expect_zero += [
                (0, {i, 0}, f"B_2[i={i}]", f"B_3[i={i}]"),
                (1, {i, 0}, f"B_1[i={i}]", f"B_3[i={i}]"),
                (2, {i, 0}, f"B_1[i={i}]", f"B_2[i={i}]"),
            ]
        for i in range(1, d1):
            for j in range(i + 1, d1):
                expect_zero += [
                    (0, {i, j}, f"B_2[i={i}]", f"B_2[i={j}]"),
                    (2, {i, j}, f"B_1[i={i}]", f"B_1[i={j}]"),
                ]
        for i in range(1, d2):
            for j in range(i + 1, d2):
                expect_zero.append((1, {i, j}, f"B_3[i={i}]", f"B_3[i={j}]"))
        for j in range(d1, d3):
            expect_zero.append((2, {j, 0}, f"B_2[i=2]", f"B_6[i={j}]"))
            for i in range(1, d1):
                expect_zero.append((2, {i, j}, f"B_1[i={i}]", f"B_6[i={j}]"))
        for i in range(d1, d3):
            for j in range(i + 1, d3):
                expect_zero.append((2, {i, j}, f"B_6[i={i}]", f"B_6[i={j}]"))
        for party, pair, li, lj in expect_zero:
            assert (frozenset(pair), li, lj) in _zero_pairs(cert, party), (party, pair, li, lj)

        expect_diag = []
        for i in range(1, d1):
            expect_diag += [
                (0, {0, i}, f"B_1[i={i}]", "S"),
                (1, {0, i}, f"B_2[i={i}]", "S"),
            ]
        for i in range(1, d2):
            expect_diag.append((2, {0, i}, f"B_3[i={i}]", "S"))
        for i in range(d2, d3):
            expect_diag.append((2, {i - 1, i}, f"B_5[i={i}]", "S"))
        for party, pair, li, lj in expect_diag:
            assert (frozenset(pair), li, lj) in _diag_pairs(cert, party), (party, pair, li, lj)

        # equal-dims instance (n=4, d=3): same families in the ring layout
        cert = derive_certificate(gen_equal(4, 3))
        n, d = 4, 3
        expect_zero = []
        expect_diag = []
        for t in range(n - 2):
            for i in range(1, d):
                expect_zero.append((t, {i, 0}, f"G_{t + 1}[i={i}]", f"G_{t + 2}[i={i}]"))
            expect_zero.append((t, {1, 2}, f"G_{t + 1}[i=1]", f"G_{t + 1}[i=2]"))
        for i in range(1, d):
            expect_zero.append((n - 2, {0, i}, f"G_0[i={i}]", f"G_{n - 1}[i={i}]"))
            expect_zero.append((n - 1, {i, 0}, f"G_0[i={i}]", f"G_1[i={i}]"))
        expect_zero.append((n - 2, {1, 2}, f"G_{n - 1}[i=1]", f"G_{n - 1}[i=2]"))
        expect_zero.append((n - 1, {1, 2}, "G_0[i=1]", "G_0[i=2]"))
        for t in range(n):
            for i in range(1, d):
                expect_diag.append((t, {0, i}, f"G_{t}[i={i}]", "S"))
        for party, pair, li, lj in expect_zero:
            assert (frozenset(pair), li, lj) in _zero_pairs(cert, party), (party, pair, li, lj)
        for party, pair, li, lj in expect_diag:
            assert (frozenset(pair), li, lj) in _diag_pairs(cert, party), (party, pair, li, lj)
        ok = True
    finally:
        _report(4, "table fixtures", ok)


def _dense_nullity(sset, t):
    """Independent elimination: constraint rows computed on the fully
    expanded tensors for each Hermitian coordinate matrix, then a from-scratch
    rank count over exact rationals."""
    d = sset.shape.dims[t]
    size = d * d
    coordinate_matrices = []
    for k in range(size):
        unit = [Fraction(0)] * size
        unit[k] = Fraction(1)
        coordinate_matrices.append(coords_to_matrix(unit, d))
    rows = []
    states = sset.states
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            real_row, imag_row = [], []
            for mat in coordinate_matrices:
                re, im = measured_overlap(states[i], states[j], mat, t)
                real_row.append(re)
                imag_row.append(im)
            for row in (real_row, imag_row):
                if any(row):
                    rows.append(row)
    # forward elimination, no pivots shared with the library's routine
    matrix = [row[:] for row in rows]
    rank_count = 0
    for col in range(size):
        pivot = next((r for r in range(rank_count, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank_count], matrix[pivot] = matrix[pivot], matrix[rank_count]
        lead = matrix[rank_count][col]
        for r in range(rank_count + 1, len(matrix)):
            if matrix[r][col]:
                f = matrix[r][col] / lead
                matrix[r] = [x - f * y for x, y in zip(matrix[r], matrix[rank_count])]
        rank_count += 1
    return size - rank_count


def test_criterion_5_negative_controls():
    ok = False
    try:
        basis22 = computational_basis_set((2, 2))
        for v in verify_all(basis22):
            assert v.status == "Nontrivial"
            assert v.nullspace_dim == 2
            assert v.witness is not None and not v.witness.is_identity_multiple()

        headless = without_stopper(gen_equal(3, 3))
        verdicts = verify_all(headless)
        for t, v in enumerate(verdicts):
            assert v.status == "Nontrivial"
            assert v.nullspace_dim == 3
            assert _dense_nullity(headless, t) == 3
        for t in range(2):
            assert _dense_nullity(basis22, t) == 2
        ok = True
    finally:
        _report(5, "negative controls", ok)


def test_criterion_6_comparison_table():
    ok = False
    try:
        for d, jiang, ours in ((3, 13, 9), (4, 21, 13), (5, 29, 17)):
            report = prior_sizes((d,) * 4)
            assert report.jiang == jiang
            assert report.ours == ours
        report = prior_sizes((3, 3, 3))
        assert report.wang == 9
        assert report.ours == 7
        ok = True
    finally:
        _report(6, "comparison table", ok)


def _random_family(rng):
    if rng.random() < 0.5:
        return gen_equal(rng.randint(3, 4), rng.randint(3, 5))
    n = rng.randint(3, 4)
    dims = tuple(sorted(rng.randint(3, 6) for _ in range(n)))
    return gen_general(dims)


def test_criterion_7_property_suite():
    ok = False
    try:
        rng = random.Random(SWEEP_SEED + 7)
        start = time.monotonic()

        for _ in range(50):  # identity membership
            sset = _random_family(rng)
            t = rng.randrange(sset.shape.n)
            system = assemble(sset, t)
            ident = identity_coords(system.dim)
            for row in system.rows:
                assert sum(a * b for a, b in zip(row, ident)) == 0

        for _ in range(50):  # one basis vector per unit of the verdict's nullity
            sset = _random_family(rng)
            t = rng.randrange(sset.shape.n)
            assert len(nullspace(assemble(sset, t))) == verdict(sset, t).nullspace_dim

        for _ in range(50):  # scaling invariance
            sset = _random_family(rng)
            baseline = [(v.status, v.nullspace_dim) for v in verify_all(sset)]
            idx = rng.randrange(len(sset))
            party = rng.randrange(sset.shape.n)
            factor = rng.choice([-3, -2, -1, 2, 3])
            state = sset.states[idx]
            new_locals = list(state.locals)
            new_locals[party] = scaled_vector(new_locals[party], factor)
            states = list(sset.states)
            states[idx] = ProductState(state.shape, tuple(new_locals), state.label)
            scaled = StateSet(sset.shape, tuple(states), provenance=sset.provenance)
            assert [(v.status, v.nullspace_dim) for v in verify_all(scaled)] == baseline

        for _ in range(50):  # oracle/engine agreement
            sset = _random_family(rng)
            cert = derive_certificate(sset)
            verdicts = verify_all(sset)
            for conclusion, v in zip(cert.conclusions, verdicts):
                assert conclusion.trivial == (v.status == "Trivial" and v.nullspace_dim == 1)

        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"property suite took {elapsed:.3f}s"
        ok = True
    finally:
        _report(7, "property suite", ok)
