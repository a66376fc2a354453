import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nwe.verifier
from nwe import (
    LocalVector,
    NonOrthogonalSetError,
    ProductState,
    StateSet,
    SystemShape,
    anti_index,
    assemble,
    basis_ket,
    certified_nonlocal,
    coords_to_matrix,
    derive_certificate,
    gen_equal,
    gen_general,
    identity_coords,
    matrix_to_coords,
    nullspace,
    rank,
    sym_index,
    verdict,
    verify_all,
)
from nwe.verifier import MODULUS, MeasurementConstraintSystem

from helpers import (
    CZERO,
    computational_basis_set,
    measured_overlap,
    reference_verdicts,
    without_stopper,
)


def dot(row, vec):
    return sum(Fraction(a) * Fraction(b) for a, b in zip(row, vec))


class TestCoordinateLayout:
    def test_sym_then_anti_partition(self):
        d = 4
        seen = set()
        for a in range(d):
            for b in range(a, d):
                seen.add(sym_index(d, a, b))
        for a in range(d):
            for b in range(a + 1, d):
                seen.add(anti_index(d, a, b))
        assert seen == set(range(d * d))

    def test_matrix_round_trip(self):
        d = 3
        vec = tuple(Fraction(k + 1, 7) for k in range(d * d))
        mat = coords_to_matrix(vec, d)
        assert matrix_to_coords(mat) == vec
        # Hermitian structure: symmetric real part, antisymmetric imaginary part
        for a in range(d):
            assert mat.imag[a][a] == 0
            for b in range(d):
                assert mat.real[a][b] == mat.real[b][a]
                assert mat.imag[a][b] == -mat.imag[b][a]


class TestAssemble:
    def test_two_qubit_basis_rows(self):
        sset = computational_basis_set((2, 2))
        system = assemble(sset, 0)
        srow = [0] * 4
        srow[sym_index(2, 0, 1)] = 1
        arow = [0] * 4
        arow[anti_index(2, 0, 1)] = 1
        assert set(system.rows) == {tuple(srow), tuple(arow)}
        assert len(nullspace(system)) == 2

    def test_empty_and_singleton_sets(self):
        shape = SystemShape((2, 2))
        empty = StateSet(shape, ())
        single = StateSet(shape, (ProductState(shape, (basis_ket(2, 0), basis_ket(2, 0))),))
        assert assemble(empty, 0).rows == ()
        assert assemble(single, 1).rows == ()

    def test_equal_family_pins_each_off_diagonal(self):
        sset = gen_equal(3, 3)
        system = assemble(sset, 2)
        srow = [0] * 9
        srow[sym_index(3, 1, 2)] = 1
        assert tuple(srow) in system.rows

    def test_rejects_non_orthogonal_sets(self):
        shape = SystemShape((2, 2))
        sset = StateSet(
            shape,
            (
                ProductState(shape, (basis_ket(2, 0), basis_ket(2, 0))),
                ProductState(shape, (LocalVector((1, 1)), LocalVector((1, 1)))),
            ),
        )
        with pytest.raises(NonOrthogonalSetError):
            assemble(sset, 0)

    def test_identity_satisfies_every_row(self):
        for sset in (gen_equal(3, 4), gen_general((3, 4, 5)), computational_basis_set((2, 3))):
            for t in range(sset.shape.n):
                system = assemble(sset, t)
                ident = identity_coords(system.dim)
                for row in system.rows:
                    assert dot(row, ident) == 0


class TestNullspace:
    def test_no_rows_means_full_space(self):
        system = MeasurementConstraintSystem(party=0, dim=3, rows=())
        assert len(nullspace(system)) == 9

    def test_two_qubit_basis_dim_two(self):
        system = assemble(computational_basis_set((2, 2)), 0)
        basis = nullspace(system)
        assert len(basis) == 2
        for vec in basis:
            assert vec[sym_index(2, 0, 1)] == 0
            assert vec[anti_index(2, 0, 1)] == 0

    def test_equal_family_identity_span(self):
        sset = gen_equal(3, 3)
        for t in range(3):
            basis = nullspace(assemble(sset, t))
            assert len(basis) == 1
            vec = basis[0]
            diag = {vec[sym_index(3, a, a)] for a in range(3)}
            assert len(diag) == 1 and diag != {0}
            for a in range(3):
                for b in range(a + 1, 3):
                    assert vec[sym_index(3, a, b)] == 0
                    assert vec[anti_index(3, a, b)] == 0

    def test_rank_nullity(self):
        for sset in (gen_equal(3, 3), gen_general((3, 3, 4)), computational_basis_set((2, 2))):
            for t in range(sset.shape.n):
                system = assemble(sset, t)
                assert len(nullspace(system)) == system.num_unknowns - rank(system)


class TestVerdict:
    def test_general_family_trivial_everywhere(self):
        verdicts = verify_all(gen_general((3, 3, 3)))
        assert all(v.status == "Trivial" and v.nullspace_dim == 1 for v in verdicts)
        assert certified_nonlocal(verdicts)

    def test_two_qubit_basis_nontrivial(self):
        sset = computational_basis_set((2, 2))
        v = verdict(sset, 0)
        assert v.status == "Nontrivial"
        assert v.nullspace_dim == 2
        w = v.witness
        assert w is not None and not w.is_identity_multiple()
        # diagonal witness with opposite-sign entries, zero off-diagonal
        assert w.real[0][1] == w.real[1][0] == 0
        assert w.imag[0][1] == 0
        assert w.real[0][0] == -w.real[1][1] != 0

    def test_witness_satisfies_every_constraint(self):
        sset = computational_basis_set((2, 2))
        for t in range(2):
            v = verdict(sset, t)
            system = assemble(sset, t)
            coords = matrix_to_coords(v.witness)
            for row in system.rows:
                assert dot(row, coords) == 0

    def test_dropping_stopper_frees_the_diagonal(self):
        sset = without_stopper(gen_equal(3, 3))
        for v in verify_all(sset):
            assert v.status == "Nontrivial"
            assert v.nullspace_dim == 3

    def test_unconstrained_pair(self):
        shape = SystemShape((2, 2))
        sset = StateSet(
            shape,
            (
                ProductState(shape, (basis_ket(2, 0), basis_ket(2, 0))),
                ProductState(shape, (basis_ket(2, 1), basis_ket(2, 1))),
            ),
        )
        for v in verify_all(sset):
            assert v.status == "Nontrivial"
            assert v.nullspace_dim == 4

    def test_witness_strings_are_exact_fractions(self):
        v = verdict(computational_basis_set((2, 2)), 0)
        strings = v.witness.entry_strings()
        assert strings == [["1/2", "0"], ["0", "-1/2"]]


class TestScalingInvariance:
    def test_scaling_any_state_preserves_verdicts(self):
        rng = random.Random(7)
        for sset in (gen_equal(3, 3), gen_general((3, 3, 4)), computational_basis_set((2, 2))):
            baseline = [(v.status, v.nullspace_dim) for v in verify_all(sset)]
            for _ in range(5):
                idx = rng.randrange(len(sset))
                party = rng.randrange(sset.shape.n)
                factor = rng.choice([-3, -2, -1, 2, 3, 5])
                state = sset.states[idx]
                new_locals = list(state.locals)
                new_locals[party] = new_locals[party].scaled(factor)
                states = list(sset.states)
                states[idx] = ProductState(state.shape, tuple(new_locals), state.label)
                scaled = StateSet(sset.shape, tuple(states), provenance=sset.provenance)
                assert [(v.status, v.nullspace_dim) for v in verify_all(scaled)] == baseline


def unconstrained_pair_set():
    shape = SystemShape((2, 2))
    return StateSet(
        shape,
        (
            ProductState(shape, (basis_ket(2, 0), basis_ket(2, 0))),
            ProductState(shape, (basis_ket(2, 1), basis_ket(2, 1))),
        ),
        provenance="diagonal-pair",
    )


class TestDenseCrossCheck:
    """Sample Hermitian matrices from the nullspace span and confirm, on the
    fully expanded tensors, that measured pairs stay orthogonal."""

    @pytest.mark.parametrize(
        "sset",
        [
            computational_basis_set((2, 2)),
            without_stopper(gen_equal(3, 3)),
            gen_general((3, 3, 4)),
            unconstrained_pair_set(),
        ],
        ids=lambda s: s.provenance,
    )
    def test_nullspace_span_preserves_orthogonality(self, sset):
        rng = random.Random(20250810)
        states = sset.states
        for t in range(sset.shape.n):
            basis = nullspace(assemble(sset, t))
            dim = sset.shape.dims[t]
            for _ in range(100):
                coeffs = [
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in basis
                ]
                vec = [
                    sum(c * v[k] for c, v in zip(coeffs, basis))
                    for k in range(dim * dim)
                ]
                matrix = coords_to_matrix(vec, dim)
                for i in range(len(states)):
                    for j in range(i + 1, len(states)):
                        assert measured_overlap(states[i], states[j], matrix, t) == CZERO


class TestOracleEngineAgreement:
    @pytest.mark.parametrize(
        "sset",
        [
            gen_equal(3, 3),
            gen_equal(4, 3),
            gen_general((3, 3, 4)),
            gen_general((3, 4, 5)),
            computational_basis_set((2, 2)),
            without_stopper(gen_equal(3, 3)),
        ],
        ids=lambda s: s.provenance,
    )
    def test_trivial_certificate_iff_unit_nullspace(self, sset):
        cert = derive_certificate(sset)
        verdicts = verify_all(sset)
        for conclusion, v in zip(cert.conclusions, verdicts):
            if conclusion.trivial:
                assert v.status == "Trivial" and v.nullspace_dim == 1
        # on the unmodified built-in families the engine is also complete
        if sset.provenance.startswith(("equal(", "general(")) and "-no-stopper" not in sset.provenance:
            assert cert.trivial_for_all()
            assert certified_nonlocal(verdicts)


def outcomes(verdicts):
    return [
        (v.status, v.nullspace_dim, None if v.witness is None else v.witness.entry_strings())
        for v in verdicts
    ]


FAMILIES = (
    ("equal", (3, 3)),
    ("equal", (3, 4)),
    ("equal", (4, 3)),
    ("general", (3, 3, 4)),
    ("general", (3, 4, 4)),
    ("general", (3, 4, 5)),
)


@st.composite
def scrambled_sets(draw):
    """A built-in family, optionally without its stopper, with up to three
    states removed, the rest shuffled and each party's basis permuted."""
    kind, args = draw(st.sampled_from(FAMILIES))
    sset = gen_equal(*args) if kind == "equal" else gen_general(args)
    if draw(st.booleans()):
        sset = without_stopper(sset)
    states = list(sset.states)
    for _ in range(draw(st.integers(0, 3))):
        del states[draw(st.integers(0, len(states) - 1))]
    states = draw(st.permutations(states))
    perms = [draw(st.permutations(range(d))) for d in sset.shape.dims]
    moved = []
    for state in states:
        locals_ = []
        for lv, perm in zip(state.locals, perms):
            coeffs = [0] * len(lv)
            for a, c in enumerate(lv.coeffs):
                coeffs[perm[a]] = c
            locals_.append(LocalVector(tuple(coeffs)))
        moved.append(ProductState(sset.shape, tuple(locals_), state.label))
    return StateSet(sset.shape, tuple(moved), provenance="scrambled")


class TestAgainstDenseReference:
    @settings(max_examples=80, deadline=None)
    @given(scrambled_sets())
    def test_verdicts_match_dense_elimination(self, sset):
        assert outcomes(verify_all(sset)) == reference_verdicts(sset)

    @pytest.mark.parametrize(
        "sset",
        [computational_basis_set((2, 2)), without_stopper(gen_equal(3, 3)), unconstrained_pair_set()],
        ids=lambda s: s.provenance,
    )
    def test_fixtures_match_dense_elimination(self, sset):
        assert outcomes(verify_all(sset)) == reference_verdicts(sset)


def exact_eliminations(monkeypatch) -> list:
    """Records each block eliminated over the rationals (no modulus)."""
    calls = []
    original = nwe.verifier._gauss_jordan

    def spy(rows, target=None, modulus=None):
        if modulus is None:
            calls.append(target)
        return original(rows, target, modulus)

    monkeypatch.setattr(nwe.verifier, "_gauss_jordan", spy)
    return calls


def scale_local(sset, idx, party, factor):
    state = sset.states[idx]
    new_locals = list(state.locals)
    new_locals[party] = new_locals[party].scaled(factor)
    states = list(sset.states)
    states[idx] = ProductState(state.shape, tuple(new_locals), state.label)
    return StateSet(sset.shape, tuple(states), provenance=sset.provenance)


class TestModularRank:
    def test_full_rank_mod_p_needs_no_exact_elimination(self, monkeypatch):
        calls = exact_eliminations(monkeypatch)
        assert all(v.trivial for v in verify_all(gen_general((3, 3, 4))))
        assert calls == []

    @pytest.mark.parametrize("party", [0, 1, 2])
    def test_rank_drop_mod_p_falls_back_to_exact(self, monkeypatch, party):
        # the stopper's rows on this party vanish mod p, so rank_S drops mod p
        # while the rational rank, and so the verdict, is unchanged
        sset = gen_equal(3, 3)
        scaled = scale_local(sset, len(sset) - 1, party, MODULUS)
        calls = exact_eliminations(monkeypatch)
        assert outcomes(verify_all(scaled)) == outcomes(verify_all(sset))
        assert calls, "the exact fallback did not run"

    def test_scaled_nontrivial_set_keeps_its_witness(self):
        sset = without_stopper(gen_general((3, 3, 4)))
        for idx in (0, len(sset) // 2, len(sset) - 1):
            for party in range(sset.shape.n):
                scaled = scale_local(sset, idx, party, MODULUS)
                assert outcomes(verify_all(scaled)) == outcomes(verify_all(sset))


def test_invariant_checks_survive_python_O():
    # party 0's bucket is forged to hold pairs whose party-0 factor is not
    # zero; their rows do not annihilate the identity
    script = """
import sys
from nwe import gen_equal, verify_all
from nwe.states import PairTable
from nwe.verifier import InvariantError

assert False, "asserts run, so this is not python -O"
sset = gen_equal(3, 3)
buckets = sset.pair_table.buckets
sset.__dict__["pair_table"] = PairTable((), (buckets[1],) + buckets[1:])
try:
    verify_all(sset)
except InvariantError as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert "does not annihilate the identity" in result.stdout
