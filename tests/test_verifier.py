import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nwe.verifier
from nwe import (
    NonOrthogonalSetError,
    StateSet,
    assemble,
    derive_certificate,
    gen_equal,
    gen_general,
    nullspace,
    rank,
    verify_all,
)
from nwe.states import LocalVector, ProductState, SystemShape, basis_ket
from nwe.verifier import (
    InvariantError,
    MeasurementConstraintSystem,
    _coordinate_tables,
    _exact_rref,
    _pair_rows,
    _peel,
    anti_index,
    certified_nonlocal,
    sym_index,
    verdict,
)

from helpers import (
    CZERO,
    big_basis_set,
    computational_basis_set,
    coords_to_matrix,
    dense_constraint_rows,
    dense_entry_strings,
    dense_is_identity_multiple,
    dense_nullspace,
    dense_parts,
    dense_rref,
    identity_coords,
    invariant_error_under_python_O,
    matrix_to_coords,
    measured_overlap,
    orthogonal_integer_matrix,
    primitive,
    reference_nullspace,
    reference_verdicts,
    rotated,
    scaled_vector,
    scrambled,
    unshared_index,
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

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_tables_read_either_order(self, d):
        sym, anti = _coordinate_tables(d)
        for a in range(d):
            for b in range(d):
                lo, hi = sorted((a, b))
                assert sym[a][b] == sym_index(d, lo, hi)
                assert anti[a][b] == (None if a == b else anti_index(d, lo, hi))

    def test_matrix_round_trip(self):
        d = 3
        vec = tuple(Fraction(k + 1, 7) for k in range(d * d))
        mat = coords_to_matrix(vec, d)
        assert matrix_to_coords(mat) == vec
        # Hermitian structure: symmetric real part, antisymmetric imaginary part
        real, imag = dense_parts(mat)
        for a in range(d):
            assert imag[a][a] == 0
            for b in range(d):
                assert real[a][b] == real[b][a]
                assert imag[a][b] == -imag[b][a]


class TestAssemble:
    def test_two_qubit_basis_rows(self):
        sset = computational_basis_set((2, 2))
        system = assemble(sset, 0)
        srow = [0] * 4
        srow[sym_index(2, 0, 1)] = 1
        arow = [0] * 4
        arow[anti_index(2, 0, 1)] = 1
        assert set(system.rows) == {tuple(srow), tuple(arow)}
        # both rows have one entry, so the pair zeroes two coordinates and keeps no row
        assert system.zeroed == {sym_index(2, 0, 1), anti_index(2, 0, 1)}
        assert system.sym == system.anti == ()
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
        assert {sym_index(3, 1, 2), anti_index(3, 1, 2)} <= system.zeroed

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

    def test_ket_pair_rows(self):
        # two kets |a>, |b>, a != b, give one S entry and one A entry, whose
        # sign follows the order of a and b
        sym, anti = _coordinate_tables(4)
        assert _pair_rows(((0, 2),), ((3, -1),), 4) == ({sym[0][3]: -2}, {anti[0][3]: -2})
        assert _pair_rows(((3, 2),), ((0, -1),), 4) == ({sym[0][3]: -2}, {anti[0][3]: 2})

    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: scrambled(gen_equal(3, 4), rng),
            lambda rng: scrambled(gen_general((3, 4, 5)), rng, reduce=True),
            lambda rng: scrambled(gen_equal(4, 3), rng, reduce=True),
            lambda rng: rotated(gen_equal(3, 4), rng, range(3)),
            lambda rng: without_stopper(rotated(gen_general((3, 3, 4)), rng, (0, 2))),
            lambda rng: unshared_index(scrambled(gen_general((3, 3, 4)), rng, reduce=True)),
        ],
        ids=["scrambled", "reduced", "reduced-4-parties", "rotated", "rotated-no-stopper", "unshared-index"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_equal_the_dense_rows(self, build, seed):
        # the ket pairs are zeroed directly, every other row is built by the
        # product loop: each row the dense expansion of a pair gives is a
        # kept row, in order, or a one-entry row whose coordinate is zeroed,
        # and each zeroed coordinate comes from such a row
        sset = build(random.Random(seed))
        for t in range(sset.shape.n):
            system = assemble(sset, t)
            nsym, size = system.dim * (system.dim + 1) // 2, system.num_unknowns
            dense = [tuple(row) for row in dense_constraint_rows(sset, t)]
            units = {k for r in dense if sum(map(bool, r)) == 1 for k, x in enumerate(r) if x}
            kept = [r for r in dense if sum(map(bool, r)) > 1]
            kept_sym, kept_anti = [r for r in kept if any(r[:nsym])], [r for r in kept if any(r[nsym:])]
            assert system.zeroed == units
            assert [tuple(row.get(k, 0) for k in range(size)) for row in system.sym] == kept_sym
            assert [tuple(row.get(k, 0) for k in range(size)) for row in system.anti] == kept_anti
            assert all(len(row) > 1 and all(row.values()) for row in system.sym + system.anti)
            # the dense view gives each block's unit rows, ascending, then its kept rows
            unit_rows = [tuple(int(k == c) for k in range(size)) for c in sorted(units)]
            unit_sym, unit_anti = [r for r in unit_rows if any(r[:nsym])], [r for r in unit_rows if any(r[nsym:])]
            assert system.rows == tuple(unit_sym + kept_sym + unit_anti + kept_anti)

    def test_identity_satisfies_every_row(self):
        for sset in (gen_equal(3, 4), gen_general((3, 4, 5)), computational_basis_set((2, 3))):
            for t in range(sset.shape.n):
                system = assemble(sset, t)
                ident = identity_coords(system.dim)
                for row in system.rows:
                    assert dot(row, ident) == 0


class TestNullspace:
    def test_no_rows_means_full_space(self):
        system = MeasurementConstraintSystem(party=0, dim=3, sym=(), anti=())
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

    @pytest.mark.parametrize(
        "sset",
        [gen_equal(3, 3), gen_general((3, 4, 5)), rotated(gen_equal(3, 5), random.Random(13), range(3))],
        ids=lambda s: s.provenance,
    )
    def test_full_rank_s_block_gives_exactly_the_identity(self, sset):
        # the one free vector of a Trivial party is read off the S block's
        # RREF, with a 1 at the last diagonal coordinate: the identity itself
        for t, dim in enumerate(sset.shape.dims):
            assert verdict(sset, t).status == "Trivial"
            assert nullspace(assemble(sset, t)) == [tuple(map(Fraction, identity_coords(dim)))]

    def test_rank_nullity(self):
        for sset in (gen_equal(3, 3), gen_general((3, 3, 4)), computational_basis_set((2, 2))):
            for t in range(sset.shape.n):
                system = assemble(sset, t)
                assert len(nullspace(system)) == system.num_unknowns - rank(system)

    @pytest.mark.parametrize(
        "sset",
        [
            gen_equal(3, 3),
            gen_general((3, 4, 5)),
            computational_basis_set((2, 3)),
            without_stopper(gen_equal(3, 5)),
            without_stopper(gen_general((3, 3, 6))),
            rotated(gen_equal(3, 5), random.Random(11), range(3)),
            rotated(without_stopper(gen_equal(3, 5)), random.Random(12), range(3)),
            # party 1 misses S[0,1], S[0,2], A[0,1] and A[0,2]: both blocks have free columns
            StateSet(
                SystemShape((2, 3)),
                tuple(s for s in computational_basis_set((2, 3)).states if s.label not in ("|00>", "|10>")),
                provenance="user-partial",
            ),
        ],
        ids=lambda s: s.provenance,
    )
    def test_blocks_give_the_one_block_rref_basis(self, sset):
        # the S and A blocks, reduced apart, give the same basis, in the same
        # order, as dense elimination over all d*d unknowns at once
        for t in range(sset.shape.n):
            pivots, basis = reference_nullspace(sset, t)
            system = assemble(sset, t)
            rows = system.rows
            got = nullspace(system)
            assert got == [tuple(vec) for vec in basis]
            assert rank(system) == len(pivots)
            # elimination leaves the system's rows as they were
            assert system.rows == rows and nullspace(system) == got


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
        real, imag = dense_parts(w)
        assert real[0][1] == real[1][0] == 0
        assert imag[0][1] == 0
        assert real[0][0] == -real[1][1] != 0

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
                new_locals[party] = scaled_vector(new_locals[party], factor)
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


class TestReplayedCertificate:
    @pytest.mark.parametrize(
        "sset",
        [
            gen_equal(4, 3),
            gen_general((3, 4, 5)),
            without_stopper(gen_equal(3, 4)),
            computational_basis_set((2, 3)),
            rotated(gen_equal(3, 4), random.Random(4), [0]),
            rotated(gen_general((3, 3, 4)), random.Random(8), [0, 1, 2]),
        ],
        ids=lambda s: s.provenance,
    )
    def test_verdicts_equal_the_eliminated_ones(self, sset):
        assert verify_all(sset, derive_certificate(sset)) == verify_all(sset)

    def test_forged_certificate_gives_no_verdict(self):
        sset = gen_equal(3, 3)
        cert = derive_certificate(sset)
        forged = cert._replace(facts=cert.facts[:-1])
        with pytest.raises(InvariantError, match="party 2: "):
            verify_all(sset, forged)


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


def exact_runs(monkeypatch) -> list:
    """Records the number of core rows of each exact elimination, in call order."""
    calls = []
    original = nwe.verifier._exact_rref

    def spy(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(nwe.verifier, "_exact_rref", spy)
    return calls


def scale_local(sset, idx, party, factor):
    state = sset.states[idx]
    new_locals = list(state.locals)
    new_locals[party] = scaled_vector(new_locals[party], factor)
    states = list(sset.states)
    states[idx] = ProductState(state.shape, tuple(new_locals), state.label)
    return StateSet(sset.shape, tuple(states), provenance=sset.provenance)


# scaling a state's vector by this prime makes its rows vanish modulo the
# prime, and leaves every verdict as it was
LARGE_PRIME = 2**61 - 1


class TestExactRank:
    def test_full_rank_family_matches_dense_elimination(self):
        sset = gen_general((3, 3, 4))
        got = outcomes(verify_all(sset))
        assert all(status == "Trivial" for status, _, _ in got)
        assert got == reference_verdicts(sset)

    @pytest.mark.parametrize("party", [0, 1, 2])
    def test_stopper_scaled_by_a_large_prime_keeps_its_verdicts(self, monkeypatch, party):
        # the stopper's rows on this party are multiples of the prime, so
        # they vanish modulo it, while the rational rank, and so the
        # verdict, is unchanged
        sset = gen_equal(3, 3)
        scaled = scale_local(sset, len(sset) - 1, party, LARGE_PRIME)
        calls = exact_runs(monkeypatch)
        got = outcomes(verify_all(scaled))
        assert calls, "the exact elimination did not run"
        assert got == outcomes(verify_all(sset)) == reference_verdicts(scaled)

    def test_core_with_fewer_rows_than_its_rank_matches_dense_elimination(self, monkeypatch):
        # each party's S-block core has 6 rows for a rank of 9 less the
        # zeroed columns, and each A-block core 6 rows for 6
        sset = without_stopper(rotated(gen_equal(3, 4), random.Random(2026), range(3)))
        calls = exact_runs(monkeypatch)
        got = outcomes(verify_all(sset))
        assert calls == [6] * 6
        assert got == reference_verdicts(sset)

    def test_scaled_nontrivial_set_keeps_its_witness(self):
        sset = without_stopper(gen_general((3, 3, 4)))
        for idx in (0, len(sset) // 2, len(sset) - 1):
            for party in range(sset.shape.n):
                scaled = scale_local(sset, idx, party, LARGE_PRIME)
                assert outcomes(verify_all(scaled)) == outcomes(verify_all(sset))


class TestWitnessStrings:
    @pytest.mark.parametrize(
        "sset",
        [without_stopper(gen_equal(3, 4)), without_stopper(gen_general((3, 3, 4))), without_stopper(gen_equal(4, 3))],
        ids=lambda s: s.provenance,
    )
    def test_no_stopper_witnesses_match_dense_elimination(self, sset):
        got = outcomes(verify_all(sset))
        assert got == reference_verdicts(sset)
        assert any(status == "Nontrivial" for status, _, _ in got)

    @pytest.mark.parametrize("dim", [4, 6, 8])
    def test_rotated_no_stopper_witnesses_match_dense_elimination(self, dim):
        # the ladder's rotated rungs without their stopper (equal(3,8) is
        # one): dense vectors on every party, so no row is a ket row
        sset = without_stopper(rotated(gen_equal(3, dim), random.Random(2022 + dim), range(3)))
        got = outcomes(verify_all(sset))
        assert got == reference_verdicts(sset)
        assert all(status == "Nontrivial" for status, _, _ in got)

    def test_identity_multiple_reads_only_nonzero_entries(self):
        # the matrix stores its nonzero upper-triangle entries only
        def matrix(dim, sym, anti):
            return nwe.verifier.HermitianMatrix(dim, 1, tuple(sym.items()), tuple(anti.items()))

        assert matrix(2, {(0, 0): 2, (1, 1): 2}, {}).is_identity_multiple()
        assert matrix(2, {}, {}).is_identity_multiple()
        for dim, sym, anti in [
            (2, {(0, 0): 2, (1, 1): 3}, {}),
            (2, {(0, 0): 2, (0, 1): 1, (1, 1): 2}, {}),
            (2, {(0, 0): 2, (1, 1): 2}, {(0, 1): 1}),
            (2, {(1, 1): 2}, {}),
            (3, {(0, 0): 2, (1, 1): 2}, {}),
            (2, {}, {(0, 1): -1}),
        ]:
            assert not matrix(dim, sym, anti).is_identity_multiple()

    def test_entry_strings(self):
        # S[0,1] = -3/6, S[1,1] = 18/6 and A[0,1] = 2/6
        matrix = nwe.verifier.HermitianMatrix(2, 6, (((0, 1), -3), ((1, 1), 18)), (((0, 1), 2),))
        assert matrix.entry_strings() == [["0", "-1/2+1/3i"], ["-1/2-1/3i", "3"]]
        assert dense_parts(matrix) == (
            ((0, Fraction(-1, 2)), (Fraction(-1, 2), 3)),
            ((0, Fraction(1, 3)), (Fraction(-1, 3), 0)),
        )

    @pytest.mark.parametrize("factor", [3, -4, 6])
    def test_scaled_witnesses_match_dense_elimination(self, factor):
        sset = without_stopper(gen_general((3, 3, 4)))
        for idx in (0, len(sset) // 2, len(sset) - 1):
            for party in range(sset.shape.n):
                sset = scale_local(sset, idx, party, factor)
        got = outcomes(verify_all(sset))
        assert got == reference_verdicts(sset)
        assert any(status == "Nontrivial" for status, _, _ in got)


@st.composite
def integer_rows(draw):
    """Sparse integer rows over a few columns, with coefficients beyond 2^64:
    random rows, integer combinations of them (which make the set rank
    deficient), duplicates and empty rows, in shuffled order."""
    ncols = draw(st.integers(1, 8))
    coef = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80)).filter(bool)
    base = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), coef, min_size=1), max_size=4))
    rows = list(base)
    for _ in range(draw(st.integers(0, 4))):
        combo: dict[int, int] = {}
        for row in base:
            m = draw(st.integers(-3, 3))
            for k, x in row.items():
                combo[k] = combo.get(k, 0) + m * x
        rows.append({k: x for k, x in combo.items() if x})
    if rows:
        rows += [dict(row) for row in draw(st.lists(st.sampled_from(rows), max_size=2))]
    rows += [{} for _ in range(draw(st.integers(0, 2)))]
    return ncols, draw(st.permutations(rows))


class TestExactElimination:
    @settings(max_examples=300, deadline=None)
    @given(integer_rows())
    def test_exact_rref_equals_the_dense_rref(self, case):
        ncols, rows = case
        pivots, den = _exact_rref(rows)
        assert den > 0
        assert {pc: {k: Fraction(x, den) for k, x in tail.items()} for pc, tail in pivots.items()} == exact_rref(
            rows, ncols
        )

    @pytest.mark.parametrize("rows", [[], [{}, {}]], ids=["no rows", "empty rows"])
    def test_exact_rref_of_no_entries_is_empty(self, rows):
        assert _exact_rref(rows) == ({}, 1)

    @settings(max_examples=200, deadline=None)
    @given(integer_rows(), st.data())
    def test_exact_rref_ignores_row_order_and_scale(self, case, data):
        # the rational RREF and its least common denominator depend only on
        # the rows' span
        _, rows = case
        factor = st.integers(-(2**40), 2**40).filter(bool)
        factors = data.draw(st.lists(factor, min_size=len(rows), max_size=len(rows)))
        scaled = [{k: x * m for k, x in row.items()} for row, m in zip(rows, factors)]
        assert _exact_rref(data.draw(st.permutations(scaled))) == _exact_rref(rows)

    @settings(max_examples=200, deadline=None)
    @given(integer_rows())
    def test_exact_rref_denominator_is_the_least_common_one(self, case):
        _, rows = case
        pivots, den = _exact_rref(rows)
        assert den == math.lcm(*(Fraction(x, den).denominator for tail in pivots.values() for x in tail.values()))

    @settings(max_examples=200, deadline=None)
    @given(integer_rows())
    def test_eliminate_is_sound_about_full_rank(self, case):
        # rows of full rank, among them a Vandermonde block that the peel
        # leaves to the core, reduce to the identity: every column zeroed
        # or a pivot of the core with an empty tail, over the denominator 1
        ncols, rows = case
        vandermonde = [{k: (i + 1) ** k for k in range(ncols)} for i in range(ncols)]
        full = rows + vandermonde
        assert len(exact_rref(full, ncols)) == ncols
        zeroed, core = _peel(full, ())
        pivots, den = _exact_rref(core)
        assert zeroed.isdisjoint(pivots) and zeroed | set(pivots) == set(range(ncols))
        assert all(not tail for tail in pivots.values()) and den == 1

    def test_nontrivial_family_matches_dense_elimination(self, monkeypatch):
        sset = without_stopper(gen_general((3, 3, 4)))
        calls = exact_runs(monkeypatch)
        got = outcomes(verify_all(sset))
        assert calls, "the exact elimination did not run"
        assert all(status == "Nontrivial" for status, _, _ in got)
        assert got == reference_verdicts(sset)

    @pytest.mark.parametrize("big", [2**31 + 11, 2**70 + 25], ids=["2^31+11", "2^70+25"])
    def test_large_coefficients_are_eliminated_exactly(self, monkeypatch, big):
        # party 0's S-block RREF has the entry (B^2 - 1)/B, whose numerator
        # is near 2^62 or 2^140
        sset = big_basis_set(big)
        calls = exact_runs(monkeypatch)
        got = outcomes(verify_all(sset))
        assert calls, "the exact elimination did not run"
        assert got == reference_verdicts(sset)
        assert got[0][:2] == ("Nontrivial", 2)


class TestRandomOrthogonalBases:
    @pytest.mark.parametrize("seed", range(24))
    def test_verdicts_match_dense_elimination(self, seed):
        rng = random.Random(seed)
        kind, args = rng.choice(FAMILIES)
        base = gen_equal(*args) if kind == "equal" else gen_general(args)
        if rng.random() < 0.25:
            base = without_stopper(base)
        states = list(base.states)
        for _ in range(rng.randint(0, 2)):
            del states[rng.randrange(len(states))]
        base = StateSet(base.shape, tuple(states), provenance=base.provenance)
        # rotate some parties and keep the others, on which the rule engine
        # can still conclude Trivial
        n = base.shape.n
        parties = rng.sample(range(n), rng.randint(1, n))
        sset = rotated(base, rng, parties)
        assert any(abs(c) > 1 for s in sset.states for lv in s.locals for c in lv.coeffs)
        verdicts = verify_all(sset)
        assert outcomes(verdicts) == reference_verdicts(sset)
        # an orthogonal change of basis on a party keeps every verdict
        assert [(v.status, v.nullspace_dim) for v in verdicts] == [
            (v.status, v.nullspace_dim) for v in verify_all(base)
        ]
        cert = derive_certificate(sset)
        for conclusion, v in zip(cert.conclusions, verdicts):
            assert not (conclusion.trivial and v.status == "Nontrivial")

    @pytest.mark.parametrize("seed", range(4))
    def test_basis_products_match_dense_elimination(self, seed):
        rng = random.Random(1000 + seed)
        shape = SystemShape((2, 3))
        bases = [orthogonal_integer_matrix(rng, d, fix_ones=False) for d in shape.dims]
        # columns of each matrix form the party's local basis
        states = tuple(
            ProductState(shape, tuple(LocalVector(primitive([row[k] for row in m])) for k, m in zip((i, j), bases)))
            for i in range(2)
            for j in range(3)
        )
        sset = StateSet(shape, states, provenance="rotated-basis")
        assert outcomes(verify_all(sset)) == reference_verdicts(sset)


def test_invariant_checks_survive_python_O():
    # party 0's bucket is forged to hold pairs whose party-0 factor is not
    # zero; their rows do not annihilate the identity
    message = invariant_error_under_python_O("""
from nwe import gen_equal, verify_all
from nwe.states import PairTable
sset = gen_equal(3, 3)
buckets = sset.pair_table.buckets
sset.__dict__["pair_table"] = PairTable((), (buckets[1],) + buckets[1:])
verify_all(sset)
""")
    assert "does not annihilate the identity" in message


def test_ket_pair_on_one_index_raises_under_python_O():
    # |2> and 3|2> are not orthogonal: their row would not annihilate the identity
    message = invariant_error_under_python_O("""
from nwe.verifier import _pair_rows
_pair_rows(((2, 1),), ((2, 3),), 4)
""")
    assert "does not annihilate the identity" in message


@st.composite
def peelable_rows(draw):
    """Sparse integer rows over a few columns: a planted cascade, in which
    each row has one entry once the column of the row before is peeled, and
    random rows of one to four entries, in shuffled order."""
    ncols = draw(st.integers(1, 10))
    coef = st.integers(-4, 4).filter(bool)
    chain = draw(st.permutations(range(ncols)))[: draw(st.integers(0, ncols))]
    rows = []
    for i, c in enumerate(chain):
        row = {c: draw(coef)}
        if i:
            row[chain[i - 1]] = draw(coef)
        rows.append(row)
    for _ in range(draw(st.integers(0, 8))):
        cols = draw(st.sets(st.integers(0, ncols - 1), min_size=1, max_size=4))
        rows.append({c: draw(coef) for c in sorted(cols)})
    return ncols, draw(st.permutations(rows))


def exact_rref(rows, ncols: int) -> dict[int, dict]:
    """The reference RREF over the rationals (`dense_rref`) of sparse rows,
    as {pivot column: {column: nonzero entry}} without the pivot's 1."""
    pivots, reduced = dense_rref([[row.get(k, 0) for k in range(ncols)] for row in rows], ncols)
    return {pc: {k: x for k, x in enumerate(r) if x and k != pc} for pc, r in zip(pivots, reduced)}


def peeled_rref(rows, ncols: int):
    """The RREF the way the oracle builds it: the core's, over the rationals
    by `dense_rref`, plus an empty-tailed pivot for each zeroed column."""
    zeroed, core = _peel(rows, ())
    pivots = exact_rref(core, ncols)
    assert zeroed.isdisjoint(pivots)
    pivots.update((c, {}) for c in zeroed)
    return pivots


def unfiltered_peel(rows):
    """The peel with every row of the core rebuilt after each pass, the
    one-entry rows included, before the empty rows are dropped."""
    zeroed, core = set(), list(rows)
    while True:
        new = {k for row in core if len(row) == 1 for k in row}
        if not new:
            return zeroed, core
        zeroed |= new
        core = [{k: x for k, x in row.items() if k not in new} for row in core]
        core = [row for row in core if row]


def block_columns(system):
    """(rows, columns) of the S block, then the A block."""
    nsym = system.dim * (system.dim + 1) // 2
    return ((system.sym, range(nsym)), (system.anti, range(nsym, system.num_unknowns)))


class TestPeel:
    @settings(max_examples=300, deadline=None)
    @given(peelable_rows())
    def test_same_zeroed_columns_and_core_as_the_unfiltered_peel(self, case):
        _, rows = case
        assert _peel(rows, ()) == unfiltered_peel(rows)

    @settings(max_examples=300, deadline=None)
    @given(peelable_rows())
    def test_zeroed_columns_peel_as_their_unit_rows(self, case):
        # handing the one-entry rows over as zeroed columns, as `assemble`
        # does, peels as the rows themselves
        _, rows = case
        zeroed = {k for row in rows if len(row) == 1 for k in row}
        assert _peel([row for row in rows if len(row) > 1], zeroed) == _peel(rows, ())

    @pytest.mark.parametrize("sset", [gen_general((3, 4, 5)), gen_equal(3, 8), without_stopper(gen_equal(4, 5))])
    def test_family_blocks_peel_as_the_unfiltered_peel(self, sset):
        # each block peels as its zeroed columns' unit rows and its rows
        for t in range(sset.shape.n):
            system = assemble(sset, t)
            for rows, columns in block_columns(system):
                units = [{c: 1} for c in sorted(system.zeroed) if c in columns]
                zeroed, core = _peel(rows, system.zeroed)
                assert (zeroed & set(columns), core) == unfiltered_peel(units + list(rows))

    @settings(max_examples=300, deadline=None)
    @given(peelable_rows())
    def test_peeled_rref_equals_the_unpeeled_rref(self, case):
        ncols, rows = case
        assert peeled_rref(rows, ncols) == exact_rref(rows, ncols)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(peelable_rows(), integer_rows()))
    def test_eliminate_gives_the_exact_rref_and_rank(self, case):
        # the zeroed columns' unit rows and the core's exact RREF make up
        # the rows' RREF
        ncols, rows = case
        zeroed, core = _peel(rows, ())
        pivots, den = _exact_rref(core)
        assert zeroed.isdisjoint(pivots)
        got = {pc: {k: Fraction(x, den) for k, x in tail.items()} for pc, tail in pivots.items()}
        got.update((c, {}) for c in zeroed)
        assert got == exact_rref(rows, ncols)

    def test_cascade_runs_to_its_fixpoint(self):
        # only the first row has one entry; each later row gets one entry
        # once the column before it is zeroed
        rows = [{1: 1, 2: -1}, {0: 1, 1: 4}, {0: 2}, {2: 3, 3: 1, 4: 1}]
        zeroed, core = _peel(rows, ())
        assert zeroed == {0, 1, 2}
        assert core == [{3: 1, 4: 1}]
        # the same with the one-entry row handed over as a zeroed column
        assert _peel([rows[0], rows[1], rows[3]], {0}) == (zeroed, core)

    def test_a_family_cascades(self):
        # on party 1 of general(3,4,5) some rows become one-entry rows only
        # once the zeroed columns are deleted, in each block
        system = assemble(gen_general((3, 4, 5)), 1)
        for rows, columns in block_columns(system):
            zeroed, _ = _peel(rows, system.zeroed)
            assert zeroed > system.zeroed and zeroed - system.zeroed <= set(columns)

    @pytest.mark.parametrize(
        "rows",
        [
            [{sym_index(3, 0, 0): 1}],
            [{sym_index(3, 0, 1): 1}, {sym_index(3, 0, 1): 2, sym_index(3, 1, 1): 1}],
        ],
        ids=["direct", "cascade"],
    )
    def test_a_zeroed_diagonal_coordinate_raises(self, monkeypatch, rows):
        # party 0 of equal(3,3) has dimension 3; its constraint system is forged
        forged = MeasurementConstraintSystem(0, 3, tuple(rows), ())
        monkeypatch.setattr(nwe.verifier, "_assemble", lambda sset, t: forged)
        with pytest.raises(InvariantError, match="forces coordinate"):
            verdict(gen_equal(3, 3), 0)
        # rank and nullspace reduce the blocks the same way, with the same guard
        for reduce in (rank, nullspace):
            with pytest.raises(InvariantError, match="forces coordinate"):
                reduce(forged)


@st.composite
def forged_systems(draw):
    """Constraint systems built row by row, not from a set: each S row with
    diagonal coefficients that sum to zero, the first of them with a nonzero
    S[0,0], and arbitrary A rows, one to three entries each; the one-entry
    rows are kept as rows or handed over as zeroed coordinates."""
    dim = draw(st.integers(2, 4))
    nsym = dim * (dim + 1) // 2
    diagonal = [sym_index(dim, a, a) for a in range(dim)]
    off = [k for k in range(nsym) if k not in diagonal]
    coef = st.integers(-5, 5)
    sym = []
    for i in range(draw(st.integers(1, nsym + 2))):
        row = {k: draw(coef) for k in draw(st.lists(st.sampled_from(off), max_size=2))}
        head = [draw(coef.filter(bool) if i == 0 else coef) for _ in diagonal[:-1]]
        row.update(zip(diagonal, head + [-sum(head)]))
        sym.append({k: x for k, x in row.items() if x})
    anti = [
        {k: draw(coef.filter(bool)) for k in cols}
        for cols in draw(st.lists(st.sets(st.integers(nsym, dim * dim - 1), min_size=1, max_size=3), max_size=dim))
    ]
    sym = [row for row in sym if row]
    if draw(st.booleans()):
        zeroed = frozenset(k for row in sym + anti if len(row) == 1 for k in row)
        sym, anti = [row for row in sym if len(row) > 1], [row for row in anti if len(row) > 1]
        return MeasurementConstraintSystem(0, dim, tuple(sym), tuple(anti), zeroed)
    return MeasurementConstraintSystem(0, dim, tuple(sym), tuple(anti))


class TestForgedSystems:
    @settings(max_examples=200, deadline=None)
    @given(forged_systems())
    def test_rank_and_nullspace_equal_the_dense_ones(self, system):
        pivots, basis = dense_nullspace(system.rows, system.num_unknowns)
        assert rank(system) == len(pivots)
        assert nullspace(system) == [tuple(vec) for vec in basis]

    @settings(max_examples=50, deadline=None)
    @given(forged_systems())
    def test_a_core_tail_reaches_a_free_column(self, system):
        # S[0,0] is never zeroed, so it is a pivot of the S core; the
        # identity, in the nullspace, needs a tail at a free column to put
        # its 1 there
        free, pivots, _ = next(nwe.verifier._blocks(system))
        assert 0 in pivots
        assert any(k in free for tail in pivots.values() for k in tail)


# dim 2: S[0,0], S[0,1], S[1,1] are coordinates 0, 1, 2 and A[0,1] is 3
@example(MeasurementConstraintSystem(0, 2, ({0: 1, 2: -1},), (), frozenset({1})))  # imaginary witness
@example(MeasurementConstraintSystem(0, 2, (), (), frozenset({1, 3})))  # diagonal-only witness
@example(MeasurementConstraintSystem(0, 2, ({0: 1, 2: -1},), ({3: 2},), frozenset({1})))  # Trivial
@settings(max_examples=200, deadline=None)
@given(forged_systems())
def test_sparse_witness_equals_the_dense_one(system):
    # `verdict`'s witness against the first nullspace vector of dense
    # elimination off the identity, projected; every basis vector and its
    # projection (the identity's is the zero matrix), as a sparse matrix,
    # against its dense entries
    dim = system.dim
    _, basis = dense_nullspace(system.rows, system.num_unknowns)
    diagonal = {sym_index(dim, a, a) for a in range(dim)}
    projected = []
    for vec in basis:
        mean = sum(vec[k] for k in diagonal) / dim
        projected.append([x - mean if k in diagonal else x for k, x in enumerate(vec)])
    expected = next((dense_entry_strings(vec, dim) for vec in projected if any(vec)), None)
    with mock.patch.object(nwe.verifier, "_assemble", lambda sset, t: system):
        got = verdict(gen_equal(3, 3), 0)
    assert got.nullspace_dim == len(basis)
    assert (None if got.witness is None else got.witness.entry_strings()) == expected
    assert got.witness is None or not got.witness.is_identity_multiple()
    for vec in basis + projected:
        matrix = coords_to_matrix(vec, dim)
        assert matrix.entry_strings() == dense_entry_strings(vec, dim)
        assert matrix.is_identity_multiple() == dense_is_identity_multiple(vec, dim)


@st.composite
def hermitian_matrices(draw):
    """Sparse Hermitian matrices over a denominator of 1-36 whose signed
    numerators may or may not be multiples of it; an entry may be missing
    from either block, so imaginary parts are often zero."""
    dim, den = draw(st.integers(1, 4)), draw(st.integers(1, 36))
    entry = st.one_of(st.just(0), st.integers(-80, 80), st.integers(-4, 4).map(lambda k: k * den))
    sym = {(a, b): x for a in range(dim) for b in range(a, dim) if (x := draw(entry))}
    anti = {(a, b): x for a in range(dim) for b in range(a + 1, dim) if (x := draw(entry))}
    return nwe.verifier.HermitianMatrix(dim, den, tuple(sym.items()), tuple(anti.items()))


@example(nwe.verifier.HermitianMatrix(2, 6, (((0, 1), -3), ((1, 1), 18)), (((0, 1), 2),)))
@example(nwe.verifier.HermitianMatrix(2, 1, (((0, 0), -7),), (((0, 1), -1),)))
@settings(max_examples=300, deadline=None)
@given(hermitian_matrices())
def test_entry_strings_are_the_fraction_strings(matrix):
    dim, den, sym, anti = matrix.dim, matrix.den, dict(matrix.sym), dict(matrix.anti)
    expected = []
    for a in range(dim):
        row = []
        for b in range(dim):
            key = (min(a, b), max(a, b))
            im = anti.get(key, 0) * (1 if a < b else -1)
            re = str(Fraction(sym.get(key, 0), den))
            row.append(re + (f"{'+' if im > 0 else '-'}{Fraction(abs(im), den)}i" if im else ""))
        expected.append(row)
    assert matrix.entry_strings() == expected
    assert expected == dense_entry_strings(matrix_to_coords(matrix), dim)


def test_zeroed_diagonal_raises_under_python_O():
    # a forged S-block row becomes a one-entry row on S[1,1] after S[0,1] is
    # peeled; the identity would leave the nullspace
    message = invariant_error_under_python_O("""
import nwe.verifier
from nwe import gen_equal
from nwe.verifier import MeasurementConstraintSystem, sym_index, verdict
rows = ({sym_index(3, 0, 1): 1}, {sym_index(3, 0, 1): 2, sym_index(3, 1, 1): 1})
nwe.verifier._assemble = lambda sset, t: MeasurementConstraintSystem(0, 3, rows, ())
verdict(gen_equal(3, 3), 0)
""")
    assert f"forces coordinate {sym_index(3, 1, 1)} to zero" in message


class TestLadderTop:
    @pytest.mark.parametrize("sset", [gen_equal(3, 64), gen_general((3, 32, 64))], ids=lambda s: s.provenance)
    def test_trivial_on_every_party(self, sset):
        verdicts = verify_all(sset)
        assert [(v.status, v.nullspace_dim) for v in verdicts] == [("Trivial", 1)] * sset.shape.n
        # the basis `reference_nullspace` gives a Trivial party: the identity,
        # with a 1 at its last diagonal coordinate, the one free column
        for t, dim in enumerate(sset.shape.dims):
            assert nullspace(assemble(sset, t)) == [tuple(map(Fraction, identity_coords(dim)))]
