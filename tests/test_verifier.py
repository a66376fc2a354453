import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
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
    LIFT_BOUND,
    MERSENNE_EXPONENTS,
    MODULUS,
    InvariantError,
    MeasurementConstraintSystem,
    _coordinate_tables,
    _eliminate,
    _gauss_jordan,
    _peel,
    anti_index,
    certified_nonlocal,
    coords_to_matrix,
    identity_coords,
    matrix_to_coords,
    reconstruct,
    sym_index,
    verdict,
)

from helpers import (
    CZERO,
    big_basis_set,
    computational_basis_set,
    dense_rref,
    invariant_error_under_python_O,
    measured_overlap,
    orthogonal_integer_matrix,
    primitive,
    reference_nullspace,
    reference_verdicts,
    rotated,
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
        forged = dataclasses.replace(cert, facts=cert.facts[:-1])
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


def moduli_used(monkeypatch) -> list:
    """Records the modulus of each block elimination, in call order."""
    calls = []
    original = nwe.verifier._gauss_jordan

    def spy(rows, modulus, target=None):
        calls.append(modulus)
        return original(rows, modulus, target)

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
        calls = moduli_used(monkeypatch)
        assert all(v.trivial for v in verify_all(gen_general((3, 3, 4))))
        assert set(calls) == {MODULUS}

    @pytest.mark.parametrize("party", [0, 1, 2])
    def test_rank_drop_mod_p_falls_back_to_exact(self, monkeypatch, party):
        # the stopper's rows on this party vanish mod p, so rank_S drops mod p
        # while the rational rank, and so the verdict, is unchanged; the next
        # prime of the ladder recovers it
        sset = gen_equal(3, 3)
        scaled = scale_local(sset, len(sset) - 1, party, MODULUS)
        calls = moduli_used(monkeypatch)
        assert outcomes(verify_all(scaled)) == outcomes(verify_all(sset))
        assert max(calls) > MODULUS, "no prime after 2^61 - 1 ran"

    def test_scaled_nontrivial_set_keeps_its_witness(self):
        sset = without_stopper(gen_general((3, 3, 4)))
        for idx in (0, len(sset) // 2, len(sset) - 1):
            for party in range(sset.shape.n):
                scaled = scale_local(sset, idx, party, MODULUS)
                assert outcomes(verify_all(scaled)) == outcomes(verify_all(sset))


def residue(q: Fraction) -> int:
    return q.numerator * pow(q.denominator, -1, MODULUS) % MODULUS


class TestLift:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-LIFT_BOUND, LIFT_BOUND), st.integers(1, LIFT_BOUND))
    def test_reconstruction_recovers_fractions_inside_the_bound(self, n, d):
        q = Fraction(n, d)
        assert reconstruct(residue(q)) == (q.numerator, q.denominator)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(LIFT_BOUND**2), LIFT_BOUND**2), st.integers(1, LIFT_BOUND**2))
    def test_reconstruction_rejects_fractions_outside_the_bound(self, n, d):
        q = Fraction(n, d)
        assume(abs(q.numerator) > LIFT_BOUND or q.denominator > LIFT_BOUND)
        got = reconstruct(residue(q))
        assert got != (q.numerator, q.denominator)
        if got is not None:
            # another fraction with the same residue, inside the bound
            num, den = got
            assert abs(num) <= LIFT_BOUND and 0 < den <= LIFT_BOUND and math.gcd(num, den) == 1
            assert residue(Fraction(num, den)) == residue(q)

    @pytest.mark.parametrize(
        "q", [Fraction(LIFT_BOUND + 1), Fraction(-LIFT_BOUND - 1), Fraction(1, LIFT_BOUND + 1)]
    )
    def test_just_outside_the_bound_is_rejected(self, q):
        assert reconstruct(residue(q)) is None

    def test_nontrivial_family_needs_no_exact_elimination(self, monkeypatch):
        sset = without_stopper(gen_general((3, 3, 4)))
        calls = moduli_used(monkeypatch)
        got = outcomes(verify_all(sset))
        assert set(calls) == {MODULUS}
        assert all(status == "Nontrivial" for status, _, _ in got)
        assert got == reference_verdicts(sset)

    def test_entry_beyond_the_bound_falls_back_to_exact(self, monkeypatch):
        # party 0's S-block RREF has the entry (B^2 - 1)/B, whose numerator
        # exceeds the bound of 2^61 - 1 but not that of 2^127 - 1
        sset = big_basis_set(2**31 + 11)
        calls = moduli_used(monkeypatch)
        got = outcomes(verify_all(sset))
        assert max(calls) > MODULUS, "no prime after 2^61 - 1 ran"
        assert got == reference_verdicts(sset)
        assert got[0][:2] == ("Nontrivial", 2)

    @pytest.mark.parametrize("exponent", [127, 521])
    def test_reconstruction_at_a_larger_prime(self, exponent):
        modulus = 2**exponent - 1
        bound = math.isqrt(modulus // 2)
        for q in (Fraction(bound, 7), Fraction(-3, bound), Fraction(2**60 + 1, 3)):
            x = q.numerator * pow(q.denominator, -1, modulus) % modulus
            assert reconstruct(x, modulus) == (q.numerator, q.denominator)
        assert reconstruct(bound + 1, modulus) is None


def lucas_lehmer(exponent: int) -> bool:
    """Whether 2^e - 1 is prime, for an odd prime e. Each step reduces
    s^2 - 2 modulo m = 2^e - 1 by folding, since 2^e = 1 (mod m)."""
    m = 2**exponent - 1
    s = 4
    for _ in range(exponent - 2):
        s = s * s + m - 2
        s = (s & m) + (s >> exponent)
        s = (s & m) + (s >> exponent)
    return s % m == 0


class TestPrimeLadder:
    def test_listed_exponents_give_primes(self):
        exponents = [e for e in MERSENNE_EXPONENTS if e <= 19937]
        assert exponents == sorted(exponents) and exponents[0] == 61
        assert all(lucas_lehmer(e) for e in exponents)
        assert not any(lucas_lehmer(e) for e in (67, 257))
        assert MODULUS == 2 ** MERSENNE_EXPONENTS[0] - 1

    def test_entry_near_2_to_the_140_needs_the_521_bit_prime(self, monkeypatch):
        # the entry (B^2 - 1)/B has a numerator near 2^140, beyond the bound
        # 2^63 of 2^127 - 1 and inside the bound 2^260 of 2^521 - 1
        sset = big_basis_set(2**70 + 25)
        calls = moduli_used(monkeypatch)
        got = outcomes(verify_all(sset))
        assert max(calls) == 2**521 - 1
        assert got == reference_verdicts(sset)
        assert got[0][:2] == ("Nontrivial", 2)

    def test_exhausted_ladder_raises(self, monkeypatch):
        monkeypatch.setattr(nwe.verifier, "MERSENNE_EXPONENTS", (61,))
        with pytest.raises(InvariantError, match="no Mersenne prime"):
            verify_all(big_basis_set(2**31 + 11))


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
            ProductState(shape, (primitive([row[i] for row in bases[0]]), primitive([row[j] for row in bases[1]])))
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


def peeled_rref(rows, ncols: int, modulus=None):
    """The RREF the way the oracle builds it: the core's, plus an empty-tailed
    pivot for each zeroed column; the core's RREF is taken modulo `modulus`,
    or over the rationals by `dense_rref` without one."""
    zeroed, core = _peel(rows)
    pivots = exact_rref(core, ncols) if modulus is None else _gauss_jordan(core, modulus)
    assert zeroed.isdisjoint(pivots)
    pivots.update((c, {}) for c in zeroed)
    return pivots


class TestPeel:
    @settings(max_examples=300, deadline=None)
    @given(peelable_rows())
    def test_peeled_rref_equals_the_unpeeled_rref(self, case):
        ncols, rows = case
        assert peeled_rref(rows, ncols) == exact_rref(rows, ncols)
        assert peeled_rref(rows, ncols, MODULUS) == _gauss_jordan(rows, MODULUS)

    @settings(max_examples=300, deadline=None)
    @given(peelable_rows())
    def test_eliminate_gives_the_exact_rref_and_rank(self, case):
        ncols, rows = case
        exact = exact_rref(rows, ncols)
        reduced = _eliminate(rows, ncols)
        if reduced is None:
            assert len(exact) == ncols
        else:
            pivots, den = reduced
            assert {pc: {k: Fraction(x, den) for k, x in tail.items()} for pc, tail in pivots.items()} == exact

    def test_cascade_runs_to_its_fixpoint(self):
        # only the first row has one entry; each later row gets one entry
        # once the column before it is zeroed
        rows = [{1: 1, 2: -1}, {0: 1, 1: 4}, {0: 2}, {2: 3, 3: 1, 4: 1}]
        zeroed, core = _peel(rows)
        assert zeroed == {0, 1, 2}
        assert core == [{3: 1, 4: 1}]

    def test_a_family_cascades(self):
        # on party 1 of general(3,4,5) some rows become one-entry rows only
        # after a first pass
        system = assemble(gen_general((3, 4, 5)), 1)
        for rows in (system.sym, system.anti):
            first = {k for row in rows if len(row) == 1 for k in row}
            zeroed, _ = _peel(rows)
            assert zeroed > first

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
    def test_trivial_on_every_party_without_exact_elimination(self, monkeypatch, sset):
        calls = moduli_used(monkeypatch)
        lifts = []
        monkeypatch.setattr(nwe.verifier, "_lift", lambda *args: lifts.append(args))
        verdicts = verify_all(sset)
        assert [(v.status, v.nullspace_dim) for v in verdicts] == [("Trivial", 1)] * sset.shape.n
        # every block reaches its full rank modulo 2^61 - 1: nothing is lifted
        assert set(calls) == {MODULUS} and lifts == []
