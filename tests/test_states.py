import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nwe import DimensionError, StateSet, assemble, derive_certificate, gen_equal, gen_general
from nwe.serialize import state_set_from_document, state_set_to_document
from nwe.states import (
    MAX_PAIRS,
    LocalVector,
    ProductState,
    SystemShape,
    basis_ket,
    check_pairwise_orthogonality,
    find_stopper,
    stopper,
)

from helpers import (
    are_orthogonal,
    brute_force_inner,
    expand,
    inner_factors,
    local_inner,
    reference_pair_table,
    orthogonal_integer_matrix,
    rotated,
    scaled_vector,
    scrambled,
    unshared_index,
    without_stopper,
)


def product_state(shape, *coeff_rows, label=None):
    return ProductState(shape, tuple(LocalVector(tuple(r)) for r in coeff_rows), label=label)


class TestLocalInner:
    def test_difference_vs_sum(self):
        assert local_inner(LocalVector((1, -1, 0)), LocalVector((1, 1, 0))) == 0

    def test_identity_case(self):
        assert local_inner(LocalVector((1, 0, 0)), LocalVector((1, 0, 0))) == 1

    def test_flat_vs_difference(self):
        assert local_inner(LocalVector((1, 1, 1)), LocalVector((1, -1, 0))) == 0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            local_inner(LocalVector((1, 0)), LocalVector((1, 0, 0)))

    def test_no_overflow(self):
        big = 10**30
        u = LocalVector((big, big))
        assert local_inner(u, u) == 2 * big * big


class TestInnerFactors:
    def test_hand_expanded_triple(self):
        shape = SystemShape((3, 3, 3))
        a = product_state(shape, (1, -1, 0), (1, 0, 0), (0, 1, 0))
        b = product_state(shape, (0, 1, 0), (1, -1, 0), (1, 0, 0))
        assert inner_factors(a, b) == (-1, 1, 0)

    def test_identity_case(self):
        shape = SystemShape((2, 2))
        a = product_state(shape, (1, 0), (1, 0))
        assert inner_factors(a, a) == (1, 1)

    def test_first_family_state_vs_stopper(self):
        # |0-1>|0>|1> against the all-ones state: factors (0, 1, 1),
        # cross-checked against the dense expansion oracle
        sset = gen_equal(3, 3)
        phi1, stop = sset.states[0], sset.states[-1]
        factors = inner_factors(phi1, stop)
        assert factors == (0, 1, 1)
        prod = 1
        for f in factors:
            prod *= f
        assert prod == brute_force_inner(phi1, stop)

    def test_shape_mismatch(self):
        a = product_state(SystemShape((2, 2)), (1, 0), (1, 0))
        b = product_state(SystemShape((2, 3)), (1, 0), (1, 0, 0))
        with pytest.raises(DimensionError):
            inner_factors(a, b)


class TestAreOrthogonal:
    def test_orthogonal_first_party(self):
        shape = SystemShape((2, 2))
        a = product_state(shape, (1, -1), (1, 0))
        b = product_state(shape, (1, 1), (1, 0))
        assert are_orthogonal(a, b)

    def test_orthogonal_second_party(self):
        shape = SystemShape((2, 2))
        a = product_state(shape, (1, 0), (1, 0))
        b = product_state(shape, (1, 0), (0, 1))
        assert are_orthogonal(a, b)

    def test_not_orthogonal(self):
        shape = SystemShape((2, 2))
        a = product_state(shape, (1, 0), (1, 0))
        b = product_state(shape, (1, 1), (1, 1))
        assert not are_orthogonal(a, b)


class TestCheckPairwise:
    def test_equal_family_clean(self):
        sset = gen_equal(3, 3)
        assert check_pairwise_orthogonality(sset) == []
        # brute-force confirmation over all 21 pairs
        for i in range(len(sset)):
            for j in range(i + 1, len(sset)):
                assert brute_force_inner(sset.states[i], sset.states[j]) == 0

    def test_violating_pair_reported(self):
        shape = SystemShape((2, 2))
        sset = StateSet(
            shape,
            (
                product_state(shape, (1, 0), (1, 0)),
                product_state(shape, (1, 1), (1, 1)),
            ),
        )
        assert check_pairwise_orthogonality(sset) == [(0, 1)]

    def test_general_family_clean(self):
        sset = gen_general((3, 3, 4))
        assert check_pairwise_orthogonality(sset) == []
        for i in range(len(sset)):
            for j in range(i + 1, len(sset)):
                assert brute_force_inner(sset.states[i], sset.states[j]) == 0


class TestStopper:
    def test_two_qubit(self):
        s = stopper(SystemShape((2, 2)))
        assert [lv.coeffs for lv in s.locals] == [(1, 1), (1, 1)]
        assert s.label == "S"

    def test_mixed_dims(self):
        s = stopper(SystemShape((3, 4)))
        assert [lv.coeffs for lv in s.locals] == [(1, 1, 1), (1, 1, 1, 1)]

    def test_not_orthogonal_to_nonnegative_states(self):
        shape = SystemShape((2, 2))
        s = stopper(shape)
        zero = product_state(shape, (1, 0), (1, 0))
        assert inner_factors(zero, s) == (1, 1)
        assert not are_orthogonal(zero, s)


def scanned_stopper(sset):
    """The first state all of whose coefficients are 1, found state by state."""
    return next((i for i, s in enumerate(sset.states) if all(c == 1 for lv in s.locals for c in lv.coeffs)), None)


def stopper_sets():
    shape = SystemShape((2, 3))
    ones = stopper(shape)
    half = product_state(shape, (1, 1), (1, 0, 0))
    other_half = product_state(shape, (1, 0), (1, 1, 1))
    families = [gen_equal(3, 3), gen_general((3, 4, 5)), gen_equal(4, 3)]
    return (
        families
        + [without_stopper(s) for s in families]
        + [scrambled(s, random.Random(k)) for k, s in enumerate(families)]
        + [rotated(gen_equal(3, 4), random.Random(1), [1])]
        + [
            # every party has the all-ones vector, on no one state
            StateSet(shape, (half, other_half)),
            StateSet(shape, (half, ones, other_half, ProductState(shape, ones.locals, label="S2"))),
            StateSet(shape, ()),
        ]
    )


class TestFindStopper:
    """find_stopper reads the vector index: it looks up each party's
    all-ones vector and the state that has all of them."""

    @pytest.mark.parametrize("sset", stopper_sets(), ids=lambda s: f"{s.provenance}{s.shape.dims}-{len(s)}")
    def test_agrees_with_the_state_scan(self, sset):
        expected = scanned_stopper(sset)
        assert find_stopper(sset) == expected
        loaded = state_set_from_document(state_set_to_document(sset))
        assert find_stopper(loaded) == expected
        assert "states" not in loaded.__dict__


class TestInvariantsValidation:
    def test_zero_local_vector_rejected(self):
        with pytest.raises(DimensionError):
            LocalVector((0, 0, 0))

    def test_empty_local_vector_rejected(self):
        with pytest.raises(DimensionError):
            LocalVector(())

    def test_shape_needs_two_parties(self):
        with pytest.raises(DimensionError):
            SystemShape((3,))

    def test_shape_needs_dims_at_least_two(self):
        with pytest.raises(DimensionError):
            SystemShape((3, 1))

    def test_dim_cap_default(self):
        with pytest.raises(DimensionError):
            SystemShape((65, 65))

    @pytest.mark.parametrize("raw", ["128", "abc"])
    def test_environment_does_not_move_the_cap(self, monkeypatch, raw):
        monkeypatch.setenv("NWE_DIM_CAP", raw)
        assert SystemShape((3, 64)).dims == (3, 64)
        with pytest.raises(DimensionError, match=r"^party 1: dimension 65 exceeds cap 64$"):
            SystemShape((3, 65))

    def test_pair_bound_is_inclusive(self):
        # 1414 states make 999,691 pairs and 1415 make 1,000,405; the
        # constructor does not check orthogonality, so one state will do
        shape = SystemShape((2, 2))
        state = ProductState(shape, (basis_ket(2, 0), basis_ket(2, 0)))
        assert MAX_PAIRS == 10**6
        assert len(StateSet(shape, (state,) * 1414)) == 1414
        message = "1415 states make 1000405 state pairs, above the bound of 1000000"
        with pytest.raises(DimensionError, match=f"^{message}$"):
            StateSet(shape, (state,) * 1415)

    def test_state_local_count_must_match(self):
        shape = SystemShape((2, 2))
        with pytest.raises(DimensionError):
            ProductState(shape, (LocalVector((1, 0)),))

    def test_state_local_length_must_match(self):
        shape = SystemShape((2, 3))
        with pytest.raises(DimensionError):
            ProductState(shape, (LocalVector((1, 0)), LocalVector((1, 0))))

    def test_set_rejects_foreign_shape(self):
        a = product_state(SystemShape((2, 2)), (1, 0), (1, 0))
        with pytest.raises(DimensionError):
            StateSet(SystemShape((2, 3)), (a,))

    # a set built from states follows the loader's rules for labels and
    # provenance, so every set it saves loads again

    def test_set_rejects_a_label_that_names_two_states(self):
        shape = SystemShape((2, 2))
        rows = [((1, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (0, 1))]
        states = [product_state(shape, *row, label="x") for row in rows]
        with pytest.raises(DimensionError, match=re.escape("duplicate state label 'x': states[0] and states[1]")):
            StateSet(shape, states)
        # an unlabelled state is cited as "#index"
        states = [product_state(shape, *rows[0], label="#1"), product_state(shape, *rows[1])]
        with pytest.raises(DimensionError, match=re.escape("duplicate state label '#1': states[0] and states[1]")):
            StateSet(shape, states)

    def test_set_rejects_a_label_that_is_not_a_string(self):
        shape = SystemShape((2, 2))
        states = [product_state(shape, (1, 0), (1, 0), label=5), product_state(shape, (0, 1), (1, 0))]
        with pytest.raises(DimensionError, match=re.escape("states[0].label: expected a string")):
            StateSet(shape, states)

    def test_set_rejects_a_provenance_that_is_not_a_string(self):
        shape = SystemShape((2, 2))
        with pytest.raises(DimensionError, match="provenance must be a string"):
            StateSet(shape, [product_state(shape, (1, 0), (1, 0))], provenance=7)


class TestNonIntegers:
    NON_INTEGERS = [0.5, 3.0, Fraction(1, 2), Fraction(4, 1), "3", None]

    @pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
    def test_coefficient_rejected_and_named(self, bad):
        with pytest.raises(DimensionError, match=re.escape(f"coefficients must be integers, got {bad!r}")):
            LocalVector((bad, 1))

    @pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
    def test_dimension_rejected_and_named(self, bad):
        with pytest.raises(DimensionError, match=re.escape(f"dimensions must be integers, got {bad!r}")):
            SystemShape((bad, 2))

    def test_fractional_coefficients_are_not_mistaken_for_zero(self):
        with pytest.raises(DimensionError, match="must be integers, got 0.5"):
            LocalVector((0.5, 0.4))

    def test_integers_pass_unchanged(self):
        big = 10**40
        assert LocalVector((3, -1, 0, big)).coeffs == (3, -1, 0, big)
        assert SystemShape((3, 2)).dims == (3, 2)
        assert type(LocalVector((True, 0)).coeffs[0]) is int


def small_shapes():
    return st.lists(st.integers(2, 8), min_size=2, max_size=4).filter(
        lambda dims: math.prod(dims) <= 4096
    )


@st.composite
def random_state_pair(draw):
    dims = draw(small_shapes())
    shape = SystemShape(tuple(dims))

    def local(d):
        return st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(lambda c: any(c))

    a = ProductState(shape, tuple(LocalVector(tuple(draw(local(d)))) for d in dims))
    b = ProductState(shape, tuple(LocalVector(tuple(draw(local(d)))) for d in dims))
    return a, b


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(random_state_pair())
    def test_factorized_orthogonality_matches_expansion(self, pair):
        a, b = pair
        factors = inner_factors(a, b)
        prod = 1
        for f in factors:
            prod *= f
        assert prod == brute_force_inner(a, b)
        assert are_orthogonal(a, b) == (prod == 0)

    @settings(max_examples=100, deadline=None)
    @given(random_state_pair())
    def test_factor_symmetry(self, pair):
        a, b = pair
        assert inner_factors(a, b) == inner_factors(b, a)

    @settings(max_examples=100, deadline=None)
    @given(random_state_pair(), st.integers(-5, 5).filter(lambda c: c != 0), st.data())
    def test_scaling_one_factor(self, pair, factor, data):
        a, b = pair
        k = data.draw(st.integers(0, a.shape.n - 1))
        scaled_locals = list(a.locals)
        scaled_locals[k] = scaled_vector(scaled_locals[k], factor)
        a2 = ProductState(a.shape, tuple(scaled_locals))
        before = inner_factors(a, b)
        after = inner_factors(a2, b)
        for idx in range(a.shape.n):
            assert after[idx] == (factor * before[idx] if idx == k else before[idx])
        assert are_orthogonal(a, b) == are_orthogonal(a2, b)

    def test_expansion_helper_matches_kets(self):
        shape = SystemShape((2, 3))
        s = product_state(shape, (1, -1), (0, 1, 0))
        # (|0>-|1>) x |1> -> coefficients at indices 1 and 4
        assert expand(s) == [0, 1, 0, 0, -1, 0]


class TestPairTable:
    @pytest.mark.parametrize(
        "sset", [gen_equal(3, 4), gen_general((3, 4, 5)), gen_equal(5, 3)], ids=lambda s: s.provenance
    )
    def test_buckets_hold_the_pairs_with_a_sole_zero_factor(self, sset):
        states = sset.states
        expected = [[] for _ in range(sset.shape.n)]
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                zeros = [t for t, f in enumerate(inner_factors(states[i], states[j])) if f == 0]
                if len(zeros) == 1:
                    expected[zeros[0]].append((i, j))
        table = sset.pair_table
        assert table.violations == ()
        assert [list(b) for b in table.buckets] == expected
        assert sset.pair_table is table

    def test_violations_in_lexicographic_order(self):
        shape = SystemShape((2, 2))
        ones = product_state(shape, (1, 1), (1, 1))
        sset = StateSet(shape, (ones, product_state(shape, (1, 0), (1, 0)), ones))
        assert sset.pair_table.violations == ((0, 1), (0, 2), (1, 2))
        assert sset.pair_table.buckets == ((), ())


@st.composite
def pooled_sets(draw):
    """0-9 states over 2-4 parties of dimension at most 4. Each party draws its
    vectors from a pool of one to four, basis kets or coefficients in
    {-2..2}, so vectors repeat and pairs of every kind occur: violations,
    inert pairs and pairs with one zero factor."""
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=2, max_size=4)))
    pools = []
    for d in dims:
        ket = st.integers(0, d - 1).map(lambda i, d=d: basis_ket(d, i))
        coeffs = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
        vector = ket | coeffs.map(lambda c: LocalVector(tuple(c)))
        pools.append(draw(st.lists(vector, min_size=1, max_size=4)))
    shape = SystemShape(dims)
    states = [tuple(draw(st.sampled_from(p)) for p in pools) for _ in range(draw(st.integers(0, 9)))]
    return StateSet(shape, tuple(ProductState(shape, locals_) for locals_ in states))


INDEXED_SETS = [gen_equal(3, 4), gen_general((3, 4, 5)), gen_equal(4, 3)] + [
    rotated(build, random.Random(seed), range(3))
    for seed, build in enumerate((gen_equal(3, 4), without_stopper(gen_equal(3, 5)), gen_general((3, 3, 4))))
]


class TestVectorIndex:
    def test_distinct_vectors_ids_and_supports(self):
        shape = SystemShape((3, 2))
        a = product_state(shape, (1, -1, 0), (1, 0))
        b = product_state(shape, (0, 0, 2), (1, 0))
        c = product_state(shape, (1, -1, 0), (0, 1))
        coeffs, ids, supports, kets = StateSet(shape, (a, b, c)).vector_index[0]
        assert coeffs == ((1, -1, 0), (0, 0, 2))
        assert ids == (0, 1, 0)
        assert supports == (((0, 1), (1, -1)), ((2, 2),))
        assert kets == (-1, 2)

    @settings(max_examples=150, deadline=None)
    @given(pooled_sets(), st.integers(0, 2**16))
    def test_kets_agree_with_supports(self, sset, seed):
        # every way a set is made ends in one store: the constructor, the
        # loader and a rotation, which makes most vectors dense (at d = 2
        # the helper's only matrix fixing the all-ones vector is the
        # identity, so orthogonal_integer_matrix raises ValueError there)
        loaded = state_set_from_document(state_set_to_document(sset))
        turned = rotated(sset, random.Random(seed), [t for t, d in enumerate(sset.shape.dims) if d > 2])
        for made in (sset, loaded, turned):
            for coeffs, _, supports, kets in made.vector_index:
                assert supports == tuple(tuple((a, c) for a, c in enumerate(v) if c) for v in coeffs)
                assert kets == tuple(s[0][0] if len(s) == 1 else -1 for s in supports)
                assert all(v[a] and sum(map(bool, v)) == 1 for v, a in zip(coeffs, kets) if a >= 0)

    @pytest.mark.parametrize("dim, fix_ones", [(1, False), (1, True), (2, True)])
    def test_rotation_helper_refuses_sizes_with_no_matrix(self, dim, fix_ones):
        # v and w would be parallel on every draw, so the search would never end
        with pytest.raises(ValueError, match=f"no such matrix of size {dim}"):
            orthogonal_integer_matrix(random.Random(0), dim, fix_ones)
        if fix_ones:
            with pytest.raises(ValueError):
                rotated(set_of((dim, 2), ((1,) * dim, (1, 0)), ((1,) * dim, (0, 1))), random.Random(0), [0])

    @pytest.mark.parametrize("dim, fix_ones", [(2, False), (3, True)])
    def test_rotation_helper_at_the_least_sizes(self, dim, fix_ones):
        m = orthogonal_integer_matrix(random.Random(0), dim, fix_ones)
        assert any(abs(x) > 1 for row in m for x in row)
        gram = [[sum(r[a] * r[b] for r in m) for b in range(dim)] for a in range(dim)]
        assert gram == [[gram[0][0] * (a == b) for b in range(dim)] for a in range(dim)]

    def test_stored_at_construction(self):
        # the index and the labels are the set's stored form, made when the
        # set is; `states` is a view and no field
        assert StateSet._fields == ("shape", "vector_index", "_labels", "provenance")
        sset = gen_equal(3, 4)
        assert sset.__dict__["vector_index"] is sset.vector_index
        assert "pair_table" not in sset.__dict__
        assert sset._labels == tuple(s.label for s in sset.states)

    def test_every_kind_of_pair_with_repeated_vectors(self):
        shape = SystemShape((2, 2))
        rows = [((1, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 0))]
        sset = StateSet(shape, tuple(product_state(shape, *r) for r in rows))
        expected = reference_pair_table(sset)
        assert expected.violations == ((0, 2),)
        assert expected.buckets == (((0, 3), (1, 2), (2, 3)), ((1, 3),))
        assert sset.pair_table == expected

    @settings(max_examples=300, deadline=None)
    @given(pooled_sets())
    def test_pair_table_matches_the_triple_loop(self, sset):
        expected = reference_pair_table(sset)
        assert sset.pair_table == expected
        assert unshared_index(sset).pair_table == expected

    @pytest.mark.parametrize("sset", INDEXED_SETS, ids=lambda s: f"{s.provenance}{s.shape.dims}")
    def test_rows_and_certificate_match_per_state_supports(self, sset):
        reference = unshared_index(sset)
        assert sset.pair_table == reference.pair_table == reference_pair_table(sset)
        for t in range(sset.shape.n):
            system, expected = assemble(sset, t), assemble(reference, t)
            assert (system.sym, system.anti) == (expected.sym, expected.anti)
        assert derive_certificate(sset) == derive_certificate(reference)


def set_of(dims, *rows):
    """A set with one state per row, each row giving one coefficient tuple per party."""
    shape = SystemShape(dims)
    return StateSet(shape, tuple(product_state(shape, *row) for row in rows))


class TestOverlappingSupports:
    """The pair table multiplies only the vector pairs that share a
    coordinate; every other pair of distinct vectors is orthogonal by
    disjoint support, and a vector is never orthogonal to itself."""

    def test_orthogonal_by_cancellation(self):
        # |0>+|1> and |0>-|1>, and 2|0>+|1> and |0>-2|1>, overlap but are orthogonal
        sset = set_of(
            (3, 2),
            ((1, 1, 0), (1, 0)),
            ((1, -1, 0), (1, 0)),
            ((2, 1, 0), (1, 1)),
            ((1, -2, 0), (1, 1)),
            ((0, 3, -3), (1, -1)),
        )
        table = reference_pair_table(sset)
        assert sset.pair_table == table
        assert (0, 1) in table.buckets[0] and (2, 3) in table.buckets[0]
        assert (0, 4) in table.violations and (3, 4) in table.buckets[1]

    def test_disjoint_supports_on_every_party(self):
        # every pair of distinct vectors is disjoint; the repeated state is a violation
        rows = [((1, 0, 0, 0), (0, 0, 0, 5)), ((0, 2, 0, 0), (0, 3, -1, 0)), ((0, 0, 3, -1), (1, 0, 0, 0))]
        sset = set_of((4, 4), *rows, rows[0])
        table = reference_pair_table(sset)
        assert sset.pair_table == table
        assert table.violations == ((0, 3),)
        assert table.buckets == ((), ())

    def test_one_coordinate_shared_by_every_vector(self):
        column = [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (2, -1, -1), (1, 1, 1)]
        sset = set_of((3, 3), *((u, v) for u in column for v in column[:2]))
        table = reference_pair_table(sset)
        assert sset.pair_table == table
        assert table.violations and all(table.buckets)

    @pytest.mark.parametrize("seed", range(3))
    def test_rotated_dense_sets(self, seed):
        for build in (gen_equal(3, 5), without_stopper(gen_equal(4, 4)), gen_general((3, 4, 6))):
            sset = rotated(build, random.Random(seed), range(build.shape.n))
            assert sset.pair_table == reference_pair_table(sset)

    def test_non_orthogonal_set_reports_its_violations(self):
        base = gen_equal(3, 4)
        shape = base.shape
        extra = product_state(shape, (1, 1, 0, 0), (1, 0, 0, 0), (0, 2, 1, 0))
        copy = ProductState(shape, base.states[2].locals, label="copy")  # a label names one state
        sset = StateSet(shape, base.states + (extra, copy))
        table = reference_pair_table(sset)
        assert sset.pair_table == table
        assert (2, len(base)) not in table.violations
        assert (2, len(base) + 1) in table.violations and len(table.violations) > 1
