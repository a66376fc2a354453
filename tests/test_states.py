import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nwe import DimensionError, StateSet, gen_equal, gen_general
from nwe.states import (
    LocalVector,
    ProductState,
    SystemShape,
    are_orthogonal,
    check_pairwise_orthogonality,
    dim_cap,
    inner_factors,
    local_inner,
    stopper,
)

from helpers import brute_force_inner, expand


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

    def test_dim_cap_override(self, monkeypatch):
        monkeypatch.setenv("NWE_DIM_CAP", "128")
        assert SystemShape((65, 65)).dims == (65, 65)
        monkeypatch.setenv("NWE_DIM_CAP", "4")
        with pytest.raises(DimensionError):
            SystemShape((3, 5))

    def test_dim_cap_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("NWE_DIM_CAP", "abc")
        with pytest.raises(DimensionError, match="NWE_DIM_CAP must be an integer"):
            dim_cap()

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
        scaled_locals[k] = scaled_locals[k].scaled(factor)
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
