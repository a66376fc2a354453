import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nwe import ConstructionError, DimensionError, gen_equal, gen_general, prior_sizes
from nwe import constructions
from nwe.constructions import MAX_COEFFICIENTS, GeneralDims, expected_size
from nwe.states import basis_ket, check_pairwise_orthogonality

from helpers import local_inner


class TestGenEqual:
    def test_four_parties_qutrits(self):
        assert len(gen_equal(4, 3)) == 9

    def test_three_parties_qutrits_ends_with_stopper(self):
        sset = gen_equal(3, 3)
        assert len(sset) == 7
        last = sset.states[-1]
        assert [lv.coeffs for lv in last.locals] == [(1, 1, 1)] * 3

    def test_three_parties_ququarts_orthogonal(self):
        sset = gen_equal(3, 4)
        assert len(sset) == 10
        assert check_pairwise_orthogonality(sset) == []

    @pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (1, 5), (4, 1)])
    def test_rejects_out_of_range(self, n, d):
        with pytest.raises(ConstructionError):
            gen_equal(n, d)

    def test_error_names_the_bound(self):
        with pytest.raises(ConstructionError, match="n >= 3"):
            gen_equal(2, 3)
        with pytest.raises(ConstructionError, match="d >= 3"):
            gen_equal(3, 2)


class TestFamilySizeBound:
    """A family above MAX_COEFFICIENTS (states times the sum of the local
    dimensions) is refused before anything is built."""

    def test_refused_above_the_bound(self):
        with pytest.raises(ConstructionError, match="2001 states of 3000 coefficients each, 6003000 in all"):
            gen_equal(1000, 3)
        with pytest.raises(ConstructionError, match=f"above the bound of {MAX_COEFFICIENTS}"):
            gen_general((64,) * 16)

    def test_bound_is_inclusive(self, monkeypatch):
        # equal(3,3) has 7 states of 9 coefficients, equal(3,4) 10 of 12
        monkeypatch.setattr(constructions, "MAX_COEFFICIENTS", 63)
        assert len(gen_equal(3, 3)) == 7
        with pytest.raises(ConstructionError, match="120 in all"):
            gen_equal(3, 4)
        # general(3,3,3) has 7 states of 9 coefficients, general(3,3,4) 9 of 10
        assert len(gen_general((3, 3, 3))) == 7
        with pytest.raises(ConstructionError, match="90 in all"):
            gen_general((3, 3, 4))

    def test_largest_equal_family_at_the_cap_is_allowed(self):
        # checked without building it: equal(15,64) has n(d-1)+1 = 946 states of 960
        n, d = 15, 64
        assert (n * (d - 1) + 1) * n * d <= MAX_COEFFICIENTS
        constructions._check_size(n * (d - 1) + 1, n * d, "equal(15,64)")


class TestGenGeneral:
    def test_tripartite_qutrits(self):
        assert len(gen_general((3, 3, 3))) == 7

    def test_tripartite_334_parity_group(self):
        sset = gen_general((3, 3, 4))
        assert len(sset) == 9
        # single B_5 member at i=3 (odd), so its first factor is |1>
        b5 = [s for s in sset.states if s.label and s.label.startswith("B_5")]
        assert len(b5) == 1
        assert b5[0].locals[0] == basis_ket(3, 1)

    def test_four_party_mixed_dims(self):
        sset = gen_general((3, 4, 4, 5))
        assert len(sset) == 15
        assert check_pairwise_orthogonality(sset) == []

    @pytest.mark.parametrize(
        "dims,fragment",
        [
            ((3, 2, 4), "nondecreasing"),
            ((2, 2, 3), "d_1"),
            ((3, 3), "n >= 3"),
        ],
    )
    def test_rejects_out_of_range(self, dims, fragment):
        with pytest.raises(ConstructionError, match=fragment):
            gen_general(dims)

    @pytest.mark.parametrize("bad", [3.7, 3.0, Fraction(3)], ids=repr)
    @pytest.mark.parametrize("position", [0, 2])
    def test_rejects_non_integer_dimensions(self, bad, position):
        # a dimension is never truncated: (3.7, 4, 4) is not general(3,4,4)
        dims = [3, 4, 4]
        dims[position] = bad
        with pytest.raises(DimensionError, match=re.escape(f"dimensions must be integers, got {bad!r}")):
            gen_general(tuple(dims))

    def test_parity_rule_keeps_neighbors_orthogonal(self):
        # (3,3,6) has three members in the B_5 group (i = 3, 4, 5)
        sset = gen_general((3, 3, 6))
        b5 = [s for s in sset.states if s.label and s.label.startswith("B_5")]
        assert len(b5) == 3
        for s, i in zip(b5, (3, 4, 5)):
            expected_m = 2 if i % 2 == 0 else 1
            assert s.locals[0] == basis_ket(3, expected_m)
        for a, b in zip(b5, b5[1:]):
            # last factors overlap, so orthogonality must come from party 0
            assert local_inner(a.locals[2], b.locals[2]) == -1
            assert local_inner(a.locals[0], b.locals[0]) == 0


class TestExpectedSize:
    def test_equal_examples(self):
        # the paper's count n(d-1)+1 for n parties of dimension d
        assert expected_size(GeneralDims((3,) * 4)) == 4 * (3 - 1) + 1 == 9
        assert expected_size(GeneralDims((3,) * 3)) == 3 * (3 - 1) + 1 == 7

    def test_general_examples(self):
        assert expected_size(GeneralDims((3, 3, 3))) == 7
        assert expected_size(GeneralDims((3, 3, 4))) == 9
        assert expected_size(GeneralDims((3, 4, 4, 5))) == 15

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 8), st.integers(3, 8))
    def test_equal_family_is_the_general_family_relabelled(self, n, d):
        equal, general = gen_equal(n, d), gen_general((d,) * n)
        assert [s.locals for s in equal.states] == [s.locals for s in general.states]
        # G_g is B_{g+1}, and back; the stopper is S in both
        g_to_b = [re.sub(r"^G_(\d+)", lambda m: f"B_{int(m[1]) + 1}", label) for label in equal.labels()]
        b_to_g = [re.sub(r"^B_(\d+)", lambda m: f"G_{int(m[1]) - 1}", label) for label in general.labels()]
        assert g_to_b == list(general.labels())
        assert b_to_g == list(equal.labels())
        assert len(equal) == n * (d - 1) + 1 == expected_size(GeneralDims((d,) * n))


@st.composite
def nondecreasing_dims(draw):
    n = draw(st.integers(3, 5))
    return tuple(sorted(draw(st.lists(st.integers(3, 8), min_size=n, max_size=n))))


class TestFamilyLaws:
    @pytest.mark.parametrize("n", range(3, 7))
    @pytest.mark.parametrize("d", range(3, 8))
    def test_equal_count_and_orthogonality(self, n, d):
        sset = gen_equal(n, d)
        assert len(sset) == n * (d - 1) + 1
        assert check_pairwise_orthogonality(sset) == []

    @settings(max_examples=50, deadline=None)
    @given(nondecreasing_dims())
    def test_general_count_and_orthogonality(self, dims):
        sset = gen_general(dims)
        assert len(sset) == expected_size(GeneralDims(dims))
        assert check_pairwise_orthogonality(sset) == []

    @settings(max_examples=30, deadline=None)
    @given(nondecreasing_dims())
    def test_coefficients_stay_in_minus_one_zero_one(self, dims):
        for s in gen_general(dims).states:
            for lv in s.locals:
                assert all(c in (-1, 0, 1) for c in lv.coeffs)

    def test_equal_family_coefficients(self):
        for s in gen_equal(4, 5).states:
            for lv in s.locals:
                assert all(c in (-1, 0, 1) for c in lv.coeffs)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 6), st.integers(3, 7))
    def test_general_on_equal_dims_has_same_cardinality(self, n, d):
        assert len(gen_general((d,) * n)) == len(gen_equal(n, d))


class TestPriorSizes:
    def test_four_equal_qutrits(self):
        report = prior_sizes((3, 3, 3, 3))
        assert report.jiang == 13
        assert report.ours == 9
        assert report.wang is None
        assert report.zhang is None

    def test_tripartite_qutrits(self):
        report = prior_sizes((3, 3, 3))
        assert report.ours == 7
        assert report.wang == 9
        assert report.jiang == 10

    def test_mixed_tripartite(self):
        report = prior_sizes((3, 4, 5))
        assert report.jiang == 16
        assert report.ours == 12

    def test_bipartite_context_formula(self):
        report = prior_sizes((4, 4))
        assert report.zhang == 7
        assert report.ours is None
        assert report.wang is None

    def test_hypothesis_violations_leave_ours_absent(self):
        assert prior_sizes((5, 4, 3)).ours is None
        assert prior_sizes((2, 2, 2)).ours is None

    def test_needs_two_dims(self):
        with pytest.raises(ConstructionError):
            prior_sizes((3,))

    @pytest.mark.parametrize("bad", [3.7, 3.0], ids=repr)
    def test_non_integer_dimension_raises(self, bad):
        # a dimension is never truncated: (3.7, 4, 4) is not general(3,4,4)
        with pytest.raises(DimensionError, match=re.escape(f"dimensions must be integers, got {bad!r}")):
            prior_sizes((bad, 4, 4))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(2, 9), min_size=2, max_size=5))
    def test_all_reported_entries_positive(self, dims):
        report = prior_sizes(tuple(dims))
        for value in (report.ours, report.jiang, report.wang, report.zhang):
            assert value is None or value > 0
