import dataclasses
import random
from pathlib import Path

import pytest

from nwe import (
    NonOrthogonalSetError,
    StateSet,
    assemble,
    derive_certificate,
    gen_equal,
    gen_general,
    nullspace,
    render_certificate,
    verify_all,
)
from nwe.inference import DiagonalEqualFact, EntryRef, PartyConclusion, ZeroEntryFact, check_certificate
from nwe.states import LocalVector, ProductState, SystemShape, basis_ket, diff_ket, flat_ket
from nwe.verifier import InvariantError, anti_index, sym_index

from helpers import computational_basis_set, invariant_error_under_python_O, rotated, without_stopper

GOLDEN = Path(__file__).parent / "golden"


def index_of(sset, label):
    return next(i for i, s in enumerate(sset.states) if s.label == label)


def cited(cert, pair):
    """The certificate's facts that cite the state pair, in derivation order."""
    return [f for f in cert.facts if f.pair == pair]


class TestConstraintPairs:
    def test_single_support_pair_constrains_first_party(self):
        sset = gen_equal(3, 3)
        i, j = index_of(sset, "G_1[i=1]"), index_of(sset, "G_2[i=1]")
        assert (i, j) in sset.pair_table.buckets[0]
        # the constraint's one term is m[1,0], with coefficient 1
        assert sset.states[i].locals[0].coeffs == (0, 1, 0)
        assert sset.states[j].locals[0].coeffs == (1, 0, 0)
        assert cited(derive_certificate(sset), (i, j)) == [ZeroEntryFact(EntryRef(0, 1, 0), (i, j), "Lemma1")]

    def test_no_constraint_when_another_factor_vanishes(self):
        sset = gen_equal(3, 3)
        i, j = index_of(sset, "G_1[i=1]"), index_of(sset, "G_2[i=1]")
        buckets = sset.pair_table.buckets
        assert (i, j) not in buckets[1] and (i, j) not in buckets[2]
        assert all(f.entry.party == 0 for f in cited(derive_certificate(sset), (i, j)))

    def test_difference_vector_gives_two_terms(self):
        sset = gen_general((3, 4, 5))
        i, j = index_of(sset, "B_3[i=3]"), index_of(sset, "B_6[i=3]")
        assert (i, j) in sset.pair_table.buckets[1]
        # the terms m[3,0] - m[3,2]: unit propagation, not Lemma1, zeroes m[3,0]
        assert sset.states[i].locals[1].coeffs == (0, 0, 0, 1)
        assert sset.states[j].locals[1].coeffs == (1, 0, -1, 0)
        cert = derive_certificate(sset)
        assert cited(cert, (i, j)) == [ZeroEntryFact(EntryRef(1, 3, 0), (i, j), "UnitPropagation")]


class TestLemma1Facts:
    def test_single_support_pair(self):
        sset = gen_equal(3, 3)
        i, j = index_of(sset, "G_1[i=1]"), index_of(sset, "G_2[i=1]")
        lemma1 = [f for f in cited(derive_certificate(sset), (i, j)) if f.rule == "Lemma1"]
        assert len(lemma1) == 1
        fact = lemma1[0]
        assert (fact.entry.party, fact.entry.row, fact.entry.col) == (0, 1, 0)
        assert fact.pair == (i, j)

    def test_multi_support_vector_yields_nothing(self):
        sset = gen_general((3, 4, 5))
        i, j = index_of(sset, "B_3[i=3]"), index_of(sset, "B_6[i=3]")
        assert all(f.rule != "Lemma1" for f in cited(derive_certificate(sset), (i, j)))

    def test_last_party_column_zero_family(self):
        # B_1 x B_2 pairs with matching i pin m[i,0] on the last party
        sset = gen_general((3, 3, 4))
        cert = derive_certificate(sset)
        for i in (1, 2):
            a = index_of(sset, f"B_1[i={i}]")
            b = index_of(sset, f"B_2[i={i}]")
            assert (a, b) in sset.pair_table.buckets[2]
            assert cited(cert, (a, b)) == [ZeroEntryFact(EntryRef(2, i, 0), (a, b), "Lemma1")]


class TestLemma2Facts:
    def test_links_zero_and_i(self):
        sset = gen_equal(3, 3)
        stop = len(sset) - 1
        i = index_of(sset, "G_0[i=2]")
        assert cited(derive_certificate(sset), (i, stop)) == [DiagonalEqualFact(0, 0, 2, (i, stop), "Lemma2")]

    def test_links_consecutive_indices(self):
        sset = gen_general((3, 3, 4))
        stop = len(sset) - 1
        i = index_of(sset, "B_5[i=3]")
        assert cited(derive_certificate(sset), (i, stop)) == [DiagonalEqualFact(2, 2, 3, (i, stop), "Lemma2")]

    def test_rule_shape_mismatch_yields_nothing(self):
        # support (+1, +1) never matches the +1/-1 pattern
        shape = SystemShape((2, 2))
        sset = StateSet(
            shape,
            (
                ProductState(shape, (LocalVector((1, 1)), LocalVector((1, -1)))),
                ProductState(shape, (flat_ket(2), flat_ket(2)), label="S"),
            ),
        )
        cert = derive_certificate(sset)
        assert not any(isinstance(f, DiagonalEqualFact) for f in cert.facts)

    def test_incomplete_known_zeros_is_inapplicable(self):
        # without G_2[i=1], party 0's m[1,0] is never zeroed, so the stopper
        # links no diagonal there, though (G_0[i=1], S) still constrains it
        full = gen_equal(3, 3)
        sset = StateSet(full.shape, tuple(s for s in full.states if s.label != "G_2[i=1]"))
        stop = len(sset) - 1
        i = index_of(sset, "G_0[i=1]")
        assert (i, stop) in sset.pair_table.buckets[0]
        cert = derive_certificate(sset)
        assert cert.conclusions[0].missing_zeros == ((0, 1),)
        assert not any(isinstance(f, DiagonalEqualFact) and f.party == 0 for f in cert.facts)
        # with every zero in place, the same state links m[0,0] and m[1,1]
        i, stop = index_of(full, "G_0[i=1]"), len(full) - 1
        assert cited(derive_certificate(full), (i, stop)) == [DiagonalEqualFact(0, 0, 1, (i, stop), "Lemma2")]


class TestDeriveCertificate:
    def test_equal_family_trivial_and_matches_oracle(self):
        sset = gen_equal(3, 3)
        cert = derive_certificate(sset)
        assert cert.trivial_for_all()
        for v in verify_all(sset):
            assert v.status == "Trivial" and v.nullspace_dim == 1

    def test_general_family_trivial(self):
        cert = derive_certificate(gen_general((3, 3, 4)))
        assert cert.trivial_for_all()

    def test_unit_propagation_closes_wider_dims(self):
        # at (3,4,5) the middle party's m[3,0] is only reachable through the
        # two-term constraint m[3,0] - m[3,2] = 0
        sset = gen_general((3, 4, 5))
        cert = derive_certificate(sset)
        assert cert.trivial_for_all()
        up = [
            f
            for f in cert.facts
            if isinstance(f, ZeroEntryFact)
            and f.rule == "UnitPropagation"
            and f.entry.party == 1
            and (f.entry.row, f.entry.col) == (3, 0)
        ]
        assert len(up) == 1
        labels = cert.labels
        assert (labels[up[0].pair[0]], labels[up[0].pair[1]]) == ("B_3[i=3]", "B_6[i=3]")

    def test_basis_set_is_incomplete(self):
        cert = derive_certificate(computational_basis_set((2, 2)))
        for conclusion in cert.conclusions:
            assert not conclusion.trivial
            assert conclusion.missing_zeros == ()
            assert conclusion.diagonal_classes == ((0,), (1,))

    def test_missing_entries_reported_without_constraints(self):
        shape = SystemShape((2, 2))
        sset = StateSet(
            shape,
            (
                ProductState(shape, (basis_ket(2, 0), basis_ket(2, 0))),
                ProductState(shape, (basis_ket(2, 1), basis_ket(2, 1))),
            ),
        )
        cert = derive_certificate(sset)
        for conclusion in cert.conclusions:
            assert conclusion.missing_zeros == ((0, 1),)
            assert not conclusion.trivial

    def test_determinism(self):
        sset = gen_general((3, 4, 4, 5))
        a = render_certificate(derive_certificate(sset))
        b = render_certificate(derive_certificate(sset))
        assert a == b

    def test_rejects_non_orthogonal_sets(self):
        shape = SystemShape((2, 2))
        sset = StateSet(
            shape,
            (
                ProductState(shape, (basis_ket(2, 0), basis_ket(2, 0))),
                ProductState(shape, (flat_ket(2), flat_ket(2))),
            ),
        )
        with pytest.raises(NonOrthogonalSetError) as err:
            derive_certificate(sset)
        assert err.value.pairs == [(0, 1)]

    def test_general_two_support_diagonal_via_unit_propagation(self):
        # a (2, -2) support pattern against the stopper still links diagonals,
        # recorded under UnitPropagation instead of Lemma2
        shape = SystemShape((2, 3))
        sset = StateSet(
            shape,
            (
                ProductState(shape, (diff_ket(2, 0, 1), basis_ket(3, 0)), label="z0"),
                ProductState(shape, (diff_ket(2, 0, 1), basis_ket(3, 1)), label="z1"),
                ProductState(shape, (diff_ket(2, 0, 1), basis_ket(3, 2)), label="z2"),
                ProductState(shape, (flat_ket(2), LocalVector((0, 2, -2))), label="w"),
                ProductState(shape, (flat_ket(2), flat_ket(3)), label="S"),
            ),
        )
        cert = derive_certificate(sset)
        diag = [
            f
            for f in cert.facts
            if isinstance(f, DiagonalEqualFact) and f.party == 1 and f.rule == "UnitPropagation"
        ]
        assert len(diag) == 1
        assert (diag[0].a, diag[0].b) == (1, 2)


def _soundness_sweep():
    """Generated families, capped at total dimension 1e5, plus negative sets."""
    sets = []
    for n in range(3, 7):
        for d in range(3, 8):
            if d**n <= 100_000:
                sets.append(gen_equal(n, d))
    for dims in ((3, 3, 4), (3, 4, 5), (3, 4, 4, 5), (3, 3, 3, 3, 3)):
        sets.append(gen_general(dims))
    sets.append(without_stopper(gen_equal(3, 3)))
    sets.append(computational_basis_set((2, 2)))
    return sets


class TestSoundnessAgainstOracle:
    @pytest.mark.parametrize("sset", _soundness_sweep(), ids=lambda s: s.provenance)
    def test_every_fact_holds_in_the_nullspace(self, sset):
        cert = derive_certificate(sset)
        for t in range(sset.shape.n):
            dim = sset.shape.dims[t]
            basis = nullspace(assemble(sset, t))
            for fact in cert.facts_for_party(t):
                if isinstance(fact, ZeroEntryFact):
                    a, b = sorted((fact.entry.row, fact.entry.col))
                    for vec in basis:
                        assert vec[sym_index(dim, a, b)] == 0
                        assert vec[anti_index(dim, a, b)] == 0
                else:
                    for vec in basis:
                        assert vec[sym_index(dim, fact.a, fact.a)] == vec[
                            sym_index(dim, fact.b, fact.b)
                        ]

    @pytest.mark.parametrize("n,d", [(3, 3), (3, 4), (4, 3), (4, 4)])
    def test_equal_families_complete_and_agree(self, n, d):
        sset = gen_equal(n, d)
        cert = derive_certificate(sset)
        verdicts = verify_all(sset)
        assert cert.trivial_for_all()
        assert all(v.status == "Trivial" and v.nullspace_dim == 1 for v in verdicts)

    def test_trivial_certificate_implies_unit_nullspace(self):
        for sset in (gen_general((3, 3, 5)), gen_general((4, 4, 4, 4))):
            cert = derive_certificate(sset)
            if cert.trivial_for_all():
                for v in verify_all(sset):
                    assert v.nullspace_dim == 1


class TestGoldenCertificates:
    def read_golden(self, name):
        return (GOLDEN / name).read_text(encoding="utf-8")

    def test_equal_4_3_matches_golden(self):
        cert = derive_certificate(gen_equal(4, 3))
        assert render_certificate(cert) + "\n" == self.read_golden("cert_equal_4_3.txt")

    def test_general_3_3_4_matches_golden(self):
        cert = derive_certificate(gen_general((3, 3, 4)))
        assert render_certificate(cert) + "\n" == self.read_golden("cert_general_3_3_4.txt")


def _checked_sets():
    """The soundness sweep, the golden certificates' sets and rotated sets,
    whose rotated parties are Incomplete."""
    return _soundness_sweep() + [
        gen_equal(4, 3),
        gen_general((3, 3, 4)),
        rotated(gen_equal(3, 4), random.Random(4), [0]),
        rotated(gen_general((3, 4, 5)), random.Random(5), [1, 2]),
        without_stopper(rotated(gen_equal(3, 4), random.Random(6), [2])),
    ]


def with_facts(cert, facts):
    return dataclasses.replace(cert, facts=tuple(facts))


def replaced(cert, fact, new):
    return with_facts(cert, [new if f is fact else f for f in cert.facts])


class TestCheckCertificate:
    @pytest.mark.parametrize("sset", _checked_sets(), ids=lambda s: s.provenance)
    def test_accepts_every_derived_certificate(self, sset):
        check_certificate(sset, derive_certificate(sset))

    def test_rotated_parties_are_incomplete(self):
        # the rotated party's conclusion is replayed too, as Incomplete
        sset = rotated(gen_equal(3, 4), random.Random(4), [0])
        cert = derive_certificate(sset)
        assert [c.trivial for c in cert.conclusions] == [False, True, True]
        check_certificate(sset, cert)

    def test_groups_facts_by_party_in_order(self):
        cert = derive_certificate(gen_general((3, 4, 5)))
        groups = cert.facts_by_party
        assert sorted(groups) == [0, 1, 2]
        assert [f for t in range(3) for f in groups[t]] == list(cert.facts)
        assert cert.facts_for_party(1) == groups[1]
        assert cert.facts_for_party(7) == ()

    def test_dropped_fact(self):
        sset = gen_equal(3, 3)
        cert = derive_certificate(sset)
        with pytest.raises(InvariantError, match="party 0: "):
            check_certificate(sset, with_facts(cert, cert.facts[1:]))

    def test_dropped_last_fact_breaks_the_conclusion(self):
        sset = gen_equal(3, 3)
        cert = derive_certificate(sset)
        last = cert.facts_for_party(2)[-1]
        with pytest.raises(InvariantError, match="party 2: the conclusion .* does not follow"):
            check_certificate(sset, with_facts(cert, [f for f in cert.facts if f is not last]))

    def test_pair_from_another_bucket(self):
        sset = gen_equal(3, 3)
        cert = derive_certificate(sset)
        fact = cert.facts_for_party(0)[0]
        other = sset.pair_table.buckets[1][0]
        forged = replaced(cert, fact, dataclasses.replace(fact, pair=other))
        with pytest.raises(InvariantError, match="party 0: .*not in the party's bucket"):
            check_certificate(sset, forged)

    @pytest.mark.parametrize("swap", [True, False], ids=["swapped-indices", "other-entry"])
    def test_entry_the_pair_does_not_force(self, swap):
        sset = gen_equal(3, 3)
        cert = derive_certificate(sset)
        fact = cert.facts_for_party(0)[0]
        e = fact.entry
        row, col = (e.col, e.row) if swap else next(
            (a, b) for a in range(3) for b in range(3) if a != b and {a, b} != {e.row, e.col}
        )
        forged = replaced(cert, fact, dataclasses.replace(fact, entry=EntryRef(0, row, col)))
        with pytest.raises(InvariantError, match="does not force this entry to zero"):
            check_certificate(sset, forged)

    @pytest.mark.parametrize(
        "rule, forged_rule",
        [("Lemma1", "UnitPropagation"), ("UnitPropagation", "Lemma1"), ("Lemma2", "UnitPropagation")],
    )
    def test_forged_rule_label(self, rule, forged_rule):
        # general(3,4,5) has facts under all three rules
        sset = gen_general((3, 4, 5))
        cert = derive_certificate(sset)
        fact = next(f for f in cert.facts if f.rule == rule)
        forged = replaced(cert, fact, dataclasses.replace(fact, rule=forged_rule))
        with pytest.raises(InvariantError, match="the rule does not match the constraint"):
            check_certificate(sset, forged)

    def test_forged_diagonal_equality(self):
        sset = gen_equal(3, 3)
        cert = derive_certificate(sset)
        fact = next(f for f in cert.facts if isinstance(f, DiagonalEqualFact))
        third = ({0, 1, 2} - {fact.a, fact.b}).pop()
        forged = replaced(cert, fact, dataclasses.replace(fact, b=third))
        with pytest.raises(InvariantError, match="does not force this diagonal equality"):
            check_certificate(sset, forged)

    def test_swapped_facts_use_a_zero_not_yet_derived(self):
        # party 1's m[3,0] = 0 follows from m[3,0] - m[3,2] = 0 only once
        # m[3,2] = 0 is known; swap the two facts
        sset = gen_general((3, 4, 5))
        cert = derive_certificate(sset)
        facts = list(cert.facts)
        up = next(
            k
            for k, f in enumerate(facts)
            if f.rule == "UnitPropagation" and f.entry.party == 1 and (f.entry.row, f.entry.col) == (3, 0)
        )
        used = next(
            k
            for k, f in enumerate(facts)
            if isinstance(f, ZeroEntryFact) and f.entry.party == 1 and {f.entry.row, f.entry.col} == {2, 3}
        )
        assert used < up
        facts[used], facts[up] = facts[up], facts[used]
        with pytest.raises(InvariantError, match="party 1: .*row=3, col=0.*does not force this entry to zero"):
            check_certificate(sset, with_facts(cert, facts))

    def test_diagonal_fact_before_the_last_zero(self):
        sset = gen_equal(3, 3)
        cert = derive_certificate(sset)
        facts = list(cert.facts)
        first_diag = next(k for k, f in enumerate(facts) if isinstance(f, DiagonalEqualFact))
        facts[first_diag - 1], facts[first_diag] = facts[first_diag], facts[first_diag - 1]
        with pytest.raises(InvariantError, match="an off-diagonal entry is not yet known zero"):
            check_certificate(sset, with_facts(cert, facts))

    def test_incomplete_conclusion_flipped_to_trivial(self):
        sset = rotated(gen_equal(3, 4), random.Random(4), [0])
        cert = derive_certificate(sset)
        assert not cert.conclusions[0].trivial
        flipped = (PartyConclusion(0, True, (), ((0, 1, 2, 3),)),) + cert.conclusions[1:]
        with pytest.raises(InvariantError, match="party 0: the conclusion .* does not follow"):
            check_certificate(sset, dataclasses.replace(cert, conclusions=flipped))

    def test_fact_for_a_missing_party(self):
        sset = gen_equal(3, 3)
        cert = derive_certificate(sset)
        fact = cert.facts[0]
        forged = replaced(cert, fact, dataclasses.replace(fact, entry=EntryRef(5, fact.entry.row, fact.entry.col)))
        with pytest.raises(InvariantError, match="party 5: no such party"):
            check_certificate(sset, forged)

    def test_certificate_of_another_set(self):
        with pytest.raises(InvariantError, match="of another state set"):
            check_certificate(gen_equal(3, 3), derive_certificate(gen_equal(3, 4)))

    def test_rejects_non_orthogonal_sets(self):
        shape = SystemShape((2, 2))
        cert = derive_certificate(computational_basis_set((2, 2)))
        overlap = StateSet(shape, (ProductState(shape, (flat_ket(2), flat_ket(2))),) * 4)
        with pytest.raises(NonOrthogonalSetError):
            check_certificate(overlap, cert)


def test_forged_certificate_raises_under_python_O():
    message = invariant_error_under_python_O("""
import dataclasses
from nwe import derive_certificate, gen_equal
from nwe.inference import check_certificate
sset = gen_equal(3, 3)
cert = derive_certificate(sset)
check_certificate(sset, dataclasses.replace(cert, facts=cert.facts[1:]))
""")
    assert message.startswith("party 0: ")
