import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nwe.cli
from nwe import (
    NonOrthogonalSetError,
    StateSet,
    assemble,
    derive_certificate,
    gen_equal,
    gen_general,
    render_certificate,
    verify_all,
)
from nwe.inference import (
    DiagonalEqualFact,
    PartyConclusion,
    ZeroEntryFact,
    _conclusion,
    check_certificate,
    coordinate_map,
    propagate,
)
from nwe.states import LocalVector, ProductState, SystemShape, basis_ket, diff_ket, flat_ket
from nwe.verifier import InvariantError, _peel, nullspace

from helpers import (
    _reference_conclusion,
    anti_index,
    computational_basis_set,
    invariant_error_under_python_O,
    reference_certificate,
    rotated,
    scrambled,
    sym_index,
    unshared_index,
    without_stopper,
)

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
        assert cited(derive_certificate(sset), (i, j)) == [ZeroEntryFact(0, 1, 0, (i, j), "Lemma1")]

    def test_no_constraint_when_another_factor_vanishes(self):
        sset = gen_equal(3, 3)
        i, j = index_of(sset, "G_1[i=1]"), index_of(sset, "G_2[i=1]")
        buckets = sset.pair_table.buckets
        assert (i, j) not in buckets[1] and (i, j) not in buckets[2]
        assert all(f.party == 0 for f in cited(derive_certificate(sset), (i, j)))

    def test_difference_vector_gives_two_terms(self):
        sset = gen_general((3, 4, 5))
        i, j = index_of(sset, "B_3[i=3]"), index_of(sset, "B_6[i=3]")
        assert (i, j) in sset.pair_table.buckets[1]
        # the terms m[3,0] - m[3,2]: unit propagation, not Lemma1, zeroes m[3,0]
        assert sset.states[i].locals[1].coeffs == (0, 0, 0, 1)
        assert sset.states[j].locals[1].coeffs == (1, 0, -1, 0)
        cert = derive_certificate(sset)
        assert cited(cert, (i, j)) == [ZeroEntryFact(1, 3, 0, (i, j), "UnitPropagation")]


class TestLemma1Facts:
    def test_single_support_pair(self):
        sset = gen_equal(3, 3)
        i, j = index_of(sset, "G_1[i=1]"), index_of(sset, "G_2[i=1]")
        lemma1 = [f for f in cited(derive_certificate(sset), (i, j)) if f.rule == "Lemma1"]
        assert len(lemma1) == 1
        fact = lemma1[0]
        assert (fact.party, fact.row, fact.col) == (0, 1, 0)
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
            assert cited(cert, (a, b)) == [ZeroEntryFact(2, i, 0, (a, b), "Lemma1")]


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
            and f.party == 1
            and (f.row, f.col) == (3, 0)
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

    def test_missing_entries_reported_when_half_are_known(self):
        # party 0 knows m[0,1], m[0,2], m[1,2] = 0: half of its six
        # off-diagonal entries, each stored in both orientations
        shape = SystemShape((4, 2))
        sset = StateSet(
            shape,
            tuple(ProductState(shape, (basis_ket(4, a), basis_ket(2, a // 3))) for a in range(4)),
        )
        cert = derive_certificate(sset)
        assert cert.conclusions[0].missing_zeros == ((0, 3), (1, 3), (2, 3))
        check_certificate(sset, cert)

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
                    a, b = sorted((fact.row, fact.col))
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


def _differential_sets():
    """The checked sets, families without their stopper or with rotated
    parties, and perfbench-style scrambles of families, whole and reduced
    (without the stopper and two random states)."""
    families = [gen_equal(3, 8), gen_equal(4, 6), gen_general((3, 5, 10)), gen_general((4, 5, 6, 8))]
    return (
        _checked_sets()
        + [without_stopper(s) for s in families]
        + [rotated(s, random.Random(k), [k % s.shape.n]) for k, s in enumerate(families)]
        + [scrambled(s, random.Random(k), reduce) for k, s in enumerate(families) for reduce in (False, True)]
        + [unshared_index(scrambled(gen_general((3, 4, 5)), random.Random(9)))]
    )


class TestAgainstReferenceEngine:
    @pytest.mark.parametrize("sset", _differential_sets(), ids=lambda s: s.provenance)
    def test_same_certificate_fact_for_fact(self, sset):
        # equal fact tuples: the same facts, in the same order
        assert derive_certificate(sset) == reference_certificate(sset)


def with_facts(cert, facts):
    return cert._replace(facts=tuple(facts))


def interleaved(cert):
    """The certificate with its parties' facts taken in turn, one at a time,
    each party's in derivation order."""
    queues = [list(cert.facts_for_party(t)) for t in range(len(cert.conclusions))]
    facts = []
    while any(queues):
        facts += [q.pop(0) for q in queues if q]
    return with_facts(cert, facts)


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
        assert all(cert.facts_for_party(t) for t in range(3))
        assert sum((cert.facts_for_party(t) for t in range(3)), ()) == cert.facts
        assert cert.facts_for_party(7) == ()

    def test_reads_the_facts_in_one_pass(self):
        class Counted(tuple):
            def __iter__(self):
                self.iterations += 1
                return super().__iter__()

        sset = gen_general((3, 4, 5))
        cert = derive_certificate(sset)
        facts = Counted(cert.facts)
        facts.iterations = 0
        check_certificate(sset, cert._replace(facts=facts))
        assert facts.iterations == 1

    def test_reads_each_bucket_once_when_parties_alternate(self):
        class Counted(tuple):
            def __getitem__(self, t):
                self.reads[t] += 1
                return super().__getitem__(t)

        sset = gen_general((3, 4, 5))
        cert = derive_certificate(sset)
        alternating = interleaved(cert)
        assert [f.party for f in alternating.facts[:6]] == [0, 1, 2, 0, 1, 2]
        buckets = Counted(sset.pair_table.buckets)
        buckets.reads = [0] * 3
        sset.__dict__["pair_table"] = sset.pair_table._replace(buckets=buckets)
        check_certificate(sset, alternating)
        assert buckets.reads == [1, 1, 1]

    @pytest.mark.parametrize("engines", [["lemma"], ["lemma", "oracle"]], ids=["lemma", "both"])
    def test_party_facts_split_around_another_partys(self, monkeypatch, engines):
        # party 0's facts, split around party 1's, replay and render as when grouped
        sset = gen_general((3, 4, 5))
        cert = derive_certificate(sset)
        zero, one = cert.facts_for_party(0), cert.facts_for_party(1)
        half = len(zero) // 2
        split = with_facts(cert, zero[:half] + one + zero[half:] + cert.facts_for_party(2))
        assert split.facts != cert.facts
        check_certificate(sset, split)
        grouped = nwe.cli._build_report(sset, engines)
        monkeypatch.setattr(nwe.cli, "derive_certificate", lambda _: split)
        assert nwe.cli._build_report(sset, engines) == grouped

    @pytest.mark.parametrize("reverse", [False, True], ids=["bucket-first", "non-fact-first"])
    def test_names_the_earlier_of_two_forged_facts(self, reverse):
        sset = gen_general((3, 4, 5))
        cert = derive_certificate(sset)
        facts = list(cert.facts)
        last = len(facts) - 1
        other_bucket = facts[0]._replace(pair=sset.pair_table.buckets[1][0])
        plain = tuple(facts[last])
        facts[0], facts[last] = (plain, other_bucket) if reverse else (other_bucket, plain)
        expected = "fact 0: .* is not a fact" if reverse else "party 0: .*not in the party's bucket"
        with pytest.raises(InvariantError, match=f"^{expected}"):
            check_certificate(sset, with_facts(cert, facts))

    def test_names_a_later_partys_forged_fact_that_comes_first(self):
        sset = gen_general((3, 4, 5))
        cert = derive_certificate(sset)
        two = cert.facts_for_party(2)
        zero = cert.facts_for_party(0)
        forged_two = two[0]._replace(rule="UnitPropagation")
        forged_zero = zero[0]._replace(row=zero[0].col, col=zero[0].row)
        facts = (forged_two, forged_zero) + zero[1:] + cert.facts_for_party(1) + two[1:]
        with pytest.raises(InvariantError, match="^party 2: .*the rule does not match the constraint"):
            check_certificate(sset, with_facts(cert, facts))

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
        forged = replaced(cert, fact, fact._replace(pair=other))
        with pytest.raises(InvariantError, match="party 0: .*not in the party's bucket"):
            check_certificate(sset, forged)

    @pytest.mark.parametrize("swap", [True, False], ids=["swapped-indices", "other-entry"])
    def test_entry_the_pair_does_not_force(self, swap):
        sset = gen_equal(3, 3)
        cert = derive_certificate(sset)
        fact = cert.facts_for_party(0)[0]
        row, col = (fact.col, fact.row) if swap else next(
            (a, b) for a in range(3) for b in range(3) if a != b and {a, b} != {fact.row, fact.col}
        )
        forged = replaced(cert, fact, fact._replace(row=row, col=col))
        with pytest.raises(InvariantError, match="does not force this entry to zero"):
            check_certificate(sset, forged)

    @pytest.mark.parametrize("rule", ["Lemma1", "UnitPropagation"])
    def test_entry_repeated_in_the_other_orientation(self, rule):
        # the replay keys m[a, b] and m[b, a] as one entry, so a second fact
        # for it, from the reversed pair, forces nothing new
        sset = gen_general((3, 4, 5))
        cert = derive_certificate(sset)
        facts = list(cert.facts)
        k, fact = next((k, f) for k, f in enumerate(facts) if f.rule == rule)
        facts.insert(k + 1, fact._replace(row=fact.col, col=fact.row, pair=fact.pair[::-1]))
        with pytest.raises(InvariantError, match=f"party {fact.party}: .*does not force this entry to zero"):
            check_certificate(sset, with_facts(cert, facts))

    @pytest.mark.parametrize(
        "rule, forged_rule",
        [("Lemma1", "UnitPropagation"), ("UnitPropagation", "Lemma1"), ("Lemma2", "UnitPropagation")],
    )
    def test_forged_rule_label(self, rule, forged_rule):
        # general(3,4,5) has facts under all three rules
        sset = gen_general((3, 4, 5))
        cert = derive_certificate(sset)
        fact = next(f for f in cert.facts if f.rule == rule)
        forged = replaced(cert, fact, fact._replace(rule=forged_rule))
        with pytest.raises(InvariantError, match="the rule does not match the constraint"):
            check_certificate(sset, forged)

    def test_forged_diagonal_equality(self):
        sset = gen_equal(3, 3)
        cert = derive_certificate(sset)
        fact = next(f for f in cert.facts if isinstance(f, DiagonalEqualFact))
        third = ({0, 1, 2} - {fact.a, fact.b}).pop()
        forged = replaced(cert, fact, fact._replace(b=third))
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
            if f.rule == "UnitPropagation" and f.party == 1 and (f.row, f.col) == (3, 0)
        )
        used = next(
            k
            for k, f in enumerate(facts)
            if isinstance(f, ZeroEntryFact) and f.party == 1 and {f.row, f.col} == {2, 3}
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
            check_certificate(sset, cert._replace(conclusions=flipped))

    def test_fact_for_a_missing_party(self):
        sset = gen_equal(3, 3)
        cert = derive_certificate(sset)
        fact = cert.facts[0]
        forged = replaced(cert, fact, fact._replace(party=5))
        with pytest.raises(InvariantError, match="party 5: no such party"):
            check_certificate(sset, forged)

    def test_diagonal_fact_with_a_zero_facts_fields(self):
        # facts are named tuples, so facts of the two kinds with equal fields
        # compare equal; the replay must tell them apart by type
        sset = gen_equal(3, 3)
        cert = derive_certificate(sset)
        fact = next(f for f in cert.facts if f.rule == "Lemma1")
        forged = DiagonalEqualFact(*fact)
        assert forged == fact
        with pytest.raises(InvariantError, match=f"party {fact.party}: DiagonalEqualFact\\(.*rule='Lemma1'\\)"):
            check_certificate(sset, replaced(cert, fact, forged))

    def test_zero_fact_with_a_diagonal_facts_fields(self):
        sset = gen_equal(3, 3)
        cert = derive_certificate(sset)
        fact = next(f for f in cert.facts if f.rule == "Lemma2")
        forged = ZeroEntryFact(*fact)
        assert forged == fact
        with pytest.raises(InvariantError, match=f"party {fact.party}: ZeroEntryFact.*does not force this entry"):
            check_certificate(sset, replaced(cert, fact, forged))

    @pytest.mark.parametrize("rule", ["Lemma1", "Lemma2"])
    def test_plain_tuple_with_a_facts_fields(self, rule):
        sset = gen_equal(3, 3)
        cert = derive_certificate(sset)
        k, fact = next((k, f) for k, f in enumerate(cert.facts) if f.rule == rule)
        plain = tuple(fact)
        assert plain == fact
        with pytest.raises(InvariantError, match=re.escape(f"fact {k}: {plain!r} is not a fact")):
            check_certificate(sset, replaced(cert, fact, plain))

    @pytest.mark.parametrize("kind", [ZeroEntryFact, DiagonalEqualFact])
    def test_facts_are_hashable_and_immutable(self, kind):
        cert = derive_certificate(gen_general((3, 4, 5)))
        facts = [f for f in cert.facts if isinstance(f, kind)]
        assert len(set(facts)) == len(facts)
        assert hash(facts[0]) == hash(kind(*facts[0]))
        for field in kind._fields:
            with pytest.raises(AttributeError):
                setattr(facts[0], field, 0)

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
from nwe import derive_certificate, gen_equal
from nwe.inference import check_certificate
sset = gen_equal(3, 3)
cert = derive_certificate(sset)
check_certificate(sset, cert._replace(facts=cert.facts[1:]))
""")
    assert message.startswith("party 0: ")


def _forged_field(kind: str, change: str) -> str:
    """Code that forges gen_equal(3, 3)'s certificate by `change` to the
    fields of its first fact of type `kind`."""
    return f"""
sset = gen_equal(3, 3)
cert = derive_certificate(sset)
k = next(k for k, f in enumerate(cert.facts) if isinstance(f, {kind}))
f = cert.facts[k]
facts = list(cert.facts)
facts[k] = f._replace({change})
"""


# forged certificates for the replay's two paths and for facts no state set
# could force; each must raise under python -O
_FORGERIES = {
    "lemma1-fact-repeated": (
        """
sset = gen_equal(3, 3)
cert = derive_certificate(sset)
k = next(k for k, f in enumerate(cert.facts) if f.rule == "Lemma1")
facts = cert.facts[: k + 1] + cert.facts[k:]
""",
        "does not force this entry to zero",
    ),
    "ket-pair-swapped-entry": (
        """
sset = gen_equal(3, 3)
cert = derive_certificate(sset)
k = next(k for k, f in enumerate(cert.facts) if f.rule == "Lemma1")
f = cert.facts[k]
facts = list(cert.facts)
facts[k] = f._replace(row=f.col, col=f.row)
""",
        "does not force this entry to zero",
    ),
    "ket-pair-other-entry": (
        """
sset = gen_equal(3, 3)
cert = derive_certificate(sset)
k = next(k for k, f in enumerate(cert.facts) if f.rule == "Lemma1")
f = cert.facts[k]
row, col = next((a, b) for a in range(3) for b in range(a + 1, 3) if {a, b} != {f.row, f.col})
facts = list(cert.facts)
facts[k] = f._replace(row=row, col=col)
""",
        "does not force this entry to zero",
    ),
    "lemma1-label-on-two-terms": (
        """
sset = gen_general((3, 4, 5))
cert = derive_certificate(sset)
k = next(k for k, f in enumerate(cert.facts) if isinstance(f, ZeroEntryFact) and f.rule == "UnitPropagation")
facts = list(cert.facts)
facts[k] = facts[k]._replace(rule="Lemma1")
""",
        "the rule does not match the constraint",
    ),
    "unit-label-on-ket-pair": (
        """
sset = gen_equal(3, 3)
cert = derive_certificate(sset)
k = next(k for k, f in enumerate(cert.facts) if f.rule == "Lemma1")
facts = list(cert.facts)
facts[k] = facts[k]._replace(rule="UnitPropagation")
""",
        "the rule does not match the constraint",
    ),
    "zero-fact-on-the-diagonal": (_forged_field("ZeroEntryFact", "col=f.row"), "does not force this entry to zero"),
    "zero-fact-row-minus-one": (_forged_field("ZeroEntryFact", "row=-1"), "does not force this entry to zero"),
    "zero-fact-col-minus-one": (_forged_field("ZeroEntryFact", "col=-1"), "does not force this entry to zero"),
    # an index equal to the dimension is past the end of the coordinate map
    "zero-fact-row-dim": (_forged_field("ZeroEntryFact", "row=3"), "does not force this entry to zero"),
    "zero-fact-col-dim": (_forged_field("ZeroEntryFact", "col=3"), "does not force this entry to zero"),
    "diagonal-fact-a-equals-b": (
        _forged_field("DiagonalEqualFact", "b=f.a"),
        "does not force this diagonal equality",
    ),
    "diagonal-fact-a-minus-one": (
        _forged_field("DiagonalEqualFact", "a=-1"),
        "does not force this diagonal equality",
    ),
    "diagonal-fact-a-dim": (_forged_field("DiagonalEqualFact", "a=3"), "does not force this diagonal equality"),
    "fact-of-party-minus-one": (_forged_field("ZeroEntryFact", "party=-1"), "party -1: no such party"),
    "fact-of-party-n": (_forged_field("DiagonalEqualFact", "party=3"), "party 3: no such party"),
    # indices equal to ints but not ints, which would replay and render otherwise
    "zero-fact-float-row": (_forged_field("ZeroEntryFact", "row=float(f.row)"), "fact 0: ZeroEntryFact(party=0, row=1.0"),
    "fact-of-party-false": (_forged_field("ZeroEntryFact", "party=False"), "the party and entries must be ints"),
    "fact-with-float-pair": (
        _forged_field("ZeroEntryFact", "pair=(float(f.pair[0]), f.pair[1])"),
        "the pair two ints",
    ),
    "fact-with-pair-of-three": (_forged_field("ZeroEntryFact", "pair=(0, 1, 2)"), "the pair two ints"),
    "diagonal-fact-with-lemma1-fields": (
        """
sset = gen_equal(3, 3)
cert = derive_certificate(sset)
k = next(k for k, f in enumerate(cert.facts) if f.rule == "Lemma1")
facts = list(cert.facts)
facts[k] = DiagonalEqualFact(*facts[k])
""",
        "party 0: DiagonalEqualFact(party=0, a=1, b=2, pair=(2, 3), rule='Lemma1'): an off-diagonal entry",
    ),
    "plain-tuple-with-fact-fields": (
        """
sset = gen_equal(3, 3)
cert = derive_certificate(sset)
facts = list(cert.facts)
facts[2] = tuple(facts[2])
""",
        "fact 2: (0, 2, 0, (3, 5), 'Lemma1') is not a fact",
    ),
    "non-fact": (
        """
sset = gen_equal(3, 3)
cert = derive_certificate(sset)
facts = cert.facts[:1] + ((0, 1, 0),) + cert.facts[1:]
""",
        "fact 1: (0, 1, 0) is not a fact",
    ),
}


@pytest.mark.parametrize("forgery", sorted(_FORGERIES))
def test_forged_fact_raises_under_python_O(forgery):
    code, expected = _FORGERIES[forgery]
    message = invariant_error_under_python_O(
        """
from nwe import derive_certificate, gen_equal, gen_general
from nwe.inference import DiagonalEqualFact, ZeroEntryFact, check_certificate
"""
        + code
        + "check_certificate(sset, cert._replace(facts=tuple(facts)))\n"
    )
    assert expected in message


@st.composite
def conclusion_inputs(draw):
    """A dimension, a set of off-diagonal entries known zero and a list of
    diagonal equalities in any order: random pairs (a == b included) and,
    sometimes, a chain through a random ordering of the indices."""
    dim = draw(st.integers(1, 9))
    entries = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    known = draw(st.sets(st.sampled_from(entries))) if entries else set()
    index = st.integers(0, dim - 1)
    equal = draw(st.lists(st.tuples(index, index), max_size=2 * dim))
    if draw(st.booleans()):
        chain = draw(st.permutations(range(dim)))[: draw(st.integers(0, dim))]
        equal += zip(chain, chain[1:])
    return dim, known, draw(st.permutations(equal))


class TestConclusion:
    @settings(max_examples=400, deadline=None)
    @given(conclusion_inputs())
    def test_equals_the_relabelling_reference(self, case):
        # _conclusion relabels only the members of the class merged away;
        # the reference rewrites every label for each equality. Each known
        # entry (a < b) comes once, as its S coordinate: a full count skips the scan
        dim, known, equal = case
        keys = {coordinate_map(dim).sym[a][b] for a, b in known}
        assert _conclusion(2, dim, keys, equal) == _reference_conclusion(2, dim, known, equal)

    def test_a_chain_merged_from_the_top(self):
        equal = [(3, 4), (2, 3), (1, 2), (0, 1)]
        sym = coordinate_map(5).sym
        known = {sym[a][b] for a in range(5) for b in range(a + 1, 5)}
        assert _conclusion(0, 5, known, equal) == PartyConclusion(0, True, (), ((0, 1, 2, 3, 4),))
        assert _conclusion(0, 5, known, equal[:2]) == PartyConclusion(0, False, (), ((0,), (1,), (2, 3, 4)))
        # an entry left out is named by its (a, b), whatever the key layout
        known.remove(sym[1][3])
        assert _conclusion(0, 5, known, equal) == PartyConclusion(0, False, ((1, 3),), ((0, 1, 2, 3, 4),))


@st.composite
def propagation_inputs(draw):
    """Rows of distinct keys in any order, the keys known at the start, and
    the index of a planted row of two keys that no other row holds: random
    rows, a planted chain in which each row holds one new key and the key
    of the row before, and the planted row, in shuffled order."""
    nkeys = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(0, nkeys - 1), unique=True, max_size=4), max_size=8))
    chain = draw(st.permutations(range(nkeys)))[: draw(st.integers(0, nkeys))]
    rows += [chain[max(i - 1, 0) : i + 1] for i in range(len(chain))]
    rows.append([nkeys, nkeys + 1] + draw(st.lists(st.integers(0, nkeys - 1), unique=True, max_size=2)))
    rows = [draw(st.permutations(row)) for row in draw(st.permutations(rows))]
    planted = next(r for r, row in enumerate(rows) if nkeys in row)
    return rows, draw(st.sets(st.integers(0, nkeys - 1))), planted


def naive_fixpoint(rows, known):
    """The keys known once no row has exactly one key not known, adding every
    such row's key at once, pass after pass."""
    known = set(known)
    while True:
        new = {live[0] for row in rows if len(live := [k for k in row if k not in known]) == 1}
        if not new:
            return known
        known |= new


class TestPropagate:
    @settings(max_examples=300, deadline=None)
    @given(propagation_inputs(), st.randoms(use_true_random=False))
    def test_forces_the_fixpoint_in_any_row_order(self, case, rnd):
        rows, start, _ = case
        known = set(start)
        forced = propagate(rows, known)
        assert known == naive_fixpoint(rows, start)
        # known ends as its start plus the forced keys, each forced once
        assert known == start | {key for _, key in forced}
        assert len(forced) == len(known - start)
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        other = set(start)
        propagate(shuffled, other)
        assert other == known

    @settings(max_examples=300, deadline=None)
    @given(propagation_inputs())
    def test_a_row_fires_on_its_one_key_not_yet_known(self, case):
        rows, start, planted = case
        forced = propagate(rows, set(start))
        known = set(start)
        for r, key in forced:
            assert [k for k in rows[r] if k not in known] == [key]
            known.add(key)
        # the planted row's two keys are in no other row, so it never fires
        assert planted not in {r for r, _ in forced}

    def test_sweeps_in_row_order(self):
        # in the first sweep the third row fires on the key the second
        # forced just before it; the first row waits for the next sweep
        rows = [[0, 2], [1], [1, 2, 3]]
        known = {3}
        assert propagate(rows, known) == [(1, 1), (2, 2), (0, 0)]
        assert known == {0, 1, 2, 3}


def _plus_minus_set():
    """|0>+|1> and |0>-|1> on party 0, |0> on party 1: one pair, of
    overlapping supports on party 0, whose A row has one entry."""
    shape = SystemShape((3, 2))
    states = tuple(ProductState(shape, (LocalVector(u), basis_ket(2, 0))) for u in ((1, 1, 0), (1, -1, 0)))
    return StateSet(shape, states, provenance="plus-minus")


def _peel_sets():
    """Built-in families and rotated ones (one party or every party rotated),
    each with and without its stopper, and the plus-minus set."""
    families = [gen_equal(3, 3), gen_equal(3, 8), gen_equal(4, 5), gen_general((3, 4, 5)), gen_general((4, 5, 6, 8))]
    sets = families + [
        rotated(s, random.Random(k), parties)
        for k, s in enumerate(families)
        for parties in ([k % s.shape.n], range(s.shape.n))
    ]
    return sets + [without_stopper(s) for s in sets] + [_plus_minus_set()]


class TestLemmaZerosArePeelZeros:
    @pytest.mark.parametrize("sset", _peel_sets(), ids=lambda s: s.provenance)
    def test_certificate_zeros_against_the_peel(self, sset):
        # the S row of a pair of disjoint supports holds exactly its terms'
        # entries, and an S row of overlapping supports holds at least two
        # diagonal coordinates, which are never zeroed: the S peel is the
        # certificate's propagation. An A row of overlapping supports may
        # zero more. A block's whole zeroed set is its peel's, from the
        # system's zeroed coordinates.
        cert = derive_certificate(sset)
        for t in range(sset.shape.n):
            system = assemble(sset, t)
            dim = system.dim
            sym_columns = set(range(dim * (dim + 1) // 2))
            entries = {
                (min(f.row, f.col), max(f.row, f.col)) for f in cert.facts_for_party(t) if isinstance(f, ZeroEntryFact)
            }
            assert {sym_index(dim, a, b) for a, b in entries} == _peel(system.sym, system.zeroed)[0] & sym_columns
            assert {anti_index(dim, a, b) for a, b in entries} <= _peel(system.anti, system.zeroed)[0] - sym_columns

    def test_an_overlapping_pair_zeroes_more_in_the_peel(self):
        # party 0's A row of |0>+|1>, |0>-|1> is -2 A[0,1]: a peel zero that
        # no certificate fact gives
        sset = _plus_minus_set()
        assert not derive_certificate(sset).facts
        system = assemble(sset, 0)
        assert system.zeroed == {anti_index(3, 0, 1)} and system.anti == ()
        assert _peel(system.anti, system.zeroed)[0] == {anti_index(3, 0, 1)}
