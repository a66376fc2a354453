"""Rule-based derivation of measurement-triviality certificates.

For each party t, orthogonality preservation under a local measurement with
element E_t forces u^T E_t v = 0 for every pair in party t's bucket of the
set's pair table (t is the pair's sole zero factor; u, v are the pair's
party-t vectors). Expanded over entries, the constraint has one term
m[a, b] for each a in the support of u and b in the support of v. Party by
party, three rules turn these constraints into an ordered list of facts,
each citing the pair that forces it:

1. Lemma1: a constraint with exactly one term m[a, b], a != b (both vectors
   single-support, at different indices) forces m[a, b] = 0; pairs are read
   in table order.
2. UnitPropagation: a constraint with no diagonal term, all of whose terms
   but one are already known zero, forces that one to zero; repeated to a
   fixpoint.
3. Lemma2: once every off-diagonal entry of party t is known zero, a state
   whose party-t support is {a: +c, b: -c} and that shares a bucket pair
   with the all-ones stopper forces m[a,a] = m[b,b]. It is recorded as
   Lemma2 when c = 1 and as UnitPropagation otherwise.

The engine is deliberately incomplete: it mirrors a proof search, not a
decision procedure (the exact nullspace verifier is the decision procedure),
so Incomplete is a first-class per-party verdict rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .states import NonOrthogonalSetError, StateSet, SystemShape, find_stopper

RULE_LEMMA1 = "Lemma1"
RULE_LEMMA2 = "Lemma2"
RULE_UNIT_PROPAGATION = "UnitPropagation"


@dataclass(frozen=True)
class EntryRef:
    """One entry m[row, col] of party `party`'s measurement matrix."""

    party: int
    row: int
    col: int

    def __post_init__(self) -> None:
        if self.party < 0 or self.row < 0 or self.col < 0:
            raise ValueError(f"negative index in entry reference {self}")


@dataclass(frozen=True)
class ZeroEntryFact:
    """m[row, col] = 0 (and by Hermiticity m[col, row] = 0)."""

    entry: EntryRef
    pair: tuple[int, int]
    rule: str

    def __post_init__(self) -> None:
        if self.entry.row == self.entry.col:
            raise ValueError("zero-entry facts are off-diagonal only")


@dataclass(frozen=True)
class DiagonalEqualFact:
    """m[a, a] = m[b, b] for party `party`."""

    party: int
    a: int
    b: int
    pair: tuple[int, int]
    rule: str

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("diagonal-equality facts need two distinct indices")


Fact = ZeroEntryFact | DiagonalEqualFact


@dataclass(frozen=True)
class PartyConclusion:
    party: int
    trivial: bool
    missing_zeros: tuple[tuple[int, int], ...]
    diagonal_classes: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Certificate:
    """Ordered derivation of facts plus a per-party Trivial/Incomplete verdict."""

    shape: SystemShape
    labels: tuple[str, ...]
    facts: tuple[Fact, ...]
    conclusions: tuple[PartyConclusion, ...]

    def trivial_for_all(self) -> bool:
        return all(c.trivial for c in self.conclusions)

    def facts_for_party(self, t: int) -> tuple[Fact, ...]:
        return tuple(
            f
            for f in self.facts
            if (f.entry.party if isinstance(f, ZeroEntryFact) else f.party) == t
        )


def _two_support_signed(vec) -> tuple[int, int, int] | None:
    """(positive index, negative index, magnitude) if support is {a: c, b: -c}."""
    sup = vec.support()
    if len(sup) != 2:
        return None
    a, b = sup
    ca, cb = vec.coeffs[a], vec.coeffs[b]
    if ca + cb != 0:
        return None
    return (a, b, ca) if ca > 0 else (b, a, cb)


def derive_certificate(sset: StateSet) -> Certificate:
    """Run the three rules, party by party, in the module's order; two runs
    on the same set produce identical fact lists."""
    table = sset.pair_table
    if table.violations:
        raise NonOrthogonalSetError(list(table.violations))
    states = sset.states
    stopper_idx = find_stopper(sset)

    facts: list[Fact] = []
    conclusions: list[PartyConclusion] = []
    for t in range(sset.shape.n):
        dim = sset.shape.dims[t]
        known: set[tuple[int, int]] = set()
        support = [s.locals[t].support() for s in states]
        constraints = [(i, j, [(a, b) for a in support[i] for b in support[j]]) for i, j in table.buckets[t]]

        # Lemma1: one off-diagonal term
        for i, j, terms in constraints:
            if len(terms) == 1:
                a, b = terms[0]
                key = (min(a, b), max(a, b))
                if a != b and key not in known:
                    known.add(key)
                    facts.append(ZeroEntryFact(EntryRef(t, a, b), (i, j), RULE_LEMMA1))

        # UnitPropagation to fixpoint; a diagonal entry is never known zero,
        # so constraints with a diagonal term can never fire
        offdiag = [con for con in constraints if all(a != b for a, b in con[2])]
        changed = True
        while changed:
            changed = False
            for i, j, terms in offdiag:
                live = [(a, b) for a, b in terms if (min(a, b), max(a, b)) not in known]
                if len(live) == 1:
                    a, b = live[0]
                    known.add((min(a, b), max(a, b)))
                    facts.append(ZeroEntryFact(EntryRef(t, a, b), (i, j), RULE_UNIT_PROPAGATION))
                    changed = True

        missing = tuple(
            (a, b) for a in range(dim) for b in range(a + 1, dim) if (a, b) not in known
        )

        # Lemma2: diagonal linking against the stopper; label[a] is the
        # least index known to share a's diagonal entry
        label = list(range(dim))
        if not missing and stopper_idx is not None:
            seen_diag: set[tuple[int, int]] = set()
            for i, j in table.buckets[t]:
                if stopper_idx not in (i, j):
                    continue
                partner = i + j - stopper_idx
                signed = _two_support_signed(states[partner].locals[t])
                if signed is None:
                    continue
                pos, neg, mag = signed
                key = (min(pos, neg), max(pos, neg))
                if key in seen_diag:
                    continue
                seen_diag.add(key)
                rule = RULE_LEMMA2 if mag == 1 else RULE_UNIT_PROPAGATION
                facts.append(DiagonalEqualFact(t, pos, neg, (partner, stopper_idx), rule))
                lo, hi = sorted((label[pos], label[neg]))
                label = [lo if x == hi else x for x in label]

        classes = tuple(tuple(a for a in range(dim) if label[a] == c) for c in sorted(set(label)))
        trivial = not missing and len(classes) == 1
        conclusions.append(PartyConclusion(t, trivial, missing, classes))

    return Certificate(sset.shape, sset.labels(), tuple(facts), tuple(conclusions))


def render_fact(fact: Fact, labels: tuple[str, ...]) -> str:
    if isinstance(fact, ZeroEntryFact):
        li, lj = labels[fact.pair[0]], labels[fact.pair[1]]
        e = fact.entry
        return f"party={e.party} m[{e.row},{e.col}]=0 via states ({li},{lj}) rule={fact.rule}"
    li, lj = labels[fact.pair[0]], labels[fact.pair[1]]
    return (
        f"party={fact.party} m[{fact.a},{fact.a}]=m[{fact.b},{fact.b}] "
        f"via ({li},{lj}) rule={fact.rule}"
    )


def render_certificate(cert: Certificate) -> str:
    """One line per fact, in derivation order; stable across runs."""
    return "\n".join(render_fact(f, cert.labels) for f in cert.facts)
