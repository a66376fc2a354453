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

`check_certificate` replays a certificate independently of the rules'
search: each fact from its cited pair's rebuilt constraint and the facts
before it, then each party's conclusion. Every fact is a consequence of
the constraints, so a party that replays to Trivial is proven to have
nullspace span(I); `verify_all` then skips that party's elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .states import InvariantError, NonOrthogonalSetError, StateSet, SystemShape, find_stopper

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

    @cached_property
    def facts_by_party(self) -> dict[int, tuple[Fact, ...]]:
        """Each party's facts, in derivation order, grouped in one pass."""
        groups: dict[int, list[Fact]] = {}
        for f in self.facts:
            groups.setdefault(f.entry.party if isinstance(f, ZeroEntryFact) else f.party, []).append(f)
        return {t: tuple(group) for t, group in groups.items()}

    def facts_for_party(self, t: int) -> tuple[Fact, ...]:
        return self.facts_by_party.get(t, ())


def _two_support_signed(support) -> tuple[int, int, int] | None:
    """(positive index, negative index, magnitude) if the (index, coefficient)
    support is {a: c, b: -c}."""
    if len(support) != 2:
        return None
    (a, ca), (b, cb) = support
    if ca + cb != 0:
        return None
    return (a, b, ca) if ca > 0 else (b, a, cb)


def _conclusion(t: int, dim: int, known, equal) -> PartyConclusion:
    """Party t's conclusion from its off-diagonal entries known zero, as
    (a, b) with a < b, and its diagonal equalities m[a,a] = m[b,b], as (a, b)."""
    missing = tuple((a, b) for a in range(dim) for b in range(a + 1, dim) if (a, b) not in known)
    # label[a] is the least index known to share a's diagonal entry
    label = list(range(dim))
    for a, b in equal:
        lo, hi = sorted((label[a], label[b]))
        label = [lo if x == hi else x for x in label]
    # a class's least index is its label and comes first, so classes follow it
    classes: dict[int, list[int]] = {}
    for a, c in enumerate(label):
        classes.setdefault(c, []).append(a)
    return PartyConclusion(t, not missing and len(classes) == 1, missing, tuple(map(tuple, classes.values())))


def derive_certificate(sset: StateSet) -> Certificate:
    """Run the three rules, party by party, in the module's order; two runs
    on the same set produce identical fact lists."""
    table = sset.pair_table
    if table.violations:
        raise NonOrthogonalSetError(list(table.violations))
    stopper_idx = find_stopper(sset)

    facts: list[Fact] = []
    conclusions: list[PartyConclusion] = []
    for t in range(sset.shape.n):
        dim = sset.shape.dims[t]
        known: set[tuple[int, int]] = set()
        _, ids, supports = sset.vector_index[t]
        support = [supports[v] for v in ids]
        constraints = [(i, j, [(a, b) for a, _ in support[i] for b, _ in support[j]]) for i, j in table.buckets[t]]

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

        # Lemma2: diagonal linking against the stopper, once every
        # off-diagonal entry is known zero
        equal: list[tuple[int, int]] = []
        if len(known) == dim * (dim - 1) // 2 and stopper_idx is not None:
            seen_diag: set[tuple[int, int]] = set()
            for i, j in table.buckets[t]:
                if stopper_idx not in (i, j):
                    continue
                partner = i + j - stopper_idx
                signed = _two_support_signed(support[partner])
                if signed is None:
                    continue
                pos, neg, mag = signed
                key = (min(pos, neg), max(pos, neg))
                if key in seen_diag:
                    continue
                seen_diag.add(key)
                rule = RULE_LEMMA2 if mag == 1 else RULE_UNIT_PROPAGATION
                facts.append(DiagonalEqualFact(t, pos, neg, (partner, stopper_idx), rule))
                equal.append((pos, neg))

        conclusions.append(_conclusion(t, dim, known, equal))

    return Certificate(sset.shape, sset.labels(), tuple(facts), tuple(conclusions))


def check_certificate(sset: StateSet, cert: Certificate) -> None:
    """Replay `cert` on `sset`: each fact from its cited pair and the earlier
    facts of its party only, then each party's conclusion from its facts.
    The first step that does not follow raises InvariantError, naming the
    party and the fact.

    The pair must lie in the party's bucket, and its constraint is rebuilt
    from the two vectors' supports. A zero fact needs a constraint with no
    diagonal term and exactly one term not yet known zero, the stated
    entry, under Lemma1 iff it is the only term. A diagonal fact needs
    every off-diagonal entry known zero, and a constraint whose nonzero
    diagonal coefficients sit at a and b only and sum to zero, under Lemma2
    iff their magnitude is 1. Every fact is then an exact consequence of
    the party's constraints, so a party that replays to Trivial has
    nullspace span(I).
    """
    table = sset.pair_table
    if table.violations:
        raise NonOrthogonalSetError(list(table.violations))
    n = sset.shape.n
    if cert.shape != sset.shape or cert.labels != sset.labels() or len(cert.conclusions) != n:
        raise InvariantError("the certificate is of another state set")
    by_party = cert.facts_by_party
    for t in by_party:
        if not 0 <= t < n:
            raise InvariantError(f"party {t}: no such party, but facts name it")
    for t, conclusion in enumerate(cert.conclusions):
        dim = sset.shape.dims[t]
        _, ids, supports = sset.vector_index[t]
        bucket = set(table.buckets[t])
        # the off-diagonal entries known zero, each as (a, b) and as (b, a);
        # a diagonal entry is never in it
        known: set[tuple[int, int]] = set()
        equal: list[tuple[int, int]] = []
        for fact in by_party.get(t, ()):
            i, j = fact.pair
            if (i, j) not in bucket and (j, i) not in bucket:
                raise InvariantError(f"party {t}: {fact}: the pair is not in the party's bucket")
            u, v = supports[ids[i]], supports[ids[j]]
            if isinstance(fact, ZeroEntryFact):
                # a diagonal term is never known zero, so it would stay live
                row, col = entry = fact.entry.row, fact.entry.col
                live = [(a, b) for a, _ in u for b, _ in v if (a, b) not in known]
                if live != [entry] or row == col:
                    raise InvariantError(f"party {t}: {fact}: the pair does not force this entry to zero")
                if fact.rule != (RULE_LEMMA1 if len(u) * len(v) == 1 else RULE_UNIT_PROPAGATION):
                    raise InvariantError(f"party {t}: {fact}: the rule does not match the constraint")
                known.add(entry)
                known.add((col, row))
            else:
                if len(known) != dim * (dim - 1):
                    raise InvariantError(f"party {t}: {fact}: an off-diagonal entry is not yet known zero")
                v_at = dict(v)
                diagonal = {a: c * v_at[a] for a, c in u if a in v_at}
                if diagonal.keys() != {fact.a, fact.b} or sum(diagonal.values()):
                    raise InvariantError(f"party {t}: {fact}: the pair does not force this diagonal equality")
                if fact.rule != (RULE_LEMMA2 if abs(diagonal[fact.a]) == 1 else RULE_UNIT_PROPAGATION):
                    raise InvariantError(f"party {t}: {fact}: the rule does not match the constraint")
                equal.append((fact.a, fact.b))
        if conclusion != _conclusion(t, dim, known, equal):
            raise InvariantError(f"party {t}: the conclusion {conclusion} does not follow from the facts")


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
