"""Rule-based derivation of measurement-triviality certificates.

For each party t, orthogonality preservation under a local measurement with
element E_t forces u^T E_t v = 0 for every state pair whose other-party
factors are all nonzero (u, v the pair's party-t vectors). Three rules turn
these constraints into an ordered list of human-readable facts:

* Lemma1: both vectors single-support at a != b, so the entry (a, b) is zero;
* UnitPropagation: a constraint all of whose entries are already known zero
  except one off-diagonal entry forces that entry to zero;
* Lemma2: once every off-diagonal entry of party t is known zero, a state
  with party-t support {a: +1, b: -1} that meets the all-ones stopper
  nontrivially on every other party forces m[a,a] = m[b,b]. Two-support
  states with coefficients (c, -c), |c| > 1, yield the same equality and are
  recorded under UnitPropagation.

The engine is deliberately incomplete: it mirrors a proof search, not a
decision procedure (the exact nullspace verifier is the decision procedure),
so Incomplete is a first-class per-party verdict rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .states import (
    NonOrthogonalSetError,
    StateSet,
    SystemShape,
    find_stopper,
    inner_factors,
)

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
class PairConstraint:
    """u^T E_t v = 0 expanded over entries: sum of coeff * m[row, col]."""

    party: int
    i: int
    j: int
    terms: tuple[tuple[int, int, int], ...]  # (row, col, coeff), coeff != 0


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


def _other_factor_product(factors: tuple[int, ...], t: int) -> int:
    prod = 1
    for k, f in enumerate(factors):
        if k != t:
            prod *= f
    return prod


def _constraint_terms(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    terms = []
    for a, ua in enumerate(u):
        if not ua:
            continue
        for b, vb in enumerate(v):
            if vb:
                terms.append((a, b, ua * vb))
    return tuple(terms)


def pair_constraint(sset: StateSet, i: int, j: int, t: int) -> PairConstraint | None:
    """The party-t constraint of pair (i, j), or None when another party's
    factor already vanishes (the pair then says nothing about party t)."""
    if i == j:
        raise ValueError("pair constraint needs two distinct state indices")
    if not 0 <= t < sset.shape.n:
        raise IndexError(f"party {t} out of range for {sset.shape.n} parties")
    a, b = sset.states[i], sset.states[j]
    if _other_factor_product(inner_factors(a, b), t) == 0:
        return None
    return PairConstraint(t, i, j, _constraint_terms(a.locals[t].coeffs, b.locals[t].coeffs))


def lemma1_zero(sset: StateSet, i: int, j: int, t: int) -> ZeroEntryFact | None:
    """Zero entry from a pair whose party-t vectors are both single-support."""
    con = pair_constraint(sset, i, j, t)
    if con is None:
        return None
    su = sset.states[i].locals[t].support()
    sv = sset.states[j].locals[t].support()
    if len(su) == 1 and len(sv) == 1 and su[0] != sv[0]:
        return ZeroEntryFact(EntryRef(t, su[0], sv[0]), (i, j), RULE_LEMMA1)
    return None


def _offdiag_complete(dim: int, known_zeros) -> bool:
    known = {(min(a, b), max(a, b)) for a, b in known_zeros}
    return all((a, b) in known for a in range(dim) for b in range(a + 1, dim))


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


def lemma2_diagonal(
    sset: StateSet, i: int, stopper_index: int, t: int, known_zeros
) -> DiagonalEqualFact | None:
    """Diagonal equality m[a,a] = m[b,b] from state i against the stopper.

    Applies only when known_zeros already covers every off-diagonal entry of
    party t; otherwise the rule is inapplicable and None is returned. The
    state's party-t support must be exactly {a: +1, b: -1} and every other
    party's factor against the stopper must be nonzero.
    """
    if not _offdiag_complete(sset.shape.dims[t], known_zeros):
        return None
    if i == stopper_index:
        return None
    if pair_constraint(sset, i, stopper_index, t) is None:
        return None
    signed = _two_support_signed(sset.states[i].locals[t])
    if signed is None or signed[2] != 1:
        return None
    pos, neg, _ = signed
    return DiagonalEqualFact(t, pos, neg, (i, stopper_index), RULE_LEMMA2)


class _DSU:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)

    def classes(self) -> tuple[tuple[int, ...], ...]:
        groups: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            groups.setdefault(self.find(x), []).append(x)
        return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))


def derive_certificate(sset: StateSet) -> Certificate:
    """Run the rules to fixpoint, party by party, in deterministic order.

    Per party: (1) Lemma1 over all pairs in lexicographic order; (2) unit
    propagation over the pair constraints until no new zero entry appears
    (constraints touching a diagonal entry never fire, since diagonals are
    not known to vanish); (3) once the off-diagonal entries are fully
    covered, diagonal linking against the stopper. Two runs on the same set
    produce identical fact lists.
    """
    table = sset.pair_table
    if table.violations:
        raise NonOrthogonalSetError(list(table.violations))
    states = sset.states
    count = len(states)
    stopper_idx = find_stopper(sset)

    facts: list[Fact] = []
    conclusions: list[PartyConclusion] = []
    for t in range(sset.shape.n):
        dim = sset.shape.dims[t]
        known: set[tuple[int, int]] = set()
        constraints = [
            PairConstraint(t, i, j, _constraint_terms(states[i].locals[t].coeffs, states[j].locals[t].coeffs))
            for i, j in table.buckets[t]
        ]

        # phase 1: single-support pairs
        for con in constraints:
            su = states[con.i].locals[t].support()
            sv = states[con.j].locals[t].support()
            if len(su) == 1 and len(sv) == 1 and su[0] != sv[0]:
                key = (min(su[0], sv[0]), max(su[0], sv[0]))
                if key not in known:
                    known.add(key)
                    facts.append(ZeroEntryFact(EntryRef(t, su[0], sv[0]), (con.i, con.j), RULE_LEMMA1))

        # phase 2: unit propagation to fixpoint
        changed = True
        while changed:
            changed = False
            for con in constraints:
                if any(a == b for a, b, _ in con.terms):
                    continue
                live = [(a, b) for a, b, _ in con.terms if (min(a, b), max(a, b)) not in known]
                if len(live) == 1:
                    a, b = live[0]
                    known.add((min(a, b), max(a, b)))
                    facts.append(ZeroEntryFact(EntryRef(t, a, b), (con.i, con.j), RULE_UNIT_PROPAGATION))
                    changed = True

        missing = tuple(
            (a, b) for a in range(dim) for b in range(a + 1, dim) if (a, b) not in known
        )

        # phase 3: diagonal linking against the stopper
        dsu = _DSU(dim)
        if not missing and stopper_idx is not None:
            linked = set(table.buckets[t])
            seen_diag: set[tuple[int, int]] = set()
            for i in range(count):
                if (min(i, stopper_idx), max(i, stopper_idx)) not in linked:
                    continue
                signed = _two_support_signed(states[i].locals[t])
                if signed is None:
                    continue
                pos, neg, mag = signed
                key = (min(pos, neg), max(pos, neg))
                if key in seen_diag:
                    continue
                seen_diag.add(key)
                rule = RULE_LEMMA2 if mag == 1 else RULE_UNIT_PROPAGATION
                facts.append(DiagonalEqualFact(t, pos, neg, (i, stopper_idx), rule))
                dsu.union(pos, neg)

        classes = dsu.classes()
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
