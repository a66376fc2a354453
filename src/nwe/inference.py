"""Rule-based derivation of measurement-triviality certificates.

For each party t, orthogonality preservation under a local measurement with
element E_t forces u^T E_t v = 0 for every pair in party t's bucket of the
set's pair table (t is the pair's sole zero factor; u, v are the pair's
party-t vectors). Expanded over entries, the constraint has one term
m[a, b] for each a in the support of u and b in the support of v. Party by
party, three rules turn these constraints into an ordered list of facts,
each citing the pair that forces it:

1. Lemma1: a constraint with one term m[a, b] (two single supports; a != b,
   else the factor would not vanish) forces m[a, b] = 0, in table order.
2. UnitPropagation: a constraint with no diagonal term, all of whose terms
   but one are already known zero, forces that one to zero; repeated to a
   fixpoint by `propagate`, which the oracle's peel shares. A diagonal term
   is never known zero, so a constraint of overlapping supports never fires.
3. Lemma2: once every off-diagonal entry of party t is known zero, a state
   whose party-t support is {a: +c, b: -c} and that shares a bucket pair
   with the all-ones stopper forces m[a,a] = m[b,b]. It is recorded as
   Lemma2 when c = 1 and as UnitPropagation otherwise.

One pass over a party's bucket sorts its pairs into single-support (two
lookups of the index's ket coordinates, `PartyVectors.kets`), overlapping
and disjoint ones; only the last get a term list. Facts are named tuples,
built by thousands per run. An entry m[a, b] is keyed by its S coordinate
`coordinate_map(dim).sym[a][b]`, the one map the oracle also reads.

The engine is deliberately incomplete: it is a proof search, and the exact
nullspace verifier is the decision procedure, so Incomplete is a per-party
verdict, not an error.

`check_certificate` replays a certificate in one pass over its facts,
without `propagate`, the rules' search or the ket coordinates, rebuilding
each constraint from the supports; `verify_all` skips the elimination of a
party it replays to Trivial.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .states import InvariantError, NonOrthogonalSetError, StateSet, SystemShape, find_stopper

RULE_LEMMA1 = "Lemma1"
RULE_LEMMA2 = "Lemma2"
RULE_UNIT_PROPAGATION = "UnitPropagation"


class ZeroEntryFact(NamedTuple):
    """m[row, col] = 0 (and by Hermiticity m[col, row] = 0) for party `party`."""

    party: int
    row: int
    col: int
    pair: tuple[int, int]
    rule: str


class DiagonalEqualFact(NamedTuple):
    """m[a, a] = m[b, b] for party `party`."""

    party: int
    a: int
    b: int
    pair: tuple[int, int]
    rule: str


# facts are named tuples, so facts of the two kinds with equal fields
# compare equal; whatever tells them apart must test their type
Fact = ZeroEntryFact | DiagonalEqualFact

# `_fact(kind, fields)` builds a fact from the tuple of its fields with no
# call of the named tuple's Python-level __new__; the derivation makes
# thousands of facts per run
_fact = tuple.__new__


class PartyConclusion(NamedTuple):
    party: int
    trivial: bool
    missing_zeros: tuple[tuple[int, int], ...]
    diagonal_classes: tuple[tuple[int, ...], ...]


class Certificate(NamedTuple):
    """Ordered derivation of facts plus a per-party Trivial/Incomplete verdict."""

    shape: SystemShape
    labels: tuple[str, ...]
    facts: tuple[Fact, ...]
    conclusions: tuple[PartyConclusion, ...]

    def trivial_for_all(self) -> bool:
        return all(c.trivial for c in self.conclusions)

    def facts_for_party(self, t: int) -> tuple[Fact, ...]:
        return tuple(f for f in self.facts if f.party == t)


class CoordinateMap(NamedTuple):
    """The d*d real coordinates of a Hermitian matrix S + iA: S[a, b], a <= b,
    then A[a, b], a < b, each row-major. `sym[a][b]` and `anti[a][b]` (None
    if a == b) read either order; `entry[k]` is coordinate k's (a, b)."""

    sym: tuple[tuple[int, ...], ...]
    anti: tuple[tuple[int | None, ...], ...]
    entry: tuple[tuple[int, int], ...]
    sym_columns: frozenset[int]
    anti_columns: frozenset[int]
    diagonal: frozenset[int]  # the coordinates of S[a, a]


@functools.cache
def coordinate_map(dim: int) -> CoordinateMap:
    """Built once per dimension and shared by both engines, so immutable."""
    entry = [(a, b) for a in range(dim) for b in range(a, dim)]
    nsym = len(entry)
    entry += [e for e in entry if e[0] != e[1]]  # A shares S's (a, b) tuples
    sym, anti = [[None] * dim for _ in range(dim)], [[None] * dim for _ in range(dim)]
    for k, (a, b) in enumerate(entry):
        table = sym if k < nsym else anti
        table[a][b] = table[b][a] = k
    diagonal = frozenset(sym[a][a] for a in range(dim))
    sym, anti = tuple(map(tuple, sym)), tuple(map(tuple, anti))
    return CoordinateMap(sym, anti, tuple(entry), frozenset(range(nsym)), frozenset(range(nsym, len(entry))), diagonal)


def _conclusion(t: int, dim: int, known, equal) -> PartyConclusion:
    """Party t's conclusion from its off-diagonal entries m[a, b] known zero,
    each once, as its S coordinate `coordinate_map(dim).sym[a][b]`, and its
    diagonal equalities m[a,a] = m[b,b], as (a, b)."""
    missing = ()
    if len(known) != dim * (dim - 1) // 2:
        sym = coordinate_map(dim).sym
        missing = tuple((a, b) for a in range(dim) for b in range(a + 1, dim) if sym[a][b] not in known)
    # label[a] is the least index known to share a's diagonal entry, and
    # members[c] lists the indices labelled c; a merge relabels one class
    label = list(range(dim))
    members = [[a] for a in range(dim)]
    for a, b in equal:
        lo, hi = label[a], label[b]
        if lo != hi:
            if lo > hi:
                lo, hi = hi, lo
            for x in members[hi]:
                label[x] = lo
            members[lo] += members[hi]
            members[hi] = []
    # a class's least index is its label, so classes follow their labels
    classes = tuple(tuple(sorted(m)) for m in members if m)
    return PartyConclusion(t, not missing and len(classes) == 1, missing, classes)


def propagate(rows, known: set) -> list:
    """Unit propagation: sweeping `rows` (each of distinct keys) in order, a
    row all of whose keys but one are in `known` forces that key, which
    joins `known` at once; sweeps repeat until one forces nothing. Returns
    the forced (row index, key) pairs, in the order they were forced."""
    forced = []
    while True:
        count = len(forced)
        for r, row in enumerate(rows):
            live = None
            for key in row:  # a scan stops at the second key not known
                if key not in known:
                    if live is not None:
                        break
                    live = key
            else:
                if live is not None:
                    known.add(live)
                    forced.append((r, live))
        if len(forced) == count:
            return forced


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
        coords = coordinate_map(dim)
        sym, entry = coords.sym, coords.entry
        _, ids, supports, kets = sset.vector_index[t]
        masks = [1 << k if k >= 0 else sum([1 << a for a, _ in s]) for s, k in zip(supports, kets)]
        known: set[int] = set()  # m[a, b] known zero, as its S coordinate sym[a][b]
        constraints = []  # the pairs of disjoint supports
        rows = []  # their terms' keys
        linked = []  # the stopper's partners
        for pair in table.buckets[t]:
            i, j = pair
            vi, vj = ids[i], ids[j]
            a, b = kets[vi], kets[vj]
            if a >= 0 and b >= 0:
                key = sym[a][b]
                if key not in known:
                    known.add(key)
                    facts.append(_fact(ZeroEntryFact, (t, a, b, pair, RULE_LEMMA1)))
            elif masks[vi] & masks[vj]:
                if stopper_idx == i or stopper_idx == j:
                    linked.append(i + j - stopper_idx)
            else:
                constraints.append(pair)
                rows.append([sym[a][b] for a, _ in supports[vi] for b, _ in supports[vj]])

        for r, key in propagate(rows, known):
            pair = constraints[r]
            lo, hi = entry[key]
            # the fact's row lies in the first support, as in its constraint
            a, b = (lo, hi) if masks[ids[pair[0]]] >> lo & 1 else (hi, lo)
            facts.append(_fact(ZeroEntryFact, (t, a, b, pair, RULE_UNIT_PROPAGATION)))

        # Lemma2, once every off-diagonal entry is known zero
        equal = []
        if len(known) == dim * (dim - 1) // 2:
            seen = set()
            for partner in linked:
                support = supports[ids[partner]]
                if len(support) != 2:
                    continue
                (a, ca), (b, cb) = support
                if ca + cb or (a, b) in seen:
                    continue
                seen.add((a, b))
                pos, neg = (a, b) if ca > 0 else (b, a)
                rule = RULE_LEMMA2 if abs(ca) == 1 else RULE_UNIT_PROPAGATION
                facts.append(_fact(DiagonalEqualFact, (t, pos, neg, (partner, stopper_idx), rule)))
                equal.append((pos, neg))

        conclusions.append(_conclusion(t, dim, known, equal))

    return Certificate(sset.shape, sset.labels(), tuple(facts), tuple(conclusions))


def check_certificate(sset: StateSet, cert: Certificate) -> None:
    """Replay `cert` on `sset` in one pass over its facts, in derivation
    order: each fact from its cited pair and its party's earlier facts only,
    from state built once per party at its first fact; then each party's
    conclusion from its facts. The first step that does not follow raises
    InvariantError, naming the party and the fact, or the index of an entry
    that is not a fact or whose party, entry or pair indices are not exact
    ints. The fact records check nothing themselves: this replay is their
    validator.

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
    # from its first fact on, each party's dim, coordinates sym, ids, supports,
    # bucket, entries m[a, b] known zero, as sym[a][b], and diagonal equalities (a, b)
    replay: dict[int, tuple] = {}
    t = None
    for k, fact in enumerate(cert.facts):
        if not isinstance(fact, (ZeroEntryFact, DiagonalEqualFact)):
            raise InvariantError(f"fact {k}: {fact!r} is not a fact")
        party, x, y, pair, rule = fact  # unpacking is cheaper than a named tuple's attributes
        # exact ints only: a bool, a float or an int subclass could replay but render otherwise
        ints = type(pair) is tuple and len(pair) == 2 and type(pair[0]) is type(pair[1]) is int
        if not (ints and type(party) is type(x) is type(y) is int):
            raise InvariantError(f"fact {k}: {fact!r}: the party and entries must be ints, the pair two ints")
        if party != t:
            if not 0 <= party < n:
                raise InvariantError(f"party {party}: no such party, but facts name it")
            t = party
            if t not in replay:
                index, dim = sset.vector_index[t], sset.shape.dims[t]
                replay[t] = dim, coordinate_map(dim).sym, index.ids, index.supports, set(table.buckets[t]), set(), []
            dim, sym, ids, supports, bucket, known, equal = replay[t]
        if pair not in bucket and pair[::-1] not in bucket:
            raise InvariantError(f"party {t}: {fact}: the pair is not in the party's bucket")
        u, v = supports[ids[pair[0]]], supports[ids[pair[1]]]
        if isinstance(fact, ZeroEntryFact):
            row, col = entry = x, y
            if len(u) == 1 == len(v):
                forced = (u[0][0], v[0][0]) == entry
            else:
                # a diagonal term is never known zero, so it would stay live
                forced = [(a, b) for a, _ in u for b, _ in v if sym[a][b] not in known] == [entry]
            # sym[row][col] is read only once the entry matches a term: -1 would wrap
            if not forced or row == col or (key := sym[row][col]) in known:
                raise InvariantError(f"party {t}: {fact}: the pair does not force this entry to zero")
            if rule != (RULE_LEMMA1 if len(u) * len(v) == 1 else RULE_UNIT_PROPAGATION):
                raise InvariantError(f"party {t}: {fact}: the rule does not match the constraint")
            known.add(key)
        else:
            if len(known) != dim * (dim - 1) // 2:
                raise InvariantError(f"party {t}: {fact}: an off-diagonal entry is not yet known zero")
            v_at = dict(v)
            diagonal = {a: c * v_at[a] for a, c in u if a in v_at}
            if diagonal.keys() != {x, y} or sum(diagonal.values()):
                raise InvariantError(f"party {t}: {fact}: the pair does not force this diagonal equality")
            if rule != (RULE_LEMMA2 if abs(diagonal[x]) == 1 else RULE_UNIT_PROPAGATION):
                raise InvariantError(f"party {t}: {fact}: the rule does not match the constraint")
            equal.append((x, y))
    for t, conclusion in enumerate(cert.conclusions):
        known, equal = replay[t][-2:] if t in replay else ((), ())
        # a conclusion is a named tuple, so a plain tuple would compare equal
        if type(conclusion) is not PartyConclusion or conclusion != _conclusion(t, sset.shape.dims[t], known, equal):
            raise InvariantError(f"party {t}: the conclusion {conclusion} does not follow from the facts")


def render_fact(fact: Fact, labels: tuple[str, ...]) -> str:
    party, x, y, (i, j), rule = fact
    li, lj = labels[i], labels[j]
    if isinstance(fact, ZeroEntryFact):
        return f"party={party} m[{x},{y}]=0 via states ({li},{lj}) rule={rule}"
    return f"party={party} m[{x},{x}]=m[{y},{y}] via ({li},{lj}) rule={rule}"


def render_certificate(cert: Certificate) -> str:
    """One line per fact, in derivation order; stable across runs."""
    return "\n".join(render_fact(f, cert.labels) for f in cert.facts)
