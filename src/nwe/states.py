"""Exact integer tensor-product states and orthogonality predicates.

A multipartite product state is stored unnormalized as one dense integer
coefficient vector per party; the full state is the implied tensor product.
Because the inner product of two product states factorizes party by party,
orthogonality is decided exactly with integer arithmetic alone.

A party usually has far fewer distinct vectors than the set has states.
`StateSet.vector_index`, built on first use, lists each party's distinct
vectors once, with the vector id of every state and each vector's sparse
support; the pair table, the oracle's rows and the certificate all read
the supports from it. The pair table takes one inner product per pair of
distinct vectors and sorts the state pairs with integer bitsets.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import index
from typing import NamedTuple

DEFAULT_DIM_CAP = 64


class DimensionError(ValueError):
    """Vector lengths or system shapes do not match, or the dimension cap is invalid."""


class InvariantError(RuntimeError):
    """An internal invariant of the oracle or of a replayed certificate
    failed, so no verdict can be trusted."""


class NonOrthogonalSetError(ValueError):
    """A state set required to be pairwise orthogonal is not."""

    def __init__(self, pairs: list[tuple[int, int]]):
        self.pairs = list(pairs)
        super().__init__(f"state set is not pairwise orthogonal; violating pairs: {self.pairs}")


def _integers(values, what: str) -> tuple[int, ...]:
    """`values` as exact ints; a value that is not an integer (a float, a
    Fraction, a string) raises DimensionError rather than being truncated."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        bad = next(v for v in values if not hasattr(type(v), "__index__"))
        raise DimensionError(f"{what} must be integers, got {bad!r}") from None


def dim_cap() -> int:
    """Per-party dimension cap (default 64); override via NWE_DIM_CAP."""
    raw = os.environ.get("NWE_DIM_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise DimensionError(f"NWE_DIM_CAP must be an integer, got {raw!r}") from None
    if cap < 2:
        raise DimensionError(f"NWE_DIM_CAP must be at least 2, got {cap}")
    return cap


@dataclass(frozen=True)
class SystemShape:
    """Dimension vector (d_1, ..., d_n) of an n-party system, n >= 2, d_k >= 2."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", _integers(self.dims, "dimensions"))
        if len(self.dims) < 2:
            raise DimensionError(f"need at least 2 parties, got {len(self.dims)}")
        cap = dim_cap()
        for k, d in enumerate(self.dims):
            if d < 2:
                raise DimensionError(f"party {k}: dimension must be >= 2, got {d}")
            if d > cap:
                raise DimensionError(f"party {k}: dimension {d} exceeds cap {cap} (NWE_DIM_CAP)")

    @property
    def n(self) -> int:
        return len(self.dims)

    def total_dim(self) -> int:
        return math.prod(self.dims)


@dataclass(frozen=True)
class LocalVector:
    """One party's integer coefficient vector; at least one entry nonzero.

    Coefficients may be arbitrary integers. The built-in constructions only
    ever emit -1, 0, 1, but the verification engines accept any integer
    vectors, so user-supplied sets are not restricted.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _integers(self.coeffs, "coefficients"))
        if not self.coeffs:
            raise DimensionError("local vector must not be empty")
        if not any(self.coeffs):
            raise DimensionError("local vector must have at least one nonzero coefficient")

    def __len__(self) -> int:
        return len(self.coeffs)

    def scaled(self, factor: int) -> LocalVector:
        if factor == 0:
            raise DimensionError("scaling factor must be nonzero")
        return LocalVector(tuple(factor * c for c in self.coeffs))


def basis_ket(dim: int, i: int) -> LocalVector:
    """|i> as a length-dim coefficient vector."""
    if not 0 <= i < dim:
        raise DimensionError(f"basis index {i} out of range for dimension {dim}")
    return LocalVector(tuple(1 if k == i else 0 for k in range(dim)))


def diff_ket(dim: int, a: int, b: int) -> LocalVector:
    """|a> - |b> (unnormalized |a-b>)."""
    if not (0 <= a < dim and 0 <= b < dim) or a == b:
        raise DimensionError(f"invalid difference ket indices ({a},{b}) for dimension {dim}")
    return LocalVector(tuple((1 if k == a else 0) - (1 if k == b else 0) for k in range(dim)))


def flat_ket(dim: int) -> LocalVector:
    """|0> + |1> + ... + |dim-1> (all coefficients 1)."""
    return LocalVector((1,) * dim)


@dataclass(frozen=True)
class ProductState:
    """A product state: one LocalVector per party over a fixed shape."""

    shape: SystemShape
    locals: tuple[LocalVector, ...]
    label: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "locals", tuple(self.locals))
        if len(self.locals) != self.shape.n:
            raise DimensionError(
                f"state has {len(self.locals)} local vectors for {self.shape.n} parties"
            )
        for k, lv in enumerate(self.locals):
            if len(lv) != self.shape.dims[k]:
                raise DimensionError(
                    f"party {k}: local vector length {len(lv)} != dimension {self.shape.dims[k]}"
                )


@dataclass(frozen=True)
class StateSet:
    """Ordered collection of product states over one shape."""

    shape: SystemShape
    states: tuple[ProductState, ...]
    provenance: str = "user"

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        for idx, s in enumerate(self.states):
            if s.shape != self.shape:
                raise DimensionError(f"state {idx} has shape {s.shape.dims}, set has {self.shape.dims}")

    def __len__(self) -> int:
        return len(self.states)

    def labels(self) -> tuple[str, ...]:
        return tuple(s.label if s.label is not None else f"#{i}" for i, s in enumerate(self.states))

    @cached_property
    def vector_index(self) -> tuple[PartyVectors, ...]:
        """Each party's distinct local vectors; computed on first use."""
        return tuple(_party_vectors(s.locals[t].coeffs for s in self.states) for t in range(self.shape.n))

    @cached_property
    def pair_table(self) -> PairTable:
        """Every state pair sorted once by its zero factors; computed on first use."""
        return _classify_pairs(self)


class PartyVectors(NamedTuple):
    """The distinct local vectors of one party of a state set.

    `coeffs` holds each distinct coefficient tuple once, in order of first
    appearance; `ids[i]` is the position of state i's vector in it; and
    `supports[v]` lists vector v's nonzero entries as (index, coefficient)
    pairs, by ascending index.
    """

    coeffs: tuple[tuple[int, ...], ...]
    ids: tuple[int, ...]
    supports: tuple[tuple[tuple[int, int], ...], ...]


def _party_vectors(column) -> PartyVectors:
    """The index of one party, given each state's coefficient tuple in turn."""
    ids: dict[tuple[int, ...], int] = {}
    of_state = tuple(ids.setdefault(coeffs, len(ids)) for coeffs in column)
    supports = tuple(tuple((a, c) for a, c in enumerate(coeffs) if c) for coeffs in ids)
    return PartyVectors(tuple(ids), of_state, supports)


@dataclass(frozen=True)
class PairTable:
    """The pairs (i, j), i < j, of a state set, sorted by their zero factors.

    An orthogonal pair has at least one zero per-party factor. A pair whose
    sole zero factor is party t constrains party t's measurement and no
    other, so it lands in buckets[t]; a pair with two or more zero factors
    constrains no party and is dropped; a pair with none is a violation.
    Every tuple is in lexicographic order.
    """

    violations: tuple[tuple[int, int], ...]
    buckets: tuple[tuple[tuple[int, int], ...], ...]


def _classify_pairs(sset: StateSet) -> PairTable:
    # zeros[t][i]: the states orthogonal to state i on party t, as a bitset
    # over state indices, from one inner product per pair of distinct vectors
    zeros = []
    for coeffs, ids, supports in sset.vector_index:
        members = [0] * len(coeffs)
        for i, v in enumerate(ids):
            members[v] |= 1 << i
        zero = [0] * len(coeffs)
        for v, w in combinations(range(len(coeffs)), 2):
            if not sum(c * coeffs[w][a] for a, c in supports[v]):
                zero[v] |= members[w]
                zero[w] |= members[v]
        zeros.append([zero[v] for v in ids])
    violations, buckets = [], [[] for _ in zeros]
    count = len(sset.states)
    for i in range(count):
        ones = twos = 0  # the states with at least one, at least two zero factors
        for z in zeros:
            twos |= ones & z[i]
            ones |= z[i]
        later = ((1 << count) - 1) & (-2 << i)  # the states j > i
        violations.extend((i, j) for j in _bits(later & ~ones))
        for bucket, z in zip(buckets, zeros):
            bucket.extend((i, j) for j in _bits(z[i] & later & ~twos))
    return PairTable(tuple(violations), tuple(map(tuple, buckets)))


def _bits(x: int):
    """The positions of the set bits of x >= 0, ascending."""
    while x:
        yield (x & -x).bit_length() - 1
        x &= x - 1


def local_inner(u: LocalVector, v: LocalVector) -> int:
    """Exact inner product of two real integer local vectors."""
    if len(u) != len(v):
        raise DimensionError(f"local vector lengths differ: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u.coeffs, v.coeffs))


def inner_factors(a: ProductState, b: ProductState) -> tuple[int, ...]:
    """Per-party inner products; their product is the full inner product <a|b>."""
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape.dims} vs {b.shape.dims}")
    return tuple(local_inner(u, v) for u, v in zip(a.locals, b.locals))


def are_orthogonal(a: ProductState, b: ProductState) -> bool:
    """True iff <a|b> == 0, i.e. at least one per-party factor vanishes."""
    return any(f == 0 for f in inner_factors(a, b))


def check_pairwise_orthogonality(sset: StateSet) -> list[tuple[int, int]]:
    """All index pairs (i, j), i < j, that are NOT orthogonal, in lexicographic order."""
    return list(sset.pair_table.violations)


def stopper(shape: SystemShape) -> ProductState:
    """The all-ones product state; non-orthogonal to every nonnegative state."""
    return ProductState(shape, tuple(flat_ket(d) for d in shape.dims), label="S")


def is_stopper(state: ProductState) -> bool:
    return all(all(c == 1 for c in lv.coeffs) for lv in state.locals)


def find_stopper(sset: StateSet) -> int | None:
    """Index of the all-ones state, or None. Unique in any orthogonal set."""
    for idx, s in enumerate(sset.states):
        if is_stopper(s):
            return idx
    return None
