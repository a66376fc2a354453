"""Exact integer tensor-product states and orthogonality predicates.

A multipartite product state is stored unnormalized as one dense integer
coefficient vector per party; the full state is the implied tensor product.
Because the inner product of two product states factorizes party by party,
orthogonality is decided exactly with integer arithmetic alone.

A party usually has far fewer distinct vectors than the set has states.
`StateSet.vector_index` lists each party's distinct vectors once, with the
vector id of every state and each vector's sparse support. Every set is
stored as this index and its labels, interned once when the set is made;
the verify path reads nothing else. The pair table sums the inner
products of distinct vectors coordinate by coordinate, so only the entries
two vectors share are multiplied (vectors with disjoint supports are
orthogonal), and sorts the state pairs with integer bitsets.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from operator import index
from typing import NamedTuple

DIM_CAP = 64  # the largest dimension a party may have
# the most state pairs a set may have: the pair table is quadratic in the
# states, and every family the generators accept stays below this
MAX_PAIRS = 10**6


class DimensionError(ValueError):
    """Shapes or vector lengths do not match, a size is out of range, or a label or provenance is bad."""


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


def _rebuild(cls, values: tuple):
    """The value of class `cls` whose fields are `values`, as stored, with
    no validation; unpickling and copying a value end here."""
    self = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(self, name, value)
    return self


class _Value:
    """An immutable value over the attributes named in `_fields`.

    A value equals only a value of the same class with equal fields, hashes
    as the tuple of its fields, is shown as `Name(field=value, ...)`, and
    raises AttributeError on any assignment or deletion; a subclass sets its
    fields in `__init__` with object.__setattr__, after validating them.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other is self:  # every field is equal to itself; a set's states share one shape
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuild, (type(self), self._values())


class SystemShape(_Value):
    """Dimension vector (d_1, ..., d_n) of an n-party system, n >= 2, d_k >= 2."""

    __slots__ = _fields = ("dims",)

    def __init__(self, dims: tuple[int, ...]) -> None:
        dims = _integers(dims, "dimensions")
        if len(dims) < 2:
            raise DimensionError(f"need at least 2 parties, got {len(dims)}")
        for k, d in enumerate(dims):
            if d < 2:
                raise DimensionError(f"party {k}: dimension must be >= 2, got {d}")
            if d > DIM_CAP:
                raise DimensionError(f"party {k}: dimension {d} exceeds cap {DIM_CAP}")
        object.__setattr__(self, "dims", dims)

    @property
    def n(self) -> int:
        return len(self.dims)


class LocalVector(_Value):
    """One party's integer coefficient vector; at least one entry nonzero.

    Coefficients may be arbitrary integers. The built-in constructions only
    ever emit -1, 0, 1, but the verification engines accept any integer
    vectors, so user-supplied sets are not restricted.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        coeffs = _integers(coeffs, "coefficients")
        if not coeffs:
            raise DimensionError("local vector must not be empty")
        if not any(coeffs):
            raise DimensionError("local vector must have at least one nonzero coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)


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


class ProductState(_Value):
    """A product state: one LocalVector per party over a fixed shape."""

    __slots__ = _fields = ("shape", "locals", "label")

    def __init__(self, shape: SystemShape, locals: tuple[LocalVector, ...], label: str | None = None) -> None:
        locals = tuple(locals)
        if len(locals) != shape.n:
            raise DimensionError(f"state has {len(locals)} local vectors for {shape.n} parties")
        for k, lv in enumerate(locals):
            if len(lv) != shape.dims[k]:
                raise DimensionError(f"party {k}: local vector length {len(lv)} != dimension {shape.dims[k]}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "locals", locals)
        object.__setattr__(self, "label", label)


class StateSet(_Value):
    """Ordered collection of product states over one shape.

    The set is stored as its `vector_index` and the states' labels (None
    for an unlabelled state), whichever way it was made: `StateSet(shape,
    states)` interns the states' vectors at construction, and the loader
    interns a document's. `states` is a view, one LocalVector per distinct
    coefficient tuple, shared across parties; a set made from states keeps
    those as the view. Equality and hashing read the stored fields only.
    The fields and the cached views live in the instance `__dict__`.
    """

    _fields = ("shape", "vector_index", "_labels", "provenance")

    def __init__(self, shape: SystemShape, states: tuple[ProductState, ...], provenance: str = "user") -> None:
        states = tuple(states)
        if not isinstance(provenance, str):
            raise DimensionError("provenance must be a string")
        for idx, s in enumerate(states):
            if s.shape != shape:
                raise DimensionError(f"state {idx} has shape {s.shape.dims}, set has {shape.dims}")
            if s.label is not None and not isinstance(s.label, str):
                raise DimensionError(f"states[{idx}].label: expected a string")
        # each party's table maps a distinct coefficient tuple to its position
        tables: list[dict] = [{} for _ in shape.dims]
        ids = [[table.setdefault(s.locals[t].coeffs, len(table)) for s in states] for t, table in enumerate(tables)]
        self._store(shape, tables, ids, tuple(s.label for s in states), provenance)
        self.__dict__["states"] = states

    def _store(self, shape: SystemShape, vectors, ids, labels, provenance: str) -> StateSet:
        """Store the set whose state i has label labels[i] and, on party t,
        the ids[t][i]-th coefficient tuple of vectors[t] (a sequence, or a
        table of distinct tuples in order of first appearance), all checked
        by the caller, with each vector's support and ket coordinate; the
        constructor and the loader both end here. A set of more than
        MAX_PAIRS state pairs raises DimensionError before anything is
        built. Certificates cite states by label (an unlabelled state by
        "#index"), so a label that names two states raises DimensionError."""
        pairs = len(labels) * (len(labels) - 1) // 2
        if pairs > MAX_PAIRS:
            raise DimensionError(f"{len(labels)} states make {pairs} state pairs, above the bound of {MAX_PAIRS}")
        index = []
        for vs, column in zip(vectors, ids):
            supports = tuple(tuple(compress(enumerate(v), v)) for v in vs)
            kets = tuple([s[0][0] if len(s) == 1 else -1 for s in supports])
            index.append(PartyVectors(tuple(vs), tuple(column), supports, kets))
        self.__dict__.update(shape=shape, vector_index=tuple(index), _labels=labels, provenance=provenance)
        cited = self.labels()
        if len(set(cited)) != len(cited):
            first: dict[str, int] = {}
            for idx, label in enumerate(cited):
                if first.setdefault(label, idx) != idx:
                    raise DimensionError(f"duplicate state label {label!r}: states[{first[label]}] and states[{idx}]")
        return self

    @cached_property
    def states(self) -> tuple[ProductState, ...]:
        """The states, built from the index on first use."""
        index = self.vector_index
        shared = {c: LocalVector(c) for p in index for c in p.coeffs}
        return tuple(
            ProductState(self.shape, tuple(shared[p.coeffs[v]] for p, v in zip(index, vs)), label)
            for vs, label in zip(zip(*(p.ids for p in index)), self._labels)
        )

    def __len__(self) -> int:
        return len(self._labels)

    def labels(self) -> tuple[str, ...]:
        return tuple(f"#{i}" if label is None else label for i, label in enumerate(self._labels))

    @cached_property
    def pair_table(self) -> PairTable:
        """Every state pair sorted once by its zero factors; computed on first use."""
        return _classify_pairs(self)


class PartyVectors(NamedTuple):
    """The distinct local vectors of one party of a state set.

    `coeffs` holds each distinct coefficient tuple once, in order of first
    appearance; `ids[i]` is the position of state i's vector in it;
    `supports[v]` lists vector v's nonzero entries as (index, coefficient)
    pairs, by ascending index; and `kets[v]` is the index of vector v's
    only nonzero entry if it has one (v is a multiple of a basis ket), else -1.
    """

    coeffs: tuple[tuple[int, ...], ...]
    ids: tuple[int, ...]
    supports: tuple[tuple[tuple[int, int], ...], ...]
    kets: tuple[int, ...]


class PairTable(NamedTuple):
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
    # over state indices. A ket at coordinate a meets exactly the vectors
    # nonzero at a (col[a]), with no product at all, and a vector that is
    # not a ket meets every ket in its support (ketcol). Two vectors that
    # are not kets sum their inner product over the coordinates they share,
    # from the lists of the earlier such vectors nonzero there, so vectors
    # with disjoint supports (which are orthogonal) are never multiplied; a
    # list indexed by vector holds the sums, which on dense vectors is
    # cheaper than a dict. A vector is never orthogonal to itself.
    count = len(sset)
    every = (1 << count) - 1
    zeros = []
    for dim, (coeffs, ids, supports, kets) in zip(sset.shape.dims, sset.vector_index):
        members = [0] * len(coeffs)
        for i, v in enumerate(ids):
            members[v] |= 1 << i
        col = [0] * dim  # col[a]: the states whose vector is nonzero at a
        ketcol = [0] * dim  # ketcol[a]: the states whose vector is a ket at a
        for v, support in enumerate(supports):
            for a, _ in support:
                col[a] |= members[v]
            if kets[v] >= 0:
                ketcol[kets[v]] |= members[v]
        at: list[list] = [[] for _ in range(dim)]  # at[a]: (w, entry a of w) for the earlier non-kets w nonzero at a
        meets = []  # meets[v]: the states whose vector is not orthogonal to v
        for v, support in enumerate(supports):
            if kets[v] >= 0:
                meets.append(col[kets[v]])
                continue
            met = members[v]
            dots = [0] * v  # dots[w]: the inner product of v with the earlier non-ket w
            for a, c in support:
                met |= ketcol[a]
                for w, cw in at[a]:
                    dots[w] += c * cw
                at[a].append((v, c))
            for w in compress(range(v), dots):
                met |= members[w]
                meets[w] |= members[v]
            meets.append(met)
        zero = [every & ~m for m in meets]
        zeros.append([zero[v] for v in ids])
    violations, buckets = [], [[] for _ in zeros]
    later = every  # the states j > i
    for i, row in enumerate(zip(*zeros)):  # row[t]: zeros[t][i]
        later ^= 1 << i
        ones = twos = 0  # the states with at least one, at least two zero factors
        for z in row:
            twos |= ones & z
            ones |= z
        x = later & ~ones
        while x:
            low = x & -x
            x ^= low
            violations.append((i, low.bit_length() - 1))
        keep = later & ~twos
        for bucket, z in zip(buckets, row):
            x = z & keep
            while x:
                low = x & -x
                x ^= low
                bucket.append((i, low.bit_length() - 1))
    return PairTable(tuple(violations), tuple(map(tuple, buckets)))


def check_pairwise_orthogonality(sset: StateSet) -> list[tuple[int, int]]:
    """All index pairs (i, j), i < j, that are NOT orthogonal, in lexicographic order."""
    return list(sset.pair_table.violations)


def stopper(shape: SystemShape) -> ProductState:
    """The all-ones product state; non-orthogonal to every nonnegative state."""
    return ProductState(shape, tuple(flat_ket(d) for d in shape.dims), label="S")


def find_stopper(sset: StateSet) -> int | None:
    """Index of the all-ones state, or None. Unique in any orthogonal set."""
    ones = [(1,) * d for d in sset.shape.dims]
    wanted = tuple(p.coeffs.index(o) if o in p.coeffs else None for p, o in zip(sset.vector_index, ones))
    return next((i for i, vs in enumerate(zip(*(p.ids for p in sset.vector_index))) if vs == wanted), None)
