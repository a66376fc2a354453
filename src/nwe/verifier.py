"""Exact decision oracle for triviality of orthogonality-preserving measurements.

The unknown measurement element on party t is a complex Hermitian d x d
matrix E = S + iA with S real symmetric and A real antisymmetric. Its real
degrees of freedom are laid out as d(d+1)/2 symmetric coordinates S[a,b]
(a <= b) followed by d(d-1)/2 antisymmetric coordinates A[a,b] (a < b).

The set's pair table (`StateSet.pair_table`) sorts every pair once; the
pairs whose sole zero factor is party t are the ones that constrain E. Each
gives u^T S v = 0 on the S block and u^T A v = 0 on the A block (u and v
real). `assemble` is the only builder of these rows: it records a row of one
entry c (the paper's Lemma 1) as the zeroed coordinate c, and returns the
others sparse, one tuple per block. The blocks share no coordinate, so they
are eliminated apart, the S block first, by one loop that `verdict`, `rank`
and `nullspace` all read. The identity satisfies every row, so rank_S is at
most d(d+1)/2 - 1, and the measurement is forced trivial iff rank_S reaches
that and rank_A = d(d-1)/2.

Each block is first peeled: from the zeroed coordinates on, a row with all
coordinates but one zeroed zeroes that one, to a fixpoint (`propagate`, the
rule engine's unit propagation), and the core is then built once. A pair of
basis kets |a>, |b> zeroes S[a,b] and A[a,b] with no row: most constraints
of a family. This is exact: each zeroed coordinate's unit vector e_c lies in
the row space, so the block's unique reduced row echelon form (RREF) over
the rationals has e_c as the row of pivot c, and every row the peel consumed
lies in the span of the e_c. The block's RREF is therefore the core's plus
the unit row e_c per zeroed column, and its rank is the number of zeroed
columns plus the number of the core's pivots. A diagonal coordinate of S is
never zeroed, since the identity satisfies every row; if one is,
InvariantError is raised.

The core is eliminated over the integers by a fraction-free Gauss-Jordan.
Its result is the core's RREF, each pivot row kept as the primitive integer
multiple of its RREF row: exact by construction, for coefficients of any
size.

A block's free columns are those neither zeroed nor a pivot of the core;
their number is the block's nullity. Its nullspace basis has one sparse
vector per free column, read off the core's RREF entries in that column,
with every zeroed coordinate 0. Every S column comes before every A column,
so the two blocks' vectors, in column order, are the basis the RREF over
all d*d unknowns would give. An S block at full rank has one free column,
the last diagonal coordinate, and its vector is exactly the identity.
`nullspace` returns these vectors densely; on a Nontrivial verdict the
witness is the first of them, in column order, that is not a multiple of
the identity, with its identity component projected out.

A Nontrivial verdict means a nontrivial orthogonality-preserving first
measurement exists on that party; it does not by itself prove that the set
is LOCC-distinguishable.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple

from .inference import Certificate, check_certificate, propagate
from .states import InvariantError, NonOrthogonalSetError, StateSet

STATUS_TRIVIAL = "Trivial"
STATUS_NONTRIVIAL = "Nontrivial"


def sym_index(dim: int, a: int, b: int) -> int:
    """Coordinate of S[a,b], a <= b, within [0, d(d+1)/2)."""
    if not 0 <= a <= b < dim:
        raise IndexError(f"bad symmetric coordinate ({a},{b}) for dimension {dim}")
    return a * dim - a * (a - 1) // 2 + (b - a)


def anti_index(dim: int, a: int, b: int) -> int:
    """Coordinate of A[a,b], a < b, within [d(d+1)/2, d*d)."""
    if not 0 <= a < b < dim:
        raise IndexError(f"bad antisymmetric coordinate ({a},{b}) for dimension {dim}")
    return dim * (dim + 1) // 2 + a * (dim - 1) - a * (a - 1) // 2 + (b - a - 1)


class MeasurementConstraintSystem(NamedTuple):
    """Sparse integer constraints on the d*d real unknowns of one party.

    `zeroed` holds the coordinates forced to zero by a row of one entry, and
    `sym` and `anti` the other S-block and A-block rows, each row as
    {coordinate: nonzero coefficient}. Every S row must annihilate the
    identity (its diagonal coefficients sum to zero); `assemble` checks this
    as it builds each row. Only the oracle's diagonal guard relies on it: a
    row set that zeroes a diagonal coordinate of S raises InvariantError.
    """

    party: int
    dim: int
    sym: tuple[dict[int, int], ...]
    anti: tuple[dict[int, int], ...]
    zeroed: frozenset[int] = frozenset()

    @property
    def num_unknowns(self) -> int:
        return self.dim * self.dim

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Dense view: per block, S first, the unit rows of the zeroed
        coordinates, ascending, then the other rows."""
        units = [{c: 1} for c in sorted(self.zeroed)]
        split = sum(c < self.dim * (self.dim + 1) // 2 for c in self.zeroed)
        rows = units[:split] + list(self.sym) + units[split:] + list(self.anti)
        return tuple(tuple(row.get(k, 0) for k in range(self.num_unknowns)) for row in rows)


class HermitianMatrix(NamedTuple):
    """Exact-rational Hermitian matrix (S + iA) / den, den > 0, stored as its
    sorted nonzero integers ((a, b), S[a,b]), a <= b, in `sym` and ((a, b),
    A[a,b]), a < b, in `anti`."""

    dim: int
    den: int
    sym: tuple[tuple[tuple[int, int], int], ...]
    anti: tuple[tuple[tuple[int, int], int], ...]

    def is_identity_multiple(self) -> bool:
        diagonal = len(self.sym) in (0, self.dim) and all(a == b for (a, b), _ in self.sym)
        return diagonal and not self.anti and len({x for _, x in self.sym}) <= 1

    def entry_strings(self) -> list[list[str]]:
        """Entries as exact fraction strings, e.g. "1/2" or "0+1/3i"."""
        den = self.den

        def ratio(x: int) -> str:  # str(Fraction(x, den)), reduced by one gcd
            g = math.gcd(x, den)
            return str(x // g) if g == den else f"{x // g}/{den // g}"

        out = [["0"] * self.dim for _ in range(self.dim)]
        for (a, b), x in self.sym:
            out[a][b] = out[b][a] = ratio(x)
        for (a, b), x in self.anti:
            im = ratio(abs(x)) + "i"
            out[a][b] += "+" + im if x > 0 else "-" + im
            out[b][a] += "-" + im if x > 0 else "+" + im
        return out


class TrivialityVerdict(NamedTuple):
    party: int
    status: str
    nullspace_dim: int
    witness: HermitianMatrix | None

    @property
    def trivial(self) -> bool:
        return self.status == STATUS_TRIVIAL


@functools.cache
def _coordinate_tables(dim: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int | None, ...], ...]]:
    """sym[a][b], the coordinate of S[min(a,b), max(a,b)], and anti[a][b], that
    of A[min(a,b), max(a,b)] (None for a == b), for every a, b < dim; built
    once per dimension and shared, so they are immutable."""
    sym = tuple(tuple(sym_index(dim, min(a, b), max(a, b)) for b in range(dim)) for a in range(dim))
    anti = tuple(tuple(anti_index(dim, min(a, b), max(a, b)) if a != b else None for b in range(dim)) for a in range(dim))
    return sym, anti


def _pair_rows(u, v, dim: int) -> tuple[dict, dict]:
    """The S-block and A-block rows of u^T E v = 0, as {coordinate: coefficient};
    u and v are given as the (index, coefficient) pairs of their nonzero entries."""
    sym, anti = _coordinate_tables(dim)
    srow: dict[int, int] = {}
    arow: dict[int, int] = {}
    trace = 0
    for a, ua in u:
        sym_a, anti_a = sym[a], anti[a]
        for b, vb in v:
            w = ua * vb
            k = sym_a[b]
            srow[k] = srow.get(k, 0) + w
            if a == b:
                trace += w
            else:
                k = anti_a[b]
                arow[k] = arow.get(k, 0) + (w if a < b else -w)
    # the diagonal coefficients sum to u.v, which vanishes because party t
    # is the pair's zero factor; so the identity satisfies every row
    if trace:
        raise InvariantError(f"the row of {dict(u)} and {dict(v)} does not annihilate the identity")
    return {k: x for k, x in srow.items() if x}, {k: x for k, x in arow.items() if x}


def assemble(sset: StateSet, t: int) -> MeasurementConstraintSystem:
    """Constraint system for party t of a pairwise orthogonal set.

    Each pair in party t's bucket, in table order, contributes its S-block
    row and its A-block row, unless empty: a row of one entry as its zeroed
    coordinate. A pair of kets |a>, |b>, a != b (found by the index's ket
    coordinates), zeroes S[a,b] and A[a,b].
    """
    if not 0 <= t < sset.shape.n:
        raise IndexError(f"party {t} out of range for {sset.shape.n} parties")
    table = sset.pair_table
    if table.violations:
        raise NonOrthogonalSetError(list(table.violations))
    dim = sset.shape.dims[t]
    sym_at, anti_at = _coordinate_tables(dim)
    _, ids, supports, kets = sset.vector_index[t]
    sym, anti, zeroed = [], [], set()
    for i, j in table.buckets[t]:
        vi, vj = ids[i], ids[j]
        a, b = kets[vi], kets[vj]
        if a >= 0 and b >= 0 and a != b:
            # a == b fails _pair_rows' trace check
            zeroed.add(sym_at[a][b])
            zeroed.add(anti_at[a][b])
            continue
        for row, rows in zip(_pair_rows(supports[vi], supports[vj], dim), (sym, anti)):
            if len(row) == 1:
                zeroed.update(row)
            elif row:
                rows.append(row)
    return MeasurementConstraintSystem(t, dim, tuple(sym), tuple(anti), frozenset(zeroed))


# `verdict` reads the builder under this name, so that replacing or deleting
# the public `assemble` (as a tracer may) leaves the verify path unchanged
_assemble = assemble


def _subtract_exact(row: dict, f: int, other: dict) -> None:
    """row -= f * other over the integers in place, dropping the entries that become zero."""
    for k, x in other.items():
        y = row.get(k, 0) - f * x
        if y:
            row[k] = y
        else:
            del row[k]


def _exact_rref(rows) -> tuple[dict[int, dict], int]:
    """The rational RREF of sparse integer rows, pivoting on the first
    nonzero column, as integer tails over one common denominator `den`:
    row pc of the RREF is e_pc + tails[pc] / den.

    A fraction-free Gauss-Jordan: each pivot row is kept as lead * e_pc +
    tail, the primitive integer multiple of its RREF row with lead > 0, so
    the kept rows stay as small as the RREF's own fractions allow; `den` is
    the lcm of the leads. Rows are {column: nonzero integer}.
    """
    leads: dict[int, int] = {}
    tails: dict[int, dict] = {}
    for row in rows:
        hit = [c for c in row if c in tails]
        # scale * (row minus its components along the pivot rows it meets)
        scale = math.lcm(*(leads[c] for c in hit))
        r = {k: scale * x for k, x in row.items() if k not in tails}
        for c in hit:
            _subtract_exact(r, row[c] * (scale // leads[c]), tails[c])
        if not r:
            continue
        pc = min(r)
        g = math.gcd(*r.values())
        if r[pc] < 0:
            g = -g
        lead = r.pop(pc) // g
        tail = {k: x // g for k, x in r.items()}
        for c, other in tails.items():
            f = other.pop(pc, 0)
            if f:
                # a * (leads[c] e_c + other) - b * (lead e_pc + tail), made primitive
                g = math.gcd(lead, f)
                a, b = lead // g, f // g
                for k in other:
                    other[k] *= a
                _subtract_exact(other, b, tail)
                lead_c = a * leads[c]
                g = math.gcd(lead_c, *other.values())
                leads[c] = lead_c // g
                if g != 1:
                    for k in other:
                        other[k] //= g
        leads[pc] = lead
        tails[pc] = tail
    den = math.lcm(*leads.values())
    return {pc: {k: x * (den // leads[pc]) for k, x in tail.items()} for pc, tail in tails.items()}, den


def _peel(rows, zeroed) -> tuple[set[int], list[dict]]:
    """The columns `zeroed` or forced to zero by `rows` through `propagate`,
    and the nonempty rows with those columns deleted (the core). Exact (see
    the module docstring): with the zeroed columns' unit rows, `rows` have
    their number plus the core's rank, and the core's nullspace with every
    zeroed coordinate 0."""
    zeroed = set(zeroed)
    propagate(rows, zeroed)
    core = [row if zeroed.isdisjoint(row) else {k: x for k, x in row.items() if k not in zeroed} for row in rows]
    return zeroed, [row for row in core if row]


def _free_vectors(pivots: dict[int, dict], den: int, free):
    """The nullspace basis of a block whose core has the RREF `pivots`, tail
    entries as fractions over `den`: for each column of `free`, ascending,
    the vector with a 1 there, as {coordinate: nonzero integer numerator
    over `den`}. Zeroed columns are 0 in every vector."""
    by_column: dict[int, list] = {}
    for pc, tail in pivots.items():
        for k, x in tail.items():
            by_column.setdefault(k, []).append((pc, x))
    for c in free:
        vec = {c: den}
        for pc, x in by_column.get(c, ()):
            vec[pc] = -x
        yield vec


def _blocks(system: MeasurementConstraintSystem):
    """For the S block, then the A block: its free columns, ascending (its
    columns neither zeroed by `_peel` nor pivots of the core), and its
    core's exact RREF from `_exact_rref`. The block's nullity is the number
    of free columns."""
    dim = system.dim
    nsym = dim * (dim + 1) // 2
    # the identity satisfies every S row, so no row may zero a diagonal coordinate
    diagonal = _row_starts(dim)[:dim]
    sym_zeroed = [c for c in system.zeroed if c < nsym]
    anti_zeroed = [c for c in system.zeroed if c >= nsym]
    for rows, given, columns in (
        (system.sym, sym_zeroed, range(nsym)),
        (system.anti, anti_zeroed, range(nsym, dim * dim)),
    ):
        zeroed, core = _peel(rows, given)
        if not zeroed.isdisjoint(diagonal):
            raise InvariantError(f"a constraint row forces coordinate {min(zeroed.intersection(diagonal))} to zero")
        pivots, den = _exact_rref(core)
        yield [c for c in columns if c not in zeroed and c not in pivots], pivots, den


def rank(system: MeasurementConstraintSystem) -> int:
    return system.num_unknowns - sum(len(free) for free, _, _ in _blocks(system))


def nullspace(system: MeasurementConstraintSystem) -> list[tuple[Fraction, ...]]:
    """Exact-rational basis of the solution space, deterministic order: one
    vector per free column (neither zeroed by the peel nor a pivot of its
    block's core), ascending, as the RREF over all d*d unknowns gives it.
    An S block at full rank contributes exactly the identity."""
    size = system.num_unknowns
    basis = []
    nullity = 0
    for free, pivots, den in _blocks(system):
        nullity += len(free)
        for sparse in _free_vectors(pivots, den, free):
            vec = [Fraction(0)] * size
            for k, x in sparse.items():
                vec[k] = Fraction(x, den)
            basis.append(tuple(vec))
    if len(basis) != nullity:
        raise InvariantError(f"{len(basis)} basis vectors for {size} unknowns and rank {size - nullity}")
    return basis


@functools.cache
def _row_starts(dim: int) -> tuple[int, ...]:
    """The coordinates of S[a,a] for each row a, then those of A[a,a+1]:
    where each row of each block starts."""
    return tuple(sym_index(dim, a, a) for a in range(dim)) + tuple(anti_index(dim, a, a + 1) for a in range(dim - 1))


def _witness(pivots: dict[int, dict], den: int, free, dim: int) -> HermitianMatrix | None:
    """The first of a block's nullspace basis vectors (`_free_vectors`), over
    its free columns in ascending order, with a nonzero part off the
    identity: that part, as a matrix. Tail entries are read as fractions
    over `den`, the projection as integers over dim * den."""
    starts = _row_starts(dim)
    for vec in _free_vectors(pivots, den, free):
        sym, anti, trace = {}, {}, 0
        for k, x in vec.items():
            r = bisect_right(starts, k) - 1
            if r < dim:
                b = r + k - starts[r]
                sym[r, b] = dim * x
                if b == r:
                    trace += x
            else:
                a = r - dim
                anti[a, a + 1 + k - starts[r]] = dim * x
        for a in range(dim) if trace else ():
            y = sym.pop((a, a), 0) - trace
            if y:
                sym[a, a] = y
        if sym or anti:
            return HermitianMatrix(dim, dim * den, tuple(sorted(sym.items())), tuple(sorted(anti.items())))
    return None


def verdict(sset: StateSet, t: int) -> TrivialityVerdict:
    """Trivial iff the only solutions are scalar multiples of the identity.

    On Nontrivial, the witness is a nullspace element with its identity
    component projected out: an exact Hermitian matrix satisfying every
    constraint and independent of the identity.
    """
    system = _assemble(sset, t)
    nullity, witness = 0, None
    for free, pivots, den in _blocks(system):
        nullity += len(free)
        if witness is None:
            witness = _witness(pivots, den, free, system.dim)
    if nullity == 1:
        if witness is not None:
            raise InvariantError(f"party {t}: the one-dimensional nullspace is not the identity's span")
        return TrivialityVerdict(t, STATUS_TRIVIAL, 1, None)
    if witness is None or witness.is_identity_multiple():
        raise InvariantError(f"party {t}: nullspace of dimension {nullity} yields no witness")
    return TrivialityVerdict(t, STATUS_NONTRIVIAL, nullity, witness)


def verify_all(sset: StateSet, cert: Certificate | None = None) -> list[TrivialityVerdict]:
    """One verdict per party; the set is certified nonlocal iff all Trivial.

    Given the set's rule-engine certificate, `check_certificate` replays it
    first (raising InvariantError if it does not follow); a party it proves
    Trivial has nullspace span(I), so it is neither assembled nor eliminated.
    """
    proven: set[int] = set()
    if cert is not None:
        check_certificate(sset, cert)
        proven = {c.party for c in cert.conclusions if c.trivial}
    return [
        TrivialityVerdict(t, STATUS_TRIVIAL, 1, None) if t in proven else verdict(sset, t)
        for t in range(sset.shape.n)
    ]


def certified_nonlocal(verdicts) -> bool:
    return all(v.trivial for v in verdicts)
