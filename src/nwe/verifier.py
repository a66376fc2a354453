"""Exact decision oracle for triviality of orthogonality-preserving measurements.

The unknown measurement element on party t is a complex Hermitian d x d
matrix E = S + iA with S real symmetric and A real antisymmetric. Its real
degrees of freedom are laid out as d(d+1)/2 symmetric coordinates S[a,b]
(a <= b) followed by d(d-1)/2 antisymmetric coordinates A[a,b] (a < b).

The set's pair table (`StateSet.pair_table`) sorts every pair once; the
pairs whose sole zero factor is party t are the ones that constrain E. Each
gives u^T S v = 0 on the S block and u^T A v = 0 on the A block (u and v
real). `assemble` is the only builder of these rows: it returns them sparse,
one tuple per block. The blocks share no coordinate, so they are eliminated
apart, the S block first, by one loop that `verdict`, `rank` and `nullspace`
all read. The identity satisfies every row, so rank_S is at most
d(d+1)/2 - 1, and the measurement is forced trivial iff rank_S reaches that
and rank_A = d(d-1)/2.

Each block is first peeled on its integer rows, as in the paper's Lemma 1:
a row with one nonzero entry forces that coordinate to zero, so the column
is deleted from every other row, and this repeats until no row has one
entry (at most three passes on the built-in families). A pair of basis kets
gives such a row, so most rows of a family are peeled and only the rest,
the core, is eliminated. This is exact: each zeroed coordinate's unit
vector e_c lies in the row space, so the block's unique RREF has e_c as the
row of pivot c, and every row the peel consumed lies in the span of the
e_c. The block's RREF is therefore the core's plus one pivot with an empty
tail per zeroed column, and its rank is the core's plus their number. A
diagonal coordinate of S is never zeroed, since the identity satisfies
every row; if one is, InvariantError is raised.

The core is eliminated modulo a prime p, stopping once the full rank (less
the zeroed columns) is reached. Rank modulo p never exceeds rank over the
rationals, so full rank modulo p on both blocks proves Trivial exactly.

A core short of full rank modulo p has its reduced row echelon form (RREF)
modulo p lifted to the rationals: each entry is rebuilt by rational
reconstruction, with numerator and denominator at most sqrt(p/2), and the
result is kept only if an exact integer check shows that every core row
lies in the span of the lifted rows. That span check gives
rank_Q <= rank_p, so the two ranks are equal and the lifted rows span the
core's rational span; being in reduced form, they are its unique rational
RREF. The check is sound for any prime; an unlucky or too small prime only
makes it fail. There is one path: the core is tried modulo the Mersenne
primes 2^61 - 1, 2^127 - 1, 2^521 - 1, ... in turn, until it reaches full
rank or its lift passes the check. A prime above twice the square of the
core's Hadamard bound always lifts; if no listed prime does, InvariantError
is raised.

The RREF gives the nullspace dimension and a basis: one sparse vector per
free column, read off the RREF's entries in that column. Every S column
comes before every A column, so the two blocks' vectors, in column order,
are the basis the RREF over all d*d unknowns would give; an S block at full
rank contributes the identity. `nullspace` returns these vectors densely;
on a Nontrivial verdict the witness is the first of them, in column order,
that is not a multiple of the identity, with its identity component
projected out.

A Nontrivial verdict means a nontrivial orthogonality-preserving first
measurement exists on that party; it does not by itself prove that the set
is LOCC-distinguishable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .inference import Certificate, check_certificate
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


def identity_coords(dim: int) -> tuple[int, ...]:
    coords = [0] * (dim * dim)
    for a in range(dim):
        coords[sym_index(dim, a, a)] = 1
    return tuple(coords)


@dataclass(frozen=True)
class MeasurementConstraintSystem:
    """Sparse integer constraint rows over the d*d real unknowns of one party.

    `sym` holds the S-block rows and `anti` the A-block rows, each row as
    {coordinate: nonzero coefficient}. Every S row must annihilate the
    identity (its diagonal coefficients sum to zero): `rank` and `nullspace`
    take the S block's rank to be at most d(d+1)/2 - 1. `assemble` checks
    this as it builds each row.
    """

    party: int
    dim: int
    sym: tuple[dict[int, int], ...]
    anti: tuple[dict[int, int], ...]

    @property
    def num_unknowns(self) -> int:
        return self.dim * self.dim

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Dense view of the rows, S rows first, then A rows."""
        return tuple(tuple(row.get(k, 0) for k in range(self.num_unknowns)) for row in self.sym + self.anti)


@dataclass(frozen=True)
class HermitianMatrix:
    """Exact-rational Hermitian matrix, stored as real and imaginary parts."""

    real: tuple[tuple[Fraction, ...], ...]
    imag: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.real)

    def is_identity_multiple(self) -> bool:
        d = self.dim
        lead = self.real[0][0]
        for a in range(d):
            for b in range(d):
                if self.imag[a][b] != 0:
                    return False
                if a == b:
                    if self.real[a][a] != lead:
                        return False
                elif self.real[a][b] != 0:
                    return False
        return True

    def entry_strings(self) -> list[list[str]]:
        """Entries as exact fraction strings, e.g. "1/2" or "0+1/3i"."""
        out = []
        for a in range(self.dim):
            row = []
            for b in range(self.dim):
                re, im = self.real[a][b], self.imag[a][b]
                if im == 0:
                    row.append(str(re))
                else:
                    sign = "+" if im > 0 else "-"
                    row.append(f"{re}{sign}{abs(im)}i")
            out.append(row)
        return out


@dataclass(frozen=True)
class TrivialityVerdict:
    party: int
    status: str
    nullspace_dim: int
    witness: HermitianMatrix | None

    @property
    def trivial(self) -> bool:
        return self.status == STATUS_TRIVIAL


def coords_to_matrix(vec, dim: int) -> HermitianMatrix:
    """Reassemble a coordinate vector into the Hermitian matrix it encodes."""
    return _sparse_matrix({k: Fraction(x) for k, x in enumerate(vec) if x}, dim)


def matrix_to_coords(mat: HermitianMatrix) -> tuple[Fraction, ...]:
    dim = mat.dim
    vec = [Fraction(0)] * (dim * dim)
    for a in range(dim):
        vec[sym_index(dim, a, a)] = mat.real[a][a]
        for b in range(a + 1, dim):
            vec[sym_index(dim, a, b)] = mat.real[a][b]
            vec[anti_index(dim, a, b)] = mat.imag[a][b]
    return tuple(vec)


# exponents e of Mersenne primes 2^e - 1, each at least about twice the last
MERSENNE_EXPONENTS = (61, 127, 521, 1279, 2281, 4423, 9941, 19937, 44497, 86243, 216091)
MODULUS = 2 ** MERSENNE_EXPONENTS[0] - 1


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
    srow: dict[int, int] = {}
    arow: dict[int, int] = {}
    trace = 0
    sym, anti = _coordinate_tables(dim)
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
    row and its A-block row; a row with no nonzero coefficient is left out.
    """
    if not 0 <= t < sset.shape.n:
        raise IndexError(f"party {t} out of range for {sset.shape.n} parties")
    table = sset.pair_table
    if table.violations:
        raise NonOrthogonalSetError(list(table.violations))
    dim = sset.shape.dims[t]
    _, ids, supports = sset.vector_index[t]
    sym, anti = [], []
    for i, j in table.buckets[t]:
        srow, arow = _pair_rows(supports[ids[i]], supports[ids[j]], dim)
        if srow:
            sym.append(srow)
        if arow:
            anti.append(arow)
    return MeasurementConstraintSystem(t, dim, tuple(sym), tuple(anti))


# `verdict` reads the builder under this name, so that replacing or deleting
# the public `assemble` (as a tracer may) leaves the verify path unchanged
_assemble = assemble


def _subtract(row: dict, f, other: dict, modulus: int) -> None:
    """row -= f * other modulo `modulus` in place, dropping the entries that become zero."""
    for k, x in other.items():
        y = (row.get(k, 0) - f * x) % modulus
        if y:
            row[k] = y
        else:
            del row[k]


def _gauss_jordan(rows, modulus: int, target: int | None = None) -> dict[int, dict]:
    """Reduced row echelon form of sparse integer rows modulo the prime
    `modulus`, pivoting on the first nonzero column.

    Returns {pivot column: the rest of its row}: each pivot entry is 1 and
    left out, and no row has an entry in another row's pivot column, so the
    result is the unique RREF of the rows' span modulo `modulus`. Stops once
    `target` pivots are found.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        if len(pivots) == target:
            break
        r = {k: x % modulus for k, x in row.items() if x % modulus}
        for c in [c for c in r if c in pivots]:
            _subtract(r, r.pop(c), pivots[c], modulus)
        if not r:
            continue
        pc = min(r)
        inv = pow(r.pop(pc), -1, modulus)
        tail = {k: x * inv % modulus for k, x in r.items()}
        for other in pivots.values():
            f = other.pop(pc, 0)
            if f:
                _subtract(other, f, tail, modulus)
        pivots[pc] = tail
    return pivots


def _peel(rows, keep=frozenset()) -> tuple[set[int], list[dict]]:
    """The columns that one-entry rows force to zero, and the other rows with
    those columns deleted (the core), repeated until no row has one entry.

    A row with one nonzero entry says that coordinate is zero. The peel
    runs on the integer rows, so it is exact and no prime is involved. Each
    zeroed column e_c is in the row space, and every row the peel consumed
    is in the span of the e_c, so the rational RREF of the rows is the
    core's plus one empty-tailed pivot per zeroed column; only the core goes
    on to the modular elimination. A zeroed column in `keep` raises
    InvariantError.
    """
    zeroed: set[int] = set()
    core = list(rows)
    while True:
        new = {k for row in core if len(row) == 1 for k in row}
        if not new:
            return zeroed, core
        if not new.isdisjoint(keep):
            raise InvariantError(f"a constraint row forces coordinate {min(new & keep)} to zero")
        zeroed |= new
        core = [row if new.isdisjoint(row) else {k: x for k, x in row.items() if k not in new} for row in core]
        core = [row for row in core if row]


LIFT_BOUND = math.isqrt(MODULUS // 2)


def reconstruct(x: int, modulus: int = MODULUS) -> tuple[int, int] | None:
    """(n, d) with n = x*d mod p, gcd(n, d) = 1, |n| <= B and 0 < d <= B
    for B = isqrt(p // 2) (LIFT_BOUND at the default prime), or None if no
    such fraction exists.

    Two such fractions n/d and n'/d' would give p | nd' - n'd, whose size
    is below 2 * B^2 < p, so the fraction is unique.
    """
    bound = math.isqrt(modulus // 2)
    r0, r1 = modulus, x % modulus
    s0, s1 = 0, 1
    # invariant: r = s * x (mod p) for both (r0, s0) and (r1, s1)
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if not 0 < abs(s1) <= bound or math.gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _lift(rows, pivots: dict[int, dict], modulus: int) -> tuple[dict[int, dict], int] | None:
    """The rational RREF whose residues modulo `modulus` are `pivots`, as
    integer tails over one common denominator, or None if an entry does not
    reconstruct or some row of `rows` is not in the span of the lifted rows.
    """
    lifted = {pc: {k: reconstruct(x, modulus) for k, x in tail.items()} for pc, tail in pivots.items()}
    if any(None in tail.values() for tail in lifted.values()):
        return None
    den = math.lcm(*(d for tail in lifted.values() for _, d in tail.values()))
    tails = {pc: {k: n * (den // d) for k, (n, d) in tail.items()} for pc, tail in lifted.items()}
    for row in rows:
        # the row is in the span iff den * row is the sum, over its pivot
        # columns pc, of row[pc] * (den at pc plus tails[pc]); that sum has
        # den * row[pc] at each pivot column, so only the others are compared
        rest = {k: den * x for k, x in row.items() if k not in tails}
        for pc, c in row.items():
            tail = tails.get(pc)
            if tail:
                for k, x in tail.items():
                    rest[k] = rest.get(k, 0) - c * x
        if any(rest.values()):
            return None
    return tails, den


def _eliminate(rows, full: int, keep=frozenset()) -> tuple[dict[int, dict], int] | None:
    """The exact RREF of integer rows whose rational rank is at most `full`,
    as integer tails over one common denominator, or None if the rank is
    proven to be `full`.

    The rows are peeled first. The core is then eliminated modulo each
    Mersenne prime 2^e - 1 of MERSENNE_EXPONENTS in turn, until it reaches
    full rank (less the zeroed columns) or its RREF lifts and passes the span
    check. Every RREF entry is a ratio of two minors of the core, both at
    most its Hadamard bound H, and no nonzero minor vanishes modulo a prime
    above H; so a prime above 2H^2 always lifts. If none of the primes does,
    InvariantError is raised.
    """
    zeroed, core = _peel(rows, keep)
    target = full - len(zeroed)
    for exponent in MERSENNE_EXPONENTS:
        modulus = 2**exponent - 1
        pivots = _gauss_jordan(core, modulus, target)
        if len(pivots) == target:
            # rank mod p <= rank over Q <= full
            return None
        lifted = _lift(core, pivots, modulus)
        if lifted is not None:
            pivots, den = lifted
            pivots.update((c, {}) for c in zeroed)
            return pivots, den
    raise InvariantError(f"no Mersenne prime up to 2^{MERSENNE_EXPONENTS[-1]} - 1 lifts a core of {len(core)} rows")


def _free_vectors(pivots: dict[int, dict], den: int, columns):
    """The nullspace basis of an RREF whose tail entries are fractions over
    `den`: for each free column of `columns`, ascending, the vector with a 1
    there, as {coordinate: nonzero Fraction}."""
    by_column: dict[int, list] = {}
    for pc, tail in pivots.items():
        for k, x in tail.items():
            by_column.setdefault(k, []).append((pc, x))
    for free in columns:
        if free not in pivots:
            vec = {free: Fraction(1)}
            for pc, x in by_column.get(free, ()):
                vec[pc] = Fraction(-x, den)
            yield vec


def _blocks(system: MeasurementConstraintSystem):
    """For the S block, then the A block: its columns, its nullspace
    dimension, and its exact RREF from `_eliminate` (None at full rank)."""
    dim = system.dim
    nsym = dim * (dim + 1) // 2
    size = dim * dim
    # the identity satisfies every S row, so no row may zero a diagonal coordinate
    diagonal = frozenset(sym_index(dim, a, a) for a in range(dim))
    for rows, columns, full in ((system.sym, range(nsym), nsym - 1), (system.anti, range(nsym, size), size - nsym)):
        reduced = _eliminate(rows, full, diagonal)
        yield columns, len(columns) - (full if reduced is None else len(reduced[0])), reduced


def rank(system: MeasurementConstraintSystem) -> int:
    return system.num_unknowns - sum(nullity for _, nullity, _ in _blocks(system))


def nullspace(system: MeasurementConstraintSystem) -> list[tuple[Fraction, ...]]:
    """Exact-rational basis of the solution space, deterministic order: one
    vector per free column, ascending, as the RREF over all d*d unknowns
    gives it. An S block at full rank contributes the identity."""
    size = system.num_unknowns
    basis = []
    nullity = 0
    for columns, block_nullity, reduced in _blocks(system):
        nullity += block_nullity
        if reduced is None:
            if block_nullity:
                basis.append(tuple(map(Fraction, identity_coords(system.dim))))
            continue
        for sparse in _free_vectors(*reduced, columns):
            vec = [Fraction(0)] * size
            for k, x in sparse.items():
                vec[k] = x
            basis.append(tuple(vec))
    if len(basis) != nullity:
        raise InvariantError(f"{len(basis)} basis vectors for {size} unknowns and rank {size - nullity}")
    return basis


def _witness(pivots: dict[int, dict], den: int, columns, dim: int) -> HermitianMatrix | None:
    """The first nullspace basis vector of an RREF, over its free columns in
    ascending order, with a nonzero part off the identity: that part, as a
    matrix. Tail entries are read as fractions over `den`."""
    diagonal = [sym_index(dim, a, a) for a in range(dim)]
    for vec in _free_vectors(pivots, den, columns):
        coef = sum(vec.get(k, 0) for k in diagonal) / Fraction(dim)
        if coef:
            for k in diagonal:
                vec[k] = vec.get(k, 0) - coef
        residual = {k: x for k, x in vec.items() if x}
        if residual:
            return _sparse_matrix(residual, dim)
    return None


def _sparse_matrix(coords: dict[int, Fraction], dim: int) -> HermitianMatrix:
    """The Hermitian matrix of a sparse coordinate vector; absent entries are 0."""
    zero = Fraction(0)
    real = [[zero] * dim for _ in range(dim)]
    imag = [[zero] * dim for _ in range(dim)]
    nsym = dim * (dim + 1) // 2
    places = [(a, b) for a in range(dim) for b in range(a, dim)]
    places += [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    for k, x in coords.items():
        a, b = places[k]
        if k < nsym:
            real[a][b] = real[b][a] = x
        else:
            imag[a][b] = x
            imag[b][a] = -x
    return HermitianMatrix(tuple(map(tuple, real)), tuple(map(tuple, imag)))


def verdict(sset: StateSet, t: int) -> TrivialityVerdict:
    """Trivial iff the only solutions are scalar multiples of the identity.

    On Nontrivial, the witness is a nullspace element with its identity
    component projected out: an exact Hermitian matrix satisfying every
    constraint and independent of the identity.
    """
    system = _assemble(sset, t)
    nullity, witness = 0, None
    for columns, block_nullity, reduced in _blocks(system):
        nullity += block_nullity
        if reduced is not None and witness is None:
            witness = _witness(*reduced, columns, system.dim)
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
