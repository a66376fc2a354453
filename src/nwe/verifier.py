"""Exact decision oracle for triviality of orthogonality-preserving measurements.

The unknown measurement element on party t is a complex Hermitian d x d
matrix E = S + iA with S real symmetric and A real antisymmetric. Its real
degrees of freedom are laid out as d(d+1)/2 symmetric coordinates S[a,b]
(a <= b) followed by d(d-1)/2 antisymmetric coordinates A[a,b] (a < b).

The set's pair table (`StateSet.pair_table`) sorts every pair once; the
pairs whose sole zero factor is party t are the ones that constrain E. Each
gives u^T S v = 0 on the S block and u^T A v = 0 on the A block (u and v
real), kept as sparse rows. The blocks share no coordinate, so they are
eliminated apart. The identity satisfies every row, so rank_S is at most
d(d+1)/2 - 1, and the measurement is forced trivial iff rank_S reaches that
and rank_A = d(d-1)/2.

Each block is first eliminated modulo the prime p = 2^61 - 1, stopping once
the full rank is reached. Rank modulo p never exceeds rank over the
rationals, so full rank modulo p on both blocks proves Trivial exactly. A
block short of full rank modulo p is eliminated again over exact rationals
to reduced row echelon form, which gives the nullspace dimension and, on a
Nontrivial verdict, the witness: the first nullspace basis vector, in
column order, that is not a multiple of the identity, with its identity
component projected out.

A Nontrivial verdict means a nontrivial orthogonality-preserving first
measurement exists on that party; it does not by itself prove that the set
is LOCC-distinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .states import NonOrthogonalSetError, StateSet

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
    """Integer constraint rows over the d*d real unknowns of one party."""

    party: int
    dim: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def num_unknowns(self) -> int:
        return self.dim * self.dim


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
    real = [[Fraction(0)] * dim for _ in range(dim)]
    imag = [[Fraction(0)] * dim for _ in range(dim)]
    for a in range(dim):
        real[a][a] = Fraction(vec[sym_index(dim, a, a)])
        for b in range(a + 1, dim):
            s = Fraction(vec[sym_index(dim, a, b)])
            w = Fraction(vec[anti_index(dim, a, b)])
            real[a][b] = real[b][a] = s
            imag[a][b] = w
            imag[b][a] = -w
    return HermitianMatrix(tuple(map(tuple, real)), tuple(map(tuple, imag)))


def matrix_to_coords(mat: HermitianMatrix) -> tuple[Fraction, ...]:
    dim = mat.dim
    vec = [Fraction(0)] * (dim * dim)
    for a in range(dim):
        vec[sym_index(dim, a, a)] = mat.real[a][a]
        for b in range(a + 1, dim):
            vec[sym_index(dim, a, b)] = mat.real[a][b]
            vec[anti_index(dim, a, b)] = mat.imag[a][b]
    return tuple(vec)


class InvariantError(RuntimeError):
    """An internal invariant of the oracle failed, so no verdict can be trusted."""


MODULUS = 2**61 - 1  # a prime


def _pair_rows(u: tuple[int, ...], v: tuple[int, ...], dim: int) -> tuple[dict, dict]:
    """The S-block and A-block rows of u^T E v = 0, as {coordinate: coefficient}."""
    srow: dict[int, int] = {}
    arow: dict[int, int] = {}
    trace = 0
    for a, ua in enumerate(u):
        if not ua:
            continue
        for b, vb in enumerate(v):
            if not vb:
                continue
            w = ua * vb
            lo, hi = min(a, b), max(a, b)
            k = sym_index(dim, lo, hi)
            srow[k] = srow.get(k, 0) + w
            if a == b:
                trace += w
            else:
                k = anti_index(dim, lo, hi)
                arow[k] = arow.get(k, 0) + (w if a < b else -w)
    # the diagonal coefficients sum to u.v, which vanishes because party t
    # is the pair's zero factor; so the identity satisfies every row
    if trace:
        raise InvariantError(f"the row of {u} and {v} does not annihilate the identity")
    return {k: x for k, x in srow.items() if x}, {k: x for k, x in arow.items() if x}


def _constraint_rows(sset: StateSet, t: int) -> list[tuple[dict, dict]]:
    """(S-block row, A-block row) of each pair in party t's bucket, in table order."""
    if not 0 <= t < sset.shape.n:
        raise IndexError(f"party {t} out of range for {sset.shape.n} parties")
    table = sset.pair_table
    if table.violations:
        raise NonOrthogonalSetError(list(table.violations))
    dim = sset.shape.dims[t]
    states = sset.states
    return [
        _pair_rows(states[i].locals[t].coeffs, states[j].locals[t].coeffs, dim)
        for i, j in table.buckets[t]
    ]


def assemble(sset: StateSet, t: int) -> MeasurementConstraintSystem:
    """Constraint system for party t of a pairwise orthogonal set, as dense rows.

    Each constraining pair contributes its S-block row, then its A-block
    row; a row with no nonzero coefficient is left out.
    """
    pair_rows = _constraint_rows(sset, t)
    dim = sset.shape.dims[t]
    rows = []
    for pair in pair_rows:
        for row in pair:
            if row:
                dense = [0] * (dim * dim)
                for k, x in row.items():
                    dense[k] = x
                rows.append(tuple(dense))
    return MeasurementConstraintSystem(t, dim, tuple(rows))


def _subtract(row: dict, f, other: dict, modulus: int | None) -> None:
    """row -= f * other in place, dropping the entries that become zero."""
    for k, x in other.items():
        y = row.get(k, 0) - f * x
        if modulus:
            y %= modulus
        if y:
            row[k] = y
        else:
            del row[k]


def _gauss_jordan(rows, target: int | None = None, modulus: int | None = None) -> dict[int, dict]:
    """Reduced row echelon form of sparse rows, pivoting on the first nonzero column.

    Returns {pivot column: the rest of its row}: each pivot entry is 1 and
    left out, and no row has an entry in another row's pivot column, so the
    result is the unique RREF of the rows' span. Works over the rationals,
    or over the integers modulo the prime `modulus` when it is given. Stops
    once `target` pivots are found.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        if len(pivots) == target:
            break
        r = dict(row)
        for c in [c for c in r if c in pivots]:
            _subtract(r, r.pop(c), pivots[c], modulus)
        if not r:
            continue
        pc = min(r)
        lead = r.pop(pc)
        if modulus:
            inv = pow(lead, -1, modulus)
            tail = {k: x * inv % modulus for k, x in r.items()}
        else:
            inv = 1 / Fraction(lead)
            tail = {k: x * inv for k, x in r.items()}
        for other in pivots.values():
            f = other.pop(pc, 0)
            if f:
                _subtract(other, f, tail, modulus)
        pivots[pc] = tail
    return pivots


def _basis(pivots: dict[int, dict], columns, size: int):
    """Nullspace vectors of an RREF, one per free column of `columns`, ascending."""
    for free in columns:
        if free in pivots:
            continue
        vec = [Fraction(0)] * size
        vec[free] = Fraction(1)
        for p, tail in pivots.items():
            if free in tail:
                vec[p] = -tail[free]
        yield tuple(vec)


def _sparse(rows) -> list[dict[int, int]]:
    return [{k: x for k, x in enumerate(row) if x} for row in rows]


def rank(system: MeasurementConstraintSystem) -> int:
    return len(_gauss_jordan(_sparse(system.rows)))


def nullspace(system: MeasurementConstraintSystem) -> list[tuple[Fraction, ...]]:
    """Exact-rational basis of the solution space, deterministic order."""
    ncols = system.num_unknowns
    pivots = _gauss_jordan(_sparse(system.rows))
    basis = list(_basis(pivots, range(ncols), ncols))
    if len(basis) != ncols - len(pivots):
        raise InvariantError(f"{len(basis)} basis vectors for {ncols} unknowns and rank {len(pivots)}")
    return basis


def _verdict_from_rows(t: int, dim: int, pair_rows) -> TrivialityVerdict:
    nsym = dim * (dim + 1) // 2
    size = dim * dim
    ident = identity_coords(dim)
    blocks = (
        ([s for s, _ in pair_rows if s], range(nsym), nsym - 1),
        ([a for _, a in pair_rows if a], range(nsym, size), size - nsym),
    )
    nullity = 0
    witness = None
    for rows, columns, full in blocks:
        residues = [{k: x % MODULUS for k, x in row.items() if x % MODULUS} for row in rows]
        if len(_gauss_jordan(residues, full, MODULUS)) == full:
            # rank mod p <= rank over Q <= full: the block is proven full
            nullity += len(columns) - full
            continue
        pivots = _gauss_jordan(rows, full)
        nullity += len(columns) - len(pivots)
        if witness is not None:
            continue
        for vec in _basis(pivots, columns, size):
            coef = Fraction(sum(vec[sym_index(dim, a, a)] for a in range(dim)), dim)
            residual = tuple(x - coef * e for x, e in zip(vec, ident))
            if any(residual):
                witness = coords_to_matrix(residual, dim)
                break
    if nullity == 1:
        if witness is not None:
            raise InvariantError(f"party {t}: the one-dimensional nullspace is not the identity's span")
        return TrivialityVerdict(t, STATUS_TRIVIAL, 1, None)
    if witness is None or witness.is_identity_multiple():
        raise InvariantError(f"party {t}: nullspace of dimension {nullity} yields no witness")
    return TrivialityVerdict(t, STATUS_NONTRIVIAL, nullity, witness)


def verdict(sset: StateSet, t: int) -> TrivialityVerdict:
    """Trivial iff the only solutions are scalar multiples of the identity.

    On Nontrivial, the witness is a nullspace element with its identity
    component projected out: an exact Hermitian matrix satisfying every
    constraint and independent of the identity.
    """
    pair_rows = _constraint_rows(sset, t)
    return _verdict_from_rows(t, sset.shape.dims[t], pair_rows)


def verify_all(sset: StateSet) -> list[TrivialityVerdict]:
    """One verdict per party; the set is certified nonlocal iff all Trivial."""
    return [verdict(sset, t) for t in range(sset.shape.n)]


def certified_nonlocal(verdicts) -> bool:
    return all(v.trivial for v in verdicts)
