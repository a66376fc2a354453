"""Independent brute-force oracles, small fixture sets, seeded basis rotations
and the state-by-state document loader the library's loader is checked against.

Everything here recomputes from first principles (full tensor expansion,
exact complex-rational arithmetic, a term list per constraint) without going
through the library's factorized predicates, so it can serve as the second
route in dual checks.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

from nwe import DocumentError, StateSet
from nwe.inference import (
    RULE_LEMMA1,
    RULE_LEMMA2,
    RULE_UNIT_PROPAGATION,
    Certificate,
    DiagonalEqualFact,
    PartyConclusion,
    ZeroEntryFact,
)
from nwe.states import (
    DimensionError,
    LocalVector,
    NonOrthogonalSetError,
    PairTable,
    ProductState,
    SystemShape,
    basis_ket,
    find_stopper,
)
from nwe.serialize import FORMAT_VERSION
from nwe.verifier import HermitianMatrix


def sym_index(dim: int, a: int, b: int) -> int:
    """Coordinate of S[a,b], a <= b, within [0, d(d+1)/2): the closed form
    `inference.coordinate_map` is checked against."""
    if not 0 <= a <= b < dim:
        raise IndexError(f"bad symmetric coordinate ({a},{b}) for dimension {dim}")
    return a * dim - a * (a - 1) // 2 + (b - a)


def anti_index(dim: int, a: int, b: int) -> int:
    """Coordinate of A[a,b], a < b, within [d(d+1)/2, d*d): the closed form
    `inference.coordinate_map` is checked against."""
    if not 0 <= a < b < dim:
        raise IndexError(f"bad antisymmetric coordinate ({a},{b}) for dimension {dim}")
    return dim * (dim + 1) // 2 + a * (dim - 1) - a * (a - 1) // 2 + (b - a - 1)


def coords_to_matrix(vec, dim: int) -> HermitianMatrix:
    """The Hermitian matrix a coordinate vector encodes: S[a,b] = vec[sym_index]
    in the real part, A[a,b] = vec[anti_index] above the imaginary diagonal
    and -A[a,b] below it; stored over the least common denominator of the
    entries, with only the nonzero ones, in row order."""
    vec = [Fraction(x) for x in vec]
    den = math.lcm(*(x.denominator for x in vec))
    sym, anti = {}, {}
    for a in range(dim):
        for b in range(a, dim):
            if vec[sym_index(dim, a, b)]:
                sym[a, b] = int(vec[sym_index(dim, a, b)] * den)
        for b in range(a + 1, dim):
            if vec[anti_index(dim, a, b)]:
                anti[a, b] = int(vec[anti_index(dim, a, b)] * den)
    return HermitianMatrix(dim, den, tuple(sym.items()), tuple(anti.items()))


def dense_entry_strings(vec, dim: int) -> list[list[str]]:
    """The entry strings of the matrix a coordinate vector encodes, from its
    dense real part re and imaginary part im at each [a][b]: str(re), or
    f"{re}+{im}i" / f"{re}-{-im}i" where im is not 0."""
    out = []
    for a in range(dim):
        row = []
        for b in range(dim):
            lo, hi = min(a, b), max(a, b)
            re = Fraction(vec[sym_index(dim, lo, hi)])
            im = Fraction(0) if a == b else Fraction(vec[anti_index(dim, lo, hi)]) * (1 if a < b else -1)
            row.append(str(re) if not im else f"{re}+{im}i" if im > 0 else f"{re}-{-im}i")
        out.append(row)
    return out


def dense_is_identity_multiple(vec, dim: int) -> bool:
    """Whether a coordinate vector is a multiple of the identity's, entry by entry."""
    diagonal = {sym_index(dim, a, a) for a in range(dim)}
    return len({vec[k] for k in diagonal}) == 1 and not any(x for k, x in enumerate(vec) if k not in diagonal)


def identity_coords(dim: int) -> tuple[int, ...]:
    """The coordinate vector of the d x d identity."""
    coords = [0] * (dim * dim)
    for a in range(dim):
        coords[sym_index(dim, a, a)] = 1
    return tuple(coords)


def dense_parts(mat: HermitianMatrix) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """The dense real part S / den and imaginary part A / den of a Hermitian
    matrix: (real, imag), each a d x d tuple of rows of Fractions."""
    parts = []
    for entries, sign in ((mat.sym, 1), (mat.anti, -1)):
        out = [[Fraction(0)] * mat.dim for _ in range(mat.dim)]
        for (a, b), x in entries:
            out[a][b] = Fraction(x, mat.den)
            out[b][a] = sign * out[a][b]
        parts.append(tuple(map(tuple, out)))
    return tuple(parts)


def matrix_to_coords(mat: HermitianMatrix) -> tuple[Fraction, ...]:
    dim = mat.dim
    real, imag = dense_parts(mat)
    vec = [Fraction(0)] * (dim * dim)
    for a in range(dim):
        vec[sym_index(dim, a, a)] = real[a][a]
        for b in range(a + 1, dim):
            vec[sym_index(dim, a, b)] = real[a][b]
            vec[anti_index(dim, a, b)] = imag[a][b]
    return tuple(vec)


def scaled_vector(lv: LocalVector, factor: int) -> LocalVector:
    if factor == 0:
        raise DimensionError("scaling factor must be nonzero")
    return LocalVector(tuple(factor * c for c in lv.coeffs))


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


def expand(state: ProductState) -> list[int]:
    """Full tensor of a product state as a dense integer vector of length prod(dims)."""
    vec = [1]
    for lv in state.locals:
        vec = [x * c for x in vec for c in lv.coeffs]
    return vec


def brute_force_inner(a: ProductState, b: ProductState) -> int:
    return sum(x * y for x, y in zip(expand(a), expand(b)))


# exact complex numbers as (real Fraction, imag Fraction) pairs
CZERO = (Fraction(0), Fraction(0))


def cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def embedded_operator(matrix, shape: SystemShape, t: int):
    """Kronecker product I x ... x E_t x ... x I as a dense complex matrix."""
    total = math.prod(shape.dims)
    dims = shape.dims
    after = 1
    for d in dims[t + 1 :]:
        after *= d
    dt = dims[t]
    block = dims[t] * after
    real, imag = dense_parts(matrix)
    op = [[CZERO] * total for _ in range(total)]
    for p in range(total):
        pre, rem = divmod(p, block)
        pt, post = divmod(rem, after)
        for qt in range(dt):
            q = pre * block + qt * after + post
            op[p][q] = (real[pt][qt], imag[pt][qt])
    return op


def measured_overlap(a: ProductState, b: ProductState, matrix, t: int):
    """<a| (I x ... x E_t x ... x I) |b> via the fully expanded tensors."""
    op = embedded_operator(matrix, a.shape, t)
    va, vb = expand(a), expand(b)
    acc = CZERO
    for p, ap in enumerate(va):
        if not ap:
            continue
        for q, bq in enumerate(vb):
            if not bq:
                continue
            acc = cadd(acc, cmul((Fraction(ap * bq), Fraction(0)), op[p][q]))
    return acc


def reference_pair_table(sset: StateSet) -> PairTable:
    """The pair table by the direct triple loop: one dense inner product per
    pair and party, with no index of distinct vectors."""
    n = sset.shape.n
    columns = [[s.locals[t].coeffs for s in sset.states] for t in range(n)]
    violations = []
    buckets = [[] for _ in range(n)]
    count = len(sset.states)
    for i in range(count):
        for j in range(i + 1, count):
            zeros = [t for t, col in enumerate(columns) if not sum(a * b for a, b in zip(col[i], col[j]))]
            if not zeros:
                violations.append((i, j))
            elif len(zeros) == 1:
                buckets[zeros[0]].append((i, j))
    return PairTable(tuple(violations), tuple(map(tuple, buckets)))


def _two_support_signed(support) -> tuple[int, int, int] | None:
    """(positive index, negative index, magnitude) if the (index, coefficient)
    support is {a: c, b: -c}."""
    if len(support) != 2:
        return None
    (a, ca), (b, cb) = support
    if ca + cb != 0:
        return None
    return (a, b, ca) if ca > 0 else (b, a, cb)


def _reference_conclusion(t: int, dim: int, known, equal) -> PartyConclusion:
    missing = tuple((a, b) for a in range(dim) for b in range(a + 1, dim) if (a, b) not in known)
    label = list(range(dim))
    for a, b in equal:
        lo, hi = sorted((label[a], label[b]))
        label = [lo if x == hi else x for x in label]
    classes: dict[int, list[int]] = {}
    for a, c in enumerate(label):
        classes.setdefault(c, []).append(a)
    return PartyConclusion(t, not missing and len(classes) == 1, missing, tuple(map(tuple, classes.values())))


def reference_certificate(sset: StateSet) -> Certificate:
    """The rule engine written straight from the rules: every bucket pair's
    full term list, Lemma1 on the one-term lists, unit propagation sweeping
    every list with no diagonal term until a sweep adds nothing, then Lemma2
    against the stopper, and a scan of every entry for the conclusion."""
    table = sset.pair_table
    if table.violations:
        raise NonOrthogonalSetError(list(table.violations))
    stopper_idx = find_stopper(sset)
    facts = []
    conclusions = []
    for t in range(sset.shape.n):
        dim = sset.shape.dims[t]
        known: set[tuple[int, int]] = set()
        _, ids, supports, _ = sset.vector_index[t]
        support = [supports[v] for v in ids]
        constraints = [(i, j, [(a, b) for a, _ in support[i] for b, _ in support[j]]) for i, j in table.buckets[t]]
        for i, j, terms in constraints:
            if len(terms) == 1:
                a, b = terms[0]
                key = (min(a, b), max(a, b))
                if a != b and key not in known:
                    known.add(key)
                    facts.append(ZeroEntryFact(t, a, b, (i, j), RULE_LEMMA1))
        offdiag = [con for con in constraints if all(a != b for a, b in con[2])]
        changed = True
        while changed:
            changed = False
            for i, j, terms in offdiag:
                live = [(a, b) for a, b in terms if (min(a, b), max(a, b)) not in known]
                if len(live) == 1:
                    a, b = live[0]
                    known.add((min(a, b), max(a, b)))
                    facts.append(ZeroEntryFact(t, a, b, (i, j), RULE_UNIT_PROPAGATION))
                    changed = True
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
        conclusions.append(_reference_conclusion(t, dim, known, equal))
    return Certificate(sset.shape, sset.labels(), tuple(facts), tuple(conclusions))



def reference_state_set_from_document(doc) -> StateSet:
    """The loader as it was before documents were read straight into the
    vector index: one LocalVector per distinct list and one ProductState per
    state, then the set the constructor builds from them.
    Its sets and its DocumentError messages are what the library's loader
    must give."""
    if not isinstance(doc, dict):
        raise DocumentError(f"document must be a JSON object, got {type(doc).__name__}")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise DocumentError(f"unsupported document version {version!r} (expected {FORMAT_VERSION!r})")
    dims = doc.get("dims")
    # JSON true and false decode to bool, a subclass of int: exact type checks reject them
    if not isinstance(dims, list) or not all(type(d) is int for d in dims):
        raise DocumentError("dims must be an array of integers")
    try:
        shape = SystemShape(tuple(dims))
    except ValueError as exc:
        raise DocumentError(f"bad dims: {exc}") from exc
    raw_states = doc.get("states")
    if not isinstance(raw_states, list):
        raise DocumentError("states must be an array")
    provenance = doc.get("provenance", "user")
    if not isinstance(provenance, str):
        raise DocumentError("provenance must be a string")
    states = []
    # one LocalVector per distinct coefficient list, shared by every state that has it
    local_vector = functools.cache(LocalVector)
    for idx, entry in enumerate(raw_states):
        if not isinstance(entry, dict):
            raise DocumentError(f"states[{idx}]: expected an object")
        raw_locals = entry.get("locals")
        if not isinstance(raw_locals, list) or len(raw_locals) != shape.n:
            raise DocumentError(f"states[{idx}]: locals must be an array of {shape.n} vectors")
        locals_: list[LocalVector] = []
        for k, coeffs in enumerate(raw_locals):
            if not isinstance(coeffs, list) or not {int}.issuperset(map(type, coeffs)):
                raise DocumentError(f"states[{idx}].locals[{k}]: expected an array of integers")
            if len(coeffs) != shape.dims[k]:
                raise DocumentError(
                    f"states[{idx}].locals[{k}]: expected {shape.dims[k]} coefficients, got {len(coeffs)}"
                )
            try:
                # the exact type check above must come first: (True, 0) == (1, 0) as keys
                locals_.append(local_vector(tuple(coeffs)))
            except ValueError as exc:
                raise DocumentError(f"states[{idx}].locals[{k}]: {exc}") from exc
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise DocumentError(f"states[{idx}].label: expected a string")
        try:
            states.append(ProductState(shape, tuple(locals_), label))
        except ValueError as exc:
            raise DocumentError(f"states[{idx}]: {exc}") from exc
    try:
        return StateSet(shape, tuple(states), provenance=provenance)
    except DimensionError as exc:  # the set refuses a label that names two states
        raise DocumentError(str(exc)) from None


def unshared_index(sset: StateSet) -> StateSet:
    """A copy of the set whose vector index gives every state a vector of its
    own, with the support read off that state's coefficients; stages that read
    the index then compute every support per state. The constructor interns
    equal vectors, so the copy is stored by the step both it and the loader
    end in."""
    vectors = [[s.locals[t].coeffs for s in sset.states] for t in range(sset.shape.n)]
    ids = [range(len(sset))] * sset.shape.n
    return object.__new__(StateSet)._store(sset.shape, vectors, ids, sset._labels, sset.provenance)


def computational_basis_set(dims: tuple[int, ...]) -> StateSet:
    """All product computational basis states over the given dims."""
    shape = SystemShape(dims)
    indices = [()]
    for d in dims:
        indices = [idx + (i,) for idx in indices for i in range(d)]
    states = tuple(
        ProductState(
            shape,
            tuple(basis_ket(d, i) for d, i in zip(dims, idx)),
            label="|" + "".join(map(str, idx)) + ">",
        )
        for idx in indices
    )
    return StateSet(shape, states, provenance="user")


def without_stopper(sset: StateSet) -> StateSet:
    """The set without its all-ones state, built by `sset`'s own copy of the library."""
    states = tuple(s for s in sset.states if not all(all(c == 1 for c in lv.coeffs) for lv in s.locals))
    return type(sset)(sset.shape, states, provenance=sset.provenance + "-no-stopper")


def scrambled(sset: StateSet, rng: random.Random, reduce: bool = False) -> StateSet:
    """The set with its states shuffled and each party's basis relabelled by
    a random permutation; with `reduce`, first without its stopper and two
    random states. These are the benchmark's document scrambles."""
    states = list(sset.states)
    if reduce:
        states = [s for s in states if not all(all(c == 1 for c in lv.coeffs) for lv in s.locals)]
        for idx in sorted(rng.sample(range(len(states)), 2), reverse=True):
            del states[idx]
    rng.shuffle(states)
    perms = [rng.sample(range(d), d) for d in sset.shape.dims]
    moved = []
    for state in states:
        locals_ = []
        for lv, perm in zip(state.locals, perms):
            coeffs = [0] * len(lv)
            for a, c in enumerate(lv.coeffs):
                coeffs[perm[a]] = c
            locals_.append(LocalVector(tuple(coeffs)))
        moved.append(ProductState(sset.shape, tuple(locals_), state.label))
    return StateSet(sset.shape, tuple(moved), provenance=sset.provenance + ("-reduced" if reduce else "") + "-scrambled")


def dense_rref(rows, ncols: int) -> tuple[list[int], list[list[Fraction]]]:
    """Dense reduced row echelon form over exact rationals, first-nonzero-column pivots."""
    pivots: list[int] = []
    reduced: list[list[Fraction]] = []
    for raw in rows:
        r = [Fraction(x) for x in raw]
        for p, row in zip(pivots, reduced):
            c = r[p]
            if c:
                r = [x - c * y for x, y in zip(r, row)]
        pc = next((k for k in range(ncols) if r[k]), None)
        if pc is None:
            continue
        r = [x / r[pc] for x in r]
        for idx, row in enumerate(reduced):
            c = row[pc]
            if c:
                reduced[idx] = [x - c * y for x, y in zip(row, r)]
        pos = sum(1 for p in pivots if p < pc)
        pivots.insert(pos, pc)
        reduced.insert(pos, r)
    return pivots, reduced


def dense_constraint_rows(sset: StateSet, t: int) -> list[list[int]]:
    """Party t's rows, real part then imaginary part of u^T E v = 0, for every
    pair whose factors on all other parties are nonzero; all-zero rows dropped."""
    dim = sset.shape.dims[t]
    rows = []
    states = sset.states
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            others = [
                sum(a * b for a, b in zip(states[i].locals[k].coeffs, states[j].locals[k].coeffs))
                for k in range(sset.shape.n)
                if k != t
            ]
            if not all(others):
                continue
            srow, arow = [0] * (dim * dim), [0] * (dim * dim)
            u, v = states[i].locals[t].coeffs, states[j].locals[t].coeffs
            for a in range(dim):
                for b in range(dim):
                    w = u[a] * v[b]
                    srow[sym_index(dim, min(a, b), max(a, b))] += w
                    if a != b:
                        arow[anti_index(dim, min(a, b), max(a, b))] += w if a < b else -w
            rows.extend(row for row in (srow, arow) if any(row))
    return rows


def reference_nullspace(sset: StateSet, t: int) -> tuple[list[int], list[list[Fraction]]]:
    """(pivot columns, nullspace basis) of party t by dense elimination of
    every constraint row over all d*d unknowns: one basis vector per free
    column, in ascending order, with a 1 there."""
    return dense_nullspace(dense_constraint_rows(sset, t), sset.shape.dims[t] ** 2)


def dense_nullspace(rows, size: int) -> tuple[list[int], list[list[Fraction]]]:
    """(pivot columns, nullspace basis) of dense rows over `size` columns by
    `dense_rref`: one basis vector per free column, in ascending order, with
    a 1 there."""
    pivots, reduced = dense_rref(rows, size)
    basis = []
    for free in (k for k in range(size) if k not in pivots):
        vec = [Fraction(0)] * size
        vec[free] = Fraction(1)
        for p, row in zip(pivots, reduced):
            vec[p] = -row[free]
        basis.append(vec)
    return pivots, basis


def reference_verdicts(sset: StateSet) -> list[tuple[str, int, list[list[str]] | None]]:
    """(status, nullspace dimension, witness strings) per party, from
    `reference_nullspace`: the witness is the first nullspace basis vector,
    in free-column order, with a nonzero part off the identity."""
    out = []
    for t, dim in enumerate(sset.shape.dims):
        size = dim * dim
        _, basis = reference_nullspace(sset, t)
        if len(basis) == 1:
            out.append(("Trivial", 1, None))
            continue
        diagonal = {sym_index(dim, a, a) for a in range(dim)}
        ident = [Fraction(int(k in diagonal)) for k in range(size)]
        witness = None
        for vec in basis:
            coef = sum(x * e for x, e in zip(vec, ident)) / dim
            residual = [x - coef * e for x, e in zip(vec, ident)]
            if any(residual):
                witness = dense_entry_strings(residual, dim)
                break
        out.append(("Nontrivial", len(basis), witness))
    return out


def big_basis_set(big: int) -> StateSet:
    """Party 0 has the local basis {(1, B), (B, -1)}, party 1 the computational one."""
    shape = SystemShape((2, 2))
    local0 = (LocalVector((1, big)), LocalVector((big, -1)))
    return StateSet(
        shape,
        tuple(ProductState(shape, (u, basis_ket(2, j))) for u in local0 for j in range(2)),
        provenance="big-basis",
    )


def orthogonal_integer_matrix(rng: random.Random, dim: int, fix_ones: bool) -> list[list[int]]:
    """c * Q for a random rational orthogonal Q and the least c > 0 that
    makes it integral, so M^T M = c^2 I keeps every inner product zero or
    nonzero. Q = (I + K)^-1 (I - K) for K = v w^T - w v^T with small random
    integer v, w; with `fix_ones`, v and w sum to zero, so K and Q fix the
    all-ones vector. Some entry of M lies outside {-1, 0, 1}. v and w range
    over a space of dimension dim, or dim - 1 with `fix_ones`; below 2 they
    are parallel, so K = 0 and Q = I on every draw, and ValueError is raised
    at once."""
    if dim - fix_ones < 2:
        raise ValueError(f"no such matrix of size {dim}{' fixing the all-ones vector' if fix_ones else ''}")
    while True:
        v, w = ([rng.randint(-1, 1) for _ in range(dim)] for _ in range(2))
        if fix_ones:
            v, w = ([dim * x - sum(u) for x in u] for u in (v, w))
        skew = [[v[a] * w[b] - w[a] * v[b] for b in range(dim)] for a in range(dim)]
        # solve (I + K) Q = (I - K) by exact Gauss-Jordan on the augmented matrix
        aug = [
            [Fraction(int(a == b) + skew[a][b]) for b in range(dim)]
            + [Fraction(int(a == b) - skew[a][b]) for b in range(dim)]
            for a in range(dim)
        ]
        for col in range(dim):
            piv = next(r for r in range(col, dim) if aug[r][col])
            aug[col], aug[piv] = aug[piv], aug[col]
            aug[col] = [x / aug[col][col] for x in aug[col]]
            for r in range(dim):
                if r != col and aug[r][col]:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        q = [row[dim:] for row in aug]
        scale = math.lcm(*(x.denominator for row in q for x in row))
        m = [[int(x * scale) for x in row] for row in q]
        g = math.gcd(*(x for row in m for x in row))
        m = [[x // g for x in row] for row in m]
        if any(abs(x) > 1 for row in m for x in row):
            return m


def primitive(coeffs) -> tuple[int, ...]:
    """The coefficients divided by their gcd."""
    g = math.gcd(*coeffs)
    return tuple(c // g for c in coeffs)


def rotations(rng: random.Random, dims, parties) -> dict[int, list[list[int]]]:
    """For each party t in `parties`, in order, a random integer matrix of
    size dims[t] with orthogonal columns of equal length that fixes the
    all-ones vector: the matrices `rotated` draws."""
    return {t: orthogonal_integer_matrix(rng, dims[t], fix_ones=True) for t in parties}


def rotated(sset: StateSet, rng: random.Random, parties) -> StateSet:
    """The set with the vectors of each party in `parties` mapped by a random
    integer matrix with orthogonal columns of equal length (`rotations`)."""
    return rotate(sset, rotations(rng, sset.shape.dims, parties))


def rotate(sset: StateSet, mats: dict[int, list[list[int]]]) -> StateSet:
    """The set with the vectors of each party t in `mats` mapped by mats[t],
    each then divided by the gcd of its coefficients. Neither step changes
    which inner products vanish for matrices from `rotations`, which fix
    the all-ones vector, so the stopper stays. The set is built with the
    classes of `sset`'s own copy of the library."""
    states = []
    for state in sset.states:
        locals_ = list(state.locals)
        for t, m in mats.items():
            u = locals_[t]
            locals_[t] = type(u)(primitive([sum(x * y for x, y in zip(row, u.coeffs)) for row in m]))
        states.append(type(state)(sset.shape, tuple(locals_), state.label))
    return type(sset)(sset.shape, tuple(states), provenance=sset.provenance + "-rotated")


def invariant_error_under_python_O(code: str) -> str:
    """Runs `code` under python -O and returns the message of the
    InvariantError it must raise."""
    script = f"""
import sys
from nwe.verifier import InvariantError

assert False, "asserts run, so this is not python -O"
try:
{textwrap.indent(code.strip(), "    ")}
except InvariantError as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def load_script(name: str):
    """scripts/<name>.py as a module, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
