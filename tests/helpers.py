"""Independent brute-force oracles, small fixture sets and seeded basis rotations.

Everything here recomputes from first principles (full tensor expansion,
exact complex-rational arithmetic) without going through the library's
factorized predicates, so it can serve as the second route in dual checks.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

from nwe import StateSet
from nwe.states import LocalVector, PairTable, PartyVectors, ProductState, SystemShape, basis_ket
from nwe.verifier import anti_index, coords_to_matrix, sym_index


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
    total = shape.total_dim()
    dims = shape.dims
    after = 1
    for d in dims[t + 1 :]:
        after *= d
    dt = dims[t]
    block = dims[t] * after
    op = [[CZERO] * total for _ in range(total)]
    for p in range(total):
        pre, rem = divmod(p, block)
        pt, post = divmod(rem, after)
        for qt in range(dt):
            q = pre * block + qt * after + post
            op[p][q] = (matrix.real[pt][qt], matrix.imag[pt][qt])
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


def unshared_index(sset: StateSet) -> StateSet:
    """A copy of the set whose vector index gives every state a vector of its
    own, with the support read off that state's coefficients; stages that read
    the index then compute every support per state."""
    copy = StateSet(sset.shape, sset.states, sset.provenance)
    states = range(len(sset.states))
    copy.__dict__["vector_index"] = tuple(
        PartyVectors(
            tuple(s.locals[t].coeffs for s in sset.states),
            tuple(states),
            tuple(tuple((a, c) for a, c in enumerate(s.locals[t].coeffs) if c) for s in sset.states),
        )
        for t in range(sset.shape.n)
    )
    return copy


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
    states = tuple(s for s in sset.states if not all(all(c == 1 for c in lv.coeffs) for lv in s.locals))
    return StateSet(sset.shape, states, provenance=sset.provenance + "-no-stopper")


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
    size = sset.shape.dims[t] ** 2
    pivots, reduced = dense_rref(dense_constraint_rows(sset, t), size)
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
                witness = coords_to_matrix(residual, dim).entry_strings()
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
    all-ones vector. Some entry of M lies outside {-1, 0, 1}."""
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


def primitive(coeffs) -> LocalVector:
    g = math.gcd(*coeffs)
    return LocalVector(tuple(c // g for c in coeffs))


def rotated(sset: StateSet, rng: random.Random, parties) -> StateSet:
    """The set with the vectors of each party in `parties` mapped by a random
    integer matrix with orthogonal columns of equal length, each then divided
    by the gcd of its coefficients. Neither step changes which inner products
    vanish, and the matrices fix the all-ones vector, so the stopper stays."""
    mats = {t: orthogonal_integer_matrix(rng, sset.shape.dims[t], fix_ones=True) for t in parties}
    states = []
    for state in sset.states:
        locals_ = list(state.locals)
        for t, m in mats.items():
            u = locals_[t].coeffs
            locals_[t] = primitive([sum(x * y for x, y in zip(row, u)) for row in m])
        states.append(ProductState(sset.shape, tuple(locals_), state.label))
    return StateSet(sset.shape, tuple(states), provenance=sset.provenance + "-rotated")


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
