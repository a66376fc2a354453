"""Generators for the built-in locally indistinguishable product-state families.

Two families are provided, both with coefficients restricted to -1, 0, 1:

* equal dimensions, n parties of dimension d (n, d >= 3): n(d-1)+1 states,
  a ring of |i>|0-i> blocks closed by |0-i>...|i> plus the all-ones stopper;
* general nondecreasing dimensions 3 <= d_1 <= ... <= d_n (n >= 3):
  sum(d_2..d_{n-1}) + 2 d_n - n + 1 states, emitted in labeled groups
  B_1 ... B_2n followed by the stopper.

State labels record the group and the running index i so that certificates
can cite them; the stopper is always labeled "S".
"""

from __future__ import annotations

from dataclasses import dataclass

from .states import (
    ProductState,
    StateSet,
    SystemShape,
    basis_ket,
    diff_ket,
    stopper,
)


class ConstructionError(ValueError):
    """Construction parameters violate the family's domain."""


# the most coefficients (states times the sum of the local dimensions) a
# generated family may have; `equal(16,64)` is just above it
MAX_COEFFICIENTS = 10**6


@dataclass(frozen=True)
class EqualDims:
    """Parameters of the equal-dimension family: n parties of dimension d."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ConstructionError(f"equal-dims family needs n >= 3 parties, got n={self.n}")
        if self.d < 3:
            raise ConstructionError(f"equal-dims family needs dimension d >= 3, got d={self.d}")


@dataclass(frozen=True)
class GeneralDims:
    """Parameters of the general family: nondecreasing dims, smallest >= 3."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.dims) < 3:
            raise ConstructionError(f"general family needs n >= 3 parties, got n={len(self.dims)}")
        for k in range(len(self.dims) - 1):
            if self.dims[k + 1] < self.dims[k]:
                raise ConstructionError(
                    f"dims must be nondecreasing: dims[{k + 1}]={self.dims[k + 1]} < dims[{k}]={self.dims[k]}"
                )
        if self.dims[0] < 3:
            raise ConstructionError(f"smallest dimension must be >= 3, got d_1={self.dims[0]}")


ConstructionKind = EqualDims | GeneralDims


def expected_size(kind: ConstructionKind) -> int:
    """Closed-form state count of a family; always equals len(gen_*(...))."""
    if isinstance(kind, EqualDims):
        return kind.n * (kind.d - 1) + 1
    d = kind.dims
    n = len(d)
    return sum(d[1 : n - 1]) + 2 * d[n - 1] - n + 1


def _check_size(kind: ConstructionKind, name: str) -> None:
    """Raise ConstructionError, before anything is built, if the family has
    more than MAX_COEFFICIENTS coefficients."""
    states = expected_size(kind)
    width = kind.n * kind.d if isinstance(kind, EqualDims) else sum(kind.dims)
    if states * width > MAX_COEFFICIENTS:
        raise ConstructionError(
            f"{name} would have {states} states of {width} coefficients each, "
            f"{states * width} in all, above the bound of {MAX_COEFFICIENTS}"
        )


def gen_equal(n: int, d: int) -> StateSet:
    """The equal-dimension family: n(d-1)+1 pairwise orthogonal states.

    Group 0 is |0-i>|0>...|0>|i>; group g (1 <= g <= n-1) puts |i> on party
    g-1 and |0-i> on party g (0-indexed); the stopper closes the set.
    """
    kind = EqualDims(n, d)
    n, d = kind.n, kind.d
    provenance = f"equal(n={n},d={d})"
    _check_size(kind, provenance)
    shape = SystemShape((d,) * n)
    states: list[ProductState] = []
    for i in range(1, d):
        vecs = [basis_ket(d, 0) for _ in range(n)]
        vecs[0] = diff_ket(d, 0, i)
        vecs[n - 1] = basis_ket(d, i)
        states.append(ProductState(shape, tuple(vecs), label=f"G_0[i={i}]"))
    for g in range(1, n):
        for i in range(1, d):
            vecs = [basis_ket(d, 0) for _ in range(n)]
            vecs[g - 1] = basis_ket(d, i)
            vecs[g] = diff_ket(d, 0, i)
            states.append(ProductState(shape, tuple(vecs), label=f"G_{g}[i={i}]"))
    states.append(stopper(shape))
    return StateSet(shape, tuple(states), provenance=provenance)


def gen_general(dims: tuple[int, ...] | list[int]) -> StateSet:
    """The general-dimension family over nondecreasing dims, groups B_1..B_2n+1.

    Empty groups (when consecutive dimensions coincide) are skipped silently;
    the count formula already accounts for them. In group B_2n-1 the first
    party carries |2> when i is even and |1> when i is odd, which keeps
    consecutive members orthogonal despite their overlapping last factors.
    """
    kind = GeneralDims(tuple(dims))
    d = kind.dims
    provenance = f"general({','.join(map(str, d))})"
    _check_size(kind, provenance)
    n = len(d)
    shape = SystemShape(d)
    states: list[ProductState] = []

    def blank() -> list:
        return [basis_ket(d[k], 0) for k in range(n)]

    # B_1: |0-i> on party 0, |i> on party n-1
    for i in range(1, d[0]):
        v = blank()
        v[0] = diff_ket(d[0], 0, i)
        v[n - 1] = basis_ket(d[n - 1], i)
        states.append(ProductState(shape, tuple(v), label=f"B_1[i={i}]"))
    # B_g for g in [2, n]: |i> on party g-2, |0-i> on party g-1 (0-indexed)
    for g in range(2, n + 1):
        for i in range(1, d[g - 2]):
            v = blank()
            v[g - 2] = basis_ket(d[g - 2], i)
            v[g - 1] = diff_ket(d[g - 1], 0, i)
            states.append(ProductState(shape, tuple(v), label=f"B_{g}[i={i}]"))
    # B_{n+g} for g in [1, n-2]: |1> on party g-1, |0-i> on party g, |i> on party g+1
    for g in range(1, n - 1):
        for i in range(d[g - 1], d[g]):
            v = blank()
            v[g - 1] = basis_ket(d[g - 1], 1)
            v[g] = diff_ket(d[g], 0, i)
            v[g + 1] = basis_ket(d[g + 1], i)
            states.append(ProductState(shape, tuple(v), label=f"B_{n + g}[i={i}]"))
    # B_{2n-1}: |m> on party 0 (m = 2 for even i, 1 for odd i), |1> on party n-2,
    # |(i-1)-i> on party n-1
    for i in range(d[n - 2], d[n - 1]):
        m = 2 if i % 2 == 0 else 1
        v = blank()
        v[0] = basis_ket(d[0], m)
        v[n - 2] = basis_ket(d[n - 2], 1)
        v[n - 1] = diff_ket(d[n - 1], i - 1, i)
        states.append(ProductState(shape, tuple(v), label=f"B_{2 * n - 1}[i={i}]"))
    # B_{2n}: |0-2> on parties 0 and n-2, |i> on party n-1
    for i in range(d[0], d[n - 1]):
        v = blank()
        v[0] = diff_ket(d[0], 0, 2)
        v[n - 2] = diff_ket(d[n - 2], 0, 2)
        v[n - 1] = basis_ket(d[n - 1], i)
        states.append(ProductState(shape, tuple(v), label=f"B_{2 * n}[i={i}]"))
    # B_{2n+1}: the stopper
    states.append(stopper(shape))
    return StateSet(shape, tuple(states), provenance=provenance)


@dataclass(frozen=True)
class SizeReport:
    """Set sizes of this library's family versus previously published counts."""

    ours: int | None
    jiang: int
    wang: int | None
    zhang: int | None


def prior_sizes(dims: tuple[int, ...] | list[int]) -> SizeReport:
    """Size comparison for a dimension vector (length >= 2, each d_i >= 2).

    jiang = sum_i(2 d_i - 3) + 1 (any number of parties); wang =
    2(d_1 + d_3) - 3 (three parties only); zhang = 2 d_2 - 1 (two parties
    only); ours = the general-family count when its hypotheses hold.
    """
    d = tuple(int(x) for x in dims)
    if len(d) < 2:
        raise ConstructionError(f"size comparison needs at least 2 dimensions, got {len(d)}")
    for k, dk in enumerate(d):
        if dk < 2:
            raise ConstructionError(f"party {k}: dimension must be >= 2, got {dk}")
    jiang = sum(2 * di - 3 for di in d) + 1
    wang = 2 * (d[0] + d[2]) - 3 if len(d) == 3 else None
    zhang = 2 * d[-1] - 1 if len(d) == 2 else None
    try:
        ours: int | None = expected_size(GeneralDims(d))
    except ConstructionError:
        ours = None
    return SizeReport(ours=ours, jiang=jiang, wang=wang, zhang=zhang)
