"""Generators for the built-in locally indistinguishable product-state families.

One builder emits both families, with coefficients restricted to -1, 0, 1:

* general nondecreasing dimensions 3 <= d_1 <= ... <= d_n (n >= 3):
  sum(d_2..d_{n-1}) + 2 d_n - n + 1 states, emitted in labeled groups
  B_1 ... B_2n followed by the stopper;
* equal dimensions, n parties of dimension d (n, d >= 3): the general family
  on (d, ..., d), n(d-1)+1 states. Its groups B_{n+1} ... B_2n are empty and
  B_1 ... B_n are labeled G_0 ... G_{n-1}: a ring of |i>|0-i> blocks closed
  by |0-i>...|i>, plus the all-ones stopper.

State labels record the group and the running index i so that certificates
can cite them; the stopper is always labeled "S".
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from typing import NamedTuple

from .states import (
    LocalVector,
    ProductState,
    StateSet,
    SystemShape,
    _integers,
    _Value,
    basis_ket,
    diff_ket,
    stopper,
)


class ConstructionError(ValueError):
    """Construction parameters violate the family's domain."""


# the most coefficients (states times the sum of the local dimensions) a
# generated family may have; `equal(16,64)` is just above it
MAX_COEFFICIENTS = 10**6


class GeneralDims(_Value):
    """Parameters of the general family: nondecreasing dims, smallest >= 3."""

    __slots__ = _fields = ("dims",)

    def __init__(self, dims: tuple[int, ...]) -> None:
        dims = _integers(dims, "dimensions")
        if len(dims) < 3:
            raise ConstructionError(f"general family needs n >= 3 parties, got n={len(dims)}")
        for k in range(len(dims) - 1):
            if dims[k + 1] < dims[k]:
                raise ConstructionError(
                    f"dims must be nondecreasing: dims[{k + 1}]={dims[k + 1]} < dims[{k}]={dims[k]}"
                )
        if dims[0] < 3:
            raise ConstructionError(f"smallest dimension must be >= 3, got d_1={dims[0]}")
        object.__setattr__(self, "dims", dims)


def expected_size(kind: GeneralDims) -> int:
    """Closed-form state count of the general family; always equals
    len(gen_general(kind.dims)), and n(d-1)+1 on n equal dims d."""
    d = kind.dims
    n = len(d)
    return sum(d[1 : n - 1]) + 2 * d[n - 1] - n + 1


def _check_size(states: int, width: int, name: str) -> None:
    """Raise ConstructionError, before anything is built, if a family of
    `states` states of `width` coefficients each exceeds MAX_COEFFICIENTS."""
    if states * width > MAX_COEFFICIENTS:
        raise ConstructionError(
            f"{name} would have {states} states of {width} coefficients each, "
            f"{states * width} in all, above the bound of {MAX_COEFFICIENTS}"
        )


def gen_equal(n: int, d: int) -> StateSet:
    """The equal-dimension family: n(d-1)+1 pairwise orthogonal states.

    It is the general family on (d, ..., d) with group B_{g+1} labeled G_g:
    group 0 is |0-i>|0>...|0>|i>; group g (1 <= g <= n-1) puts |i> on party
    g-1 and |0-i> on party g (0-indexed); the stopper closes the set.
    """
    if n < 3:
        raise ConstructionError(f"equal-dims family needs n >= 3 parties, got n={n}")
    if d < 3:
        raise ConstructionError(f"equal-dims family needs dimension d >= 3, got d={d}")
    provenance = f"equal(n={n},d={d})"
    _check_size(n * (d - 1) + 1, n * d, provenance)
    return _build((d,) * n, provenance, lambda g: f"G_{g - 1}")


def gen_general(dims: tuple[int, ...] | list[int]) -> StateSet:
    """The general-dimension family over nondecreasing dims, groups B_1..B_2n+1."""
    kind = GeneralDims(tuple(dims))
    provenance = f"general({','.join(map(str, kind.dims))})"
    _check_size(expected_size(kind), sum(kind.dims), provenance)
    return _build(kind.dims, provenance, lambda g: f"B_{g}")


def _build(d: tuple[int, ...], provenance: str, group: Callable[[int], str]) -> StateSet:
    """The general family over d, which the caller has checked; group(g)
    names group B_g in the labels.

    Empty groups (when consecutive dimensions coincide) are skipped silently;
    the count formula already accounts for them. In group B_2n-1 the first
    party carries |2> when i is even and |1> when i is odd, which keeps
    consecutive members orthogonal despite their overlapping last factors.
    Every state not given a factor on a party shares that party's one |0>,
    and every ket is built once and shared by the states that carry it.
    """
    n = len(d)
    shape = SystemShape(d)
    ket, diff = functools.cache(basis_ket), functools.cache(diff_ket)
    zeros = [ket(dk, 0) for dk in d]
    states: list[ProductState] = []

    def add(g: int, i: int, *factors: tuple[int, LocalVector]) -> None:
        v = zeros.copy()
        for k, lv in factors:
            v[k] = lv
        states.append(ProductState(shape, tuple(v), label=f"{group(g)}[i={i}]"))

    # B_1: |0-i> on party 0, |i> on party n-1
    for i in range(1, d[0]):
        add(1, i, (0, diff(d[0], 0, i)), (n - 1, ket(d[n - 1], i)))
    # B_g for g in [2, n]: |i> on party g-2, |0-i> on party g-1 (0-indexed)
    for g in range(2, n + 1):
        for i in range(1, d[g - 2]):
            add(g, i, (g - 2, ket(d[g - 2], i)), (g - 1, diff(d[g - 1], 0, i)))
    # B_{n+g} for g in [1, n-2]: |1> on party g-1, |0-i> on party g, |i> on party g+1
    for g in range(1, n - 1):
        for i in range(d[g - 1], d[g]):
            add(n + g, i, (g - 1, ket(d[g - 1], 1)), (g, diff(d[g], 0, i)), (g + 1, ket(d[g + 1], i)))
    # B_{2n-1}: |m> on party 0 (m = 2 for even i, 1 for odd i), |1> on party n-2,
    # |(i-1)-i> on party n-1
    for i in range(d[n - 2], d[n - 1]):
        m = 2 if i % 2 == 0 else 1
        add(2 * n - 1, i, (0, ket(d[0], m)), (n - 2, ket(d[n - 2], 1)), (n - 1, diff(d[n - 1], i - 1, i)))
    # B_{2n}: |0-2> on parties 0 and n-2, |i> on party n-1
    for i in range(d[0], d[n - 1]):
        add(2 * n, i, (0, diff(d[0], 0, 2)), (n - 2, diff(d[n - 2], 0, 2)), (n - 1, ket(d[n - 1], i)))
    # B_{2n+1}: the stopper
    states.append(stopper(shape))
    return StateSet(shape, tuple(states), provenance=provenance)


class SizeReport(NamedTuple):
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
    d = _integers(dims, "dimensions")
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
