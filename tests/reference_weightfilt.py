"""Oracles of ``weightfilt``: two earlier eigenvalue probes and the
closed-form weight filtration.

``integer_eigen_decomposition`` is the window that the library probed
before it went from zero outwards: k = -2d, ..., 2d in ascending order,
stopping once the eigenspaces fill the space.

``windowed_eigen_decomposition`` is the probe from zero outwards over that
window, with the fallback the library kept until its probe was bounded by
tr(y^2): candidates from the divisors of the lowest coefficient of the
characteristic polynomial (the rational-root bound).

``weight_filtration_centered_by_intersections`` is the closed form
W_k = sum_a im(N^a) ∩ ker(N^(a+k+1)), an independent second route to the
library's descending recursion ``weight_filtration_centered``.
"""

from __future__ import annotations

from fractions import Fraction

from hodgecalc.errors import NoSolution
from hodgecalc.matrices import (
    Mat, column_space, kernel_space, nilpotency_index, sub_dim, sub_full, sub_intersect,
    sub_sum_ambient, sub_zero,
)
from hodgecalc.polynomials import MultiPoly, poly_mat_det
from hodgecalc.rationals import ZERO


def integer_eigen_decomposition(y: Mat) -> dict:
    d = y.rows
    probe = {}
    total = 0
    for k in range(-2 * d, 2 * d + 1):
        eig = kernel_space(y - Mat.identity(d).scale(Fraction(k)))
        if sub_dim(eig):
            probe[k] = eig
            total += sub_dim(eig)
        if total == d:
            return probe
    raise AssertionError("the eigenvalues lie outside the probed window")


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    t = 1
    while t * t <= n:
        if n % t == 0:
            small.append(t)
            if t != n // t:
                large.append(n // t)
        t += 1
    return small + large[::-1]


def windowed_eigen_decomposition(y: Mat) -> dict:
    d = y.rows
    probe = {}
    total = 0
    for k in sorted(range(-2 * d, 2 * d + 1), key=lambda k: (abs(k), k)):
        eig = kernel_space(y - Mat.identity(d).scale(Fraction(k)))
        if sub_dim(eig):
            probe[k] = eig
            total += sub_dim(eig)
        if total == d:
            return dict(sorted(probe.items()))
    entries = []
    for i in range(d):
        row = []
        for j in range(d):
            if i == j:
                row.append(MultiPoly(1, {(1,): 1}) - MultiPoly.const(1, y[i, j]))
            else:
                row.append(MultiPoly.const(1, ZERO - y[i, j]))
        entries.append(row)
    charpoly = poly_mat_det(entries)
    candidates = {0}
    lowest = None
    for (e,), c in sorted(charpoly.terms.items()):
        lowest = c
        break
    if lowest is not None:
        val = lowest.re if hasattr(lowest, "re") else lowest
        num = abs(val.numerator)
        if num:
            for t in _divisors(num):
                candidates.update({t, -t})
    spaces = {}
    total = 0
    for k in sorted(candidates):
        eig = kernel_space(y - Mat.identity(d).scale(Fraction(k)))
        if sub_dim(eig):
            spaces[k] = eig
            total += sub_dim(eig)
    if total != d:
        raise NoSolution("matrix is not semisimple with integer eigenvalues")
    return spaces


def weight_filtration_centered_by_intersections(n: Mat) -> dict:
    d = n.rows
    s = nilpotency_index(n) - 1
    powers = [Mat.identity(d)]
    for _ in range(s + 1):
        powers.append(powers[-1] @ n)
    images = [column_space(p) for p in powers]
    kernels = {j: kernel_space(powers[j]) for j in range(1, s + 2)}

    def ker(j):
        if j <= 0:
            return sub_zero(d)
        if j > s:
            return sub_full(d)
        return kernels[j]

    out = {}
    for k in range(-s, s + 1):
        pieces = []
        for a in range(0, s + 1):
            pieces.append(sub_intersect(images[a], ker(a + k + 1)))
        out[k] = sub_sum_ambient(pieces, d)
    return out
