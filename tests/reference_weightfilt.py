"""Oracles of ``weightfilt``: the ascending eigenvalue probe and the
closed-form weight filtration.

``integer_eigen_decomposition`` is the window that the library probed
before it went from zero outwards: k = -2d, ..., 2d in ascending order,
stopping once the eigenspaces fill the space.

``weight_filtration_centered_by_intersections`` is the closed form
W_k = sum_a im(N^a) ∩ ker(N^(a+k+1)), an independent second route to the
library's descending recursion ``weight_filtration_centered``.
"""

from __future__ import annotations

from fractions import Fraction

from hodgecalc.matrices import (
    Mat, column_space, kernel_space, nilpotency_index, sub_dim, sub_full, sub_intersect,
    sub_sum_ambient, sub_zero,
)


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
