"""The ascending eigenvalue probe, kept as the oracle of
``weightfilt.integer_eigen_decomposition``.

This is the window that the library probed before it went from zero
outwards: k = -2d, ..., 2d in ascending order, stopping once the
eigenspaces fill the space.
"""

from __future__ import annotations

from fractions import Fraction

from hodgecalc.matrices import Mat, kernel_space, sub_dim


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
