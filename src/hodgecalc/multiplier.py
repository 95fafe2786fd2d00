"""Monomial multiplier ideals of weight functions log(sum |z_j|^a_j)."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, lcm

from .polynomials import monomial_string
from .records import Record

# The most simplex points that `multiplier_ideal_monomials` may be asked to
# walk through the command line: 3-4 us a point on a 2-vCPU Xeon with
# Python 3.11 (2 to 8 weights), so at most about 1 s.  The default bound 24
# passes for up to 5 weights (118755 points, about 0.4 s).
MAX_SIMPLEX_POINTS = 200_000


def simplex_points(degree_bound: int, n: int) -> int:
    """The points beta in N^n with |beta| <= degree_bound that
    `multiplier_ideal_monomials` walks: C(degree_bound + n, n)."""
    return comb(degree_bound + n, n)


class MonomialIdeal(Record):
    generators: tuple     # exponent tuples, a divisibility antichain
    degree_bound: int
    truncated: bool

    def monomial_strings(self):
        return tuple(monomial_string(beta, "z") or "1" for beta in self.generators)


def multiplier_ideal_monomials(alpha, degree_bound: int = 24) -> MonomialIdeal:
    """Minimal monomial generators of {z^beta : sum (beta_j + 1)/alpha_j > 1}.

    The membership set is upward closed, so the minimal generators are the
    members none of whose single-step predecessors is a member; a warning
    flag reports when the degree bound may have cut off generators.
    """
    alpha = [Fraction(a) for a in alpha]
    if any(a <= 0 for a in alpha):
        raise ValueError("weights must be positive")
    n = len(alpha)
    # with 1/alpha_j = w_j/L over one common denominator L, beta is a member
    # iff s = sum (beta_j + 1) w_j > L; lowering beta_j takes w_j off s
    big_l = lcm(*(a.numerator for a in alpha))
    weights = [a.denominator * big_l // a.numerator for a in alpha]

    # one walk of the simplex {|beta| <= bound}: by stars and bars, each
    # n-subset c_1 < ... < c_n of range(bound + n) is one point, with
    # beta_j = c_j - c_(j-1) - 1 and c_0 = -1.  A minimal generator could
    # exist just beyond the bound when some non-member on the boundary
    # |beta| = bound has member successors only outside the range: that
    # sets `truncated`.
    gens, truncated = [], False
    for c in combinations(range(degree_bound + n), n):
        beta = tuple(b - a - 1 for a, b in zip((-1,) + c, c))
        s = sum((b + 1) * w for b, w in zip(beta, weights))
        if s <= big_l:
            truncated = truncated or sum(beta) == degree_bound
        elif all(s - w <= big_l for b, w in zip(beta, weights) if b):
            gens.append(beta)
    gens.sort()
    return MonomialIdeal(tuple(gens), degree_bound, truncated)
