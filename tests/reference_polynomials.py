"""Term-by-term polynomial evaluation, kept as the oracle of
``polynomials.MultiPoly.evaluate``.

This is the evaluation the library did before it summed on ints: every term
is a ``Fraction`` or ``GaussianRational`` product of its coefficient and the
powers of the coordinates, added to the running sum one at a time.
"""

from __future__ import annotations

from fractions import Fraction

from hodgecalc.rationals import GaussianRational, as_gauss


def _coeff(c):
    """Fraction when real, GaussianRational otherwise."""
    if isinstance(c, GaussianRational):
        return c.re if c.im == 0 else c
    return Fraction(c)


def _cadd(a, b):
    if isinstance(a, GaussianRational) or isinstance(b, GaussianRational):
        return _coeff(as_gauss(a) + as_gauss(b))
    return a + b


def _cmul(a, b):
    if isinstance(a, GaussianRational) or isinstance(b, GaussianRational):
        return _coeff(as_gauss(a) * as_gauss(b))
    return a * b


def evaluate(poly, xs):
    xs = list(xs)
    if len(xs) != poly.num_vars:
        raise ValueError("evaluation point has wrong length")
    acc = Fraction(0)
    for e, c in poly.terms.items():
        term = c
        for x, p in zip(xs, e):
            if p:
                term = _cmul(term, _coeff(as_gauss(x) ** p) if isinstance(x, GaussianRational) else x ** p)
        acc = _cadd(acc, term)
    return acc
