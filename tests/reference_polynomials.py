"""The `Fraction`-coefficient polynomial class, kept as the oracle of
``polynomials.MultiPoly`` and ``polynomials.poly_mat_det``.

This is the class the library used before it stored cleared ints: every
coefficient is a ``Fraction`` (a ``GaussianRational`` when it is not real),
and every operation adds and multiplies coefficients one at a time.  Its
``evaluate`` is the term-by-term sum, also available as the function
``evaluate`` for any polynomial with a ``terms`` dict.  The function
``conj`` conjugates a ``polynomials.MultiPoly`` through its public
constructor.
"""

from __future__ import annotations

from fractions import Fraction

from hodgecalc import polynomials
from hodgecalc.rationals import GaussianRational, as_gauss


def _coeff(c):
    """Fraction when real, GaussianRational otherwise."""
    if isinstance(c, GaussianRational):
        return c.re if c.im == 0 else c
    if isinstance(c, (int, str)):
        return Fraction(c)
    if isinstance(c, Fraction):
        return c
    raise TypeError(f"bad coefficient {c!r}")


def _cadd(a, b):
    if isinstance(a, GaussianRational) or isinstance(b, GaussianRational):
        return _coeff(as_gauss(a) + as_gauss(b))
    return a + b


def _cmul(a, b):
    if isinstance(a, GaussianRational) or isinstance(b, GaussianRational):
        return _coeff(as_gauss(a) * as_gauss(b))
    return a * b


def _cconj(a):
    if isinstance(a, GaussianRational):
        return _coeff(a.conj())
    return a


def conj(poly: polynomials.MultiPoly) -> polynomials.MultiPoly:
    """The polynomial with every coefficient conjugated."""
    return polynomials.MultiPoly(poly.num_vars, {e: _cconj(c) for e, c in poly.terms.items()})


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


class MultiPoly:
    """Sparse polynomial in num_vars variables with Fraction coefficients."""

    def __init__(self, num_vars: int, terms=None):
        self.num_vars = num_vars
        clean = {}
        for exp, c in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != num_vars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp}")
            c = _coeff(c)
            if c:
                clean[exp] = c
        self.terms = clean

    @classmethod
    def zero(cls, num_vars: int) -> "MultiPoly":
        return cls(num_vars, {})

    @classmethod
    def const(cls, num_vars: int, c) -> "MultiPoly":
        return cls(num_vars, {(0,) * num_vars: c})

    @classmethod
    def variable(cls, num_vars: int, j: int) -> "MultiPoly":
        exp = [0] * num_vars
        exp[j] = 1
        return cls(num_vars, {tuple(exp): 1})

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.num_vars, other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = _cadd(t.get(e, Fraction(0)), c)
        return MultiPoly(self.num_vars, t)

    def __neg__(self):
        return MultiPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.num_vars, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = _cadd(t.get(e, Fraction(0)), _cmul(c1, c2))
        return MultiPoly(self.num_vars, t)

    def scale(self, c) -> "MultiPoly":
        c = _coeff(c)
        return MultiPoly(self.num_vars, {e: _cmul(v, c) for e, v in self.terms.items()})

    def conj(self) -> "MultiPoly":
        return MultiPoly(self.num_vars, {e: _cconj(c) for e, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.num_vars == other.num_vars
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def canonical_terms(self):
        return sorted(self.terms.items(),
                      key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))

    def weighted_degree(self, weights) -> int:
        if not self.terms:
            return 0
        return max(sum(w * e for w, e in zip(weights, exp)) for exp in self.terms)

    def partial_derivative(self, var: int) -> "MultiPoly":
        t = {}
        for e, c in self.terms.items():
            if e[var]:
                ne = list(e)
                ne[var] -= 1
                t[tuple(ne)] = _cadd(t.get(tuple(ne), Fraction(0)), _cmul(c, Fraction(e[var])))
        return MultiPoly(self.num_vars, t)

    def evaluate(self, xs):
        return evaluate(self, xs)

    def leading_part_by_weight(self, weights) -> "MultiPoly":
        if not self.terms:
            return self
        w = self.weighted_degree(weights)
        t = {e: c for e, c in self.terms.items()
             if sum(wt * p for wt, p in zip(weights, e)) == w}
        return MultiPoly(self.num_vars, t)

    def rename_vars(self, new_num_vars: int, mapping) -> "MultiPoly":
        t = {}
        for e, c in self.terms.items():
            ne = [0] * new_num_vars
            for j, p in enumerate(e):
                if p:
                    ne[mapping[j]] += p
            key = tuple(ne)
            t[key] = _cadd(t.get(key, Fraction(0)), c)
        return MultiPoly(new_num_vars, t)

    def to_string(self, prefix: str = "x") -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.canonical_terms():
            factors = []
            for j, p in enumerate(e):
                if p == 1:
                    factors.append(f"{prefix}{j + 1}")
                elif p > 1:
                    factors.append(f"{prefix}{j + 1}^{p}")
            mono = "*".join(factors)
            if isinstance(c, GaussianRational):
                cs = f"({c})"
                parts.append((f"{cs}*{mono}" if mono else cs, False))
                continue
            neg = c < 0
            c_abs = -c if neg else c
            if not mono:
                body = str(c_abs)
            elif c_abs == 1:
                body = mono
            else:
                body = f"{c_abs}*{mono}"
            parts.append((body, neg))
        out = []
        for i, (body, neg) in enumerate(parts):
            if i == 0:
                out.append(f"-{body}" if neg else body)
            else:
                out.append(f" - {body}" if neg else f" + {body}")
        return "".join(out)

    def to_json(self):
        terms = []
        for e, c in self.canonical_terms():
            coef = c.to_json() if isinstance(c, GaussianRational) else str(c)
            terms.append({"exp": list(e), "coef": coef})
        return {"vars": self.num_vars, "terms": terms}


def poly_mat_det(m) -> MultiPoly:
    """Row expansion with memoization over unused column subsets."""
    n = len(m)
    nv = m[0][0].num_vars
    cache = {}

    def expand(row: int, cols: frozenset) -> MultiPoly:
        if row == n:
            return MultiPoly.const(nv, 1)
        if cols in cache:
            return cache[cols]
        acc = MultiPoly.zero(nv)
        sign = 1
        for j in sorted(cols):
            entry = m[row][j]
            if entry:
                term = entry * expand(row + 1, cols - {j})
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
        cache[cols] = acc
        return acc

    return expand(0, frozenset(range(n)))
