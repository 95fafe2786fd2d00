"""Sparse multivariate polynomials with exact coefficients.

Coefficients are rational (``Fraction``) whenever possible and Gaussian
rational otherwise; zero coefficients are never stored.  The canonical term
order is total degree descending, then exponent tuple lexicographic, which
fixes printing and the notion of "first monomial" used for normalization.
Evaluation runs on ints: the point and the coefficients are brought over
common denominators, the terms are summed over Z (Z[i] when the point or a
coefficient is non-real), and the sum is divided once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .rationals import GaussianRational, as_gauss


def _coeff(c):
    """Normalize a coefficient: Fraction when real, GaussianRational otherwise."""
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


def _int(q, b: int) -> int:
    """q * b for an int or Fraction q whose denominator divides b."""
    return q.numerator * (b // q.denominator)


class MultiPoly:
    """Sparse polynomial in num_vars variables."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms=None):
        object.__setattr__(self, "num_vars", num_vars)
        clean = {}
        for exp, c in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != num_vars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp}")
            c = _coeff(c)
            if c:
                clean[exp] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors --------------------------------------------------------

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

    # -- algebra ---------------------------------------------------------------

    def _check(self, other):
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.num_vars, other)
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = _cadd(t.get(e, Fraction(0)), c)
        return MultiPoly(self.num_vars, t)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.num_vars, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check(other)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = _cadd(t.get(e, Fraction(0)), _cmul(c1, c2))
        return MultiPoly(self.num_vars, t)

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        c = _coeff(c)
        return MultiPoly(self.num_vars, {e: _cmul(v, c) for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = MultiPoly.const(self.num_vars, 1)
        for _ in range(n):
            out = out * self
        return out

    def conj(self) -> "MultiPoly":
        return MultiPoly(self.num_vars, {e: _cconj(c) for e, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.num_vars == other.num_vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_real(self) -> bool:
        return all(not isinstance(c, GaussianRational) for c in self.terms.values())

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def canonical_terms(self):
        """Terms sorted by total degree descending, then lex on exponents
        (earlier variables first)."""
        return sorted(self.terms.items(),
                      key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))

    def leading_coefficient(self):
        """Coefficient of the first monomial in canonical order."""
        if not self.terms:
            return Fraction(0)
        return self.canonical_terms()[0][1]

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), Fraction(0))

    def weighted_degree(self, weights) -> int:
        if not self.terms:
            return 0
        return max(sum(w * e for w, e in zip(weights, exp)) for exp in self.terms)

    # -- calculus -------------------------------------------------------------

    def partial_derivative(self, var: int) -> "MultiPoly":
        t = {}
        for e, c in self.terms.items():
            if e[var]:
                ne = list(e)
                ne[var] -= 1
                t[tuple(ne)] = _cadd(t.get(tuple(ne), Fraction(0)), _cmul(c, Fraction(e[var])))
        return MultiPoly(self.num_vars, t)

    def evaluate(self, xs):
        """The value at the point xs: a Fraction when it is real, a
        GaussianRational otherwise.

        The sum runs on ints, over Z[i] only when the point or a coefficient
        is non-real.  With the point written as A / b and the coefficients as
        C_e / d (one common b and d), the value is
        sum_e C_e A^e b^(deg - |e|) / (d b^deg), divided once at the end."""
        xs = [(x.re, x.im) if isinstance(x, GaussianRational) else (x, 0) for x in xs]
        if len(xs) != self.num_vars:
            raise ValueError("evaluation point has wrong length")
        cs = [(c, 0) if isinstance(c, Fraction) else (c.re, c.im) for c in self.terms.values()]
        b = lcm(*[q.denominator for x in xs for q in x])
        d = lcm(*[q.denominator for c in cs for q in c])
        deg = self.total_degree()
        if not any(im for _, im in xs) and not any(im for _, im in cs):
            a = [_int(x, b) for x, _ in xs]
            s = 0
            for e, (c, _) in zip(self.terms, cs):
                t = _int(c, d) * b ** (deg - sum(e))
                for p, ai in zip(e, a):
                    if p:
                        t *= ai ** p
                s += t
            return Fraction(s, d * b ** deg)
        a = [(_int(x, b), _int(y, b)) for x, y in xs]
        sr = si = 0
        for e, (c, ci) in zip(self.terms, cs):
            k = b ** (deg - sum(e))
            t = _int(c, d) * k, _int(ci, d) * k
            for p, ai in zip(e, a):
                for _ in range(p):
                    t = t[0] * ai[0] - t[1] * ai[1], t[0] * ai[1] + t[1] * ai[0]
            sr += t[0]
            si += t[1]
        den = d * b ** deg
        return GaussianRational(Fraction(sr, den), Fraction(si, den)) if si else Fraction(sr, den)

    def leading_part_by_weight(self, weights) -> "MultiPoly":
        """Sum of terms of maximal weighted degree (weights one per variable)."""
        if not self.terms:
            return self
        w = self.weighted_degree(weights)
        t = {e: c for e, c in self.terms.items()
             if sum(wt * p for wt, p in zip(weights, e)) == w}
        return MultiPoly(self.num_vars, t)

    def rename_vars(self, new_num_vars: int, mapping) -> "MultiPoly":
        """Reindex variables: mapping[old_index] = new_index.

        Every variable actually appearing must be in the mapping.
        """
        t = {}
        for e, c in self.terms.items():
            ne = [0] * new_num_vars
            for j, p in enumerate(e):
                if p:
                    ne[mapping[j]] += p
            key = tuple(ne)
            t[key] = _cadd(t.get(key, Fraction(0)), c)
        return MultiPoly(new_num_vars, t)

    # -- rendering ------------------------------------------------------------

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

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"MultiPoly({self.to_string()})"

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        terms = []
        for e, c in self.canonical_terms():
            coef = c.to_json() if isinstance(c, GaussianRational) else str(c)
            terms.append({"exp": list(e), "coef": coef})
        return {"vars": self.num_vars, "terms": terms}

    @classmethod
    def from_json(cls, data) -> "MultiPoly":
        terms = {}
        for t in data["terms"]:
            coef = t["coef"]
            c = GaussianRational.from_json(coef) if isinstance(coef, dict) else Fraction(coef)
            terms[tuple(t["exp"])] = c
        return cls(data["vars"], terms)


def poly_mat_det(m) -> MultiPoly:
    """Exact determinant of a square matrix of MultiPoly.

    Expansion along rows with memoization over unused column subsets; exact
    in any case, and cheap for the small matrices that arise here.
    """
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in m):
        raise ValueError("non-square polynomial matrix")
    nv = m[0][0].num_vars
    cache = {}

    def expand(row: int, cols: frozenset) -> MultiPoly:
        if row == n:
            return MultiPoly.const(nv, 1)
        key = cols
        if key in cache:
            return cache[key]
        acc = MultiPoly.zero(nv)
        sign = 1
        for j in sorted(cols):
            entry = m[row][j]
            if entry:
                sub = expand(row + 1, cols - {j})
                term = entry * sub
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
        cache[key] = acc
        return acc

    return expand(0, frozenset(range(n)))
