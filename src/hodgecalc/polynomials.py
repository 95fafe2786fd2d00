"""Sparse multivariate polynomials with exact coefficients.

A ``MultiPoly`` is stored in cleared integer form, like a ``Mat``: a ring, a
dict from exponent tuple to int numerator, and one positive int denominator,
so that the coefficient of x^e is num[e] / den.  A real polynomial is stored
over Z (`_Z`, a numerator is an int); one with a non-real coefficient over
Z[i] (`_ZI`, a numerator is an (re, im) pair of ints).  The form is
canonical: no numerator is zero, the gcd of the numerators and the
denominator is 1, and the ring is Z[i] only when some imaginary part is
nonzero.  So equal polynomials have equal forms, and ``==`` and ``hash``
compare the forms.  Every operation works on the form; ``terms``, the dict
from exponent tuple to coefficient (a ``Fraction`` when it is real, a
``GaussianRational`` otherwise), is built the first time it is read.

The canonical term order is total degree descending, then exponent tuple
lexicographic, which fixes printing and the notion of "first monomial" used
for normalization.  Evaluation brings the point over one common denominator,
sums the terms on Gaussian ints, and divides once; ``value_gradient_hessian``
reads the value, the partials and the Hessian off one such walk at a real
point, over Z when the polynomial is real, and leaves them as ints.

``poly_matrix`` builds the matrix sum_e x^e c_e of MultiPoly from Mats c_e: one
transpose puts the coefficients of each entry in one canonical int row, which
is already the entry's cleared form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
import operator

from .matrices import Mat
from .rationals import GaussianRational, from_fractions


def monomial_string(exp, prefix: str, variables=None) -> str:
    """x1^2*x3 for the exponents (2, 0, 1) and prefix "x", "" when every
    exponent is zero; `variables` gives the 0-based index of the variable of
    each exponent (by default 0, 1, ...)."""
    return "*".join(f"{prefix}{j + 1}" + (f"^{e}" if e != 1 else "")
                    for e, j in zip(exp, variables or range(len(exp))) if e)


class _Z:
    """Numerator arithmetic over the integers: a numerator is an int."""

    zero = 0
    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)
    times = staticmethod(operator.mul)          # by an int
    floordiv = staticmethod(operator.floordiv)  # by an int, exactly
    nonzero = staticmethod(bool)

    @staticmethod
    def parts(nums):
        """The ints of the numerators, for their gcd."""
        return nums

    @staticmethod
    def value(c: int, den: int):
        return Fraction(c) if den == 1 else Fraction(c, den)


class _ZI:
    """Numerator arithmetic over the Gaussian integers: a numerator is an
    (re, im) pair of ints."""

    zero = (0, 0)
    nonzero = staticmethod(any)
    parts = staticmethod(chain.from_iterable)

    @staticmethod
    def add(a, b):
        return a[0] + b[0], a[1] + b[1]

    @staticmethod
    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    @staticmethod
    def times(a, k: int):
        return a[0] * k, a[1] * k

    @staticmethod
    def floordiv(a, k: int):
        return a[0] // k, a[1] // k

    @staticmethod
    def value(c, den: int):
        re, im = c
        if not im:
            return _Z.value(re, den)
        return from_fractions(Fraction(re, den), Fraction(im, den))


def _parts(c):
    """The real and imaginary parts of a coefficient."""
    if isinstance(c, GaussianRational):
        return c.re, c.im
    if isinstance(c, (int, str, Fraction)):
        return Fraction(c), 0
    raise TypeError(f"bad coefficient {c!r}")


def _ring_of(*polys):
    return _ZI if any(p._ring is _ZI for p in polys) else _Z


def _nums(p: "MultiPoly", ring):
    """The numerators of p over ring: a real polynomial's lifted to Z[i]."""
    if p._ring is ring:
        return p._num
    return {e: (c, 0) for e, c in p._num.items()}


def _nonzero(ring, num):
    nonzero = ring.nonzero
    return {e: c for e, c in num.items() if nonzero(c)}


def _order(exp):
    """Sort key of the canonical term order."""
    return -sum(exp), tuple(-e for e in exp)


def _set(p: "MultiPoly", num_vars: int, ring, num, den: int):
    put = object.__setattr__
    put(p, "num_vars", num_vars)
    put(p, "_ring", ring)
    put(p, "_num", num)
    put(p, "_den", den)
    put(p, "_terms", None)


def _new(num_vars: int, ring, num, den: int) -> "MultiPoly":
    """The MultiPoly of a form that is already canonical."""
    p = object.__new__(MultiPoly)
    _set(p, num_vars, ring, num, den)
    return p


def _make(num_vars: int, ring, num, den: int) -> "MultiPoly":
    """The MultiPoly of nonzero numerators num over a positive den, brought to
    canonical form: the common factor divided out, and Z[i] dropped to Z when
    no imaginary part is left."""
    if ring is _ZI and not any(im for _, im in num.values()):
        ring, num = _Z, {e: re for e, (re, _) in num.items()}
    if den != 1:
        g = gcd(den, *ring.parts(num.values()))
        if g != 1:
            floordiv = ring.floordiv
            num = {e: floordiv(c, g) for e, c in num.items()}
            den //= g
    return _new(num_vars, ring, num, den)


class MultiPoly:
    """Sparse polynomial in num_vars variables, stored as cleared ints (see
    the module docstring)."""

    __slots__ = ("num_vars", "_ring", "_num", "_den", "_terms")

    def __init__(self, num_vars: int, terms=None):
        parts = {}
        for exp, c in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != num_vars or not all(isinstance(e, int) and e >= 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp}")
            re, im = _parts(c)
            if re or im:
                parts[exp] = re, im
        # the lcm of the reduced denominators leaves no common factor
        den = lcm(*[q.denominator for c in parts.values() for q in c])
        if any(im for _, im in parts.values()):
            ring = _ZI
            num = {e: (re.numerator * (den // re.denominator), im.numerator * (den // im.denominator))
                   for e, (re, im) in parts.items()}
        else:
            ring = _Z
            num = {e: re.numerator * (den // re.denominator) for e, (re, _) in parts.items()}
        _set(self, num_vars, ring, num, den)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    @property
    def terms(self):
        """Dict from exponent tuple to coefficient, built on first read."""
        t = self._terms
        if t is None:
            value, den = self._ring.value, self._den
            t = {e: value(c, den) for e, c in self._num.items()}
            object.__setattr__(self, "_terms", t)
        return t

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "MultiPoly":
        return _new(num_vars, _Z, {}, 1)

    @classmethod
    def const(cls, num_vars: int, c) -> "MultiPoly":
        return cls(num_vars, {(0,) * num_vars: c})

    @classmethod
    def variable(cls, num_vars: int, j: int) -> "MultiPoly":
        exp = [0] * num_vars
        exp[j] = 1
        return _new(num_vars, _Z, {tuple(exp): 1}, 1)

    # -- algebra ---------------------------------------------------------------

    def _check(self, other):
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")

    def _plus(self, other, sign: int) -> "MultiPoly":
        """self + sign * other."""
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.num_vars, other)
        self._check(other)
        ring = _ring_of(self, other)
        add, times, zero = ring.add, ring.times, ring.zero
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        a = _nums(self, ring)
        t = dict(a) if fa == 1 else {e: times(c, fa) for e, c in a.items()}
        for e, c in _nums(other, ring).items():
            t[e] = add(t.get(e, zero), c if fb == 1 else times(c, fb))
        return _make(self.num_vars, ring, _nonzero(ring, t), den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check(other)
        ring = _ring_of(self, other)
        add, mul, zero, plus = ring.add, ring.mul, ring.zero, operator.add
        right = list(_nums(other, ring).items())
        t = {}
        for e1, c1 in _nums(self, ring).items():
            for e2, c2 in right:
                e = tuple(map(plus, e1, e2))
                t[e] = add(t.get(e, zero), mul(c1, c2))
        return _make(self.num_vars, ring, _nonzero(ring, t), self._den * other._den)

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        return self * MultiPoly.const(self.num_vars, c)

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = MultiPoly.const(self.num_vars, 1)
        for _ in range(n):
            out = out * self
        return out

    def conj(self) -> "MultiPoly":
        if self._ring is _Z:
            return self
        return _new(self.num_vars, _ZI, {e: (re, -im) for e, (re, im) in self._num.items()},
                    self._den)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.num_vars == other.num_vars
                and self._ring is other._ring and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self.num_vars, self._den, frozenset(self._num.items())))

    def __bool__(self):
        return bool(self._num)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_real(self) -> bool:
        return self._ring is _Z

    def total_degree(self) -> int:
        return max(map(sum, self._num), default=0)

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self._num))) <= 1

    def canonical_terms(self):
        """Terms sorted by total degree descending, then lex on exponents
        (earlier variables first)."""
        return sorted(self.terms.items(), key=lambda t: _order(t[0]))

    def leading_coefficient(self):
        """Coefficient of the first monomial in canonical order."""
        if not self._num:
            return Fraction(0)
        return self.terms[min(self._num, key=_order)]

    def weighted_degree(self, weights) -> int:
        if not self._num:
            return 0
        return max(sum(w * e for w, e in zip(weights, exp)) for exp in self._num)

    # -- calculus -------------------------------------------------------------

    def partial_derivative(self, var: int) -> "MultiPoly":
        times = self._ring.times
        t = {}
        for e, c in self._num.items():
            p = e[var]
            if p:
                t[e[:var] + (p - 1,) + e[var + 1:]] = c if p == 1 else times(c, p)
        return _make(self.num_vars, self._ring, t, self._den)

    def evaluate(self, xs):
        """The value at the point xs: a Fraction when it is real, a
        GaussianRational otherwise.

        The sum runs on Gaussian ints.  With the point written as A / b (one
        common b) and the polynomial as sum_e C_e x^e / d, the value is
        sum_e C_e A^e b^(deg - |e|) / (d b^deg), divided once at the end."""
        xs = list(xs)
        if len(xs) != self.num_vars:
            raise ValueError("evaluation point has wrong length")
        degs = list(map(sum, self._num))
        deg = max(degs, default=0)
        xs = [(x.re, x.im) if isinstance(x, GaussianRational) else (x, 0) for x in xs]
        b = lcm(*[q.denominator for x in xs for q in x])
        den = self._den * b ** deg
        a = [(x.numerator * (b // x.denominator), y.numerator * (b // y.denominator))
             for x, y in xs]
        sr = si = 0
        for (e, (c, ci)), de in zip(_nums(self, _ZI).items(), degs):
            k = b ** (deg - de)
            t = c * k, ci * k
            for p, ai in zip(e, a):
                for _ in range(p):
                    t = t[0] * ai[0] - t[1] * ai[1], t[0] * ai[1] + t[1] * ai[0]
            sr += t[0]
            si += t[1]
        return from_fractions(Fraction(sr, den), Fraction(si, den)) if si else Fraction(sr, den)

    def value_gradient_hessian(self, xs):
        """P(x), its partials d_i P(x) and the lower triangle of its Hessian,
        hessian[i][j] = d_i d_j P(x) for j <= i, at the real point xs, in one
        walk over the terms: (value, gradient, hessian, den), each an int
        numerator (an (re, im) pair of ints when P is not real) over the one
        positive int den, which need not be the least.

        With the point written as A / b, as in `evaluate`, and P as
        sum_e C_e x^e / d, den is d b^deg; the term of x^e adds
        C_e A^e b^(deg - |e|) to the value, and the first and second
        derivatives of A^e times C_e b^(deg - |e| + 1) and C_e b^(deg - |e| + 2)
        to the partials."""
        xs = list(xs)
        if len(xs) != self.num_vars:
            raise ValueError("evaluation point has wrong length")
        if GaussianRational in map(type, xs):
            raise TypeError("value_gradient_hessian needs a real point")
        b = lcm(*[x.denominator for x in xs])
        a = [x.numerator * (b // x.denominator) for x in xs]
        deg = max(map(sum, self._num), default=0)
        den = self._den * b ** deg
        if self._ring is _Z:
            return (*_jet(self._num.items(), a, b, deg), den)
        re = _jet([(e, c) for e, (c, _) in self._num.items() if c], a, b, deg)
        im = _jet([(e, c) for e, (_, c) in self._num.items() if c], a, b, deg)
        return ((re[0], im[0]), list(zip(re[1], im[1])),
                [list(zip(r, i)) for r, i in zip(re[2], im[2])], den)

    def leading_part_by_weight(self, weights) -> "MultiPoly":
        """Sum of terms of maximal weighted degree (weights one per variable)."""
        if not self._num:
            return self
        w = self.weighted_degree(weights)
        t = {e: c for e, c in self._num.items()
             if sum(wt * p for wt, p in zip(weights, e)) == w}
        return _make(self.num_vars, self._ring, t, self._den)

    def rename_vars(self, new_num_vars: int, mapping) -> "MultiPoly":
        """Reindex variables: mapping[old_index] = new_index.

        Every variable actually appearing must be in the mapping.
        """
        ring = self._ring
        add, zero = ring.add, ring.zero
        t = {}
        for e, c in self._num.items():
            ne = [0] * new_num_vars
            for j, p in enumerate(e):
                if p:
                    ne[mapping[j]] += p
            key = tuple(ne)
            t[key] = add(t.get(key, zero), c)
        return _make(new_num_vars, ring, _nonzero(ring, t), self._den)

    # -- rendering ------------------------------------------------------------

    def to_string(self, prefix: str = "x") -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.canonical_terms():
            mono = monomial_string(e, prefix)
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


def _jet(terms, a, b: int, deg: int):
    """The int value, gradient and lower Hessian triangle of
    sum_e c_e A^e b^(deg - |e|) at the int point A, each derivative of a term
    carrying one more factor b than the one before it (see
    `MultiPoly.value_gradient_hessian`); terms are (e, int c) pairs.

    A term is walked over the variables it contains: with f_t = A_j^e_j for
    the t-th of them and g_t = e_j A_j^(e_j - 1) its derivative, prefix and
    suffix products of the f_t give each product of all factors but one, and
    a running product between two positions each product of all but two."""
    k = len(a)
    value = 0
    grad = [0] * k
    hess = [[0] * (i + 1) for i in range(k)]
    for e, c in terms:
        w = c * b ** (deg - sum(e))
        support = [j for j, p in enumerate(e) if p]
        f = [a[j] ** e[j] for j in support]
        pre = [1]
        for v in f:
            pre.append(pre[-1] * v)
        value += w * pre[-1]
        n = len(support)
        suf = [1] * (n + 1)
        for t in range(n - 1, -1, -1):
            suf[t] = suf[t + 1] * f[t]
        w1 = w * b
        w2 = w1 * b
        g = [e[j] * a[j] ** (e[j] - 1) for j in support]
        for t, j in enumerate(support):
            rest = pre[t] * suf[t + 1]
            grad[j] += w1 * g[t] * rest
            p = e[j]
            if p > 1:
                hess[j][j] += w2 * p * (p - 1) * a[j] ** (p - 2) * rest
            # d_i d_j for the later variables i: all factors but t and u
            run = w2 * g[t] * pre[t]
            for u in range(t + 1, n):
                hess[support[u]][j] += run * g[u] * suf[u + 1]
                run *= f[u]
    return value, grad, hess


def poly_matrix(num_vars: int, coeffs) -> list:
    """The rows of the MultiPoly matrix sum_e x^e c_e, for coeffs a nonempty
    dict from exponent tuple e to Mat c_e, all of one shape.  Row a * cols + b
    of the stacked row-major flattenings, transposed, holds entry (a, b) of
    every c_e as ints over one positive denominator with gcd 1: the cleared
    form of that entry."""
    shapes = {(m.rows, m.cols) for m in coeffs.values()}
    if len(shapes) != 1:
        raise ValueError("coefficient matrices must be given and of one shape")
    (rows, cols), = shapes
    flat = Mat.stack([m.reshape(1, rows * cols) for m in coeffs.values()]).transpose()
    entries = [_make(num_vars, _ZI, _nonzero(_ZI, dict(zip(coeffs, zip(re, im)))), d)
               for re, im, d in flat.int_rows()]
    return [entries[a * cols:(a + 1) * cols] for a in range(rows)]


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
                term = entry * expand(row + 1, cols - {j})
                acc = acc + term if sign > 0 else acc - term
            sign = -sign
        cache[key] = acc
        return acc

    return expand(0, frozenset(range(n)))
