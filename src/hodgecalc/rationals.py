"""Gaussian rationals: exact complex numbers a + b*i with a, b in Q.

Plain rationals are handled by ``fractions.Fraction`` throughout the
package; this module supplies the complex extension needed for Hodge
filtration data, where conjugation must be exact.

Both parts of a ``GaussianRational`` are always ``Fraction`` instances.
``GaussianRational(re, im)`` coerces each part from an int, a Fraction or a
decimal string; ``from_fractions(re, im)`` takes two parts that already are
Fractions as they are, with no coercion and no check, and builds every
result of the arithmetic.  ``+``, ``-`` and ``*`` skip the work of a zero
part: adding or subtracting a zero part is no operation, a product with a
zero operand is ``ZERO``, and a product with a real operand multiplies by
its real part alone, so two real operands make one ``Fraction`` product.
"""

from __future__ import annotations

from fractions import Fraction

_FZERO = Fraction(0)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class GaussianRational:
    """Immutable exact complex number with rational real/imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is GaussianRational else as_gauss(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        return from_fractions((a + c if a else c) if c else a,
                              (b + d if b else d) if d else b)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is GaussianRational else as_gauss(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        return from_fractions((a - c if a else -c) if c else a,
                              (b - d if b else -d) if d else b)

    def __rsub__(self, other):
        return as_gauss(other) - self

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else as_gauss(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        if not b:
            if not d:                           # two real operands
                return from_fractions(a * c, b) if a and c else ZERO
            return from_fractions(a * c, a * d) if a else ZERO
        if not d:
            return from_fractions(a * c, b * c) if c else ZERO
        return from_fractions(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = as_gauss(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return from_fractions(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        return as_gauss(other) / self

    def __neg__(self):
        im = self.im
        return from_fractions(-self.re, -im if im else im)

    def __pos__(self):
        return self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure ----------------------------------------------------------

    def conj(self) -> "GaussianRational":
        im = self.im
        return from_fractions(self.re, -im) if im else self

    def abs2(self) -> Fraction:
        """Squared modulus, an exact rational."""
        return self.re * self.re + self.im * self.im

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def real_or_raise(self) -> Fraction:
        if self.im != 0:
            raise ValueError(f"{self} is not real")
        return self.re

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        try:
            o = as_gauss(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    # -- serialization ------------------------------------------------------

    def to_json(self):
        if self.im == 0:
            return str(self.re)
        return {"re": str(self.re), "im": str(self.im)}

    @staticmethod
    def from_json(data) -> "GaussianRational":
        """A document scalar: a JSON integer, a decimal string, or an object
        {"re", "im"} of those (a missing part is 0).  JSON booleans are
        refused."""
        if isinstance(data, dict):
            return from_fractions(_json_part(data.get("re", 0)), _json_part(data.get("im", 0)))
        return from_fractions(_json_part(data), _FZERO)


# The slot setters: they bypass the immutability guard of __setattr__.
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__


def from_fractions(re: Fraction, im: Fraction) -> GaussianRational:
    """The Gaussian rational re + im*i of two Fraction instances, taken as
    they are: the caller guarantees the types, nothing is coerced."""
    z = object.__new__(GaussianRational)
    _set_re(z, re)
    _set_im(z, im)
    return z


def _json_part(x) -> Fraction:
    if isinstance(x, bool):
        raise TypeError(f"cannot interpret {str(x).lower()} as an exact rational")
    return _frac(x)


def as_gauss(x) -> GaussianRational:
    """Coerce an int, Fraction, decimal string, or GaussianRational."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction, str)):
        return from_fractions(_frac(x), _FZERO)
    raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def i_power(k: int) -> GaussianRational:
    """i**k for any integer k."""
    return (I ** (k % 4)) if k >= 0 else (I ** ((-k) % 4)).conj()
