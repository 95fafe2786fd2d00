"""The ``GaussianRational`` class as it was before its arithmetic learned to
skip zero parts, kept as a test oracle.

Every operation builds four to six ``Fraction``s and coerces both parts of
its result again; ``test_rational_oracles.py`` asserts that the library's
class gives exactly the same values, with ``Fraction`` parts, and the same
errors.
"""

from __future__ import annotations

from fractions import Fraction


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

    def __add__(self, other):
        o = as_gauss(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = as_gauss(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return as_gauss(other) - self

    def __mul__(self, other):
        o = as_gauss(other)
        if self.im == 0 and o.im == 0:      # fast real path
            return GaussianRational(self.re * o.re)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = as_gauss(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        return as_gauss(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

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

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @classmethod
    def from_json(cls, data) -> "GaussianRational":
        if isinstance(data, dict):
            return cls(data.get("re", 0), data.get("im", 0))
        return cls(data)


def as_gauss(x) -> GaussianRational:
    """Coerce an int, Fraction, decimal string, or GaussianRational."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction, str)):
        return GaussianRational(x)
    raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")


ONE = GaussianRational(1)
