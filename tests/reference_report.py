"""``report.frac_to_decimal`` as it was before it divided in a ``decimal``
context, kept as a test oracle.

It finds the decimal exponent from the digit counts of numerator and
denominator, scales one of them by a power of ten, rounds the integer
quotient half away from zero and shifts back when the rounding rolls over a
power of ten.  ``test_rationals.py`` asserts that the library renders the
same string.
"""

from __future__ import annotations

from fractions import Fraction

SIG_DIGITS = 12


def frac_to_decimal(value: Fraction) -> str:
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    n, d = abs(value.numerator), value.denominator
    # exponent e with 10^e <= n/d < 10^(e+1)
    e = len(str(n)) - len(str(d))
    scaled = n * 10 ** max(0, -e) if e < 0 else n
    dscaled = d * 10 ** max(0, e) if e > 0 else d
    if scaled < dscaled:
        e -= 1
    # digits = round(n/d * 10^(SIG_DIGITS-1-e)), half away from zero
    shift = SIG_DIGITS - 1 - e
    if shift >= 0:
        num = n * 10 ** shift
        den = d
    else:
        num = n
        den = d * 10 ** (-shift)
    digits, rem = divmod(num, den)
    if 2 * rem >= den:
        digits += 1
    if len(str(digits)) > SIG_DIGITS:   # rounding rolled over a power of ten
        digits //= 10
        e += 1
    s = str(digits).rstrip("0") or "0"
    mantissa = s[0] + ("." + s[1:] if len(s) > 1 else "")
    if e == 0:
        return f"{sign}{mantissa}"
    return f"{sign}{mantissa}e{e:+03d}"
