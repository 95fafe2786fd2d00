from __future__ import annotations

import random
from fractions import Fraction

import pytest

import reference_report
from hodgecalc.rationals import GaussianRational, I, ONE, as_gauss, i_power
from hodgecalc.report import frac_to_decimal


def test_field_axioms_seeded():
    rng = random.Random(7)
    for _ in range(30):
        a = GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                             Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        b = GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                             Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        assert a + b == b + a
        assert a * b == b * a
        if b:
            assert (a / b) * b == a
        assert (a + b).conj() == a.conj() + b.conj()
        assert (a * b).conj() == a.conj() * b.conj()
        assert a.conj().conj() == a


def test_i_powers():
    assert I * I == GaussianRational(-1)
    assert i_power(0) == ONE and i_power(1) == I
    assert i_power(2) == GaussianRational(-1)
    assert i_power(-1) == I.conj()
    assert i_power(7) == i_power(3)


def test_serialization():
    assert GaussianRational("3/4").to_json() == "3/4"
    assert GaussianRational(5).to_json() == "5"
    z = GaussianRational(Fraction(1, 2), Fraction(-2, 3))
    assert z.to_json() == {"re": "1/2", "im": "-2/3"}
    assert GaussianRational.from_json(z.to_json()) == z
    assert GaussianRational.from_json("7/2") == GaussianRational(Fraction(7, 2))


def test_as_gauss_rejects_floats():
    with pytest.raises(TypeError):
        as_gauss(0.5)


def test_decimal_rendering():
    assert frac_to_decimal(Fraction(0)) == "0"
    assert frac_to_decimal(Fraction(1)) == "1"
    assert frac_to_decimal(Fraction(1, 3)) == "3.33333333333e-01"
    assert frac_to_decimal(Fraction(-5, 4)) == "-1.25"
    assert frac_to_decimal(Fraction(1, 10 ** 6)) == "1e-06"
    assert frac_to_decimal(Fraction(999999999999999, 10 ** 15)) == "1"
    assert frac_to_decimal(Fraction(123456, 1)) == "1.23456e+05"


def _decimal_family(rng):
    """Seeded fractions that stress the rounding: exact ties at the 13th
    digit, 9.999999999995-style roll-overs past a power of ten, values just
    below and above those, and numerators and denominators of 1 to 400
    digits, each with both signs."""
    for _ in range(300):
        mantissa = rng.randrange(10 ** 11, 10 ** 12) * 10 + 5      # a tie
        k = rng.randint(-30, 30)
        yield Fraction(mantissa) * Fraction(10) ** k
        yield Fraction(10 ** 13 - 5) * Fraction(10) ** k            # rolls over
        yield Fraction(10 ** 13 - 5 + rng.choice((-1, 1)), 10 ** 13) * Fraction(10) ** k
    for _ in range(1500):
        n = rng.randrange(1, 10 ** rng.randint(1, 400))
        d = rng.randrange(1, 10 ** rng.randint(1, 400))
        yield Fraction(n, d)
    for digits in range(1, 401):
        yield Fraction(10 ** digits - 1, 10 ** rng.randint(0, 400))
        yield Fraction(10 ** rng.randint(0, 400), 10 ** digits - 1)
        yield Fraction(2 * 10 ** digits - 1, 2 * 10 ** rng.randint(0, 20))


def test_decimal_rendering_matches_the_integer_routine():
    rng = random.Random(22)
    count = 0
    for f in _decimal_family(rng):
        for v in (f, -f):
            assert frac_to_decimal(v) == reference_report.frac_to_decimal(v), v
            count += 1
    assert count > 6000


def test_decimal_rendering_agrees_with_float_approx():
    rng = random.Random(3)
    for _ in range(50):
        f = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        if f == 0:
            continue
        rendered = frac_to_decimal(f)
        approx = float(rendered.replace("e", "E"))
        assert abs(approx - float(f)) <= abs(float(f)) * 1e-10
