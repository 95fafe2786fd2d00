from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hodgecalc.matrices import Mat, det
from hodgecalc.polynomials import MultiPoly, poly_mat_det
from hodgecalc.rationals import GaussianRational


def x(k, j):
    return MultiPoly.variable(k, j)


def _cofactor_det(m):
    """Independent oracle: naive first-column cofactor expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = MultiPoly.zero(m[0][0].num_vars)
    for i in range(n):
        if not m[i][0]:
            continue
        minor = [row[1:] for j, row in enumerate(m) if j != i]
        term = m[i][0] * _cofactor_det(minor)
        acc = acc + (term if i % 2 == 0 else -term)
    return acc


def test_det_2x2_symmetric():
    m = [[x(3, 0), x(3, 2)], [x(3, 2), x(3, 1)]]
    assert poly_mat_det(m) == x(3, 0) * x(3, 1) - x(3, 2) * x(3, 2)


def test_det_diagonal():
    m = [[x(3, 0), MultiPoly.zero(3), MultiPoly.zero(3)],
         [MultiPoly.zero(3), x(3, 1), MultiPoly.zero(3)],
         [MultiPoly.zero(3), MultiPoly.zero(3), x(3, 2)]]
    assert poly_mat_det(m) == x(3, 0) * x(3, 1) * x(3, 2)


def test_det_shifted_matches_metric_form():
    m = [[x(3, 0) + x(3, 2), x(3, 2)], [x(3, 2), x(3, 1) + x(3, 2)]]
    expected = x(3, 0) * x(3, 1) + x(3, 0) * x(3, 2) + x(3, 1) * x(3, 2)
    assert poly_mat_det(m) == expected


def _random_sparse_poly(rng, k, max_terms=2, max_deg=2):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(k))
        terms[exp] = Fraction(rng.randint(-4, 4))
    return MultiPoly(k, terms)


def test_det_agrees_with_cofactor_oracle_seeded():
    rng = random.Random(2)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = [[_random_sparse_poly(rng, 2) for _ in range(n)] for _ in range(n)]
        assert poly_mat_det(m) == _cofactor_det(m)


def test_evaluated_det_matches_numeric_det_seeded():
    rng = random.Random(9)
    for _ in range(12):
        n = rng.randint(1, 4)
        m = [[_random_sparse_poly(rng, 3) for _ in range(n)] for _ in range(n)]
        p = poly_mat_det(m)
        pt = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
        numeric = Mat.from_rows([[entry.evaluate(pt) for entry in row] for row in m])
        assert GaussianRational(p.evaluate(pt)) == det(numeric)


def test_partial_derivative():
    p = x(2, 0) * x(2, 0)
    assert p.partial_derivative(0) == x(2, 0).scale(2)
    assert p.partial_derivative(1).is_zero()


def test_evaluate_symmetric_point():
    p = x(3, 0) * x(3, 1) + x(3, 0) * x(3, 2) + x(3, 1) * x(3, 2)
    assert p.evaluate([1, 1, 1]) == 3


def test_leading_part_by_weight():
    p = x(3, 0) * x(3, 1) + x(3, 0) * x(3, 2) + x(3, 1) * x(3, 2)
    lead = p.leading_part_by_weight([0, 0, 1])
    assert lead == x(3, 2) * (x(3, 0) + x(3, 1))


def test_canonical_rendering():
    p = x(3, 1) * x(3, 2) + x(3, 0) * x(3, 2) + x(3, 0) * x(3, 1)
    assert str(p) == "x1*x2 + x1*x3 + x2*x3"
    q = x(2, 0) * x(2, 0) - MultiPoly.const(2, 1)
    assert str(q) == "x1^2 - 1"


def test_json_round_trip():
    p = x(2, 0) * x(2, 1).scale(Fraction(3, 7)) - MultiPoly.const(2, Fraction(1, 2))
    data = p.to_json()
    assert data == {"vars": 2, "terms": [{"exp": [1, 1], "coef": "3/7"},
                                         {"exp": [0, 0], "coef": "-1/2"}]}
    assert MultiPoly(data["vars"], {tuple(t["exp"]): Fraction(t["coef"])
                                    for t in data["terms"]}) == p


def test_power():
    assert x(1, 0) ** 0 == MultiPoly.const(1, 1)
    assert x(2, 1) ** 3 == x(2, 1) * x(2, 1) * x(2, 1)


@pytest.mark.parametrize("n", [-1, -2, 1.0, "2"])
def test_power_needs_a_nonnegative_int(n):
    with pytest.raises(ValueError):
        x(1, 0) ** n


@pytest.mark.parametrize("exp", [(1.5, 0), ("2", 0), (1.0, 0), (-1, 0), (1,), (0, 0, 1)])
def test_bad_exponent_vectors_raise(exp):
    """Exponents must be non-negative ints, one per variable: 1.5 and "2" are
    not read as 1 and 2."""
    with pytest.raises(ValueError, match="bad exponent vector"):
        MultiPoly(2, {exp: 1})
