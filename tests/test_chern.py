from __future__ import annotations

import pytest

from hodgecalc.chern import (
    MAX_SEGRE_PRODUCTS, chern_generator, grothendieck_defect, schur_polynomial, segre_polynomial, segre_products,
)
from hodgecalc.errors import InvalidPartition
from hodgecalc.polynomials import MultiPoly, poly_mat_det


def c(r, i):
    return chern_generator(r, i).poly


def test_schur_single_box():
    assert schur_polynomial([1], 3).poly == c(3, 1)


def test_schur_column():
    assert schur_polynomial([1, 1], 3).poly == c(3, 1) * c(3, 1) - c(3, 2)


def test_schur_row():
    assert schur_polynomial([2], 3).poly == c(3, 2)


def test_schur_invalid():
    with pytest.raises(InvalidPartition):
        schur_polynomial([1, 2], 3)
    with pytest.raises(InvalidPartition):
        schur_polynomial([4], 3)


def _perm_sign(order) -> int:
    sign = 1
    seen = [False] * len(order)
    for i in range(len(order)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def test_schur_alternate_expansion_agrees():
    # cross-check the determinant by expanding it with row 1 moved to the top
    for partition in ([1, 1], [2, 1], [2, 2], [1, 1, 1], [3, 2, 1]):
        n = len(partition)
        order = [1] + [i for i in range(n) if i != 1]
        for rank in (3, 4):
            entries = [[c(rank, partition[i] + j - i) for j in range(n)] for i in range(n)]
            b = poly_mat_det([entries[i] for i in order])
            assert schur_polynomial(partition, rank).poly == (b if _perm_sign(order) > 0 else -b)


def test_schur_single_columns_match_dual_identity():
    # s_(1^h) satisfies the dual recursion s_(1^h) = c_1 s_(1^(h-1)) -
    # c_2 s_(1^(h-2)) + ..., the Jacobi-Trudi dual in terms of the c_i
    for rank in (2, 3, 4):
        table = [MultiPoly.const(rank, 1)]
        for h in range(1, rank + 1):
            acc = MultiPoly.zero(rank)
            for i in range(1, min(h, rank) + 1):
                term = c(rank, i) * table[h - i]
                acc = acc + (term if i % 2 == 1 else -term)
            table.append(acc)
            assert schur_polynomial([1] * h, rank).poly == acc


def test_segre_first_values():
    assert segre_polynomial(0, 3).poly == MultiPoly.const(3, 1)
    assert segre_polynomial(1, 3).poly == c(3, 1)
    assert segre_polynomial(2, 3).poly == c(3, 1) * c(3, 1) - c(3, 2)
    expected3 = (c(3, 1) * c(3, 1) * c(3, 1)
                 - (c(3, 1) * c(3, 2)).scale(2) + c(3, 3))
    assert segre_polynomial(3, 3).poly == expected3


def test_segre_products_count_the_recursion():
    # step q multiplies c_i by each monomial of s_(q-i), i = 1..min(q, rank)
    for degree, rank in ((0, 1), (1, 1), (6, 1), (3, 4), (8, 2), (10, 3), (9, 5), (7, 9)):
        terms = [len(segre_polynomial(m, rank).poly.terms) for m in range(degree + 1)]
        expected = sum(terms[q - i] for q in range(1, degree + 1)
                       for i in range(1, min(q, rank) + 1))
        assert segre_products(degree, rank) == expected, (degree, rank)
    # the count stops at the first degree that takes it past the budget,
    # however large the request
    q = next(q for q in range(100) if segre_products(q, q) > MAX_SEGRE_PRODUCTS)
    assert MAX_SEGRE_PRODUCTS < segre_products(10 ** 9, 10 ** 9) == segre_products(q, q)
    assert segre_products(10 ** 9, 1) == MAX_SEGRE_PRODUCTS + 1


def test_segre_rank_truncation():
    # for rank 2 there is no c_3: s_3 = c1^3 - 2 c1 c2
    expected = c(2, 1) * c(2, 1) * c(2, 1) - (c(2, 1) * c(2, 2)).scale(2)
    assert segre_polynomial(3, 2).poly == expected


def test_grothendieck_identity():
    for rank in range(1, 5):
        for q in range(1, 7):
            assert grothendieck_defect(q, rank).poly.is_zero()


def test_weighted_homogeneity():
    for rank in (2, 3, 4):
        for d in range(0, 6):
            sym = segre_polynomial(d, rank)
            assert sym.poly.leading_part_by_weight(tuple(range(1, rank + 1))) == sym.poly
            if sym.poly:
                assert sym.weighted_degree() == d


def test_printing():
    assert str(schur_polynomial([1, 1], 3)) == "c1^2 - c2"
    assert str(segre_polynomial(1, 3)) == "c1"
