from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from reference_matrices import Quotient
from hodgecalc import matrices
from hodgecalc.errors import NoSolution, NotNilpotent
from hodgecalc.matrices import (
    Mat, Splitting, det, kernel_basis, kernel_matrix, kernel_with_free_columns, nilpotency_index,
    nilpotent_powers, rank, rref, smith_normal_form, sub_canonical, sub_complement_in,
    sub_contains, sub_equal, sub_full, sub_intersect, sub_sum,
)
from hodgecalc.rationals import GaussianRational


def test_rref_proportional_rows():
    m = Mat.from_rows([[1, 2], [2, 4]])
    red, pivots, rk = rref(m)
    assert rk == 1
    assert pivots == (0,)
    assert red.row(0) == (GaussianRational(1), GaussianRational(2))


def test_rref_identity():
    red, pivots, rk = rref(Mat.identity(3))
    assert rk == 3 and pivots == (0, 1, 2)


def test_rref_permutation():
    red, pivots, rk = rref(Mat.from_rows([[0, 1], [1, 0]]))
    assert rk == 2
    assert red == Mat.identity(2)


def test_kernel_proportional():
    ker = kernel_basis(Mat.from_rows([[1, 2], [2, 4]]))
    assert len(ker) == 1
    assert list(ker[0]) == [GaussianRational(-2), GaussianRational(1)]


def test_kernel_injective():
    assert kernel_basis(Mat.identity(2)) == []


def test_kernel_annihilation():
    m = Mat.from_rows([[1, 1, 1]])
    ker = kernel_basis(m)
    assert len(ker) == 2
    for v in ker:
        assert all(not x for x in m.mat_vec(v))


def test_kernel_rank_nullity_seeded():
    rng = random.Random(11)
    for _ in range(25):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = Mat.from_rows([[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
        ker = kernel_basis(m)
        assert rank(m) + len(ker) == c
        for v in ker:
            assert all(not x for x in m.mat_vec(v))


def test_kernel_rows_are_unit_vectors_at_the_free_columns():
    """Row i of the kernel is 1 at the i-th non-pivot column and 0 at the
    other non-pivot columns, on seeded integer and Gaussian matrices."""
    rng = random.Random(17)
    for trial in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        m = Mat.from_rows([[GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1) if trial % 2 else 0)
                            if rng.random() < 0.6 else 0 for _ in range(c)] for _ in range(r)])
        ker, free = kernel_with_free_columns(m)
        assert ker == kernel_matrix(m)
        assert free == [j for j in range(c) if j not in rref(m)[1]]
        assert [[ker[i, j] for j in free] for i in range(ker.rows)] == \
            [[int(i == k) for k in range(len(free))] for i in range(len(free))]


# --- Smith normal form ------------------------------------------------------

def _minor_gcd_factors(m: Mat):
    """Independent oracle: d_1 * ... * d_k = gcd of all k x k minors."""
    entries = [[int(m[i, j].re) for j in range(m.cols)] for i in range(m.rows)]
    rows, cols = m.rows, m.cols
    prev = 1
    factors = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                sub = Mat.from_rows([[entries[i][j] for j in cs] for i in rs])
                g = gcd(g, abs(int(det(sub).re)))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


@pytest.mark.parametrize("rows,expected", [
    ([[1, 0], [0, 1]], (1, 1)),
    ([[2, 0], [0, 3]], (1, 6)),
    ([[2, 4], [6, 8]], (2, 4)),
])
def test_smith_examples(rows, expected):
    snf = smith_normal_form(Mat.from_rows(rows))
    assert snf.invariant_factors == expected
    assert _minor_gcd_factors(Mat.from_rows(rows)) == expected


def test_smith_seeded_against_minor_gcd():
    rng = random.Random(5)
    for _ in range(20):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = Mat.from_rows([[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)])
        snf = smith_normal_form(m)
        assert snf.u @ m @ snf.v == snf.d
        assert det(snf.u).abs2() == 1 and det(snf.v).abs2() == 1
        for a, b in zip(snf.invariant_factors, snf.invariant_factors[1:]):
            assert b % a == 0
        assert snf.invariant_factors == _minor_gcd_factors(m)


# --- subspace calculus -------------------------------------------------------

def test_intersection_and_sum():
    a = Mat.from_rows([[1, 0, 0], [0, 1, 0]])
    b = Mat.from_rows([[0, 1, 0], [0, 0, 1]])
    inter = sub_intersect(a, b)
    assert inter.rows == 1 and sub_contains(inter, Mat.from_rows([[0, 1, 0]]))
    total = sub_sum(a, b)
    assert total.rows == 3


def test_canonical_bases_and_the_whole_space_run_no_elimination(monkeypatch):
    i = GaussianRational(0, 1)
    spaces = [sub_canonical(Mat.from_rows(rows)) for rows in (
        [[2, 4, 0, 6], [1, 2, 1, 0]], [[0, i, 1, 0]], [[1, 0, 0, 0], [0, 0, 0, 1]])]
    calls = []
    real = matrices._eliminate
    monkeypatch.setattr(matrices, "_eliminate", lambda *a: calls.append(a) or real(*a))
    for w in spaces:
        assert sub_canonical(w) is w
        assert sub_intersect(sub_full(4), w) is w and sub_intersect(w, sub_full(4)) is w
    assert sub_intersect(sub_full(4), sub_full(4)) == sub_full(4)
    assert calls == []


def test_quotient_induced_map():
    n = Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    sup = Mat.identity(3)
    sub = Mat.from_rows([[1, 0, 0]])
    q = Quotient(sup, sub)
    assert q.dim == 2
    induced = q.induced_map(n)
    assert induced.rows == 2
    # induced map is still nilpotent of the right rank
    assert rank(induced) == 1


def test_complement_is_complementary():
    sup = Mat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    sub = Mat.from_rows([[1, 1, 0]])
    comp = sub_complement_in(sub, sup)
    assert comp.rows == 2
    assert sub_equal(sub_sum(sub, comp), sup)
    assert sub_intersect(sub, comp).rows == 0


def test_splitting_of_a_plane_and_a_line():
    plane = Mat.from_rows([[1, 1, 0], [0, 1, 1]])
    line = Mat.from_rows([[1, 0, 1]])
    split = Splitting({"b": line, "a": plane, "c": Mat.zeros(0, 3)})
    assert list(split.spaces) == ["a", "b"] and split.labels == ("a", "a", "b")
    assert split.t @ split.t_inv == Mat.identity(3)
    v = [3, 5, 4]                      # 2 (1,1,0) + 3 (0,1,1) + 1 (1,0,1)
    assert split.t_inv.mat_vec(v) == (2, 3, 1)
    pa, pb = split.projector("a"), split.projector("b")
    assert pa + pb == Mat.identity(3) and pa @ pa == pa and pa @ pb == Mat.zeros(3, 3)
    assert pb.mat_vec(v) == (1, 0, 1)
    assert split.diagonal(lambda k: 1 if k == "a" else 0) == pa
    # m (1,0,1) = (1,0,4) = -3/2 (1,1,0) + 3/2 (0,1,1) + 5/2 (1,0,1)
    m = Mat.from_rows([[1, 2, 0], [0, 1, 0], [3, 0, 1]])
    assert split.block(m, "b", "a") == Mat.from_rows([[Fraction(-3, 2)], [Fraction(3, 2)]])
    assert split.block(m, "b", "b") == Mat.from_rows([[Fraction(5, 2)]])
    # the blocks of m and of the projector onto V_a, from their flattenings:
    # pa is the identity on V_a and kills V_b
    flat = Mat.stack([m.reshape(1, 9), pa.reshape(1, 9)])
    assert split.flat_blocks(flat, "b", "a") == Mat.from_rows([[Fraction(-3, 2), Fraction(3, 2)],
                                                                [0, 0]])
    assert split.flat_blocks(flat, "a", "a").take([1]) == Mat.identity(2).reshape(1, 4)


def test_splitting_coords_read_off_the_projection():
    split = Splitting({0: Mat.from_rows([[1, 1, 0], [0, 1, 1]]), 1: Mat.from_rows([[1, 0, 1]])})
    rng = random.Random(9)
    s = Mat.from_rows([[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
                       for _ in range(4)])
    for k in (0, 1):
        assert split.coords(s, k) @ split.spaces[k] == s @ split.projector(k).transpose()
    assert split.coords(Mat.from_rows([[3, 5, 4]]), 0) == Mat.from_rows([[2, 3]])


@pytest.mark.parametrize("spaces", [
    {0: Mat.from_rows([[1, 0, 0]]), 1: Mat.from_rows([[2, 0, 0], [0, 1, 0]])},
    {0: Mat.from_rows([[1, 0, 0]])},
], ids=["dependent", "too-few"])
def test_splitting_needs_a_direct_sum(spaces):
    with pytest.raises(NoSolution):
        Splitting(spaces)


def test_stack_puts_rows_under_each_other():
    i = GaussianRational(0, 1)
    a, b = Mat.from_rows([[1, Fraction(1, 2)]]), Mat.from_rows([[i, 0], [0, 3]])
    s = Mat.stack([a, Mat.zeros(0, 2), b])
    assert s == Mat.from_rows([[1, Fraction(1, 2)], [i, 0], [0, 3]]) and not s.is_real()
    assert Mat.stack([Mat.zeros(0, 0), a, Mat.zeros(0, 5)]) == a   # no rows, no width
    assert Mat.stack([Mat.zeros(0, 3)]) == Mat.zeros(0, 3)
    with pytest.raises(ValueError, match="shape mismatch"):
        Mat.stack([a, Mat.identity(3)])
    with pytest.raises(ValueError, match="no matrices"):
        Mat.stack([])


def test_zeros_with_no_rows_builds_no_row():
    # a zero subspace of a wide space is cheap: no row of `cols` zeros is built
    tracemalloc.start()
    try:
        m = Mat.zeros(0, 10 ** 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (m.rows, m.cols) == (0, 10 ** 7) and peak < 2 ** 20


def test_from_int_rows_takes_any_int_sequences():
    rows = [(2, 4, -6), [0, 0, 0], range(3)]
    m = Mat.from_int_rows(rows, 4)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    assert m == Mat.from_rows([[half, 1, -3 * half], [0, 0, 0], [0, quarter, half]])
    assert Mat.from_int_rows([(1, 2)], 1) == Mat.from_int_rows([[1, 2]], 1)
    assert [re for re, _, _ in m.int_rows()] == [[1, 2, -3], [0, 0, 0], [0, 1, 2]]


def test_nilpotent_powers_end_at_the_first_zero_power():
    n = Mat.from_rows([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    powers = nilpotent_powers(n)
    assert powers == [n, n @ n, Mat.zeros(3, 3)]
    assert nilpotency_index(n) == 3
    assert nilpotent_powers(Mat.zeros(2, 2)) == [Mat.zeros(2, 2)]
    for m in (Mat.identity(2), Mat.from_rows([[0, 1], [1, 0]]), Mat.zeros(0, 0)):
        with pytest.raises(NotNilpotent):
            nilpotent_powers(m)


def test_nilpotent_powers_take_one_product_per_power(monkeypatch):
    calls, product = [], matrices._product
    monkeypatch.setattr(matrices, "_product", lambda a, b: calls.append(a) or product(a, b))
    n = Mat.from_rows([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    assert len(nilpotent_powers(n)) == 3 and len(calls) == 2
    calls.clear()
    with pytest.raises(NotNilpotent, match=r"^matrix is not nilpotent \(n\^3 != 0\)$"):
        nilpotent_powers(Mat.identity(3))
    assert len(calls) == 2
