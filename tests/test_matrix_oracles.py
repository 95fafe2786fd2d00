"""Property tests: the integer kernels of ``hodgecalc.matrices`` against oracles.

The oracle is the fraction-full implementation kept in
``reference_matrices``; ``kernel_basis`` and ``solve`` are compared with the
same functions running on the reference ``rref``, ``sub_canonical`` and
``sub_intersect`` with the reference versions that always eliminate, and
``solve``, ``inverse``, ``coords_in_basis``, ``row_coords`` and
``sub_contains_vec`` with the versions that each built their own augmented
matrix.  Where
sympy is installed, ``rref`` and ``det`` are also checked against it over
Q(i).  Where hypothesis is installed, the entry-wise methods are checked
against entry-by-entry ``GaussianRational`` arithmetic, and every result
against the canonical form of its entries.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction
from math import gcd

import pytest

import reference_matrices as ref
from hodgecalc import matrices
from hodgecalc.errors import NoSolution
from hodgecalc.matrices import (
    Mat, coords_in_basis, det, extend_basis, inverse, kernel_basis, row_coords, rref, solve,
    sub_canonical, sub_complement_in, sub_contains, sub_contains_vec, sub_equal, sub_image,
    sub_intersect, sub_sum, sub_sum_ambient,
)
from hodgecalc.rationals import GaussianRational, ZERO


def _scalar(rng: random.Random, gaussian: bool, big: bool) -> GaussianRational:
    def part():
        if rng.random() < 0.4:
            return Fraction(0)
        if big:
            return Fraction(rng.randint(-2 ** 70, 2 ** 70), rng.randint(1, 2 ** 64))
        return Fraction(rng.randint(-5, 5), rng.choice((1, 1, 1, 2, 3, 7)))
    return GaussianRational(part(), part() if gaussian else 0)


def _matrix(rng: random.Random, gaussian: bool, big: bool = False,
            rows: int | None = None, cols: int | None = None) -> Mat:
    """A seeded matrix: full, rank-deficient, or with zero rows and columns."""
    r = rng.randint(0, 7) if rows is None else rows
    c = rng.randint(0, 7) if cols is None else cols
    kind = rng.choice(("full", "low-rank", "zero-lines"))
    if kind == "low-rank" and r and c:
        k = rng.randint(0, min(r, c))
        left = Mat(r, k, [_scalar(rng, gaussian, big) for _ in range(r * k)])
        right = Mat(k, c, [_scalar(rng, gaussian, big) for _ in range(k * c)])
        return ref.matmul(left, right) if k else Mat.zeros(r, c)
    entries = [_scalar(rng, gaussian, big) for _ in range(r * c)]
    if kind == "zero-lines" and r and c:
        zero_row, zero_col = rng.randrange(r), rng.randrange(c)
        entries = [ZERO if i // c == zero_row or i % c == zero_col else e
                   for i, e in enumerate(entries)]
    return Mat(r, c, entries)


SEEDS = range(40)
RINGS = pytest.mark.parametrize("gaussian,big", [(False, False), (False, True),
                                                 (True, False), (True, True)])


@RINGS
def test_rref_kernel_solve_match_reference(gaussian, big, monkeypatch):
    cases = []
    for seed in SEEDS:
        rng = random.Random(1000 * seed + 10 * gaussian + big)
        m = _matrix(rng, gaussian, big)
        b = [_scalar(rng, gaussian, big) for _ in range(m.rows)]
        assert rref(m) == ref.rref(m), seed
        cases.append((m, b, kernel_basis(m), solve(m, b)))
    monkeypatch.setattr(matrices, "rref", ref.rref)
    for seed, (m, b, kernel, x) in zip(SEEDS, cases):
        assert kernel == matrices.kernel_basis(m), seed
        assert x == matrices.solve(m, b), seed


@RINGS
def test_det_and_inverse_match_reference(gaussian, big):
    for seed in SEEDS:
        rng = random.Random(2000 * seed + 10 * gaussian + big)
        n = rng.randint(0, 6)
        m = _matrix(rng, gaussian, big, rows=n, cols=n)
        d = ref.det(m)
        assert det(m) == d, seed
        if d:
            inv = inverse(m)
            assert inv == ref.inverse(m) and ref.matmul(m, inv) == Mat.identity(n), seed
        else:
            for invert in (inverse, ref.inverse):
                with pytest.raises(NoSolution, match="matrix is singular"):
                    invert(m)


@RINGS
def test_products_match_reference(gaussian, big):
    """a @ b against the reference entry loop, b over either ring whatever
    the ring of a: seeded shapes up to 6, rows of unequal denominators, zero
    rows in either factor, an inner dimension of 0, and the shapes the
    workloads multiply most (12 x 12 at 15 % density, dense 8 x 8, a
    Gaussian 1 x 12 times 12 x 100 at 10 %).  No product changes the int
    rows of its factors."""
    def check(a, b, label):
        before = copy.deepcopy([(m._num, m._den) for m in (a, b)])
        assert a @ b == ref.matmul(a, b), label
        assert [(m._num, m._den) for m in (a, b)] == before, label

    unequal = Mat.from_rows([[Fraction(1, 2), 0, 3], [0, 0, 0], [Fraction(2, 3), 1, 0],
                             [0, Fraction(5, 7), Fraction(1, 7)]])
    assert len(set(unequal._den)) == 4
    check(Mat.from_rows([[1, -1], [0, 0]]),     # terms that cancel to a zero row
          Mat.from_rows([[Fraction(1, 2), 2], [Fraction(1, 2), 2]]), "cancel")
    for seed in SEEDS:
        rng = random.Random(3000 * seed + 10 * gaussian + big)
        n, k, p = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a = _matrix(rng, gaussian, big, rows=n, cols=k)
        b = _matrix(rng, rng.random() < 0.5, big, rows=k, cols=p)
        check(a, b, seed)
        v = [_scalar(rng, gaussian, big) for _ in range(k)]
        assert a.mat_vec(v) == ref.mat_vec(a, v), seed
        n, p = rng.randint(0, 4), rng.randint(0, 4)
        check(Mat.stack([_sparse(rng, gaussian, big, n, 4, 0.5), Mat.zeros(1, 4)]), unequal, seed)
        check(unequal.transpose(), _sparse(rng, gaussian, big, 4, p, 0.5), seed)
        check(Mat.zeros(n, 0), Mat.zeros(0, p), seed)
        for (n, k, p), density, b_gaussian in (((12, 12, 12), 0.15, gaussian),
                                               ((8, 8, 8), 1, gaussian), ((1, 12, 100), 0.1, True)):
            check(_sparse(rng, gaussian, big, n, k, density),
                  _sparse(rng, b_gaussian, big, k, p, density), (seed, n, k, p))


def _sparse(rng: random.Random, gaussian: bool, big: bool, rows: int, cols: int,
            density: float) -> Mat:
    """A seeded matrix whose entries are nonzero with the given probability."""
    def nonzero():
        x = ZERO
        while not x:
            x = _scalar(rng, gaussian, big)
        return x
    return Mat(rows, cols, [nonzero() if rng.random() < density else ZERO
                            for _ in range(rows * cols)])


def _right_sides(rng: random.Random, m: Mat, gaussian: bool, big: bool):
    """Seeded matrices b with m.rows rows: b = m @ x (consistent), any b
    (inconsistent when m has low rank), and zero."""
    cols = rng.randint(0, 3)
    x = _matrix(rng, gaussian, rows=m.cols, cols=cols)
    return [ref.matmul(m, x), _matrix(rng, gaussian, big, rows=m.rows, cols=cols),
            Mat.zeros(m.rows, cols)]


def _linear_systems(rng: random.Random, gaussian: bool, big: bool):
    """Seeded matrices of every shape, with and without rows and columns."""
    shapes = [(0, 0), (0, 3), (3, 0), (rng.randint(1, 5), rng.randint(1, 5))]
    return [_matrix(rng, gaussian, big, rows=r, cols=c) for r, c in shapes]


@RINGS
def test_linear_systems_match_reference(gaussian, big):
    """solve, coords_in_basis, row_coords and sub_contains_vec against the
    versions that each built their own augmented matrix: consistent and
    inconsistent systems, empty bases, zero vectors, shapes without rows or
    columns."""
    seen = set()
    for seed in SEEDS:
        rng = random.Random(8000 * seed + 10 * gaussian + big)
        for m in _linear_systems(rng, gaussian, big):
            for b in _right_sides(rng, m, gaussian, big):
                for j in range(b.cols):
                    x = solve(m, b.col(j))
                    assert x == ref.solve(m, b.col(j)), seed
                    seen.add(x is None)
                # the rows of b.T as vectors of the row space of m.T
                basis, s = m.transpose(), b.transpose()
                assert row_coords(basis, s) == ref.row_coords(basis, s), seed
                for i in range(s.rows):
                    v = s.row(i)
                    assert coords_in_basis(basis, v) == ref.coords_in_basis(basis, v), seed
                    assert sub_contains_vec(basis, v) == ref.sub_contains_vec(basis, v), seed
    assert seen == {False, True}


def test_shapes_without_rows_or_columns():
    for r, c in ((0, 0), (0, 3), (3, 0)):
        m = Mat.zeros(r, c)
        assert rref(m) == ref.rref(m)
        assert kernel_basis(m) == [tuple(Mat.identity(c).row(i)) for i in range(c)]
        assert (m @ Mat.zeros(c, 2)) == ref.matmul(m, Mat.zeros(c, 2))
        assert m.mat_vec([1] * c) == ref.mat_vec(m, [1] * c)
    assert det(Mat.zeros(0, 0)) == ref.det(Mat.zeros(0, 0)) == GaussianRational(1)
    assert inverse(Mat.zeros(0, 0)) == Mat.zeros(0, 0)


def test_complex_pivots():
    i = GaussianRational(0, 1)
    m = Mat.from_rows([[i, 1, GaussianRational(2, -3)],
                       [GaussianRational(1, 1), GaussianRational(0, Fraction(1, 2)), 0],
                       [GaussianRational(1, -1), GaussianRational(Fraction(3, 2), 1), 5]])
    assert rref(m) == ref.rref(m)
    assert det(m) == ref.det(m) != ZERO
    assert inverse(m) @ m == Mat.identity(3)


def test_shape_errors_are_kept():
    with pytest.raises(ValueError, match="shape mismatch"):
        Mat.zeros(2, 3) @ Mat.zeros(2, 3)
    with pytest.raises(ValueError, match="vector length mismatch"):
        Mat.zeros(2, 3).mat_vec([1, 2])
    with pytest.raises(ValueError, match="non-square"):
        det(Mat.zeros(2, 3))
    with pytest.raises(ValueError, match="non-square"):
        inverse(Mat.zeros(2, 3))
    for b in ([1, 2, 3], [1], []):      # solve checks b as mat_vec checks v
        with pytest.raises(ValueError, match="vector length mismatch"):
            solve(Mat.identity(2), b)
    # an empty basis or a zero vector does not skip the check
    for call in (lambda: sub_contains_vec(Mat.zeros(0, 3), [1, 2]),
                 lambda: sub_contains_vec(Mat.identity(3), [0, 0]),
                 lambda: coords_in_basis(Mat.zeros(0, 3), [0, 0, 0, 0]),
                 lambda: coords_in_basis(Mat.identity(3), [1, 2]),
                 lambda: row_coords(Mat.identity(3), Mat.zeros(2, 2)),
                 lambda: sub_contains(Mat.zeros(0, 3), Mat.zeros(1, 2)),
                 lambda: sub_contains(Mat.identity(3), Mat.zeros(0, 2)),
                 lambda: sub_contains(Mat.identity(3), Mat.identity(2)),
                 lambda: sub_contains(Mat.from_rows([[1, 1, 0], [1, 1, 0]]), Mat.identity(2)),
                 lambda: sub_intersect(Mat.identity(3), Mat.identity(2)),
                 lambda: sub_intersect(Mat.zeros(0, 3), Mat.identity(2)),
                 lambda: sub_sum(Mat.zeros(0, 3), Mat.identity(2)),
                 lambda: sub_sum(Mat.identity(2), Mat.zeros(0, 3)),
                 lambda: sub_image(Mat.identity(3), Mat.identity(2)),
                 lambda: sub_image(Mat.identity(3), Mat.zeros(0, 2)),
                 lambda: sub_sum_ambient([Mat.identity(2)], 3),
                 lambda: sub_sum_ambient([Mat.zeros(0, 2)], 3),
                 lambda: sub_complement_in(Mat.zeros(0, 2), Mat.identity(3)),
                 lambda: sub_complement_in(Mat.identity(2), Mat.zeros(0, 3)),
                 lambda: extend_basis(Mat.zeros(0, 2), Mat.identity(3))):
        with pytest.raises(ValueError, match="vector length mismatch"):
            call()


# --- sympy cross-check over Q(i) -------------------------------------------

def _to_sympy(sp, e: GaussianRational):
    return sp.Rational(e.re.numerator, e.re.denominator) + \
        sp.I * sp.Rational(e.im.numerator, e.im.denominator)


def _same(sp, ours: GaussianRational, theirs) -> bool:
    return sp.expand(_to_sympy(sp, ours) - theirs) == 0


@pytest.mark.parametrize("gaussian", [False, True])
def test_rref_and_det_match_sympy(gaussian):
    sp = pytest.importorskip("sympy")
    for seed in range(12):
        rng = random.Random(4000 * seed + gaussian)
        m = _matrix(rng, gaussian, rows=rng.randint(1, 5), cols=rng.randint(1, 5))
        sm = sp.Matrix(m.rows, m.cols, [_to_sympy(sp, e) for e in m.entries])
        red, pivots, rank = rref(m)
        s_red, s_pivots = sm.rref(simplify=True)
        assert pivots == tuple(s_pivots) and rank == len(s_pivots), seed
        assert all(_same(sp, a, b) for a, b in zip(red.entries, s_red)), seed
        n = min(m.rows, m.cols)
        square = Mat.from_rows([list(m.row(i))[:n] for i in range(n)])
        assert _same(sp, det(square), sm[:n, :n].det()), seed


def _integer_matrix(rng: random.Random, rows: int, cols: int) -> Mat:
    """A seeded integer matrix: full, of lower rank (a product through a
    narrower middle), or with zero rows and columns."""
    kind = rng.choice(("full", "low-rank", "zero-lines"))
    if kind == "low-rank":
        k = rng.randint(0, min(rows, cols))
        left = Mat.from_rows([[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)])
        right = Mat.from_rows([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)])
        return left @ right if k else Mat.zeros(rows, cols)
    m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    if kind == "zero-lines":
        for i in range(rows):
            if rng.random() < 0.3:
                m[i] = [0] * cols
        for j in range(cols):
            if rng.random() < 0.3:
                for row in m:
                    row[j] = 0
    return Mat.from_rows(m)


def test_smith_invariant_factors_match_sympy():
    sp = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_smith
    from hodgecalc.matrices import smith_normal_form
    shapes = set()
    for seed in range(60):
        rng = random.Random(5000 + seed)
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _integer_matrix(rng, rows, cols)
        theirs = sympy_smith(sp.Matrix(rows, cols, [int(e.re) for e in m.entries]),
                             domain=sp.ZZ)
        expected = tuple(abs(int(theirs[i, i])) for i in range(min(rows, cols))
                         if theirs[i, i] != 0)
        assert smith_normal_form(m).invariant_factors == expected, seed
        shapes.add((rows < cols) - (rows > cols))
    assert shapes == {-1, 0, 1}      # tall, square and wide matrices all occur


# --- the stored form against entry-by-entry arithmetic ------------------------

def assert_canonical(m: Mat):
    """m's integer rows are the canonical form: one positive denominator per
    row, gcd of each row with its denominator 1, Z[i] only when some
    imaginary part is nonzero."""
    gaussian = m._ring is matrices._ZI
    assert len(m._num) == len(m._den) == m.rows
    for row, d in zip(m._num, m._den):
        parts = row[0] + row[1] if gaussian else row
        assert isinstance(row, tuple if gaussian else list)
        assert len(parts) == (2 if gaussian else 1) * m.cols
        assert type(d) is int and d > 0 and gcd(d, *parts) == 1
    assert not gaussian or any(any(im) for _, im in m._num)


def assert_same(ours: Mat, reference: Mat):
    assert_canonical(ours)
    assert ours == reference and hash(ours) == hash(reference)
    assert ours.entries == reference.entries


def _strategies(st):
    small = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 7]))
    big = st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 70))
    part = st.one_of(st.just(Fraction(0)), small, big)
    real = st.builds(GaussianRational, part)
    gaussian = st.builds(GaussianRational, part, part)
    scalars = st.one_of(real, gaussian, st.just(ZERO))

    @st.composite
    def matrix(draw, rows, cols):
        scalar = draw(st.sampled_from([real, gaussian]))
        entries = draw(st.lists(scalar, min_size=rows * cols, max_size=rows * cols))
        zero_rows = draw(st.sets(st.integers(0, rows - 1))) if rows else set()
        return Mat(rows, cols, [ZERO if i // cols in zero_rows else e
                                for i, e in enumerate(entries)])

    @st.composite
    def pair(draw):
        rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        return draw(matrix(rows, cols)), draw(matrix(rows, cols))

    return scalars, matrix, pair


def test_entrywise_methods_match_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars, _, pair = _strategies(st)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(pair(), scalars, st.data())
    def check(ab, c, data):
        a, b = ab
        assert_same(a + b, ref.add(a, b))
        assert_same(a - b, ref.sub(a, b))
        assert_same(-a, ref.neg(a))
        assert_same(a.scale(c), ref.scale(a, c))
        assert_same(a.transpose(), ref.transpose(a))
        assert_same(a.conj(), ref.conj(a))
        assert a.is_zero() == ref.is_zero(a) and a.is_real() == ref.is_real(a)
        v = data.draw(st.lists(scalars, min_size=a.cols, max_size=a.cols))
        assert a.mat_vec(v) == ref.mat_vec(a, v)
        assert_same(Mat.stack([a, b]), ref.stack([a, b]))
    check()


def test_kernel_results_equal_entry_built_matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    _, matrix, _ = _strategies(st)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
    def check(n, k, p, data):
        a, b = data.draw(matrix(n, k)), data.draw(matrix(k, p))
        for out in (a @ b, rref(a)[0], a.transpose() @ a):
            assert_same(out, Mat(out.rows, out.cols, out.entries))
    check()


def test_gaussian_product_with_cancelled_imaginary_parts_is_real():
    i = GaussianRational(0, 1)
    a = Mat.from_rows([[i, 1], [GaussianRational(1, 1), 2]])
    b = Mat.from_rows([[i, 0], [1, GaussianRational(3, -1)]])
    p = a @ b        # row 0 is [i*i + 1, 3 - i]: one entry cancels, one is not real
    assert not p.is_real()
    real = Mat.from_rows([[i, 1]]) @ Mat.from_rows([[i], [1]])      # i*i + 1 = 0
    assert real.is_real() and real.is_zero() and real == Mat.zeros(1, 1)
    two = Mat.from_rows([[GaussianRational(1, 1)]]) @ Mat.from_rows([[GaussianRational(1, -1)]])
    assert two.is_real() and two == Mat.from_rows([[2]]) and hash(two) == hash(Mat.from_rows([[2]]))
    assert_canonical(two)
    assert a.conj().conj() == a and (a - a) == Mat.zeros(2, 2) and (a - a).is_real()


def test_kernels_leave_their_inputs_unchanged():
    """Int rows are shared between matrices, so no operation may change a
    row of its input in place."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    _, matrix, _ = _strategies(st)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.integers(0, 4), st.integers(0, 4), st.data())
    def check(n, k, data):
        a, b, s = data.draw(matrix(n, n)), data.draw(matrix(n, k)), data.draw(matrix(k, n))
        before = [copy.deepcopy((m._num, m._den)) for m in (a, b, s)]
        rref(a), rref(b), det(a), a @ b, s @ a, Mat.stack([a, s]), kernel_basis(b)
        solve(a, [1] * n), a.transpose(), b.scale(GaussianRational(2, 1)), a + a
        try:
            inverse(a)
        except NoSolution:
            pass
        assert [(m._num, m._den) for m in (a, b, s)] == before
        assert all(m == Mat(m.rows, m.cols, m.entries) for m in (a, b, s))
    check()


@RINGS
def test_row_coords_and_extend_basis_match_row_by_row(gaussian, big):
    for seed in SEEDS:
        rng = random.Random(6000 * seed + 10 * gaussian + big)
        k, c = rng.randint(0, 4), rng.randint(1, 5)
        basis = _matrix(rng, gaussian, big, rows=k, cols=c)
        # rows in the row space of basis, then maybe one that is not
        s = ref.matmul(_matrix(rng, gaussian, big, rows=rng.randint(0, 3), cols=k), basis) \
            if k else Mat.zeros(rng.randint(0, 3), c)
        if rng.random() < 0.5:
            s = Mat.stack([s, _matrix(rng, gaussian, big, rows=1, cols=c)])
        expected = [coords_in_basis(basis, s.row(i)) for i in range(s.rows)]
        got = row_coords(basis, s)
        if None in expected:
            assert got is None, seed
        else:
            assert got == Mat(s.rows, k, [x for row in expected for x in row]), seed
        independent = sub_canonical(basis)
        assert extend_basis(independent, s) == ref.extend_basis(independent, s), seed


def test_extend_basis_matches_greedy_loop():
    """The pivots of one elimination pick the rows the greedy loop picks:
    over Z and Z[i], with candidates that depend on sub and on earlier
    candidates, zero rows, and shapes without rows."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    _, matrix, _ = _strategies(st)
    small = st.integers(0, 4)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(small, small, small, st.integers(0, 3), st.data())
    def check(cols, k, n, extra, data):
        sub = sub_canonical(data.draw(matrix(k, cols)))
        free = data.draw(matrix(n, cols))
        # rows in the span of sub and the free candidates, placed anywhere
        spanned = Mat.stack([sub, free])
        mix = data.draw(matrix(extra, spanned.rows))
        dependent = mix @ spanned if spanned.rows else Mat.zeros(extra, cols)
        candidates = Mat.stack([free, dependent])
        order = data.draw(st.permutations(range(candidates.rows)))
        candidates = candidates.take(order)
        assert_same(extend_basis(sub, candidates), ref.extend_basis(sub, candidates))
    check()


def test_extend_basis_is_one_elimination(monkeypatch):
    calls = []
    real = matrices.rref

    def counting(m):
        calls.append(m)
        return real(m)
    monkeypatch.setattr(matrices, "rref", counting)
    rng = random.Random(31)
    for rows in (0, 1, 6):
        sub = sub_canonical(_matrix(rng, True, rows=2, cols=5))
        candidates = _matrix(rng, True, rows=rows, cols=5)
        calls.clear()
        extend_basis(sub, candidates)
        assert len(calls) == 1


# --- canonical bases and intersections ----------------------------------------

def _subspace_pairs(rng: random.Random, gaussian: bool, big: bool):
    """Seeded (a, b) pairs of one width: any bases, canonical ones, the
    identity, a square basis with dependent rows, the zero space, and a
    basis against itself."""
    c = rng.randint(1, 6)
    a = _matrix(rng, gaussian, big, cols=c)
    b = _matrix(rng, gaussian, big, cols=c)
    full, zero = Mat.identity(c), Mat.zeros(0, c)
    top = _matrix(rng, gaussian, big, rows=c - 1, cols=c)
    square = Mat.stack([top, top.take([0])]) if c > 1 else Mat.zeros(1, 1)
    canon = ref.sub_canonical(a)
    return [(a, b), (canon, b), (a, canon), (canon, ref.sub_canonical(b)), (full, a), (b, full),
            (full, canon), (full, full), (square, a), (a, square), (zero, a), (a, zero),
            (full, zero), (a, a), (canon, canon), (canon, a)]


@RINGS
def test_sub_canonical_and_sub_intersect_match_reference(gaussian, big):
    for seed in SEEDS:
        rng = random.Random(7000 * seed + 10 * gaussian + big)
        for i, (a, b) in enumerate(_subspace_pairs(rng, gaussian, big)):
            assert_same(sub_canonical(a), ref.sub_canonical(a))
            assert_same(sub_intersect(a, b), ref.sub_intersect(a, b))
            if a.rows or b.rows:
                assert_same(sub_sum(a, b), ref.sub_canonical(Mat.stack([a, b])))
            assert sub_equal(a, b) == (ref.sub_canonical(a) == ref.sub_canonical(b)), (seed, i)


@RINGS
def test_sub_contains_matches_reference(gaussian, big):
    """Any and canonical bases, the zero-row space, and a t of zero rows."""
    seen = set()
    for seed in range(6):
        rng = random.Random(9000 * seed + 10 * gaussian + big)
        for s, t in _subspace_pairs(rng, gaussian, big):
            for x in (s, sub_canonical(s), Mat.zeros(0, s.cols)):
                for y in (t, sub_canonical(Mat.stack([x, t])), x.take(range(x.rows // 2)),
                          Mat.zeros(2, t.cols)):
                    holds = sub_contains(x, y)
                    assert holds == ref.sub_contains(x, y), seed
                    seen.add(((matrices.pivot_columns(x) is not None), holds))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_sub_contains_of_a_canonical_basis_runs_no_elimination(monkeypatch):
    """A canonical s is the identity at its pivot columns, so containment
    is one product."""
    calls = []
    real = matrices._eliminate

    def counting(rows, cols, ring):
        calls.append(rows)
        return real(rows, cols, ring)
    monkeypatch.setattr(matrices, "_eliminate", counting)
    rng = random.Random(37)
    for gaussian in (False, True):
        for _ in range(10):
            s = sub_canonical(_matrix(rng, gaussian, rows=3, cols=5))
            t = _matrix(rng, gaussian, rows=rng.randint(1, 3), cols=5)
            calls.clear()
            holds = sub_contains(s, t)
            assert calls == []
            assert holds == ref.sub_contains(s, t)


def test_sub_contains_of_any_other_basis_is_one_elimination(monkeypatch):
    calls = []
    real = matrices._eliminate

    def counting(rows, cols, ring):
        calls.append(rows)
        return real(rows, cols, ring)
    monkeypatch.setattr(matrices, "_eliminate", counting)
    rng = random.Random(41)
    for gaussian in (False, True):
        for _ in range(10):
            s = _matrix(rng, gaussian, rows=4, cols=5)
            s = Mat.stack([s, s.take([0])])       # a repeated row: never canonical
            t = _matrix(rng, gaussian, rows=rng.randint(1, 3), cols=5)
            calls.clear()
            holds = sub_contains(s, t)
            assert len(calls) == (0 if t.is_zero() else 1)
            assert holds == ref.sub_contains(s, t)


@RINGS
def test_trace_matches_the_diagonal_sum(gaussian, big):
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4)]
    for seed in SEEDS:
        rng = random.Random(9500 * seed + 10 * gaussian + big)
        for rows, cols in shapes:
            m = _matrix(rng, gaussian, big, rows=rows, cols=cols)
            ours, theirs = m.trace(), ref.trace(m)
            assert ours == theirs, (seed, rows, cols)
            assert type(ours.re) is Fraction and type(ours.im) is Fraction


def test_square_basis_with_dependent_rows_is_not_the_whole_space():
    square, line = Mat.from_rows([[1, 0], [1, 0]]), Mat.from_rows([[0, 1]])
    assert sub_intersect(square, line) == Mat.zeros(0, 2)
    assert sub_intersect(line, square) == Mat.zeros(0, 2)


def _canonical_by_rref(m: Mat) -> bool:
    red, _, r = rref(m)
    return red == m and r == m.rows


I = GaussianRational(0, 1)
HALF = Fraction(1, 2)
NEAR_MISSES = {
    "leading-two": [[2, 0], [0, 1]],
    "leading-half": [[HALF, 1]],
    "leading-i": [[I, 1]],
    "leading-two-over-z-i": [[2, I]],
    "leading-half-over-z-i": [[1, 0], [0, HALF * (1 + I)]],
    "above-a-pivot": [[1, 1], [0, 1]],
    "above-a-pivot-over-z-i": [[1, 0, I], [0, 0, 1]],
    "zero-row": [[1, 0], [0, 0]],
    "zero-row-first": [[0, 0, 0], [1, I, 0]],
    "repeated-pivot": [[1, 0], [1, 0]],
    "repeated-pivot-column": [[1, 0, 2], [1, 1, 0]],
    "decreasing-pivots": [[0, 1], [1, 0]],
    "decreasing-pivots-over-z-i": [[0, 1, I], [1, 0, 0]],
}
CANONICAL = {
    "identity": [[1, 0], [0, 1]],
    "one-row": [[1, 3, 0]],
    "free-columns": [[0, 1, HALF, 0, 2], [0, 0, 0, 1, -1]],
    "over-z-i": [[1, 0, I], [0, 1, HALF * I]],
    "over-z-i-leading-over-a-denominator": [[1, HALF * I]],
}


@pytest.mark.parametrize("rows", list(NEAR_MISSES.values()) + list(CANONICAL.values()),
                         ids=list(NEAR_MISSES) + list(CANONICAL))
def test_canonical_predicate_on_hand_built_bases(rows):
    m = Mat.from_rows(rows)
    assert (matrices.pivot_columns(m) is not None) == _canonical_by_rref(m) == (rows in CANONICAL.values())


@RINGS
def test_canonical_predicate_holds_exactly_on_reduced_bases(gaussian, big):
    seen = set()
    for seed in SEEDS:
        rng = random.Random(8000 * seed + 10 * gaussian + big)
        m = _matrix(rng, gaussian, big)
        red, _, r = rref(m)
        # the basis, its rref with and without zero rows, and those rows upside down
        for x in (m, red, red.take(range(r)), red.take(range(r - 1, -1, -1))):
            holds = (matrices.pivot_columns(x) is not None)
            assert holds == _canonical_by_rref(x), seed
            seen.add(holds)
    assert seen == {False, True}


@pytest.mark.parametrize("rows", list(NEAR_MISSES.values()) + list(CANONICAL.values()),
                         ids=list(NEAR_MISSES) + list(CANONICAL))
def test_pivot_columns_of_hand_built_bases(rows):
    m = Mat.from_rows(rows)
    assert matrices.pivot_columns(m) == (rref(m)[1] if rows in CANONICAL.values() else None)


@RINGS
def test_pivot_columns_are_the_rref_pivots(gaussian, big):
    """On the canonical basis of a seeded row space the helper returns the
    pivots of its elimination, and the entries of each vector of the space
    at those columns are its coordinates in the basis."""
    for seed in SEEDS:
        rng = random.Random(8100 * seed + 10 * gaussian + big)
        m = _matrix(rng, gaussian, big)
        red, pivots, r = rref(m)
        basis = red.take(range(r))
        assert matrices.pivot_columns(basis) == pivots, seed
        for v in m.row_list():
            coords = [v[p] for p in pivots]
            assert coords_in_basis(basis, v) == tuple(coords), seed
    assert matrices.pivot_columns(Mat.zeros(0, 3)) == ()


# --- Kronecker products ------------------------------------------------------

def _face_split_by_rows(a: Mat, b: Mat) -> Mat:
    """Row i is the entry-by-entry Kronecker product of row i of a and row i of b."""
    rows = [ref.kron(Mat.from_rows([a.row(i)]), Mat.from_rows([b.row(i)])).row(0)
            for i in range(a.rows)]
    return Mat.from_rows(rows) if rows else Mat.zeros(0, a.cols * b.cols)


@RINGS
def test_face_split_matches_row_by_row_kron(gaussian, big):
    for seed in SEEDS:
        rng = random.Random(8200 * seed + 10 * gaussian + big)
        rows = rng.randint(0, 5)
        a = _matrix(rng, gaussian, big, rows=rows)
        b = _matrix(rng, gaussian and seed % 2 == 0, big, rows=rows)
        assert_same(a.face_split(b), _face_split_by_rows(a, b))
        assert_same(b.face_split(a), _face_split_by_rows(b, a))


def test_face_split_of_no_rows_and_of_unequal_row_counts():
    b = Mat.from_rows([[I, 1], [Fraction(1, 3), 0]])
    for cols in (0, 2):
        z = Mat.zeros(0, cols)
        assert_same(z.face_split(Mat.zeros(0, 3)), Mat.zeros(0, 3 * cols))
    assert_same(Mat.zeros(2, 0).face_split(b), Mat.zeros(2, 0))
    assert_same(b.face_split(Mat.zeros(2, 3)), Mat.zeros(2, 6))
    for x, y in ((b, b.take([0])), (b.take([0]), b), (Mat.zeros(0, 2), b)):
        with pytest.raises(ValueError, match="unequal row counts"):
            x.face_split(y)


def test_kron_and_take_match_entrywise_products():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    _, matrix, _ = _strategies(st)
    shape = st.tuples(st.integers(0, 3), st.integers(0, 3))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(shape, shape, st.data())
    def check(sa, sb, data):
        a, b = data.draw(matrix(*sa)), data.draw(matrix(*sb))
        assert_same(a.kron(b), ref.kron(a, b))
        rows = data.draw(st.lists(st.integers(0, a.rows - 1))) if a.rows else []
        assert_same(a.take(rows), Mat.from_rows([a.row(i) for i in rows])
                    if rows else Mat.zeros(0, a.cols))
    check()


def test_kron_over_z_and_zi():
    i = GaussianRational(0, 1)
    a = Mat.from_rows([[1, 2], [Fraction(1, 3), 0]])
    b = Mat.from_rows([[i, 1], [GaussianRational(1, 1), Fraction(3, 2)]])
    for x, y in ((a, a), (a, b), (b, a), (b, b)):
        assert_same(x.kron(y), ref.kron(x, y))
    # canonical factors whose product row shares a factor with its
    # denominator: ((1 + i) / 2)^2 = 2i / 4 = i / 2, and 3/2 times 2/3
    c = Mat.from_rows([[GaussianRational(Fraction(1, 2), Fraction(1, 2))]])
    assert_same(c.kron(c), Mat.from_rows([[GaussianRational(0, Fraction(1, 2))]]))
    assert_same(Mat.from_rows([[Fraction(3, 2)]]).kron(Mat.from_rows([[Fraction(2, 3)]])),
                 Mat.identity(1))
    for rows, cols in ((0, 2), (2, 0), (0, 0)):
        z = Mat.zeros(rows, cols)
        assert_same(z.kron(b), ref.kron(z, b))
        assert_same(b.kron(z), ref.kron(b, z))


# --- reshape ------------------------------------------------------------------

def test_reshape_matches_entrywise_construction():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    _, matrix, _ = _strategies(st)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.integers(0, 6), st.integers(0, 3), st.integers(1, 3),
                      st.booleans(), st.data())
    def check(rows, cols, k, split, data):
        # a rows x (k * cols) matrix split into pieces of cols, or k * rows
        # rows of cols joined k at a time
        m = data.draw(matrix(rows, k * cols) if split else matrix(k * rows, cols))
        shape = (k * rows, cols) if split else (rows, k * cols)
        got = m.reshape(*shape)
        assert_same(got, Mat(*shape, m.entries))
        assert_same(got.reshape(m.rows, m.cols), m)
        # any other shape of the same size splits or joins a row in the
        # middle, and is refused
        n = m.rows * m.cols
        for c in range(1, n + 1):
            if n % c == 0 and c % m.cols and m.cols % c:
                with pytest.raises(ValueError, match="cannot reshape"):
                    m.reshape(n // c, c)
    check()


def test_reshape_renormalises_split_and_joined_rows():
    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    i = GaussianRational(0, 1)
    m = Mat.from_rows([[half, third]])                  # one row over 6
    assert m._den == (6,)
    assert_same(m.reshape(2, 1), Mat.from_rows([[half], [third]]))
    assert_same(Mat.from_rows([[half], [third], [sixth], [0]]).reshape(1, 4),
                 Mat.from_rows([[half, third, sixth, 0]]))
    assert_same(Mat.from_rows([[half], [third]]).reshape(1, 2), m)
    # a Gaussian row whose halves are one real and one non-real row
    g = Mat.from_rows([[half, 1, GaussianRational(third, 1), 0]])
    assert_same(g.reshape(2, 2), Mat.from_rows([[half, 1], [GaussianRational(third, 1), 0]]))
    assert_same(Mat.from_rows([[i * third, 0], [half, sixth]]).reshape(1, 4),
                 Mat(1, 4, [i * third, 0, half, sixth]))
    assert_same(Mat.from_rows([[i, 0], [0, 1]]).reshape(4, 1).reshape(1, 4),
                 Mat(1, 4, [i, 0, 0, 1]))
    for rows, cols in ((0, 3), (3, 0), (0, 0)):
        assert_same(Mat.zeros(2, 0).reshape(rows, cols), Mat.zeros(rows, cols))


@pytest.mark.parametrize("shape,to", [
    ((2, 6), (3, 4)),      # 4 neither divides 6 nor is a multiple of it
    ((2, 6), (4, 4)),      # wrong entry count
    ((2, 3), (1, 5)),
    ((2, 2), (-1, -4)),
    ((4, 2), (1, 6)),
    ((0, 3), (0, 5)),
])
def test_reshape_rejects_other_shapes(shape, to):
    with pytest.raises(ValueError, match="cannot reshape"):
        Mat.zeros(*shape).reshape(*to)


def test_ad_matrix_matches_index_loop():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    _, matrix, _ = _strategies(st)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.integers(0, 4).flatmap(lambda d: matrix(d, d)))
    def check(n):
        assert_same(ref.ad_matrix(n), ref.ad_matrix_loop(n))
    check()


def test_ad_matrix_is_the_bracket():
    rng = random.Random(13)
    for d in range(1, 5):
        n, x = _matrix(rng, True, rows=d, cols=d), _matrix(rng, True, rows=d, cols=d)
        got = ref.ad_matrix(n).mat_vec(x.entries)
        assert Mat(d, d, got) == n @ x - x @ n
