from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import reference_horizontal as ref
from hodgecalc import horizontal, matrices
from hodgecalc.errors import NotPolarized, ZeroVector
from hodgecalc.horizontal import (
    PolarizedHS, bisectional_curvature, bracket, direction_with_block, graded_end_algebra,
    kernel_dimension, phs_weight1, phs_weight2, sectional_quartic, top_block,
)
from hodgecalc.cli import main
from hodgecalc.matrices import Mat, inverse, rank, sub_contains_vec, sub_equal
from hodgecalc.rationals import GaussianRational, ZERO
from hodgecalc.schemas import load_fixture, parse_problem_text
from unpolarized_documents import UNPOLARIZED_OMEGA

GOLDEN_INPUTS = Path(__file__).resolve().parent / "goldens" / "inputs"


def assert_same_structure(ours, theirs):
    """== on the form, the dimension, the weight and every nonempty piece.
    An empty piece is the zero subspace of V (0 x d) where the row loops
    built a 0 x 0 matrix; only its row count is ever read."""
    assert (ours.dim, ours.weight, ours.q) == (theirs.dim, theirs.weight, theirs.q)
    assert list(ours.pieces) == list(theirs.pieces)
    for key, m in ours.pieces.items():
        if m.rows:
            assert m == theirs.pieces[key], key
        else:
            assert (m, theirs.pieces[key]) == (Mat.zeros(0, ours.dim), Mat.zeros(0, 0)), key


def _frame_cases():
    """(library builder, row-loop builder, arguments) of the frames compared."""
    i = GaussianRational(0, 1)
    skewed1 = Mat.from_rows([[1 + 2 * i, Fraction(1, 2) + i], [Fraction(1, 2) + i, -1 + 2 * i]])
    skewed2 = Mat.from_rows([[2, 1, 0], [-1, 3, 1], [0, Fraction(1, 3), 1]])
    cases = [(phs_weight1, ref.phs_weight1, (g,)) for g in (1, 2, 3)]
    cases += [(phs_weight2, ref.phs_weight2, (h20, h11)) for h20, h11 in
              ((1, 1), (2, 3), (3, 4), (1, 0), (3, 0))]
    cases += [(phs_weight1, ref.phs_weight1, (2, skewed1)),
              (phs_weight2, ref.phs_weight2, (3, 2, skewed2)),
              (phs_weight2, ref.phs_weight2, (3, 0, skewed2))]
    return cases


def test_frames_match_the_row_loops():
    for ours, theirs, args in _frame_cases():
        assert_same_structure(ours(*args), theirs(*args))


def test_graded_pieces_are_built_without_a_solve(monkeypatch):
    """The pieces are read off Q^-1 and the dual Hodge basis: at d = 10 the
    algebra takes no Kronecker product, and its only elimination wider than
    2d columns is the canonical form of g^{-1,1}, one row per basis vector.
    The others are the splitting, Q^-1 and the inverse of the metric's
    transpose; every other piece keeps the basis it was built in."""
    phs = phs_weight2(3, 4)
    shapes, krons, rref, kron = [], [], matrices.rref, Mat.kron
    monkeypatch.setattr(matrices, "rref", lambda m: shapes.append((m.rows, m.cols)) or rref(m))
    monkeypatch.setattr(Mat, "kron", lambda a, b: krons.append((a, b)) or kron(a, b))
    ge = graded_end_algebra(phs)
    assert krons == [] and ge.pieces[-1].rows == 12
    assert shapes == [(10, 20), (10, 20), (12, 100), (10, 20)]


def test_horizontal_derives_each_object_once(monkeypatch, capsys):
    """One `horizontal` call on weight2-normal-form runs at most 5
    eliminations (the rank of the pieces in validation, the splitting of the
    algebra, Q^-1, the canonical g^{-1,1} and the inverse of the metric's
    transpose), and
    none of them is a canonical form of g^{0,0}."""
    g0 = graded_end_algebra(load_fixture("weight2-normal-form").obj).pieces[0]
    eliminated, canonical = [], []
    rref, sub_canonical = matrices.rref, matrices.sub_canonical
    # horizontal itself binds no rref: every elimination goes through matrices
    assert not hasattr(horizontal, "rref")
    monkeypatch.setattr(matrices, "rref", lambda m: eliminated.append(m) or rref(m))
    monkeypatch.setattr(horizontal, "sub_canonical", lambda b: canonical.append(b)
                        or sub_canonical(b))
    assert main(["horizontal", "--input", "builtin:weight2-normal-form", "--seed", "7"]) == 0
    capsys.readouterr()
    assert len(eliminated) <= 5
    monkeypatch.undo()
    assert canonical and not any(b.cols == g0.cols and sub_equal(b, g0) for b in canonical)


@pytest.fixture(scope="module")
def algebras_w1():
    return {g: graded_end_algebra(phs_weight1(g)) for g in (1, 2, 3, 4)}


@pytest.fixture(scope="module")
def algebras_w2():
    out = {}
    for h20 in (1, 2, 3):
        for h11 in (1, 2, 3, 4):
            out[(h20, h11)] = graded_end_algebra(phs_weight2(h20, h11))
    return out


def _rank_r_direction(ge, r):
    """A horizontal direction whose top block is the rank-r diagonal pattern."""
    phs = ge.phs
    n = phs.weight
    rows_src = phs.pieces[(n, 0)].rows
    rows_dst = phs.pieces[(n - 1, 1)].rows
    target = Mat.from_rows([[1 if (i == j and i < r) else 0
                             for j in range(rows_src)] for i in range(rows_dst)])
    return direction_with_block(ge, target)


def _skewed_algebra():
    """A weight-1 algebra whose period matrix has a real part."""
    omega = Mat.from_rows([[GaussianRational(1, 1), Fraction(1, 2)],
                           [Fraction(1, 2), GaussianRational(0, 2)]])
    return graded_end_algebra(phs_weight1(2, omega))


def test_weight1_dims(algebras_w1):
    for g, ge in algebras_w1.items():
        expected_sym = g * (g + 1) // 2
        assert ge.piece_dim(-1) == expected_sym
        assert ge.piece_dim(1) == expected_sym
        assert ge.piece_dim(0) == g * g
        total = sum(ge.piece_dim(p) for p in ge.pieces)
        assert total == g * (2 * g + 1)   # dim of the symplectic algebra


def test_weight1_g1_dims(algebras_w1):
    ge = algebras_w1[1]
    assert {p: ge.piece_dim(p) for p in sorted(ge.pieces)} == {-1: 1, 0: 1, 1: 1}


def test_weight2_dims(algebras_w2):
    ge = algebras_w2[(1, 1)]
    d = 3
    total = sum(ge.piece_dim(p) for p in ge.pieces)
    assert total == d * (d - 1) // 2      # orthogonal algebra of rank 3


def test_grading_bracket_compatibility(algebras_w1):
    ge = algebras_w1[2]
    rng = random.Random(3)
    for p in ge.pieces:
        for q in ge.pieces:
            xp = ge.unflatten(ge.pieces[p].row(0))
            xq = ge.unflatten(ge.pieces[q].row(0))
            br = bracket(xp, xq)
            if br.is_zero():
                continue
            target = ge.pieces.get(p + q)
            assert target is not None
            assert sub_contains_vec(target, list(br.entries))


def test_kernel_dimension_weight1_all_ranks(algebras_w1):
    # dim ker = C(g - rank + 1, 2), exhaustively over ranks with seeded
    # representatives obtained by conjugating the diagonal pattern
    rng = random.Random(11)
    for g, ge in algebras_w1.items():
        for r in range(0, g + 1):
            for rep in range(3):
                xi = _rank_r_direction(ge, r)
                if rep:  # random unitary-ish rational mixing of the pattern
                    gm1 = ge.pieces[-1]
                    extra = [GaussianRational(Fraction(rng.randint(-1, 1), 7),
                                              Fraction(rng.randint(-1, 1), 7))
                             for _ in range(gm1.rows)]
                    v = list(xi.entries)
                    for c, i in zip(extra, range(gm1.rows)):
                        cand = [a + c * b for a, b in zip(v, gm1.row(i))]
                        cm = ge.unflatten(cand)
                        if rank(top_block(ge, cm)) == r:
                            v = cand
                    xi = ge.unflatten(v)
                assert rank(top_block(ge, xi)) == r
                expected = (g - r + 1) * (g - r) // 2
                if xi.is_zero():
                    assert ge.piece_dim(-1) == expected
                else:
                    assert kernel_dimension(ge, xi) == expected


def test_kernel_dimension_weight2_all_ranks(algebras_w2):
    # dim ker = (h20 - rank)(h11 - rank)
    rng = random.Random(13)
    for (h20, h11), ge in algebras_w2.items():
        for r in range(0, min(h20, h11) + 1):
            xi = _rank_r_direction(ge, r)
            assert rank(top_block(ge, xi)) == r
            expected = (h20 - r) * (h11 - r)
            if xi.is_zero():
                assert ge.piece_dim(-1) == expected
            else:
                assert kernel_dimension(ge, xi) == expected


def test_kernel_dimension_matches_bracket_loop(algebras_w1, algebras_w2):
    rng = random.Random(19)
    # a period matrix with a real part: its 0 piece is not closed under
    # transposition, so [xi, .] and [xi^T, .] have different ranks on it
    skewed = _skewed_algebra()
    for ge in list(algebras_w1.values()) + list(algebras_w2.values()) + [skewed]:
        gm1, g0 = ge.pieces[-1], ge.pieces[0]
        coeffs = [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                  for _ in range(gm1.rows)]
        xi = ge.unflatten((Mat.from_rows([coeffs]) @ gm1).entries)
        images = Mat.from_rows([list(bracket(xi, ge.unflatten(g0.row(i))).entries)
                                for i in range(g0.rows)])
        assert kernel_dimension(ge, xi) == gm1.rows - rank(images)


def _unimodular(rng, size):
    """Seeded integer matrix of determinant 1: unit lower times unit upper."""
    lower = [[1 if i == j else (rng.randint(-1, 1) if i > j else 0) for j in range(size)]
             for i in range(size)]
    upper = [[1 if i == j else (rng.randint(-1, 1) if i < j else 0) for j in range(size)]
             for i in range(size)]
    return Mat.from_rows(lower) @ Mat.from_rows(upper)


def _seeded_directions(ge, rng):
    """Directions whose top blocks have every rank, each the diagonal
    pattern moved by unimodular matrices (by congruence in weight 1, where
    the blocks B are those with G^T B symmetric, G the Gram of Q between
    V^{0,1} and V^{1,0}), then two seeded Gaussian directions."""
    phs = ge.phs
    n = phs.weight
    src, dst = phs.pieces[(n, 0)].rows, phs.pieces[(n - 1, 1)].rows
    out = []
    for r in range(min(src, dst) + 1):
        base = Mat.from_rows([[1 if (i == j and i < r) else 0 for j in range(src)]
                              for i in range(dst)])
        if n == 1:
            t = _unimodular(rng, src)
            gram = phs.pieces[(0, 1)] @ phs.q @ phs.pieces[(1, 0)].transpose()
            target = inverse(gram.transpose()) @ t.transpose() @ base @ t
        else:
            target = _unimodular(rng, dst) @ base @ _unimodular(rng, src)
        out.append(direction_with_block(ge, target))
    gm1 = ge.pieces[-1]
    for _ in range(2):
        coeffs = [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in range(gm1.rows)]
        out.append((Mat.from_rows([coeffs]) @ gm1).reshape(phs.dim, phs.dim))
    return out


def test_kernel_dimension_matches_ad_matrix_form(algebras_w1, algebras_w2, monkeypatch):
    """The rank is taken once, on the piece_dim(0) x piece_dim(-1) matrix of
    the brackets of xi with the basis of g^{0,0}, read at the pairs of
    g^{-1,1} in the Hodge frame: it has the rank of the full ad-matrix
    bracket system."""
    seen = []
    real_rank = horizontal.rank
    monkeypatch.setattr(horizontal, "rank", lambda m: seen.append(m) or real_rank(m))
    rng = random.Random(61)
    algebras = [algebras_w1[2], algebras_w1[3]] + [
        algebras_w2[key] for key in ((1, 2), (2, 2), (2, 3), (3, 4))]
    for ge in algebras:
        for xi in _seeded_directions(ge, rng):
            seen.clear()
            assert kernel_dimension(ge, xi) == ref.kernel_dimension(ge, xi)
            (m,) = seen
            assert (m.rows, m.cols) == (ge.piece_dim(0), ge.piece_dim(-1))
            assert rank(m) == rank(ref.bracket_matrix(ge, xi))


def _document_algebras():
    """The algebras of the dense genus-4 and skewed weight-2 documents."""
    return [graded_end_algebra(parse_problem_text((GOLDEN_INPUTS / f"{name}.json").read_text()).obj)
            for name in ("dense-weight1-genus4", "skewed-weight2")]


def test_kernel_dimension_matches_the_reference(algebras_w1, algebras_w2):
    """The Hodge-frame bracket system against the d^2-wide one of the
    reference, at directions of every top-block rank and two seeded Gaussian
    directions, on every algebra of this module and of the dense documents."""
    rng = random.Random(71)
    algebras = [*algebras_w1.values(), *algebras_w2.values(), _skewed_algebra(),
                *_document_algebras()]
    for ge in algebras:
        for xi in _seeded_directions(ge, rng):
            assert kernel_dimension(ge, xi) == ref.kernel_dimension(ge, xi)


@pytest.mark.parametrize("h20, h11, expected", [(2, 2, 2), (1, 2, 1), (2, 3, 3)])
def test_kernel_dimension_at_an_isotropic_top_block(h20, h11, expected):
    """A rank-1 top block with first column (1, i, 0, ...): the kernel is
    larger than (h20 - 1)(h11 - 1), the value at a real block of rank 1, so
    the answer is not a function of the block's rank."""
    ge = graded_end_algebra(phs_weight2(h20, h11))
    i = GaussianRational(0, 1)
    target = Mat(h11, h20, [[1, i][r] if c == 0 and r < 2 else 0
                            for r in range(h11) for c in range(h20)])
    xi = direction_with_block(ge, target)
    assert rank(target) == 1 and expected != (h20 - 1) * (h11 - 1)
    assert kernel_dimension(ge, xi) == ref.kernel_dimension(ge, xi) == expected


def test_kernel_dimension_refuses_a_direction_outside_the_piece(algebras_w1, algebras_w2):
    """xi + X with X a nonzero element of g^{0,0}, the identity and matrices
    that are not d x d are not in g^{-1,1}: the call raises where it used to
    return a meaningless corank, or fail on a row index."""
    rng = random.Random(67)
    for ge in [algebras_w1[2], algebras_w2[(2, 3)], algebras_w2[(3, 4)], _skewed_algebra()]:
        d, g0, gm1 = ge.phs.dim, ge.pieces[0], ge.pieces[-1]
        for k in range(3):
            xi = (Mat.from_rows([[GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) * k
                                  for _ in range(gm1.rows)]]) @ gm1).reshape(d, d)
            assert kernel_dimension(ge, xi) == ref.kernel_dimension(ge, xi)
            coeffs = [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                      for _ in range(g0.rows)]
            coeffs[rng.randrange(g0.rows)] = GaussianRational(1, rng.randint(-2, 2))
            x = (Mat.from_rows([coeffs]) @ g0).reshape(d, d)
            # xi + X, the identity, and two of the wrong shape: xi read as one
            # row, whose entries do lie in the piece, and a (d+1) x (d+1) zero
            for bad in (xi + x, Mat.identity(d), xi.reshape(1, d * d), Mat.zeros(d + 1, d + 1)):
                with pytest.raises(ValueError, match=r"xi is not in g\^\{-1,1\}"):
                    kernel_dimension(ge, bad)


def test_maximal_rank_iff_trivial_kernel(algebras_w2):
    for (h20, h11), ge in algebras_w2.items():
        rmax = min(h20, h11)
        xi = _rank_r_direction(ge, rmax)
        expected_zero = (h20 - rmax) * (h11 - rmax) == 0
        assert (kernel_dimension(ge, xi) == 0) == expected_zero


def test_bisectional_self_negative(algebras_w1, algebras_w2):
    rng = random.Random(17)
    for ge in list(algebras_w1.values()) + [algebras_w2[(2, 3)]]:
        gm1 = ge.pieces[-1]
        for _ in range(4):
            coeffs = [GaussianRational(Fraction(rng.randint(-2, 2)),
                                       Fraction(rng.randint(-2, 2)))
                      for _ in range(gm1.rows)]
            v = [ZERO] * (ge.phs.dim ** 2)
            for c, i in zip(coeffs, range(gm1.rows)):
                v = [a + c * b for a, b in zip(v, gm1.row(i))]
            xi = ge.unflatten(v)
            if xi.is_zero():
                continue
            assert bisectional_curvature(ge, xi, xi) < 0


def test_self_bisectional_is_minus_the_quartic_numerator(algebras_w1, algebras_w2):
    """|[xi, xi]|^2 = 0, and the other term of the self-bisectional
    curvature is the numerator `raw` of the quartic: `horizontal` reports
    -raw for it."""
    rng = random.Random(29)
    algebras = [*algebras_w1.values(), *algebras_w2.values(), _skewed_algebra(),
                *_document_algebras()]
    for ge in algebras:
        for xi in _seeded_directions(ge, rng):
            if not xi.is_zero():
                assert bisectional_curvature(ge, xi, xi) == -sectional_quartic(ge, xi).raw


def test_bisectional_zero_direction(algebras_w1):
    ge = algebras_w1[2]
    eta = ge.unflatten(ge.pieces[-1].row(0))
    assert bisectional_curvature(ge, eta, Mat.zeros(4, 4)) == 0


def test_bisectional_abelian_pairs_nonpositive(algebras_w1):
    # the (-1) piece is abelian for weight one: all brackets vanish, so the
    # bisectional curvature of any pair is -|ad* term|^2 <= 0
    ge = algebras_w1[2]
    gm1 = ge.pieces[-1]
    for i in range(gm1.rows):
        for j in range(gm1.rows):
            eta = ge.unflatten(gm1.row(i))
            xi = ge.unflatten(gm1.row(j))
            assert bracket(xi, eta).is_zero()
            assert bisectional_curvature(ge, eta, xi) <= 0


def test_quartic_scaling_invariance(algebras_w1):
    ge = algebras_w1[2]
    xi = _rank_r_direction(ge, 2)
    q1 = sectional_quartic(ge, xi)
    q2 = sectional_quartic(ge, xi.scale(Fraction(7, 3)))
    assert q1.value == q2.value


def test_quartic_zero_raises(algebras_w1):
    with pytest.raises(ZeroVector):
        sectional_quartic(algebras_w1[1], Mat.zeros(2, 2))


def test_quartic_fitted_constants_weight1(algebras_w1):
    """The quartic numerator is an integer multiple of the fourth-power trace
    of the block, with the same integer across shapes and seeds."""
    rng = random.Random(19)
    fitted = set()
    for g, ge in algebras_w1.items():
        for trial in range(3):
            gm1 = ge.pieces[-1]
            coeffs = [GaussianRational(Fraction(rng.randint(-2, 2)),
                                       Fraction(rng.randint(-2, 2)))
                      for _ in range(gm1.rows)]
            v = [ZERO] * (ge.phs.dim ** 2)
            for c, i in zip(coeffs, range(gm1.rows)):
                v = [a + c * b for a, b in zip(v, gm1.row(i))]
            xi = ge.unflatten(v)
            if xi.is_zero():
                continue
            q = sectional_quartic(ge, xi)
            (l2, l4), = [q.block_traces[p] for p in q.block_traces]
            if l4 == 0:
                continue
            a_p = q.raw / l4
            assert a_p.denominator == 1 and a_p > 0
            fitted.add(a_p)
    assert len(fitted) == 1   # one representation-theoretic constant


def test_quartic_fitted_constant_weight2(algebras_w2):
    ge = algebras_w2[(2, 3)]
    fitted = set()
    for r in (1, 2):
        xi = _rank_r_direction(ge, r)
        q = sectional_quartic(ge, xi)
        (l2, l4), = [q.block_traces[p] for p in q.block_traces]
        a_p = q.raw / l4
        assert a_p.denominator == 1 and a_p > 0
        fitted.add(a_p)
    assert len(fitted) == 1


def test_quartic_positive_at_maximal_rank(algebras_w2):
    ge = algebras_w2[(2, 3)]
    xi = _rank_r_direction(ge, 2)
    assert kernel_dimension(ge, xi) == 0
    q = sectional_quartic(ge, xi)
    assert q.value > 0


def test_adjoint_is_metric_adjoint(algebras_w1):
    ge = algebras_w1[2]
    rng = random.Random(23)
    h = ge.metric
    d = ge.phs.dim
    for _ in range(5):
        x = Mat.from_rows([[GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                            for _ in range(d)] for _ in range(d)])
        u = [GaussianRational(rng.randint(-2, 2)) for _ in range(d)]
        v = [GaussianRational(rng.randint(-2, 2)) for _ in range(d)]
        xs = ge.adjoint(x)

        def pair(a, b):
            acc = ZERO
            for i in range(d):
                for j in range(d):
                    if a[i] and h[i, j] and b[j]:
                        acc = acc + a[i] * h[i, j] * b[j].conj()
            return acc
        assert pair(x.mat_vec(u), v) == pair(u, xs.mat_vec(v))


def test_structure_is_validated_once_on_construction(monkeypatch):
    calls = []
    validate = PolarizedHS.validate

    def counted(self):
        calls.append(self.dim)
        validate(self)
    monkeypatch.setattr(PolarizedHS, "validate", counted)
    phs = phs_weight2(2, 1)
    assert calls == [5]
    graded_end_algebra(phs)
    assert calls == [5]


def _bad_structures():
    """(message pattern, arguments of PolarizedHS) of structures that fail validation."""
    good = phs_weight1(1)
    i = GaussianRational(0, 1)
    return [(None, (2, 1, good.q.scale(-1), good.pieces)),      # Q of the wrong sign
            # too few rows to span V, then enough rows, dependent
            ("do not decompose", (2, 1, good.q, {(1, 0): good.pieces[(1, 0)]})),
            ("do not decompose", (2, 1, good.q, {(1, 0): good.pieces[(1, 0)],
                                                 (0, 1): good.pieces[(1, 0)]})),
            # Q^T != (-1)^weight Q
            ("symmetric", (2, 1, Mat.from_rows([[0, Fraction(7, 4)], [-1, 0]]), good.pieces)),
            # i Q: skew and nondegenerate, but Q(u, conj v) is not Hermitian
            ("not real", (2, 1, good.q.scale(i), good.pieces)),
            # a positive definite metric, but Q pairs V^{2,0} with itself
            ("first bilinear relation", (3, 2, Mat.diag([1, -1, 1]), {
                (2, 0): Mat.from_rows([[1, 0, 2 * i]]), (1, 1): Mat.from_rows([[0, 1, 0]]),
                (0, 2): Mat.from_rows([[1, 0, -2 * i]])}))]


def test_bad_structure_raises_on_construction():
    for match, args in _bad_structures():
        with pytest.raises(NotPolarized, match=match):
            PolarizedHS(*args)


def _unvalidated(build, *args):
    """What `build` returns with validation switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PolarizedHS, "validate", lambda self: None)
        return build(*args)


def _gauss_mat(rng, rows, cols):
    return Mat(rows, cols, [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                            for _ in range(rows * cols)])


def _oracle_structures():
    """The frames of `test_frames_match_the_row_loops`, seeded dense weight-1
    and weight-2 period matrices, and the bad inputs of
    `test_bad_structure_raises_on_construction` and of UNPOLARIZED_OMEGA,
    none of them validated."""
    cases = [(ours, *args) for ours, _, args in _frame_cases()]
    rng, i = random.Random(89), GaussianRational(0, 1)
    for g in (2, 3, 4):
        # X + iY with X symmetric and Y positive definite, then any Gaussian omega
        x, a = (Mat(g, g, [rng.randint(-2, 2) for _ in range(g * g)]) for _ in range(2))
        y = a.transpose() @ a + Mat.identity(g)
        cases += [(phs_weight1, g, x + x.transpose() + y.scale(i)),
                  (phs_weight1, g, _gauss_mat(rng, g, g))]
    cases += [(phs_weight2, h20, h11, _gauss_mat(rng, h20, h20))
              for h20, h11 in ((2, 2), (3, 1), (3, 3))]
    cases += [(PolarizedHS, *args) for _, args in _bad_structures()]
    structures = [_unvalidated(*case) for case in cases]
    structures += [_unvalidated(parse_problem_text, json.dumps({"kind": "phs", "payload": payload})).obj
                   for _, payload, _ in UNPOLARIZED_OMEGA.values()]
    return structures


def _refusal(check, phs):
    try:
        check(phs)
    except NotPolarized as exc:
        return str(exc)
    return None


def test_validation_agrees_with_the_full_metric():
    """The Hodge-Riemann relations through `lmhs` accept what the splitting,
    the d x d metric and the entry loop accepted, with the same reason but
    one: a metric that is not Hermitian is refused for a form that is not
    real or else for the first bilinear relation, which it then breaks.  The
    algebra's metric is the old -(C^T Q)."""
    accepted = 0
    for phs in _oracle_structures():
        ours, theirs = _refusal(PolarizedHS.validate, phs), _refusal(ref.validate, phs)
        if theirs == "metric is not Hermitian":
            theirs = "first bilinear relation fails" if phs.q.is_real() else "form is not real"
        assert ours == theirs, (phs.weight, phs.pieces)
        if ours is None:
            accepted += 1
            split = matrices.Splitting(phs.pieces)
            assert graded_end_algebra(phs).metric == ref.metric_matrix(phs, split)
    assert accepted == 17


def test_horizontal_splits_once_and_inverts_three_times(monkeypatch, capsys):
    """One `horizontal` call on weight2-normal-form builds the splitting of
    the algebra alone, and inverts it, Q and the metric's transpose."""
    splits, inverses = [], []
    init, inverse = matrices.Splitting.__init__, matrices.inverse
    monkeypatch.setattr(matrices.Splitting, "__init__",
                        lambda self, spaces: splits.append(spaces) or init(self, spaces))
    for module in (matrices, horizontal):
        monkeypatch.setattr(module, "inverse", lambda m: inverses.append(m) or inverse(m))
    assert main(["horizontal", "--input", "builtin:weight2-normal-form", "--seed", "7"]) == 0
    capsys.readouterr()
    assert (len(splits), len(inverses)) == (1, 3)


def test_direction_with_block_matches_row_by_row_solve(algebras_w1, algebras_w2):
    def outcome(f, ge, target):
        try:
            return f(ge, target)
        except ZeroVector as exc:
            return str(exc)

    rng = random.Random(47)
    for ge in list(algebras_w1.values()) + list(algebras_w2.values()) + [_skewed_algebra()]:
        gm1 = ge.pieces[-1]
        coeffs = [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                  for _ in range(gm1.rows)]
        xi = ge.unflatten((Mat.from_rows([coeffs]) @ gm1).entries)
        block = top_block(ge, xi)
        # a reachable block, and one with random entries (reachable only
        # when the block map is onto)
        for target in (block, Mat(block.rows, block.cols, [
                GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                for _ in range(block.rows * block.cols)])):
            got = outcome(direction_with_block, ge, target)
            assert got == outcome(ref.direction_with_block, ge, target)
        assert direction_with_block(ge, block) == xi


def test_the_top_block_fixes_a_direction_in_weights_one_and_two(algebras_w1, algebras_w2):
    """The top block map is injective on g^{-1,1} in weights 1 and 2, which
    makes the direction of `direction_with_block` unique there."""
    for ge in [*algebras_w1.values(), *algebras_w2.values(), _skewed_algebra(),
               *_document_algebras()]:
        n, gm1 = ge.phs.weight, ge.pieces[-1]
        assert n in (1, 2)
        assert rank(ge.splitting.flat_blocks(gm1, (n, 0), (n - 1, 1))) == gm1.rows


def test_direction_with_block_rejects_a_block_of_the_wrong_shape(algebras_w2):
    # the top block is dim V^{1,1} x dim V^{2,0}
    for key, wrong in (((2, 2), Mat.identity(3)), ((2, 3), Mat.zeros(2, 3)),
                       ((2, 3), Mat.zeros(3, 3))):
        with pytest.raises(ValueError, match="top block must be"):
            direction_with_block(algebras_w2[key], wrong)


def test_direction_with_block_reads_every_block_at_once(algebras_w2, monkeypatch):
    calls = []
    real = horizontal.top_block

    def counting(ge, xi):
        calls.append(xi)
        return real(ge, xi)
    monkeypatch.setattr(horizontal, "top_block", counting)
    ge = algebras_w2[(3, 4)]
    direction_with_block(ge, Mat.diag([1, 1, 1]).take([0, 1, 2, 0]))
    assert len(calls) == 1     # the check of the answer
