"""Oracles for the objects that one orbit computation derives once and shares.

Each shared path is compared with an independent computation: the
full-probe Deligne bigrading kept in ``reference_lmhs``, the graded
endomorphism algebra kept in ``reference_horizontal``, the ascending
eigenvalue probe kept in ``reference_weightfilt``, or the same answer
composed from separate public calls.  The call-count tests pin that sharing
is scoped to one call: a second call on the same spec does the same work.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

import reference_horizontal as ref_horizontal
import reference_lmhs as ref
import reference_orbit
import reference_weightfilt as ref_weightfilt
from conftest import direct_sum, random_nilpotent, reverse_grading_candidates
from hodgecalc import lmhs, monomial, orbit, weightfilt
from hodgecalc.cli import main
from hodgecalc.errors import NoSolution
from hodgecalc.cones import hull_contains
from hodgecalc.lmhs import (
    associated_graded_orbit, deligne_bigrading, stratum_hodge_numbers,
    verify_polarized_lmhs,
)
from hodgecalc.horizontal import (
    bracket, graded_end_algebra, kernel_dimension, phs_weight1, phs_weight2,
    sectional_quartic, top_block,
)
from hodgecalc.matrices import (
    Mat, inverse, kernel_space, rank, solve, sub_canonical, sub_contains, sub_zero,
)
from hodgecalc.monomial import compatibility_check, compatibility_checks
from hodgecalc.orbit import (
    chern_form_at, default_rays, hodge_metric_polynomial, restriction_limit_check,
    stratum_factorization, stratum_metric_polynomial,
)
from hodgecalc.rationals import GaussianRational
from hodgecalc.schemas import fixture_names, load_fixture
from hodgecalc.weightfilt import (
    grading_element, grading_splitting, integer_eigen_decomposition, weight_filtration,
)

ORBIT_FIXTURES = [name for name in fixture_names() if load_fixture(name).kind == "orbit"]


@pytest.fixture(scope="module")
def sums(dollar_bill):
    return {8: direct_sum([dollar_bill] * 2), 12: direct_sum([dollar_bill] * 3)}


def assert_same_bigrading(wf, flag, formula=None):
    """The library's bigrading (or, with `formula` set, its unchecked closed
    formula) against the full probe of reference_lmhs."""
    if formula is None:
        ours = deligne_bigrading(wf, flag)
    else:
        ours = formula(wf, lmhs.flag_levels(flag, wf.weight, wf.ambient))
    theirs = ref.deligne_bigrading(wf, flag)
    assert ours.pieces == theirs.pieces
    assert list(ours.pieces) == list(theirs.pieces)      # same probe order
    assert (ours.r_split, ours.effective) == (theirs.r_split, theirs.effective)


# --- Deligne bigrading ------------------------------------------------------

@pytest.mark.parametrize("name", ORBIT_FIXTURES)
def test_bigrading_matches_full_probe_on_fixtures(name):
    spec = load_fixture(name).obj
    orbits = [spec]
    for r in range(1, spec.num_params + 1):
        for subset in combinations(range(spec.num_params), r):
            orbits += [piece.orbit for piece in associated_graded_orbit(spec, subset)]
    for o in orbits:
        assert_same_bigrading(weight_filtration(o.n_sum(), o.weight), o.flag)


@pytest.mark.parametrize("dim", [8, 12])
def test_bigrading_matches_full_probe_on_direct_sums(sums, dim):
    spec = sums[dim]
    assert_same_bigrading(weight_filtration(spec.n_sum(), spec.weight), spec.flag)


@pytest.mark.parametrize("name", ["dollar-bill", "weight2-tate-degeneration"])
def test_bigrading_matches_full_probe_off_mhs(name):
    """Random nested flags (no MHS, Gaussian entries): the closed formula's
    pieces, R-splitness and effectivity still agree probe for probe."""
    spec = load_fixture(name).obj
    wf = weight_filtration(spec.n_sum(), spec.weight)
    for seed in range(12):
        rng = random.Random(seed)
        rows = [[GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1))
                 for _ in range(spec.dim)] for _ in range(spec.dim)]
        sizes = sorted(rng.randint(1, spec.dim) for _ in range(spec.weight + 1))
        flag = [sub_canonical(Mat.from_rows(rows[:size])) for size in sizes]
        assert_same_bigrading(wf, flag, lmhs._closed_formula)


def test_metric_polynomial_runs_the_bigrading_once_per_call(dollar_bill, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return deligne_bigrading(*args, **kwargs)
    monkeypatch.setattr(lmhs, "deligne_bigrading", counted)
    first = hodge_metric_polynomial(dollar_bill)
    assert len(calls) == 1
    second = hodge_metric_polynomial(dollar_bill)
    assert len(calls) == 2                       # no cache across calls
    assert first == second


def test_validation_report_keeps_its_bigrading(dollar_bill):
    report = verify_polarized_lmhs(dollar_bill)
    wf, bi = report.lmhs
    wf2, bi2 = dollar_bill.lmhs()
    assert wf.graded_dims == wf2.graded_dims and bi.pieces == bi2.pieces
    assert report == lmhs.LmhsReport(report.checks)    # never compared


# --- Stratum pieces ---------------------------------------------------------

def test_stratum_factorization_matches_public_calls(dollar_bill, sums, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return associated_graded_orbit(*args, **kwargs)
    for spec, subsets in ((dollar_bill, [s for r in (1, 2) for s in combinations(range(3), r)]),
                          (sums[8], [(0, 4), (2,), (1, 3, 5)])):
        p = hodge_metric_polynomial(spec)
        k = spec.num_params
        for subset in subsets:
            monkeypatch.setattr(orbit, "associated_graded_orbit", counted)
            calls.clear()
            fac = stratum_factorization(p, subset, spec)
            assert len(calls) == 1, subset
            monkeypatch.undo()
            weights = [1 if j in subset else 0 for j in range(k)]
            assert fac.leading == p.p.leading_part_by_weight(weights)
            assert fac.p_i * fac.p_ic == fac.leading
            assert fac.remainder == p.p - fac.leading
            hs = stratum_hodge_numbers(spec, subset)
            assert fac.deg_bound == sum(j * h for j, h in hs.items())
            assert fac.stratum_poly == stratum_metric_polynomial(spec, subset)


def test_permutation_check_asks_each_subset_once(dollar_bill, monkeypatch):
    calls = []

    def counted(spec, subset):
        calls.append(tuple(subset))
        return stratum_hodge_numbers(spec, subset)
    monkeypatch.setattr(reference_orbit, "stratum_hodge_numbers", counted)
    rep = reference_orbit.permutation_monomial_check(dollar_bill, (2, 0, 1))
    assert sorted(calls) == sorted(s for r in (1, 2, 3) for s in combinations(range(3), r))
    monkeypatch.undo()

    def chain(order):
        exps, prev = [0] * 3, {}
        for i in range(1, 4):
            cur = stratum_hodge_numbers(dollar_bill, order[:i])
            exps[order[i - 1]] = sum(j * (cur.get(j, 0) - prev.get(j, 0))
                                     for j in set(cur) | set(prev))
            prev = cur
        return tuple(exps)
    assert rep.exponents == chain([2, 0, 1])
    p = hodge_metric_polynomial(dollar_bill).p
    assert rep.present == (p.terms.get(rep.exponents, 0) != 0)
    points = [chain(list(s)) for s in permutations(range(3))]
    assert rep.hull_ok == all(hull_contains(points, e) for e in p.terms)


# --- One splitting of V ----------------------------------------------------

def assert_eigen_splitting(n, weight, y, split):
    """split is the eigenspace splitting of y, and y is the public grading
    element of n: each space is the eigenspace that integer_eigen_decomposition
    finds, and each projector is the Lagrange polynomial in y that is 1 on
    its eigenvalue and 0 on the others."""
    wf = weight_filtration(n, weight)
    assert y == grading_element(n, wf)
    eig = integer_eigen_decomposition(y)
    assert {k: sub_canonical(m) for k, m in split.spaces.items()} == eig
    d = n.rows
    one = Mat.identity(d)
    projectors = {}
    for k in eig:
        lagrange = one
        for j in eig:
            if j != k:
                lagrange = lagrange @ (y - one.scale(j)).scale(Fraction(1, k - j))
        projectors[k] = split.projector(k)
        assert projectors[k] == lagrange
    assert sum(projectors.values(), Mat.zeros(d, d)) == one
    for k, p in projectors.items():
        for j, q in projectors.items():
            assert p @ q == (p if j == k else Mat.zeros(d, d))


def check_stratum_splittings(spec, subsets, monkeypatch):
    """associated_graded_orbit takes the splitting that the grading
    construction built, and finds no eigenbasis of its own."""
    used, eigen_calls = [], []

    def recording(n, wf):
        out = grading_splitting(n, wf)
        used.append((n, out))
        return out
    monkeypatch.setattr(lmhs, "grading_splitting", recording)
    monkeypatch.setattr(weightfilt, "integer_eigen_decomposition",
                        lambda *args: eigen_calls.append(args))
    for subset in subsets:
        associated_graded_orbit(spec, subset)
        assert [n for n, _ in used] == [spec.n_sum(s) for s in subsets[:len(used)]]
    assert len(used) == len(subsets) and eigen_calls == []
    monkeypatch.undo()
    for n, (y, split) in used:
        assert_eigen_splitting(n, spec.weight, y, split)


@pytest.mark.parametrize("name", ORBIT_FIXTURES)
def test_stratum_splittings_on_fixtures(name, monkeypatch):
    spec = load_fixture(name).obj
    k = spec.num_params
    subsets = [s for r in range(1, k + 1) for s in combinations(range(k), r)]
    check_stratum_splittings(spec, subsets, monkeypatch)


@pytest.mark.parametrize("dim", [8, 12])
def test_stratum_splittings_on_direct_sums(sums, dim, monkeypatch):
    spec = sums[dim]
    k = spec.num_params
    rng = random.Random(dim)
    subsets = [tuple(range(k))] + [tuple(sorted(rng.sample(range(k), rng.randint(1, k - 1))))
                                   for _ in range(6)]
    check_stratum_splittings(spec, subsets, monkeypatch)


def test_grading_splittings_of_seeded_nilpotents(monkeypatch):
    for seed in range(4):
        n = random_nilpotent(random.Random(seed), 8)
        wf = weight_filtration(n, 8)
        y, split = grading_splitting(n, wf)
        assert_eigen_splitting(n, 8, y, split)
        assert y == grading_element(n, wf)
        with monkeypatch.context() as patch:
            reverse_grading_candidates(patch)
            y, split = grading_splitting(n, wf)
            assert y == grading_element(n, wf)


PHS_CASES = {"weight1-g2": (phs_weight1, 2), "weight1-g3": (phs_weight1, 3),
             "weight2-1-2": (phs_weight2, 1, 2), "weight2-2-2": (phs_weight2, 2, 2),
             "weight2-3-4": (phs_weight2, 3, 4),
             # a period matrix with a real part
             "weight1-g2-skewed": (phs_weight1, 2, Mat.from_rows(
                 [[GaussianRational(1, 1), Fraction(1, 2)], [Fraction(1, 2), GaussianRational(0, 2)]]))}


def stacked_coords(phs, v, key):
    """Coordinates of v on the (p, q) piece `key`, by a solve against the
    stacked basis of all the pieces."""
    keys = sorted(phs.pieces)
    stacked = Mat.from_rows([r for k in keys for r in phs.pieces[k].row_list()])
    c = solve(stacked.transpose(), v)
    start = sum(phs.pieces[k].rows for k in keys[:keys.index(key)])
    return list(c[start:start + phs.pieces[key].rows])


def block_by_solve(phs, xi, src, dst):
    basis = phs.pieces[src]
    return Mat.from_rows([stacked_coords(phs, xi.mat_vec(basis.row(i)), dst)
                          for i in range(basis.rows)]).transpose()


@pytest.mark.parametrize("case", PHS_CASES.values(), ids=PHS_CASES.keys())
def test_graded_end_algebra_matches_reference(case):
    make, *args = case
    phs = make(*args)
    ge = graded_end_algebra(phs)
    assert_same_pieces(ge.pieces, ref_horizontal.graded_end_pieces(phs))

    n = phs.weight
    gm1 = ge.pieces[-1]
    rng = random.Random(n * 10 + phs.dim)
    samples = [ge.unflatten(gm1.row(i)) for i in range(gm1.rows)]
    for _ in range(3):
        coeffs = [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(gm1.rows)]
        samples.append(ge.unflatten((Mat.from_rows([coeffs]) @ gm1).entries))
    h = ge.metric

    def gram(basis):
        return Mat.from_rows([[sum((h[r, c] * basis[i, r] * basis[j, c].conj()
                                    for r in range(phs.dim) for c in range(phs.dim)),
                                   GaussianRational(0))
                               for j in range(basis.rows)] for i in range(basis.rows)])
    for xi in samples:
        assert top_block(ge, xi) == block_by_solve(phs, xi, (n, 0), (n - 1, 1))
        expected = {}
        for p in range((n + 2) // 2, n + 1):
            src, dst = (p, n - p), (p - 1, n - p + 1)
            a = block_by_solve(phs, xi, src, dst)
            g_src, g_dst = gram(phs.pieces[src]), gram(phs.pieces[dst])
            m1 = solve_left(g_src.transpose(), a.conj_transpose() @ g_dst.transpose()) @ a
            expected[p] = (m1.trace().real_or_raise(), (m1 @ m1).trace().real_or_raise())
        assert sectional_quartic(ge, xi).block_traces == expected


# PHS_CASES, a larger and a skewed weight-2 structure, and one with no
# horizontal piece
LIE_FIRST_CASES = {**PHS_CASES, "weight2-3-8": (phs_weight2, 3, 8),
                   "weight2-2-0": (phs_weight2, 2, 0),
                   "weight2-3-2-skewed": (phs_weight2, 3, 2, Mat.from_rows(
                       [[2, 1, 0], [-1, 3, 1], [0, Fraction(1, 3), 1]]))}


@pytest.mark.parametrize("case", LIE_FIRST_CASES.values(), ids=LIE_FIRST_CASES.keys())
def test_graded_end_algebra_matches_the_lie_first_solve(case):
    make, *args = case
    phs = make(*args)
    assert_same_pieces(graded_end_algebra(phs).pieces, ref_horizontal.lie_first_pieces(phs))


@pytest.mark.parametrize("case", LIE_FIRST_CASES.values(), ids=LIE_FIRST_CASES.keys())
def test_graded_pieces_preserve_the_form_and_shift_the_hodge_type(case):
    """Every basis vector X of g^{p,-p} has X^T Q + Q X = 0 and maps each
    (r, s) piece into (r+p, s-p); the pieces are independent and add up to
    the orthogonal algebra (even weight) or the symplectic one (odd)."""
    make, *args = case
    phs = make(*args)
    d, q = phs.dim, phs.q
    ge = graded_end_algebra(phs)
    for p, piece in ge.pieces.items():
        xs = [ge.unflatten(piece.row(k)) for k in range(piece.rows)]
        assert all((x.transpose() @ q + q @ x).is_zero() for x in xs), p
        assert rank(piece) == piece.rows
        for (r, s), src in phs.pieces.items():
            images = Mat.stack([src @ x.transpose() for x in xs])
            assert sub_contains(phs.pieces.get((r + p, s - p), sub_zero(d)), images), (p, r)
    expected = d * (d + 1) // 2 if phs.weight % 2 else d * (d - 1) // 2
    assert sum(m.rows for m in ge.pieces.values()) == expected


@pytest.mark.parametrize("case", PHS_CASES.values(), ids=PHS_CASES.keys())
def test_principal_value_traces_match_the_gram_matrices(case):
    """The block traces of the sectional quartic, which read A* off the
    adjoint of xi, equal those built from the Gram matrices of the pieces."""
    make, *args = case
    ge = graded_end_algebra(make(*args))
    gm1, d = ge.pieces[-1], ge.phs.dim
    rng = random.Random(d)

    def gaussian(rows, cols):
        return Mat.from_rows([[GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                               for _ in range(cols)] for _ in range(rows)])
    # directions in g^{-1,1}, and endomorphisms of V of every Hodge type
    directions = gm1.row_list() + (gaussian(2, gm1.rows) @ gm1).row_list()
    directions += gaussian(3, d * d).row_list()
    for vec in directions:
        xi = ge.unflatten(vec)
        assert (sectional_quartic(ge, xi).block_traces
                == ref_horizontal.principal_value_traces(ge, xi))


@pytest.mark.parametrize("case", PHS_CASES.values(), ids=PHS_CASES.keys())
def test_kernel_dimension_and_quartic_match_separate_calls(case):
    """kernel_dimension, which takes its rank at the pivots of g^{-1,1},
    equals the corank of the full ad-matrix bracket system; sectional_quartic,
    which takes xi* once, equals its parts computed by the public calls."""
    make, *args = case
    ge = graded_end_algebra(make(*args))
    gm1, d = ge.pieces[-1], ge.phs.dim
    rng = random.Random(10 * d + 1)
    coeffs = Mat.from_rows([[GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                             for _ in range(gm1.rows)] for _ in range(3)])
    for vec in gm1.row_list() + (coeffs @ gm1).row_list():
        xi = ge.unflatten(vec)
        assert kernel_dimension(ge, xi) == ref_horizontal.kernel_dimension(ge, xi)
        q = sectional_quartic(ge, xi)
        raw = ge.norm2(bracket(ge.adjoint(xi), xi))
        assert (q.norm2, q.raw, q.block_traces) == (
            ge.norm2(xi), raw, ref_horizontal.principal_value_traces(ge, xi))
        assert q.value == raw / ge.norm2(xi) ** 2


def assert_same_pieces(ours, theirs):
    """The same grades in the same order; the canonical g^{-1,1} entry for
    entry, every other piece as a span."""
    assert list(ours) == list(theirs)
    assert ours.get(-1) == theirs.get(-1)
    assert all(sub_canonical(m) == theirs[p] for p, m in ours.items())


def solve_left(a, b):
    """The matrix x with a @ x = b, column by column."""
    return Mat.from_rows([solve(a, b.col(j)) for j in range(b.cols)]).transpose()


# --- Chern forms and restriction limits -------------------------------------

def full_hessian_form(poly, x):
    """-Hess log P at x from every first and second partial, unshared."""
    xs = [Fraction(v) for v in x]
    val = poly.evaluate(xs)
    k = poly.num_vars
    first = [poly.partial_derivative(i).evaluate(xs) for i in range(k)]
    return [[Fraction(first[i] * first[j]
                      - val * poly.partial_derivative(i).partial_derivative(j).evaluate(xs),
                      val * val) for j in range(k)] for i in range(k)]


def test_chern_form_matches_full_hessian(dollar_bill, sums):
    rng = random.Random(3)
    for spec in (dollar_bill, sums[8]):
        p = hodge_metric_polynomial(spec)
        table = reference_orbit.hessian_table(p)
        for _ in range(3):
            x = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(p.num_vars)]
            sample = chern_form_at(p, x)
            assert sample.g == Mat.from_rows(full_hessian_form(p.p, x))
            assert reference_orbit.chern_form_at(table, x) == sample == chern_form_at(p.p, x)


def test_restriction_limit_matches_sampled_chern_forms(dollar_bill):
    subset, complement = [2], [0, 1]
    scales = [Fraction(10) ** e for e in range(1, 5)]
    rays = default_rays(subset, 3, 5)
    base = (Fraction(1), Fraction(2))
    lr = restriction_limit_check(dollar_bill, subset, rays=rays, scales=scales, base=base)
    p = hodge_metric_polynomial(dollar_bill).p
    limit = full_hessian_form(stratum_metric_polynomial(dollar_bill, subset), base)
    expected = []
    for ray in rays:
        devs = []
        for s in scales:
            g = full_hessian_form(p, [base[0], base[1], s * ray[0]])
            devs.append(max(abs(g[ja][jb] - limit[a][b]) / max(Fraction(1), abs(limit[a][b]))
                            for a, ja in enumerate(complement)
                            for b, jb in enumerate(complement)))
        expected.append(tuple(devs))
    assert lr.deviations == tuple(expected)
    assert lr.final_max_deviation == max(d[-1] for d in expected)


# --- compat -----------------------------------------------------------------

@pytest.mark.parametrize("name", ["dollar-bill", "duplicated-pair"])
def test_compat_matches_compatibility_check(name, capsys, monkeypatch):
    spec = load_fixture(name).obj
    calls, original = [], monomial.w_minus1_end

    def counted(n_cone):
        calls.append(n_cone)
        return original(n_cone)
    monkeypatch.setattr(monomial, "w_minus1_end", counted)
    shared = compatibility_checks(spec)
    monkeypatch.undo()
    k = spec.num_params
    assert len(calls) == 2 ** k - 1              # once per nonempty stratum
    pairs = [(small, large) for r in range(1, k) for small in combinations(range(k), r)
             for large_size in range(r + 1, k + 1)
             for large in combinations(range(k), large_size) if set(small) < set(large)]
    assert sorted((r.subset_small, r.subset_large) for r in shared) == sorted(pairs)
    for rep in shared:
        assert rep == compatibility_check(spec, rep.subset_small, rep.subset_large)

    assert main(["compat", "--input", f"builtin:{name}", "--format", "json"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["findings"]["pairs"]
    assert verdicts == {
        ",".join(str(i + 1) for i in small) + " < " + ",".join(str(i + 1) for i in large):
        compatibility_check(spec, small, large).passed for small, large in pairs}


# --- Eigenvalue probe order -------------------------------------------------

def regular_nilpotent(rng: random.Random, dim: int) -> Mat:
    """One Jordan block: strictly upper triangular with a nonzero
    superdiagonal, conjugated by a unimodular lower-triangular matrix."""
    a = [[(rng.choice((-2, -1, 1, 2)) if j == i + 1 else rng.randint(-2, 2)) if j > i else 0
          for j in range(dim)] for i in range(dim)]
    t = Mat.from_rows([[1 if i == j else (rng.randint(-1, 1) if i > j else 0)
                        for j in range(dim)] for i in range(dim)])
    return t @ Mat.from_rows(a) @ inverse(t)


def grading_elements():
    """(label, Y in Hodge indexing, weight) for every stratum of every bundled
    orbit fixture and for seeded dim-8 nilpotents."""
    for name in ORBIT_FIXTURES:
        spec = load_fixture(name).obj
        k = spec.num_params
        for subset in (s for r in range(1, k + 1) for s in combinations(range(k), r)):
            n = spec.n_sum(subset)
            yield f"{name}{subset}", grading_element(n, weight_filtration(n, spec.weight)), spec.weight
    for seed in range(3):
        for make in (random_nilpotent, regular_nilpotent):
            n = make(random.Random(seed), 8)
            yield f"{make.__name__}({seed})", grading_element(n, weight_filtration(n, 8)), 8


def test_eigen_probe_from_zero_matches_ascending_probe():
    cases = 0
    for label, y, weight in grading_elements():
        centred = y - Mat.identity(y.rows).scale(weight)
        for m in (y, centred):
            ours, theirs = integer_eigen_decomposition(m), ref_weightfilt.integer_eigen_decomposition(m)
            assert list(ours.items()) == list(theirs.items()), label
        cases += 1
    assert cases > 20


def test_bounded_probe_matches_window_and_fallback():
    """Inside the window of +-2d the probe from zero outwards finds the same
    eigenspaces as the windowed probe; outside it, as the characteristic
    polynomial fallback: weights 3 to 9 at d = 2, and eigenvalues up to +-30
    at d = 5, each conjugated by a seeded unimodular matrix."""
    cases = [y for _, y, _ in grading_elements()]
    n = Mat.from_rows([[0, 1], [0, 0]])
    for weight in range(3, 10):
        cases.append(grading_element(n, weight_filtration(n, weight)))
    rng = random.Random(5)
    for values in ([30, -30, 17, 0, -29], [30, 30, -1, -1, 7], [-12, 11, 11, 3, -12], [2, -3, 0, 0, 1]):
        t = Mat.from_rows([[1 if i == j else (rng.randint(-1, 1) if i > j else 0)
                            for j in range(5)] for i in range(5)])
        u = Mat.from_rows([[1 if i == j else (rng.randint(-1, 1) if i < j else 0)
                            for j in range(5)] for i in range(5)])
        cases.append(t @ u @ Mat.diag(values) @ inverse(t @ u))
    outside = 0
    for y in cases:
        ours, theirs = integer_eigen_decomposition(y), ref_weightfilt.windowed_eigen_decomposition(y)
        assert list(ours.items()) == list(theirs.items())
        outside += max(map(abs, ours)) > 2 * y.rows
    assert outside == 9         # weights 4 to 9 at d = 2, the first three at d = 5


@pytest.mark.parametrize("rows", [
    [[0, 1], [0, 0]], [[0, -1], [1, 0]], [[Fraction(1, 2), 0], [0, 1]], [[1, 1], [0, 1]],
], ids=["nilpotent", "rotation", "half", "jordan-block"])
def test_bounded_probe_fails_where_the_fallback_fails(rows):
    y = Mat.from_rows(rows)
    with pytest.raises(NoSolution):
        ref_weightfilt.windowed_eigen_decomposition(y)
    with pytest.raises(NoSolution):
        integer_eigen_decomposition(y)


def test_eigen_probe_of_a_centred_regular_grading(monkeypatch):
    """For a dim-8 regular nilpotent the centred eigenvalues are -7, -5, ..., 7:
    15 probes from zero outwards, 24 in ascending order from -16."""
    n = regular_nilpotent(random.Random(0), 8)
    y = grading_element(n, weight_filtration(n, 8)) - Mat.identity(8).scale(8)
    calls = []

    def counting(m):
        calls.append(m)
        return kernel_space(m)
    for module in (weightfilt, ref_weightfilt):
        calls.clear()
        monkeypatch.setattr(module, "kernel_space", counting)
        module.integer_eigen_decomposition(y)
        monkeypatch.undo()
        assert len(calls) == (15 if module is weightfilt else 24)


@pytest.mark.parametrize("values,probes", [
    ([7], 1), ([-3, -3, -3], 1), ([2, 2, 0, 0], 2), ([4, 2, 2], 6), ([0, 0, 0, 0], 1),
], ids=["one", "scalar", "two-pairs", "a-pair-then-one", "zero"])
def test_eigen_probe_stops_at_equal_eigenvalues(monkeypatch, values, probes):
    """Once the eigenvalues left all equal their mean (the sum of their
    squares is the square of their sum over their number), the mean is the
    only value probed: [2, 2, 0, 0] probes 0 and then 2, where probing
    outwards from zero took 0, -1, 1, -2, 2."""
    d = len(values)
    rng = random.Random(d)
    t = Mat.from_rows([[1 if i == j else (rng.randint(-1, 1) if i > j else 0)
                        for j in range(d)] for i in range(d)])
    y = t @ Mat.diag(values) @ inverse(t)
    calls = []
    monkeypatch.setattr(weightfilt, "kernel_space", lambda m: calls.append(m) or kernel_space(m))
    assert {k: v.rows for k, v in integer_eigen_decomposition(y).items()} == {
        k: values.count(k) for k in sorted(set(values))}
    assert len(calls) == probes


def _conjugate(rng: random.Random, rows) -> Mat:
    """A seeded lower unitriangular conjugate of the matrix with these rows."""
    d = len(rows)
    t = Mat.from_rows([[1 if i == j else (rng.randint(-1, 1) if i > j else 0)
                        for j in range(d)] for i in range(d)])
    return t @ Mat.from_rows(rows) @ inverse(t)


def test_eigen_probe_matches_the_fallback_on_repeated_eigenvalues():
    """Seeded conjugates of diagonal matrices with repeated eigenvalues, two
    thirds of them with a nilpotent part inside each repeated eigenvalue (not
    semisimple): one Jordan block per eigenvalue, or blocks of size 2, so
    that the eigenspace can hold half the multiplicity or more.  The
    eigenspaces, or the failure, are the fallback's."""
    rng = random.Random(29)
    failures = 0
    for trial in range(90):
        d = rng.randint(1, 6)
        values = sorted(rng.choice((-3, -2, 0, 1, 3)) for _ in range(d))
        rows = [[values[i] if i == j else 0 for j in range(d)] for i in range(d)]
        for i in range(d - 1):
            if values[i] == values[i + 1] and (trial % 3 == 1 or trial % 3 == 2 and not (
                    i and rows[i - 1][i])):
                rows[i][i + 1] = 1
        y = _conjugate(rng, rows)
        try:
            expected = list(ref_weightfilt.windowed_eigen_decomposition(y).items())
        except NoSolution:
            with pytest.raises(NoSolution, match="^matrix is not semisimple with integer eigenvalues$"):
                integer_eigen_decomposition(y)
            failures += 1
            continue
        assert list(integer_eigen_decomposition(y).items()) == expected
    assert 20 < failures < 60


@pytest.mark.parametrize("blocks", [
    [(-3, 2), (-3, 2), (3, 1)], [(-3, 2), (-3, 2), (-3, 2), (3, 1)],
    [(0, 2), (0, 2), (4, 1), (-4, 1)], [(2, 2), (2, 2), (-2, 1)], [(1, 2), (1, 2), (1, 2)],
], ids=["two-pairs-then-one", "three-pairs-then-one", "zero-pairs", "one-then-pairs", "pairs-only"])
def test_eigen_probe_refuses_repeated_jordan_blocks(blocks):
    """Sums of Jordan blocks (value, size) with several blocks of size 2 at
    one eigenvalue: the eigenvalues left after the others are probed can
    all equal one already probed, whose eigenspace must not count twice."""
    d = sum(size for _, size in blocks)
    rows, i = [[0] * d for _ in range(d)], 0
    for value, size in blocks:
        for j in range(i, i + size):
            rows[j][j] = value
            if j + 1 < i + size:
                rows[j][j + 1] = 1
        i += size
    y = _conjugate(random.Random(d), rows)
    message = "^matrix is not semisimple with integer eigenvalues$"
    with pytest.raises(NoSolution, match=message):
        ref_weightfilt.windowed_eigen_decomposition(y)
    with pytest.raises(NoSolution, match=message):
        integer_eigen_decomposition(y)
    with pytest.raises(NoSolution, match=message):
        weightfilt.y_eigen_decomposition(Mat.zeros(d, d), y)
