"""Oracles for the integer paths of polynomials, Chern samples and metric
blocks.

``MultiPoly`` and ``poly_mat_det`` are checked against the
``Fraction``-coefficient class kept in ``reference_polynomials`` (and
``MultiPoly.evaluate`` against its term-by-term evaluation),
``MultiPoly.value_gradient_hessian`` against ``partial_derivative`` and
``evaluate``, ``chern_form_at`` against the Fraction-by-Fraction formula and
the Hessian-table samples, ``restriction_limit_check`` against the loop over
``Mat`` entries, ``hodge_metric_matrix`` against the entry-by-entry loop and
``stratum_factorization`` against its check of every subset-exponent pattern,
all kept in ``reference_orbit``, and ``hermitian_psd_status`` against the
pivoted LDL kept in ``reference_lmhs``.  The property tests need
hypothesis and are skipped without it; the seeded and fixture tests always
run.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

import reference_lmhs
import reference_orbit
import reference_polynomials
from conftest import direct_sum
from hodgecalc.errors import NoFactorization, NotPolarized, ZeroAtPoint
from hodgecalc.lmhs import (
    PolarizedOrbitSpec, associated_graded_orbit, hermitian_psd_status, hermitian_sign,
)
from hodgecalc.matrices import Mat
from hodgecalc.orbit import (
    MetricPolynomial, chern_form_at, hodge_metric_matrix, hodge_metric_polynomial,
    restriction_limit_check, stratum_factorization,
)
from hodgecalc.polynomials import _ZI, MultiPoly, poly_mat_det, poly_matrix
from hodgecalc.rationals import GaussianRational, ZERO, as_gauss
from hodgecalc.schemas import fixture_names, load_fixture

ORBIT_FIXTURES = [name for name in fixture_names() if load_fixture(name).kind == "orbit"]
I = GaussianRational(0, 1)
BIG = 2 ** 70


def _strategies(st):
    small = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 7]))
    big = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
    part = st.one_of(st.just(Fraction(0)), small, big)
    real = st.one_of(part, st.integers(-3, 3), st.builds(GaussianRational, part))
    gaussian = st.builds(GaussianRational, part, part)
    return part, real, gaussian


# --- MultiPoly.evaluate ------------------------------------------------------

def assert_same_value(poly, xs):
    ours, theirs = poly.evaluate(xs), reference_polynomials.evaluate(poly, xs)
    assert type(ours) is type(theirs), (poly, xs)
    assert ours == theirs, (poly, xs)


def test_evaluate_matches_term_by_term():
    """Real and Gaussian coefficients and points; zero, constant and
    non-homogeneous polynomials; zero and negative coordinates; 2^70
    numerators and denominators."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    _, real, gaussian = _strategies(st)

    @st.composite
    def polys(draw):
        k = draw(st.integers(0, 4))
        coeff = draw(st.sampled_from([real, st.one_of(real, gaussian)]))
        exps = st.tuples(*[st.integers(0, 3)] * k)
        return MultiPoly(k, draw(st.dictionaries(exps, coeff, max_size=6)))

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(polys(), st.data())
    def check(poly, data):
        point = data.draw(st.sampled_from([real, st.one_of(real, gaussian)]))
        assert_same_value(poly, data.draw(st.lists(point, min_size=poly.num_vars,
                                                   max_size=poly.num_vars)))
    check()


def test_evaluate_edge_cases():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    p = x * x * y - x.scale(Fraction(BIG + 1, 3)) + MultiPoly.const(2, I)
    for poly in (MultiPoly.zero(2), MultiPoly.const(2, Fraction(-7, 2)), MultiPoly.const(2, I),
                 p, reference_polynomials.conj(p) * p, x * x + y, MultiPoly.zero(0),
                 MultiPoly.const(0, 5)):
        for xs in ([0, 0], [-1, Fraction(1, BIG)], [Fraction(-BIG, 3), 2], [I, 1],
                   [GaussianRational(1, -2), GaussianRational(Fraction(1, 2))], [1, 1]):
            assert_same_value(poly, xs[:poly.num_vars])
    assert (x * x - y).evaluate([I, -1]) == 0 and type((x * x - y).evaluate([I, -1])) is Fraction
    for bad in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="wrong length"):
            p.evaluate(bad)


@pytest.mark.parametrize("name", ORBIT_FIXTURES)
def test_evaluate_matches_on_hessian_tables(name):
    """Every polynomial that the Chern samples evaluate, at seeded points."""
    spec = load_fixture(name).obj
    rng = random.Random(name)
    for orbit in (spec, direct_sum([spec, spec])):
        table = reference_orbit.hessian_table(hodge_metric_polynomial(orbit))
        polys = [table.p, *table.firsts, *[s for row in table.seconds for s in row]]
        for _ in range(3):
            xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(table.p.num_vars)]
            for poly in polys:
                assert_same_value(poly, xs)


# --- MultiPoly.value_gradient_hessian ----------------------------------------

def assert_same_jet(poly, xs):
    """One walk against `partial_derivative` and `evaluate`, value by value,
    on a real polynomial; a polynomial that is not real is refused before
    any arithmetic."""
    if not poly.is_real():
        with pytest.raises(ValueError, match="^value_gradient_hessian needs a real polynomial$"):
            poly.value_gradient_hessian(xs)
        return
    value, grad, hess, den = poly.value_gradient_hessian(xs)
    k = poly.num_vars
    assert isinstance(den, int) and den > 0
    assert len(grad) == k and [len(row) for row in hess] == list(range(1, k + 1))
    assert all(type(c) is int for c in [value, *grad, *[c for row in hess for c in row]])
    expected = poly.evaluate(xs)
    assert type(expected) is Fraction and Fraction(value, den) == expected, (poly, xs)
    for i in range(k):
        di = poly.partial_derivative(i)
        assert Fraction(grad[i], den) == di.evaluate(xs), (poly, xs, i)
        for j in range(i + 1):
            dij = di.partial_derivative(j)
            assert Fraction(hess[i][j], den) == dij.evaluate(xs), (poly, xs, i, j)


def test_value_gradient_hessian_matches_partials():
    """Real and Gaussian coefficients, a polynomial with a Gaussian one
    refused; zero, constant, one-variable and non-homogeneous polynomials;
    zero and negative coordinates; 2^70 numerators and denominators in the
    coefficients and the point."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    part, real, gaussian = _strategies(st)

    @st.composite
    def polys(draw):
        k = draw(st.integers(0, 4))
        coeff = draw(st.sampled_from([real, st.one_of(real, gaussian)]))
        exps = st.tuples(*[st.integers(0, 4)] * k)
        return MultiPoly(k, draw(st.dictionaries(exps, coeff, max_size=6)))

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(polys(), st.data())
    def check(poly, data):
        point = st.one_of(part, st.integers(-3, 3))
        assert_same_jet(poly, data.draw(st.lists(point, min_size=poly.num_vars,
                                                 max_size=poly.num_vars)))
    check()


def test_value_gradient_hessian_edge_cases():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    p = x * x * y - x.scale(Fraction(BIG + 1, 3)) + MultiPoly.const(2, I)
    t = MultiPoly.variable(1, 0)
    rng = random.Random(19)
    seeded = MultiPoly(3, {tuple(rng.randint(0, 4) for _ in range(3)):
                           Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG)) for _ in range(8)})
    for poly in (MultiPoly.zero(2), MultiPoly.const(2, Fraction(-7, 2)), MultiPoly.const(2, I),
                 p, reference_polynomials.conj(p) * p, x * x + y, x ** 5 * y.scale(BIG) + y ** 3,
                 x.scale(I) * y - y * y):
        for xs in ([0, 0], [-1, Fraction(1, BIG)], [Fraction(-BIG, 3), 2], [1, 0], [BIG, BIG]):
            assert_same_jet(poly, xs)
    for poly in (t, t ** 4 - t.scale(3) + 1, t.scale(I) + t * t, MultiPoly.const(1, 2)):
        for xs in ([0], [Fraction(-5, 7)], [Fraction(BIG, BIG - 1)]):
            assert_same_jet(poly, xs)
    for poly in (MultiPoly.zero(0), MultiPoly.const(0, 5), MultiPoly.const(0, I)):
        assert_same_jet(poly, [])
    for _ in range(20):
        assert_same_jet(seeded, [Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG))
                                 if rng.random() < 0.8 else 0 for _ in range(3)])
    for bad in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="wrong length") as ours:
            p.value_gradient_hessian(bad)
        with pytest.raises(ValueError) as theirs:
            p.evaluate(bad)
        assert str(ours.value) == str(theirs.value)
    with pytest.raises(TypeError, match="real point"):
        p.value_gradient_hessian([I, 1])


# --- MultiPoly arithmetic ----------------------------------------------------

def assert_canonical(p):
    """The stored form is the canonical one of the polynomials module."""
    ring, num, den = p._ring, p._num, p._den
    assert den > 0 and all(map(ring.nonzero, num.values()))
    assert gcd(den, *ring.parts(num.values())) == 1
    assert (ring is _ZI) == any(isinstance(c, GaussianRational) for c in p.terms.values())


def assert_same(ours, theirs):
    """Same coefficients, of the same types, with the keys in the same order."""
    assert_canonical(ours)
    assert ours.num_vars == theirs.num_vars
    assert list(ours.terms.items()) == list(theirs.terms.items()), (ours, theirs.terms)
    assert [type(c) for c in ours.terms.values()] == [type(c) for c in theirs.terms.values()]


def _terms_strategy(st, k, coeff, max_size):
    """Term dicts in k variables of total degree at most 4."""
    exps = st.tuples(*[st.integers(0, 4)] * k).filter(lambda e: sum(e) <= 4)
    return st.dictionaries(exps, coeff, max_size=max_size)


def test_arithmetic_matches_fraction_class():
    """Every operation on random polynomials over Q and Q(i) in up to 4
    variables, against the Fraction-coefficient class."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    _, real, gaussian = _strategies(st)
    scalar = st.one_of(real, gaussian)

    @st.composite
    def pair(draw):
        k = draw(st.integers(0, 4))
        terms = _terms_strategy(st, k, draw(st.sampled_from([real, scalar])), 5)
        return k, draw(terms), draw(terms)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(pair(), st.data())
    def check(drawn, data):
        k, ta, tb = drawn
        p, q = MultiPoly(k, ta), MultiPoly(k, tb)
        rp, rq = reference_polynomials.MultiPoly(k, ta), reference_polynomials.MultiPoly(k, tb)
        assert_same(p, rp)
        assert_same(-p, -rp)
        assert_same(p + q, rp + rq)
        assert_same(p - q, rp - rq)
        assert_same(p * q, rp * rq)
        c = data.draw(scalar)
        assert_same(p.scale(c), rp.scale(c))
        assert_same(reference_polynomials.conj(p), rp.conj())
        for j in range(k):
            assert_same(p.partial_derivative(j), rp.partial_derivative(j))
        weights = data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
        assert_same(p.leading_part_by_weight(weights), rp.leading_part_by_weight(weights))
        new_k = data.draw(st.integers(1, 4))
        mapping = data.draw(st.lists(st.integers(0, new_k - 1), min_size=k, max_size=k))
        assert_same(p.rename_vars(new_k, mapping), rp.rename_vars(new_k, mapping))
        assert_same_value(p, data.draw(st.lists(scalar, min_size=k, max_size=k)))
        assert p.to_json() == rp.to_json()
        assert p.to_string("c") == rp.to_string("c")
        back = (p + q) - q
        assert back == p and hash(back) == hash(p)
    check()


def test_poly_mat_det_matches_fraction_class():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    _, real, gaussian = _strategies(st)

    @st.composite
    def matrix(draw):
        n, k = draw(st.integers(1, 3)), draw(st.integers(0, 3))
        terms = _terms_strategy(st, k, draw(st.sampled_from([real, st.one_of(real, gaussian)])), 3)
        return k, [[draw(terms) for _ in range(n)] for _ in range(n)]

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(matrix())
    def check(drawn):
        k, rows = drawn
        ours = poly_mat_det([[MultiPoly(k, t) for t in row] for row in rows])
        theirs = reference_polynomials.poly_mat_det(
            [[reference_polynomials.MultiPoly(k, t) for t in row] for row in rows])
        assert_same(ours, theirs)
    check()


# --- chern_form_at -------------------------------------------------------------

def assert_same_chern(spec, rng):
    p = hodge_metric_polynomial(spec)
    points = [[1] * p.num_vars] + [[Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                    for _ in range(p.num_vars)] for _ in range(2)]
    for x in points:
        assert chern_form_at(p, x).g == reference_orbit.chern_form_matrix(p.p, x), x
        assert chern_form_at(p, x) == reference_orbit.chern_form_at(p, x), x


@pytest.mark.parametrize("name", ORBIT_FIXTURES)
def test_chern_form_matches_fraction_formula_on_fixtures(name):
    assert_same_chern(load_fixture(name).obj, random.Random(name))


@pytest.mark.parametrize("copies", [2, 3])
def test_chern_form_matches_fraction_formula_on_direct_sums(copies, dollar_bill):
    assert_same_chern(direct_sum([dollar_bill] * copies), random.Random(copies))


def assert_same_outcome(ours, theirs):
    """Equal results, or exceptions of the same type with the same message."""
    try:
        expected = theirs()
    except (ValueError, ZeroAtPoint) as exc:
        with pytest.raises(Exception) as info:
            ours()
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return
    assert ours() == expected


def assert_same_chern_outcome(poly, xs):
    """The outcome of the Hessian table on a real P; a P that is not real is
    refused with the ValueError of `value_gradient_hessian`, even where
    every value is real."""
    if poly.is_real():
        assert_same_outcome(lambda: chern_form_at(poly, xs),
                            lambda: reference_orbit.chern_form_at(poly, xs))
        return
    with pytest.raises(ValueError) as ours:
        chern_form_at(poly, xs)
    with pytest.raises(ValueError) as theirs:
        poly.value_gradient_hessian([Fraction(v) for v in xs])
    assert str(ours.value) == str(theirs.value) == "value_gradient_hessian needs a real polynomial"


def test_chern_form_matches_hessian_table_at_edge_points():
    """Where P vanishes; a non-real P, refused both where a value is not
    real and where it has only real values; a point of the wrong length."""
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    mixed = x * x + (y * y * y).scale(I)
    cases = [(x * y, [0, 1]), (x * x - y * y, [3, 3]), (MultiPoly.zero(2), [1, 1]),
             (mixed, [1, 1]), (mixed, [1, 0]), (mixed, [0, 0]), (x.scale(I) * y + y, [0, 2]),
             (x * y * (x + y), [1, 2]), (x ** 3 + y ** 3, [1, 1]), (x * y, [1]),
             (MultiPoly.const(0, 3), [])]
    for poly, xs in cases:
        assert_same_chern_outcome(poly, xs)
    with pytest.raises(ZeroAtPoint):
        chern_form_at(x * y, [0, 1])


def test_chern_form_matches_hessian_table_on_random_polynomials():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    part, real, gaussian = _strategies(st)

    @st.composite
    def polys(draw):
        k = draw(st.integers(0, 3))
        coeff = draw(st.sampled_from([real, st.one_of(real, gaussian)]))
        return MultiPoly(k, draw(_terms_strategy(st, k, coeff, 5)))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(polys(), st.data())
    def check(poly, data):
        point = st.one_of(st.integers(-3, 3), part)
        assert_same_chern_outcome(poly, data.draw(st.lists(point, min_size=poly.num_vars,
                                                           max_size=poly.num_vars)))
    check()


# --- restriction_limit_check --------------------------------------------------

def _strata(spec):
    k = spec.num_params
    return [list(c) for r in range(1, k) for c in combinations(range(k), r)]


LIMIT_SPECS = [name for name in ORBIT_FIXTURES if load_fixture(name).obj.num_params > 1]
DIM8_SUMS = {"dollar-bill+dollar-bill": ["dollar-bill", "dollar-bill"],
             "dollar-bill+commuting-pair": ["dollar-bill", "commuting-pair"]}


def _limit_spec(name):
    """An orbit fixture, or the direct sum of two named in DIM8_SUMS."""
    if name in DIM8_SUMS:
        return direct_sum([load_fixture(n).obj for n in DIM8_SUMS[name]])
    return load_fixture(name).obj


@pytest.mark.parametrize("name", LIMIT_SPECS + list(DIM8_SUMS))
def test_restriction_limit_matches_reference_on_every_stratum(name):
    spec = _limit_spec(name)
    for subset in _strata(spec):
        assert restriction_limit_check(spec, subset) == \
            reference_orbit.restriction_limit_check(spec, subset), subset


@pytest.mark.parametrize("name", LIMIT_SPECS + ["dollar-bill+dollar-bill"])
def test_restriction_limit_matches_reference_off_defaults(name):
    """Seeded rays and bases, default rays of other seeds, and scales off the
    decades."""
    spec = _limit_spec(name)
    rng = random.Random(name)
    k = spec.num_params
    for subset in rng.sample(_strata(spec), min(4, len(_strata(spec)))):
        m = len(subset)
        rays = [tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m))
                for _ in range(2)]
        base = [Fraction(rng.randint(1, 19), rng.randint(1, 7)) for _ in range(k - m)]
        scales = sorted({Fraction(rng.randint(2, 9), rng.randint(1, 3)) * 7 ** e
                         for e in range(1, 7)})
        for kwargs in ({"rays": rays, "base": base, "scales": scales},
                       {"seed": rng.randint(1, 99), "scales": [3, Fraction(7, 2), 50, 333]},
                       {"rays": rays, "base": base}):
            assert restriction_limit_check(spec, subset, **kwargs) == \
                reference_orbit.restriction_limit_check(spec, subset, **kwargs), (subset, kwargs)


def test_restriction_limit_matches_reference_on_the_exact_zero_case(commuting_pair):
    scales = [Fraction(10) ** e for e in range(1, 5)]
    ours = restriction_limit_check(commuting_pair, [1], scales=scales)
    assert ours == reference_orbit.restriction_limit_check(commuting_pair, [1], scales=scales)
    assert ours.exact_zero and ours.passed and ours.final_max_deviation == 0


# --- stratum_factorization ---------------------------------------------------

def _factorization_outcome(factorize, p, subset, spec):
    try:
        return factorize(p, subset, spec)
    except NoFactorization as exc:
        return NoFactorization, str(exc)


@pytest.mark.parametrize("name", LIMIT_SPECS + list(DIM8_SUMS))
def test_stratum_factorization_matches_pattern_loop_on_every_stratum(name):
    spec = _limit_spec(name)
    p = hodge_metric_polynomial(spec)
    for subset in _strata(spec):
        ours = _factorization_outcome(stratum_factorization, p, subset, spec)
        assert ours == _factorization_outcome(
            reference_orbit.stratum_factorization, p, subset, spec), subset


def _poly(k, *terms):
    return MultiPoly(k, {exp: Fraction(c) for exp, c in terms})


# Leading parts in the subset {x1, x2} that do not factor: two patterns with
# complement parts of different supports, of one support but not
# proportional, and one pattern missing the first one's leading monomial
# (its coefficient there is 0); the last P also has a lower-order remainder.
UNFACTORED = {
    "supports-differ": _poly(3, ((1, 0, 1), 1), ((0, 1, 2), 1)),
    "not-proportional": _poly(4, ((1, 0, 1, 0), 1), ((1, 0, 0, 1), 1),
                              ((0, 1, 1, 0), 1), ((0, 1, 0, 1), 2)),
    "leading-monomial-missing": _poly(4, ((1, 0, 1, 0), 1), ((0, 1, 0, 1), 3),
                                      ((0, 0, 1, 1), 5)),
}


@pytest.mark.parametrize("p", UNFACTORED.values(), ids=UNFACTORED.keys())
def test_stratum_factorization_refuses_like_the_pattern_loop(p):
    metric = MetricPolynomial(p, Fraction(1), p.num_vars, p.total_degree())
    with pytest.raises(NoFactorization) as ours:
        stratum_factorization(metric, [0, 1], None)
    with pytest.raises(NoFactorization) as theirs:
        reference_orbit.stratum_factorization(metric, [0, 1], None)
    assert str(ours.value) == str(theirs.value) == \
        "leading part does not factor into subset and complement parts"


# --- hermitian_psd_status ----------------------------------------------------

def assert_same_status(h):
    before = copy.deepcopy((h._num, h._den))
    ours = hermitian_psd_status(h)
    assert ours == reference_lmhs.hermitian_psd_status(h), h
    assert [type(v) for v in ours] == [bool, int, bool]
    assert (h._num, h._den) == before


def test_psd_status_matches_ldl():
    """Real and Gaussian Hermitian matrices: Gram matrices (positive definite
    or rank-deficient), signed Gram matrices (indefinite), and arbitrary
    Hermitian ones, with 2^70 entries among them."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    part, real, gaussian = _strategies(st)

    @st.composite
    def hermitian(draw):
        n = draw(st.integers(0, 5))
        scalar = draw(st.sampled_from([real, gaussian]))
        if draw(st.booleans()):
            m = draw(st.integers(0, n + 1))
            a = Mat(n, m, draw(st.lists(scalar, min_size=n * m, max_size=n * m)))
            signs = draw(st.lists(st.sampled_from([1, 1, 0, -1]), min_size=m, max_size=m))
            return a @ Mat.diag(signs) @ a.conj_transpose()
        rows = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = as_gauss(draw(part))
            for j in range(i + 1, n):
                rows[i][j] = as_gauss(draw(scalar))
                rows[j][i] = rows[i][j].conj()
        return Mat.from_rows(rows) if n else Mat.zeros(0, 0)

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(hermitian())
    def check(h):
        assert_same_status(h)
    check()


@pytest.mark.parametrize("rows,status", [
    ([], (True, 0, True)),
    ([[-1]], (False, 0, False)),
    ([[0]], (True, 0, False)),
    ([[0, 1], [1, 0]], (False, 0, False)),
    ([[0, I], [-I, 0]], (False, 0, False)),
    ([[1, 0, 1], [0, 0, 0], [1, 0, 1]], (True, 1, False)),
    ([[2, I], [-I, 2]], (True, 2, True)),
    ([[1, 1], [1, -1]], (False, 0, False)),
    ([[1, 1], [1, 0]], (False, 1, False)),
    ([[BIG, BIG ** 2], [BIG ** 2, BIG ** 3]], (True, 1, False)),
    ([[Fraction(1, BIG), 1], [1, BIG + 1]], (True, 2, True)),
    # a row with a zero in the pivot column is still scaled by the pivot, or
    # the next step's exact division fails: the last pivot here is det = 1
    ([[10, 0, 3], [0, 1, 1], [3, 1, 2]], (True, 3, True)),
    ([[1, GaussianRational(BIG, 1)], [GaussianRational(BIG, -1), BIG ** 2]], (False, 1, False)),
])
def test_psd_status_cases(rows, status):
    h = Mat.from_rows(rows) if rows else Mat.zeros(0, 0)
    assert hermitian_psd_status(h) == status
    assert_same_status(h)


def test_psd_status_rejects_a_non_real_diagonal():
    for rows in ([[I]], [[1, 0], [0, GaussianRational(2, 1)]]):
        h = Mat.from_rows(rows)
        for status in (hermitian_psd_status, reference_lmhs.hermitian_psd_status):
            with pytest.raises(ValueError, match="not Hermitian"):
                status(h)


# --- poly_matrix --------------------------------------------------------------

def assert_same_poly_matrix(k, coeffs):
    """poly_matrix against MultiPoly(k, {e: c[a, b]}), entry by entry."""
    shape = next(iter(coeffs.values()))
    ours = poly_matrix(k, coeffs)
    theirs = [[MultiPoly(k, {e: c[a, b] for e, c in coeffs.items()}) for b in range(shape.cols)]
              for a in range(shape.rows)]
    assert ours == theirs
    assert [list(map(hash, row)) for row in ours] == [list(map(hash, row)) for row in theirs]
    for row in ours:
        for p in row:
            assert_canonical(p)


def _coefficient_matrix(rng, rows, cols, gaussian):
    """A seeded matrix with zero entries, entries of 2^70 and its own
    denominator in each row; non-real entries only when gaussian."""
    out = []
    for _ in range(rows):
        den = rng.choice([1, 2, 3, 7, BIG + 1])
        row = []
        for _ in range(cols):
            re = Fraction(rng.choice([0, 0, 1, -3, BIG, -BIG, rng.randint(-9, 9)]), den)
            im = rng.choice([0, 1, -2, BIG, Fraction(1, den)]) if gaussian else 0
            row.append(GaussianRational(re, im))
        out.append(row)
    return Mat.from_rows(out)


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 1), (2, 3), (4, 4)])
def test_poly_matrix_matches_entry_loop(shape):
    """Real stacks, Gaussian stacks, and Z[i] stacks in which only the first
    matrix is Gaussian, so that some entries of the stack are real."""
    rng = random.Random(31 * shape[0] + shape[1])
    for k in (1, 2, 3):
        for trial in range(6):
            exps = {tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(rng.randint(1, 4))}
            kind = trial % 3            # 0 real, 1 Gaussian, 2 only the first Gaussian
            coeffs = {e: _coefficient_matrix(rng, *shape, kind == 1 or (kind == 2 and not i))
                      for i, e in enumerate(exps)}
            assert_same_poly_matrix(k, coeffs)


def test_poly_matrix_on_a_hand_built_stack():
    """A Z[i] stack whose entry (0, 1) is real and whose entry (1, 0) is zero
    in every matrix, with a zero coefficient matrix among them."""
    coeffs = {(1, 0): Mat.from_rows([[I, Fraction(1, 2)], [0, BIG]]),
              (0, 1): Mat.from_rows([[Fraction(1, 3), 3], [0, Fraction(1, BIG)]]),
              (1, 1): Mat.zeros(2, 2)}
    assert_same_poly_matrix(2, coeffs)
    mat = poly_matrix(2, coeffs)
    assert not mat[0][0].is_real() and mat[0][1].is_real() and mat[1][0].is_zero()
    assert str(mat[0][1]) == "1/2*x1 + 3*x2"


@pytest.mark.parametrize("shapes", [[], [(2, 3), (3, 2)], [(2, 3), (2, 2)], [(1, 0), (0, 1)]])
def test_poly_matrix_needs_matrices_of_one_shape(shapes):
    coeffs = {(j,): Mat.zeros(*shape) for j, shape in enumerate(shapes)}
    with pytest.raises(ValueError, match="one shape"):
        poly_matrix(1, coeffs)


# --- hodge_metric_matrix ------------------------------------------------------

def assert_same_blocks(spec, validate=True):
    ours = hodge_metric_matrix(spec, validate=validate)
    theirs = reference_orbit.hodge_metric_matrix(spec, validate=validate)
    assert ours.num_vars == theirs.num_vars
    assert [(i, frame) for i, frame, _ in ours.blocks] == [(i, frame) for i, frame, _ in theirs.blocks]
    assert [mat for _, _, mat in ours.blocks] == [mat for _, _, mat in theirs.blocks]


def _with_pieces(spec):
    """The orbit of every piece of every stratum of spec."""
    pieces = []
    for r in range(1, spec.num_params + 1):
        for subset in combinations(range(spec.num_params), r):
            pieces += [piece.orbit for piece in associated_graded_orbit(spec, subset)]
    return pieces


@pytest.mark.parametrize("name", ORBIT_FIXTURES)
def test_metric_matrix_matches_entry_loop_on_fixtures(name):
    spec = load_fixture(name).obj
    assert_same_blocks(spec)
    for orbit in _with_pieces(spec):
        assert_same_blocks(orbit, validate=False)


@pytest.mark.parametrize("copies", [2, 3])
def test_metric_matrix_matches_entry_loop_on_direct_sums(copies, dollar_bill):
    spec = direct_sum([dollar_bill] * copies)
    assert_same_blocks(spec)
    for orbit in _with_pieces(spec):
        assert_same_blocks(orbit, validate=False)


def test_metric_matrix_multinomials_on_a_mixed_monomial():
    """Weight 2 with N_2 = 2 N_1: block 2 is (x1 + 2 x2)^2, whose x1 x2
    coefficient carries the multinomial 2!/(1! 1!) = 2."""
    tate = load_fixture("weight2-tate-degeneration").obj
    n = tate.nilpotents[0]
    spec = PolarizedOrbitSpec(tate.dim, tate.weight, tate.q, (n, n.scale(2)), tate.flag)
    assert_same_blocks(spec)
    (_, _, mat), = hodge_metric_matrix(spec).blocks
    assert str(mat[0][0]) == "x1^2 + 4*x1*x2 + 4*x2^2"


def test_metric_matrix_rejects_a_non_hermitian_block():
    """pure-elliptic with a symmetric Q: the level-0 block is i times a
    Hermitian matrix."""
    pure = load_fixture("pure-elliptic").obj
    spec = PolarizedOrbitSpec(pure.dim, pure.weight, Mat.identity(2), pure.nilpotents, pure.flag)
    for metric in (hodge_metric_matrix, reference_orbit.hodge_metric_matrix):
        with pytest.raises(NotPolarized, match="not Hermitian"):
            metric(spec, validate=False)


def test_metric_coefficients_use_transposed_nilpotents(dollar_bill):
    """The coefficient of x_j in block 1 is unit F N_j^T Q conj(F)^T; with
    N_j in place of N_j^T the answer differs, so the orientation is pinned."""
    (_, frame, mat), = hodge_metric_matrix(dollar_bill).blocks
    right, unit = dollar_bill.q @ frame.conj_transpose(), hermitian_sign(1, 1, 1)
    for j, nj in enumerate(dollar_bill.nilpotents):
        exp = tuple(int(v == j) for v in range(3))
        coefficient = Mat.from_rows([[entry.terms.get(exp, 0) for entry in row] for row in mat])
        assert coefficient == (frame @ nj.transpose() @ right).scale(unit)
        assert coefficient != (frame @ nj @ right).scale(unit)
